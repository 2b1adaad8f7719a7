"""Heilbronn families: determinant-eta matrices driving the Hecke action.

For each canonical divisor delta of eta and each minimal-norm residue beta
below delta, a division chain starting from (delta, beta) produces a run of
matrices of determinant eta; the run for beta = 0 is the single diagonal
matrix.  Because the beta are global norm minimizers in their classes, the
chain quotients are never units and the top-right norms strictly decrease,
so every run terminates in a matrix with top-right entry zero.

A family is an (n, 8) int64 array of rows (a.a, a.b, b.a, b.b, c.a, c.b,
d.a, d.b).  heilbronn_families builds the families of a batch of etas in
one pass, on int64 arrays throughout, with _divide_arrays (which the tests
hold against quadints.divide_ints) as its one division step.
_residue_boxes divides the Hermite box of every distinct divisor of the
batch by its divisor at once, and sorts each divisor's remainders into its
betas; the (delta, beta, cof) start of every chain is gathered from them
by index.  _chains then runs every chain of the batch in lockstep, one
division step per round.  The Euclidean bound, N(delta) distinct residues
per divisor, the unit quotients, the decreasing norms and the determinant
of every row are checked on the arrays; a failed invariant raises
InvariantError naming delta (and beta, in a chain) and d, which survives
python -O.  Before any of it, family_divisors refuses an eta whose family
starts more than START_LIMIT chains.  heilbronn_family is the lru-cached
batch of one, as a tuple of 8-int tuples, and Mat2.from_row turns a row
back into a matrix where the certificates need one.

Grouped by unimodular equivalence (M ~ M' when adj(M') M / eta lies in
SL2(O)), the cusp paths of each class chain from oo to 0; that telescoping
is the correctness certificate checked by the tests.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .quadints import (
    Field,
    InvariantError,
    QuadInt,
    divisors_up_to_units,
    exact_div,
    hnf_module,
    reduce_mod,
    xgcd,
)
from .symbols import Mat2, normalize_cusp


# The tie rule of the family that Hecke operators and coefficient tables
# use.  Every family that passes the telescoping certificate gives the same
# operator on the symbol quotient (Merel's condition), so this only fixes
# one.  Callers pass it positionally, as the certificates pass theirs:
# lru_cache keys heilbronn_family(eta) and heilbronn_family(eta, "low") apart.
DEFAULT_TIE = "low"

# The largest norm of eta whose family the int64 kernel builds exactly.  For a
# family of eta, a top-row entry x has |x| <= |delta| <= |eta|, a chain
# quotient |q| <= |eta| + |1| + |omega| < 4 |eta|, and a bottom-row entry is
# cof times a continuant s_k of the chain with |s_k| |x_{k-1}| <=
# |delta| / (1 - sqrt(euclid_ratio)), so |y| <= 11 |eta| in every field
# (euclid_ratio <= 9/11).  A coordinate of z is at most 2 |z|.  The largest
# products, a bottom-row coordinate times a quotient coordinate times m in
# the chain step and a top-row coordinate times a bottom-row one times m in
# the determinant check, are then below 3 * 22 * 8 N(eta), and no sum the
# kernel forms reaches 1024 N(eta).  No refusal needs it: START_LIMIT,
# which the tests hold below it, refuses every larger norm first.
NORM_LIMIT = np.iinfo(np.int64).max // 1024

# The most division chains the family of one eta may start: the sum of
# N(delta) over the divisors delta of eta, at least N(eta) + 1 for a
# non-unit.  family_divisors refuses an eta whose family starts more.
# Memory grows with the starts.  At d = 1, eta = 400+w (norm 160,001,
# prime), the 160,002 starts make 1,086,142 rows (6.8 a start) in 0.4 s at
# a peak RSS of 292 MB, 265 MB above the interpreter's: about 1.7 KB a
# start.  The heilbronn command, which also
# writes every matrix out as JSON, took 60 MB above the interpreter's for
# the 10,212 starts of 100+w: about 6 KB a start (2 cores, Python 3.11.7,
# numpy 2.4.6).  So a family at the limit stays near 340 MB, and the
# heilbronn command near 1.2 GB.
START_LIMIT = 200_000

# the four floor/ceil corners of a quotient in ascending (qa, qb) order
_CORNER_A = np.array([[0], [0], [1], [1]], dtype=np.int64)
_CORNER_B = np.array([[0], [1], [0], [1]], dtype=np.int64)


def _divide_arrays(fld: Field, aa, ab, ba, bb, tie: str):
    """quadints.divide_ints on int64 arrays: (qa, qb, ra, rb, rn), rn = N(r).

    All four floor/ceil corners are tried.  divide_ints skips a corner past
    a coordinate of the exact quotient that is an integer, but such a corner
    never wins nor ties: its N(r) exceeds that of the tried corner with the
    same other coordinate by N(b) times 1 - t*s, 1 + t*(1 - s), m - t*s or
    m + t*(1 - s), where 0 <= s < 1 is the fractional part of the other
    coordinate.  "low" keeps the first strict minimum of N(r) in ascending
    (qa, qb), "high" the last.  The Euclidean bound is left to the caller,
    which names the chain that breaks it.
    """
    t, m = fld.t, fld.m
    den = ba * ba + t * ba * bb + m * bb * bb
    ct = ba + t * bb
    qa = (aa * ct + m * ab * bb) // den + _CORNER_A
    qb = (ab * ct - aa * bb - t * ab * bb) // den + _CORNER_B
    qbb = qb * bb
    ra = aa - qa * ba + m * qbb
    rb = ab - qa * bb - qb * ba - t * qbb
    rn = ra * ra + t * ra * rb + m * rb * rb
    pick = rn.argmin(axis=0) if tie == "low" else 3 - rn[::-1].argmin(axis=0)
    return tuple(np.stack([qa, qb, ra, rb, rn])[:, pick, np.arange(len(pick))])


def _chain_name(fld: Field, start) -> str:
    da, db, ba, bb = (int(v) for v in start[:4])
    return f"(delta, beta) = ({QuadInt(fld, da, db)}, {QuadInt(fld, ba, bb)}), d={fld.d}"


def _chains(fld: Field, starts, tie: str) -> tuple[np.ndarray, np.ndarray]:
    """Run the division chains of starts in lockstep: (rows, lengths).

    starts holds one (delta.a, delta.b, beta.a, beta.b, cof.a, cof.b) row
    per chain.  A chain's rows [[x0, x1], [y0, y1]] start from
    [[delta, beta], [0, cof]] and step by x2 = x1*q - x0, which is minus the
    remainder of x0 by x1, and y2 = y1*q - y0, until x1 = 0.  rows is the
    (n, 8) int64 array of every chain's rows, chain after chain and step
    after step; lengths holds the number of rows of each chain.  A quotient
    past the Euclidean bound, a unit quotient or a remainder norm that does
    not decrease raises InvariantError for the first such chain.
    """
    starts = np.asarray(starts, dtype=np.int64).reshape(-1, 6)
    t, m = fld.t, fld.m
    num, dnm = fld.euclid_bound
    # one column per live chain: its row x0a, x0b, x1a, x1b, y0a, y0b, y1a,
    # y1b, then N(x1) and the chain's index
    state = np.zeros((10, len(starts)), dtype=np.int64)
    state[[0, 1, 2, 3, 6, 7]] = starts.T
    x1a, x1b = state[2:4]
    state[8] = x1a * x1a + t * x1a * x1b + m * x1b * x1b
    state[9] = np.arange(len(starts))
    steps = []
    while True:
        steps.append(state)
        state = state[:, state[8] != 0]
        if not state.shape[1]:
            break
        x0a, x0b, x1a, x1b, y0a, y0b, y1a, y1b, n1, chain = state
        qa, qb, ra, rb, n2 = _divide_arrays(fld, x0a, x0b, x1a, x1b, tie)
        over = n2 * dnm > num * n1
        unit = qa * qa + t * qa * qb + m * qb * qb == 1
        grows = (n2 != 0) & (n2 >= n1)
        bad = over | unit | grows
        if bad.any():
            i = int(np.argmax(bad))
            where = _chain_name(fld, starts[chain[i]])
            if over[i]:
                raise InvariantError(f"remainder norm {n2[i]} exceeds the Euclidean bound "
                                     f"for the divisor norm {n1[i]} at {where}")
            if unit[i]:
                raise InvariantError(f"unit chain quotient at {where}")
            raise InvariantError(f"chain norms failed to decrease at {where}: "
                                 f"{n1[i]} -> {n2[i]}")
        qbb = y1b * qb
        state = np.stack([x1a, x1b, -ra, -rb, y1a, y1b, y1a * qa - m * qbb - y0a,
                          y1a * qb + y1b * qa + t * qbb - y0b, n2, chain])
    # steps hold each chain's rows in step order, so a stable sort on the
    # chain index puts them chain after chain
    every = np.concatenate(steps, axis=1)
    order = np.argsort(every[9], kind="stable")
    return every[:8, order].T, np.bincount(every[9], minlength=len(starts))


def _residue_boxes(fld: Field, deltas: Sequence[QuadInt], tie: str):
    """The minimal residues below each delta: (offsets, ra, rb).

    Every delta's Hermite box (hnf_module's e11 by e22 grid) goes through
    one _divide_arrays pass, and each remainder is the representative of its
    class: it attains the minimal norm over the class.  Delta j's residues
    are ra, rb[offsets[j]:offsets[j + 1]], sorted by (norm, a, b).  A
    remainder past the Euclidean bound, or a delta without N(delta) distinct
    remainders, raises InvariantError naming delta and d.
    """
    e11, e22 = np.array([hnf_module(delta)[::2] for delta in deltas], dtype=np.int64).T
    sizes = e11 * e22  # N(delta): hnf_module checks the index
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    owner = np.repeat(np.arange(len(deltas)), sizes)
    local = np.arange(offsets[-1]) - offsets[owner]
    span = e22[owner]
    da, db = np.array([(delta.a, delta.b) for delta in deltas], dtype=np.int64)[owner].T
    _, _, ra, rb, rn = _divide_arrays(fld, local // span, local % span, da, db, tie)
    num, dnm = fld.euclid_bound
    over = rn * dnm > num * sizes[owner]
    if over.any():
        i = int(np.argmax(over))
        delta = deltas[owner[i]]
        raise InvariantError(f"remainder norm {rn[i]} exceeds the Euclidean bound for the "
                             f"divisor norm {delta.norm()} at delta = {delta}, d={fld.d}")
    # owner is the primary key, and it is already ascending
    order = np.lexsort((rb, ra, rn, owner))
    ra, rb = ra[order], rb[order]
    # equal remainders of one delta are now adjacent
    same = (ra[1:] == ra[:-1]) & (rb[1:] == rb[:-1]) & (owner[1:] == owner[:-1])
    if same.any():
        j = owner[int(np.argmax(same))]
        distinct = sizes[j] - int(same[offsets[j]:offsets[j + 1] - 1].sum())
        raise InvariantError(f"{distinct} distinct remainders mod {deltas[j]}, not "
                             f"{sizes[j]} (d={fld.d})")
    return offsets, ra, rb


def family_divisors(etas: Sequence[QuadInt]) -> list[list[QuadInt]]:
    """The canonical divisors of each eta, once its family is known to fit.

    The family of eta starts one chain from each residue below each divisor
    delta, sum N(delta) starts in all.  Zero, and an eta with more than
    START_LIMIT starts, raise ValueError before any array is allocated (and,
    when the norm alone shows it, before eta is factored).
    """
    divisors = []
    for eta in etas:
        if eta.is_zero():
            raise ValueError("determinant must be nonzero")
        # a non-unit eta has the divisors 1 and eta: N(eta) + 1 starts at least
        starts = eta.norm() + (not eta.is_unit())
        least = starts > START_LIMIT
        if not least:
            divisors.append(divisors_up_to_units(eta))
            starts = sum(delta.norm() for delta in divisors[-1])
        if starts > START_LIMIT:
            raise ValueError(f"the family of {eta} starts {'at least ' * least}{starts} "
                             f"division chains, above the {START_LIMIT} admitted "
                             f"(d={eta.field.d})")
    return divisors


def heilbronn_families(etas: Sequence[QuadInt], tie: str = DEFAULT_TIE) -> list[np.ndarray]:
    """The determinant-eta family of every eta, as one (n, 8) int64 array each.

    The rows of a family come in (divisor, beta, step) order.  The etas are
    checked by family_divisors first.  Then the residues beta below the
    distinct divisors of the batch come from one _residue_boxes call, the
    (delta, beta, cof) start of every chain is gathered from them by index,
    and every chain runs in one _chains call.
    """
    divisors = family_divisors(etas)
    if not etas:
        return []
    fld = etas[0].field
    sizes = [sum(delta.norm() for delta in divs) for divs in divisors]
    deltas = list(dict.fromkeys(delta for divs in divisors for delta in divs))
    offsets, box_a, box_b = _residue_boxes(fld, deltas, tie)
    # one (eta, delta) pair after another, in family order: the pair's box,
    # and its delta and cofactor, repeated over the box into the starts
    pairs = [(delta, exact_div(eta, delta)) for eta, divs in zip(etas, divisors)
             for delta in divs]
    where = {delta: j for j, delta in enumerate(deltas)}
    box = np.array([where[delta] for delta, _ in pairs], dtype=np.int64)
    outer = np.array([(delta.a, delta.b, cof.a, cof.b) for delta, cof in pairs],
                     dtype=np.int64)
    counts = offsets[box + 1] - offsets[box]
    of_pair = np.repeat(np.arange(len(pairs)), counts)
    beta = np.arange(counts.sum()) + (offsets[box] - np.cumsum(counts) + counts)[of_pair]
    starts = np.column_stack([outer[of_pair, :2], box_a[beta], box_b[beta], outer[of_pair, 2:]])
    rows, lengths = _chains(fld, starts, tie)
    t, m = fld.t, fld.m
    # a*d - b*c, with omega^2 = t*omega - m, against each row's eta
    aa, ab, ba, bb, ca, cb, da, db = rows.T
    abd, bbc = ab * db, bb * cb
    want = np.repeat(np.repeat([(eta.a, eta.b) for eta in etas], sizes, axis=0),
                     lengths, axis=0)
    bad = ((aa * da - m * abd - ba * ca + m * bbc != want[:, 0])
           | (aa * db + ab * da + t * abd - ba * cb - bb * ca - t * bbc != want[:, 1]))
    ends = np.cumsum(lengths)
    if bad.any():
        i = int(np.argmax(bad))
        chain = int(np.searchsorted(ends, i, side="right"))
        eta = QuadInt(fld, *want[i].tolist())
        raise InvariantError(f"family row {tuple(rows[i].tolist())} has determinant other "
                             f"than {eta} at {_chain_name(fld, starts[chain])}")
    return np.split(rows, ends[np.cumsum(sizes[:-1], dtype=np.int64) - 1])


@lru_cache(maxsize=128)
def heilbronn_family(eta: QuadInt, tie: str = DEFAULT_TIE) -> tuple[tuple[int, ...], ...]:
    """The full determinant-eta family as 8-int rows, in deterministic order.

    heilbronn_families([eta], tie) as a tuple of Python-int tuples.  For a
    unit u, heilbronn_family(u*eta) is heilbronn_family(eta) row for row
    with the bottom-row entries c and d multiplied by u: u*eta has the same
    divisors and residues, a chain's top rows depend only on delta and
    beta, and its bottom rows are linear in the cofactor, which becomes
    u*cof.  fourier_coefficients builds only the canonical families, in
    batches through heilbronn_families, and keeps none of them here.
    """
    return tuple(map(tuple, heilbronn_families([eta], tie)[0].tolist()))


@lru_cache(maxsize=128)
def heilbronn_classes(eta: QuadInt, tie: str = DEFAULT_TIE) -> tuple[tuple[int, ...], ...]:
    """Partition of the family into unimodular classes (index tuples).

    M ~ M' when adj(M) M' / eta is integral; both determinants are eta, so
    that quotient lies in SL2(O) and the classes are the orbits M SL2(O),
    told apart by the column lattice M O^2.  With a x + b y = g, g the
    canonical gcd of the top row, the column operation
    [[x, -b/g], [y, a/g]] in SL2(O) takes M to [[g, 0], [e, eta/g]] with
    e = c x + d y, and e is fixed mod eta/g.  So (g, e reduced mod eta/g)
    is one key per class.  Classes come in order of their first row, and
    each lists its rows in family order.
    """
    fld = eta.field
    classes: dict = {}
    for i, (aa, ab, ba, bb, ca, cb, da, db) in enumerate(heilbronn_family(eta, tie)):
        g, x, y = xgcd(QuadInt(fld, aa, ab), QuadInt(fld, ba, bb))
        e = QuadInt(fld, ca, cb) * x + QuadInt(fld, da, db) * y
        classes.setdefault((g, reduce_mod(e, exact_div(eta, g))), []).append(i)
    return tuple(map(tuple, classes.values()))


def class_path_sums(eta: QuadInt, tie: str = DEFAULT_TIE, family=None) -> list[dict]:
    """Formal cusp sums sum([M oo] - [M 0]) for each class.

    A correct family telescopes each class to [oo] - [0].  The partition
    into classes is always that of heilbronn_family(eta, tie); family, when
    given, supplies the rows summed in its place, so that a corrupted copy
    can be put through the same certificate.
    """
    fam = heilbronn_family(eta, tie) if family is None else family
    sums = []
    for cls in heilbronn_classes(eta, tie):
        total: dict = {}
        for i in cls:
            m = Mat2.from_row(eta.field, fam[i])
            top = normalize_cusp(m.a, m.c)
            bot = normalize_cusp(m.b, m.d)
            total[top] = total.get(top, 0) + 1
            total[bot] = total.get(bot, 0) - 1
        sums.append({k: v for k, v in total.items() if v})
    return sums


def telescoping_ok(eta: QuadInt, tie: str = DEFAULT_TIE) -> bool:
    """Check the certificate: every class path sum equals [oo] - [0]."""
    fld = eta.field
    inf = normalize_cusp(fld.one, fld.zero)
    zero = normalize_cusp(fld.zero, fld.one)
    return all(s == {inf: 1, zero: -1} for s in class_path_sums(eta, tie))
