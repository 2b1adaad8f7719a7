"""Weight-k modular symbol spaces for the Euclidean Bianchi groups.

Generators are unimodular pairs (u, v) mod the level, found by a sieve over
the primes of the level on int arrays of Hermite-box codes; a space keeps
its points as those arrays and builds QuadInt pairs only where a caller
reads them.  A level with more than POINT_LIMIT points is refused from the
point-count formula before any point work.  The space is cut out by the
edge relations of the tessellation of hyperbolic 3-space: the two-term S
and J identifications, the universal triangle relation, and one extra
polygon relation per field (none for d = 3, a triangle for d = 1, squares
for d = 2 and 7, a hexagon for d = 11).  Points are moved by matrices,
given as 8-int rows (Mat2.row), as plain-int Hermite-box codes in one
kernel, SymbolSpace.act_points, the only point move that does arithmetic:
the builds, the Hecke operators and the Fourier layer move many points
through many rows in one call and work on the int arrays it returns.  A
build moves its points once, through J, the cusp moves and the few steps
between consecutive word matrices, and composes every word matrix's image
from those by gathers.  The two-term relations say that a symbol at i*g is
a unit times one at i for g in the group generated by S and J (+-1 at
weight 2; at weight k the symbol's coefficient is multiplied by a unit and
its monomial moved), so their classes are the orbits of that group, found
with the cusp orbits by one numpy kernel, _orbit_roots, with no rows; the
rest become integer rows on the classes' free columns (at weight 2 with
repeats up to sign dropped, and a word of powers of one step taken at one
point per orbit of the step) for the sparse row reduction in
linalg.rref_ints.  slash_tensor gives the weight-k slash coefficients of
many matrices in one numpy pass.  Both builds end in one tail: the
distinct word rows, their reduction, and the quotient map, a QuotientMap
of one form at every weight: each generator's stage-1 terms on the
classes' free columns, and stage 2's int64 matrix over one denominator,
which the Hecke operators read by gathers.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

import numpy as np

from .linalg import INT64_MAX, absmax, check_int64, rref_ints, vec_axpy
from .quadints import (
    EUCLIDEAN_D,
    Field,
    InvariantError,
    QuadInt,
    canonical_associate,
    divides,
    euclidean_division,
    exact_div,
    factorize,
    gcd,
    hnf_module,
    reduce_mod,
    residues_mod,
    xgcd,
)


class Mat2:
    """2x2 matrix [[a, b], [c, d]] over a quadratic ring."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: QuadInt, b: QuadInt, c: QuadInt, d: QuadInt) -> None:
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls, fld: Field) -> Mat2:
        return cls(fld.one, fld.zero, fld.zero, fld.one)

    @classmethod
    def from_row(cls, fld: Field, row: tuple[int, ...]) -> Mat2:
        """The matrix of an 8-int row (a.a, a.b, b.a, b.b, c.a, c.b, d.a, d.b)."""
        aa, ab, ba, bb, ca, cb, da, db = row
        return cls(QuadInt(fld, aa, ab), QuadInt(fld, ba, bb),
                   QuadInt(fld, ca, cb), QuadInt(fld, da, db))

    def row(self) -> tuple[int, ...]:
        """The 8-int row that act_points, slash_tensor and the Heilbronn families use."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return (a.a, a.b, b.a, b.b, c.a, c.b, d.a, d.b)

    @property
    def field(self) -> Field:
        return self.a.field

    def __mul__(self, o: Mat2) -> Mat2:
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def det(self) -> QuadInt:
        return self.a * self.d - self.b * self.c

    def adj(self) -> Mat2:
        return Mat2(self.d, -self.b, -self.c, self.a)

    def inv_unit(self) -> Mat2:
        """Inverse; the determinant must be a unit."""
        dt = self.det()
        if not dt.is_unit():
            raise InvariantError(f"{self!r} has determinant {dt}, not a unit")
        di = dt.conj()
        return Mat2(self.d * di, -self.b * di, -self.c * di, self.a * di)

    def act_cusp(self, p: QuadInt, q: QuadInt) -> tuple[QuadInt, QuadInt]:
        """M * (p, q)^T, the Moebius action on a cusp column."""
        return self.a * p + self.b * q, self.c * p + self.d * q

    def entries(self) -> tuple[QuadInt, QuadInt, QuadInt, QuadInt]:
        return self.a, self.b, self.c, self.d

    def __eq__(self, o: object) -> bool:
        if not isinstance(o, Mat2):
            return NotImplemented
        return self.entries() == o.entries()

    def __hash__(self) -> int:
        return hash(self.entries())

    def __repr__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def relation_words(fld: Field) -> tuple[list[list[Mat2]], Mat2]:
    """Right-action relation words (each list sums to zero) plus the J twist.

    Every word list traces the edges of a closed polygon of unimodular paths,
    so the corresponding sum of symbols vanishes for every weight.  Each
    word starts at the identity; the first is [I, S].
    """
    one, zero, w = fld.one, fld.zero, fld.omega
    i2 = fld.from_int(2)
    S = Mat2(zero, -one, one, zero)
    TS = Mat2(one, -one, one, zero)
    eye = Mat2.identity(fld)
    words = [[eye, S], [eye, TS, TS * TS]]
    if fld.d == 1:
        X = Mat2(w, one, one, zero)
        words.append([eye, X, X * X])
    elif fld.d == 2:
        V = Mat2(zero, one, one, -w)
        words.append([eye, V, V * V, V * V * V])
    elif fld.d == 7:
        words.append([
            eye,
            Mat2(w, -one, one, zero),
            Mat2(-one, w, w - one, one),
            Mat2(zero, one, -one, one - w),
        ])
    elif fld.d == 11:
        words.append([
            eye,
            Mat2(w, -one, one, zero),
            Mat2(-i2, w, w - one, one),
            Mat2(-w, i2, -i2, one - w),
            Mat2(-one, w, w - one, i2),
            Mat2(zero, one, -one, one - w),
        ])
    eps = fld.units[2] if fld.d in (1, 3) else -one
    J = Mat2(eps, zero, zero, one)
    return words, J


@lru_cache(maxsize=len(EUCLIDEAN_D))
def _word_steps(fld: Field) -> tuple[tuple[Mat2, ...], ...]:
    """The steps w[k-1]^-1 * w[k] between consecutive matrices of each
    relation word of the field, word by word."""
    words, _ = relation_words(fld)
    return tuple(tuple(a.inv_unit() * b for a, b in zip(word, word[1:])) for word in words)


def _pmul(u: list[QuadInt], v: list[QuadInt], fld: Field) -> list[QuadInt]:
    out = [fld.zero] * (len(u) + len(v) - 1)
    for i, ci in enumerate(u):
        if ci.is_zero():
            continue
        for j, cj in enumerate(v):
            out[i + j] = out[i + j] + ci * cj
    return out


def _pmul_arrays(u: tuple[np.ndarray, np.ndarray], v: tuple[np.ndarray, np.ndarray],
                 t: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    # _pmul on many polynomials at once, on (a, b) pairs standing for
    # a + b*omega, omega^2 = t*omega - m: (1-parts, omega-parts), each a
    # (polynomials, degree + 1) array of u's dtype, int64 or object
    (ua, ub), (va, vb) = u, v
    width = va.shape[1]
    out_a = np.zeros((len(ua), ua.shape[1] + width - 1), dtype=ua.dtype)
    out_b = np.zeros_like(out_a)
    for i in range(ua.shape[1]):
        p, q = ua[:, i, None], ub[:, i, None]
        qs = q * vb
        out_a[:, i:i + width] += p * va - m * qs
        out_b[:, i:i + width] += p * vb + q * va + t * qs
    return out_a, out_b


@lru_cache(maxsize=64)
def _slash_reach(deg: int, t: int, m: int) -> int:
    """A bound on every value slash_tensor forms from rows of entries up to 1
    in absolute value (times e**deg up to e: the values are homogeneous of
    degree deg): its recurrence on magnitudes, every term counted positive
    (_pmul_arrays with -m on Python ints), where the linear forms have the
    magnitudes (1, 1), the powers only grow, and the omega multiple of
    a + b*omega grows a part by at most 1 + t + m."""
    lin = (np.ones((1, 2), dtype=object),) * 2
    power = (np.ones((1, 1), dtype=object), np.zeros((1, 1), dtype=object))
    for _ in range(deg):
        power = _pmul_arrays(power, lin, t, -m)
    return (1 + t + m) * max(power[0].max(), power[1].max())


def slash_poly(poly: dict[int, QuadInt], g: Mat2, weight: int) -> dict[int, QuadInt]:
    """P|_g = P(d*X - b*Y, -c*X + a*Y) on homogeneous degree weight-2 dicts.

    Polynomials are {X-exponent: coefficient}; the composition rule is
    (P|_g)|_h = P|_(hg).
    """
    deg = weight - 2
    if deg == 0:
        return dict(poly)
    fld = g.field
    l1 = [-g.b, g.d]  # image of X, as [Y-part, X-part]
    l2 = [g.a, -g.c]  # image of Y
    pows1, pows2 = [[fld.one]], [[fld.one]]
    for _ in range(deg):
        pows1.append(_pmul(pows1[-1], l1, fld))
        pows2.append(_pmul(pows2[-1], l2, fld))
    out = [fld.zero] * (deg + 1)
    for i, c in poly.items():
        if c.is_zero():
            continue
        prod = _pmul(pows1[i], pows2[deg - i], fld)
        for j, pc in enumerate(prod):
            out[j] = out[j] + c * pc
    return {j: c for j, c in enumerate(out) if not c.is_zero()}


def slash_tensor(fld: Field, weight: int,
                 rows: Sequence[tuple[int, ...]] | np.ndarray) -> np.ndarray:
    """Integer matrices of P -> P|_g for many 8-int rows g (see Mat2.row).

    Entry [r, c, cj] is the coefficient of component cj in the slash of
    component c by row r, at the weight and over the field: component
    2*i + part is X^i Y^(k-2-i) times 1 (part 0) or omega (part 1).
    Relation words slash by w^-1, Heilbronn matrices by their adjugate.  The
    powers of the two linear forms slash_poly substitutes are built on
    (rows, degree + 1) arrays of their 1- and omega-parts, one numpy pass
    per power for every row.  The pass runs on int64 when _slash_reach,
    scaled to the largest row entry, keeps every value it forms there, and
    on Python ints (an object array) otherwise; the result is int64 when
    every coefficient fits, and the object array when one does not, as the
    word matrices' do from weight 38 at d = 11.  At weight 2 every block is
    the identity: the slash of a constant is itself, as in slash_poly.
    """
    t, m = fld.t, fld.m
    deg = weight - 2
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 8)
    if deg == 0:
        return np.tile(np.eye(2, dtype=np.int64), (len(rows), 1, 1))
    if _slash_reach(deg, t, m) * absmax(rows) ** deg > INT64_MAX:
        rows = rows.astype(object)
    # images of X and Y, indexed by the X-exponent: X -> (-b, d), Y -> (a, -c),
    # as their 1-parts and omega-parts
    lin = rows[:, [2, 6, 3, 7, 0, 4, 1, 5]] * np.array([-1, 1] * 2 + [1, -1] * 2)
    l1, l2 = (lin[:, 0:2], lin[:, 2:4]), (lin[:, 4:6], lin[:, 6:8])
    one = (np.ones((len(rows), 1), dtype=rows.dtype), np.zeros((len(rows), 1), dtype=rows.dtype))
    pows1, pows2 = [one], [one]
    for _ in range(deg):
        pows1.append(_pmul_arrays(pows1[-1], l1, t, m))
        pows2.append(_pmul_arrays(pows2[-1], l2, t, m))
    out = np.empty((len(rows), 2 * deg + 2, 2 * deg + 2), dtype=rows.dtype)
    for i in range(deg + 1):
        pa, pb = _pmul_arrays(pows1[i], pows2[deg - i], t, m)
        # (a + b*omega) * omega = -m*b + (a + t*b)*omega
        out[:, 2 * i, 0::2], out[:, 2 * i, 1::2] = pa, pb
        out[:, 2 * i + 1, 0::2], out[:, 2 * i + 1, 1::2] = -m * pb, pa + t * pb
    if out.dtype == object and absmax(out) <= INT64_MAX:
        out = out.astype(np.int64)
    return out


@lru_cache(maxsize=32)
def _relation_slashes(fld: Field, weight: int) -> tuple[np.ndarray, ...]:
    """The slash_tensors a weight-k build reads, read-only: of S^-1 and J^-1,
    then of the inverses of each later relation word's matrices."""
    words, J = relation_words(fld)
    out = (slash_tensor(fld, weight, [words[0][1].inv_unit().row(), J.inv_unit().row()]),
           *(slash_tensor(fld, weight, [w.inv_unit().row() for w in word]) for word in words[1:]))
    for a in out:
        a.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def unit_multiples(zeta: QuadInt, step: int) -> np.ndarray:
    """mul[s, part]: zeta^(step*s) times 1 (part 0) or omega (part 1), as its
    (1-part, omega-part), for s below the number of units; read-only."""
    fld = zeta.field
    tau = zeta ** step
    powers = [fld.one]
    while len(powers) < len(fld.units):
        powers.append(powers[-1] * tau)
    mul = np.array([[(u.a, u.b), ((u * fld.omega).a, (u * fld.omega).b)] for u in powers])
    mul.flags.writeable = False
    return mul


def _point_coords(nu: QuadInt) -> np.ndarray:
    """The unimodular pairs mod nu in transversal order, as the (n, 4) int64
    array of their coordinates (u.a, u.b, v.a, v.b).

    The residues are the Hermite box a + b*omega (residues_mod's order).
    Each gets a bitmask of the primes of nu dividing it, bit k for the k-th
    prime pi, set when it lies in pi's Hermite lattice (reduce_mod by pi
    leaves 0); a pair is unimodular when its masks are disjoint, and
    np.nonzero lists the pairs u-major.
    """
    e11, _, e22 = hnf_module(nu)
    a, b = np.divmod(np.arange(e11 * e22), e22)
    mask = np.zeros(e11 * e22, dtype=np.int64)
    for k, (pi, _) in enumerate(factorize(nu)[1]):
        f11, f12, f22 = hnf_module(pi)
        mask |= ((a % f11 == 0) & ((b - a // f11 * f12) % f22 == 0)).astype(np.int64) << k
    u, v = np.nonzero((mask[:, None] & mask) == 0)
    return np.column_stack([a[u], b[u], a[v], b[v]])


def _pairs(fld: Field, coords: np.ndarray) -> list[tuple[QuadInt, QuadInt]]:
    # the (u, v) pairs of (u.a, u.b, v.a, v.b) rows
    return [(QuadInt(fld, ua, ub), QuadInt(fld, va, vb)) for ua, ub, va, vb in coords.tolist()]


def enumerate_points(fld: Field, nu: QuadInt) -> list[tuple[QuadInt, QuadInt]]:
    """Unimodular pairs mod nu, in transversal order (see _point_coords)."""
    return _pairs(fld, _point_coords(nu))


def point_count_formula(fld: Field, nu: QuadInt) -> int:
    """Norm(nu)^2 * prod(1 - Norm(pi)^-2) over the primes dividing nu."""
    total = Fraction(nu.norm() ** 2)
    for pi, _ in factorize(nu)[1]:
        total *= 1 - Fraction(1, pi.norm() ** 2)
    if total.denominator != 1:
        raise InvariantError(f"point count {total} at level {nu} is not an integer "
                             f"(d={fld.d})")
    return int(total)


# The most points a symbol space may have; check_point_count refuses a level
# with more from the formula alone, before any point work.  The point arrays
# grow with the points: d = 1, 14+w (38,808 points) builds in 1.0 s at a peak
# 23 MB above the interpreter's.  The relation reduction grows faster, and
# with the field: d = 7, 9+2w (11,448 points) builds in 4.5 s at 15 MB above
# it (2 cores, Python 3.11.7, numpy 2.4.6), and d = 11, 13 (28,560 points)
# took 546 s.  So the limit admits those levels and refuses the ones whose
# builds would run for hours or whose tables would not fit: d = 1, level 100
# has about 69 million points, and its code table alone N(nu)^2 = 10^8 int64.
POINT_LIMIT = 50_000


def check_point_count(fld: Field, nu: QuadInt) -> int:
    """The point count of level nu; ValueError, before any point work, when
    it is above POINT_LIMIT."""
    count = point_count_formula(fld, nu)
    if count > POINT_LIMIT:
        raise ValueError(f"level {nu} has {count} points, above the {POINT_LIMIT} admitted "
                         f"(d={fld.d})")
    return count


def lift_to_sl2(fld: Field, nu: QuadInt, u: QuadInt, v: QuadInt) -> Mat2:
    """An SL2(O) matrix whose bottom row is congruent to (u, v) mod nu."""
    if gcd(u, v).is_unit():
        uu, vv = u, v
    elif divides(nu, u):
        # the pair is unimodular, so v is coprime to nu
        uu, vv = nu, v
    else:
        for t in residues_mod(u):
            if gcd(u, v + t * nu).is_unit():
                uu, vv = u, v + t * nu
                break
        else:
            raise InvariantError(f"no coprime shift for ({u}, {v}) mod {nu} (d={fld.d})")
    g0, x, y = xgcd(vv, uu)
    if not g0.is_unit():
        raise InvariantError(f"({uu}, {vv}) is not unimodular mod {nu} (d={fld.d})")
    gi = g0.conj()
    m = Mat2(x * gi, -(y * gi), uu, vv)
    if m.det() != fld.one:
        raise InvariantError(f"lift of ({u}, {v}) mod {nu} has determinant {m.det()} "
                             f"(d={fld.d})")
    return m


def normalize_cusp(p: QuadInt, q: QuadInt) -> tuple[QuadInt, QuadInt]:
    """Canonical coprime representative of the projective point (p : q)."""
    if p.is_zero() and q.is_zero():
        raise ValueError("(0 : 0) is not a cusp")
    g = gcd(p, q)
    if not g.is_unit():
        p, q = exact_div(p, g), exact_div(q, g)
    if q.is_zero():
        return p.field.one, q
    q0, u = canonical_associate(q)
    return p * u.conj(), q0


def _padded(blocks: list[tuple[np.ndarray, np.ndarray]],
            blank: int) -> tuple[np.ndarray, np.ndarray]:
    """The (cols, vals) blocks of rows stacked, each padded to the widest
    with the blank column and value 0, for _distinct_rows; vals are object
    (Python ints) when a block's are, int64 otherwise."""
    width = max(c.shape[1] for c, _ in blocks)
    cols = np.full((sum(len(c) for c, _ in blocks), width), blank, dtype=np.int64)
    vals = np.zeros(cols.shape, dtype=np.result_type(*(v for _, v in blocks)))
    start = 0
    for c, v in blocks:
        cols[start:start + len(c), :c.shape[1]] = c
        vals[start:start + len(c), :c.shape[1]] = v
        start += len(c)
    return cols, vals


def _nonzero_first(cols: np.ndarray, vals: np.ndarray,
                   blank: int) -> tuple[np.ndarray, np.ndarray]:
    # each row's nonzero entries ascending by column, then blanks, which are
    # dropped where every row has one
    cols = np.where(vals != 0, cols, blank)
    order = np.argsort(cols, axis=1, kind="stable")
    order = order[:, :np.count_nonzero(vals, axis=1).max(initial=1)]
    return np.take_along_axis(cols, order, axis=1), np.take_along_axis(vals, order, axis=1)


def _distinct_rows(cols: np.ndarray, vals: np.ndarray, blank: int) -> list[dict[int, int]]:
    """Row i is the sum of vals[i, k] * e_cols[i, k]; the distinct nonzero rows.

    Equal columns of a row are merged, zero entries and zero rows dropped, and
    each row is signed so its lowest-column entry is positive; rows that are
    then equal are kept once.  blank is a column above every real one, used
    with value 0 for padding.  The rows come out in descending order of
    their columns: rref's result does not depend on the order, and on the
    weight-2 systems measured this one gives it the least fill-in.
    """
    cols, vals = _nonzero_first(cols, vals, blank)
    # each run of equal columns sums into its first entry
    start = np.ones(cols.shape, dtype=bool)
    start[:, 1:] = cols[:, 1:] != cols[:, :-1]
    (first,) = np.nonzero(start.ravel())
    merged = np.zeros(vals.size, dtype=vals.dtype)
    merged[first] = np.add.reduceat(vals.ravel(), first)
    cols, vals = _nonzero_first(cols, merged.reshape(cols.shape), blank)
    vals *= np.where(vals[:, :1] < 0, -1, 1)
    keys = np.hstack([cols, vals])[vals[:, 0] != 0]
    # descending lexicographic order, then equal neighbours dropped: the rows
    # of np.unique(keys, axis=0)[::-1], without the numpy.ma import it costs
    keys = keys[np.lexsort(keys.T[::-1])[::-1]]
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    keys = keys[fresh]
    width = cols.shape[1]
    return [{c: a for c, a in zip(key[:width], key[width:]) if a} for key in keys.tolist()]


def _orbit_roots(images: np.ndarray, labels, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Classes of the nodes under x_i = zeta^labels[i, j] * x_images[i, j].

    images is the (nodes, moves) array of the moves, every column a
    permutation of the nodes; labels, of its shape or broadcast to it, holds
    exponents of zeta, a generator of a cyclic group of order n: n = 1 for
    plain orbits, n = 2 for zeta = -1, n = #units at weight k, where x_i is
    the coordinate xi -> [xi * monomial, point] and zeta * x_i is xi ->
    x_i(zeta * xi), and the order of the cusp twist in _set_cusp_pass.
    Returns (root, unit): root[i] is the least node of i's class and
    x_i = zeta^unit[i] * x_root[i], with unit -1 on the dead classes,
    those with x_root = zeta^s * x_root for some s != 0.  The twisted node
    zeta^s * x_i is n*i + s; each takes the least label of itself and its
    images under the moves, then its label's label, until nothing changes.
    Labels only fall along a move, and a move is a permutation, so at that
    point they are constant on each cycle, hence on each component: every
    twisted node is labelled by the least one of its component, and a class
    is dead when two twists of one node share it.
    """
    nnodes, nmoves = images.shape
    # moved[k, n*i + s]: the image n*j + (l + s) % n of twisted node (i, s)
    # under move k, for i's image j and label l
    twist = (np.asarray(labels)[..., None] + np.arange(n)) % n
    moved = (n * images[:, :, None] + twist).transpose(1, 0, 2).reshape(nmoves, n * nnodes)
    label = np.arange(n * nnodes)
    while True:
        new = label.copy()
        for step in moved:
            np.minimum(new, label[step], out=new)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    twists = label.reshape(nnodes, n)
    dead = (twists[:, 1:] == twists[:, :1]).any(axis=1)
    return twists[:, 0] // n, np.where(dead, -1, twists[:, 0] % n)


class QuotientMap:
    """Every generator's quotient image, as ints over one denominator.

    Generator g maps to sum_j coef[g, j] * matrix[row[g, j]] / den: its
    stage-1 image, on r free columns of the two-term classes (at weight 2,
    r = 1: its <S, J> class root with its sign; above it, r = 2), pushed
    through stage 2's matrix: dim columns, a row per free column in column
    order, and a zero row, which row -1 reads.  A dead generator has rows -1
    and coefficients 0, and so does the line that row and coef end with,
    read by the index -1 that act_points gives a non-unimodular image.  The
    arrays are read-only, so the generators of a class can share its rows.
    reach, r * |coef| * |matrix|, bounds every entry of an image.
    """

    __slots__ = ("matrix", "den", "row", "coef", "reach")

    def __init__(self, matrix: np.ndarray, den: int, row: np.ndarray, coef: np.ndarray) -> None:
        self.matrix, self.den, self.row, self.coef = matrix, den, row, coef
        self.reach = row.shape[1] * absmax(coef) * absmax(matrix)

    @staticmethod
    def build(matrix: np.ndarray, den: int, row: np.ndarray, coef: np.ndarray,
              where: str) -> QuotientMap:
        """The map of (generators, r) row and coef arrays, with the -1 line
        appended; InvariantError, naming where, when its reach leaves int64,
        the map's one range check."""
        row, coef = (np.vstack([a, np.full(a.shape[1], end)]).astype(np.int64)
                     for a, end in ((row, -1), (coef, 0)))
        for a in (matrix, row, coef):
            a.flags.writeable = False
        qmap = QuotientMap(matrix, den, row, coef)
        if qmap.reach > INT64_MAX:
            raise InvariantError(f"quotient map terms up to {absmax(coef)} over entries up to "
                                 f"{absmax(matrix)} overflow int64 {where}")
        return qmap

    @property
    def ngens(self) -> int:
        return len(self.row) - 1

    def gather(self, gens: np.ndarray) -> np.ndarray:
        """den times the image of each generator index in gens (-1 reads 0),
        as an int64 array of shape gens.shape + (dim,)."""
        return (self.coef[gens][..., None] * self.matrix[self.row[gens]]).sum(axis=-2)

    def vector(self, g: int) -> dict[int, Fraction]:
        """The image of generator g as {coordinate: Fraction}, keys ascending."""
        den = self.den
        return {i: Fraction(c, den) for i, c in enumerate(self.gather(g).tolist()) if c}


class SymbolSpace:
    """Weight-k Manin symbols at level nu, reduced to a quotient basis.

    Generator g = (2*mono + part) * npts + point stands for the symbol
    [X^mono Y^(k-2-mono) * (1 if part is 0, else omega), point(point)];
    weight 2 keeps only component 0 (P = 1), so there g is the point index.
    generator(g) decodes g, and symbol_vector(poly, point) is the quotient
    image of any such symbol.

    The npts points are kept as int arrays; point(i) is the pair of point
    i, and points, the list of every pair in transversal order, is built on
    its first read.  qmap (a QuotientMap) sends each generator index to its
    coordinate vector on the quotient basis; free_gens lists one generator
    per basis vector.  cusp_pass holds each point's cusp orbit, S image and
    unit twist exponent (see _set_cusp_pass), filled by the build's one
    point pass; boundary.orbit_boundary reads it at every weight.  _cuspidal
    holds boundary.cuspidal_subspace's result once it has been asked for.
    """

    def __init__(self, fld: Field, nu: QuadInt, weight: int = 2) -> None:
        if nu.is_zero():
            raise ValueError("level must be nonzero")
        if weight < 2:
            raise ValueError("weight must be at least 2")
        if weight % 2 and divides(nu, fld.from_int(2)):
            # -identity lies in the congruence group and kills odd weights
            raise ValueError("odd weight vanishes when the level divides 2")
        self.field = fld
        self.level = canonical_associate(nu)[0]
        self.weight = weight
        self._build_point_codes(check_point_count(fld, self.level))
        self.sum_words, self.J = relation_words(fld)
        self._cuspidal = None
        if weight == 2:
            self._build_weight2()
        else:
            self._build_general()

    @cached_property
    def points(self) -> list[tuple[QuadInt, QuadInt]]:
        """Every point's (u, v) pair, in transversal order (enumerate_points)."""
        return _pairs(self.field, self._coords)

    def point(self, i: int) -> tuple[QuadInt, QuadInt]:
        """The (u, v) pair of point i."""
        return _pairs(self.field, self._coords[i:i + 1])[0]

    @cached_property
    def point_index(self) -> dict[tuple[QuadInt, QuadInt], int]:
        """Index of each point, for point_of; built on the first lookup, since
        the builds and the operators move points by act_points instead."""
        return {pt: i for i, pt in enumerate(self.points)}

    def point_of(self, u: QuadInt, v: QuadInt) -> int | None:
        pair = (reduce_mod(u, self.level), reduce_mod(v, self.level))
        return self.point_index.get(pair)

    def _build_point_codes(self, count: int) -> None:
        # a Hermite-box residue r = a + b*omega has code a*e22 + b in [0, N),
        # a pair (u, v) has code(u) * N + code(v); the int64 table maps a code
        # to its point index, -1 for non-unimodular pairs.  The point
        # coordinates (u.a, u.b, v.a, v.b) are kept as int32 columns, and
        # reach bounds them and u.a + t*u.b, v.a + t*v.b
        e11, e12, e22 = self._hnf = hnf_module(self.level)
        n = e11 * e22
        coords = _point_coords(self.level)
        self.npts = len(coords)
        if self.npts != count:
            raise InvariantError(f"{self.npts} points at level {self.level}, the formula "
                                 f"gives {count} (d={self.field.d})")
        ua, ub, va, vb = coords.T
        codes = np.full(n * n, -1, dtype=np.int64)
        codes[(ua * e22 + ub) * n + va * e22 + vb] = np.arange(self.npts)
        self._codes, self._coords = codes, coords.astype(np.int32)
        self._reach = (1 + self.field.t) * int(coords.max(initial=0))

    def act_points(self, gens: list[int] | np.ndarray,
                   rows: Sequence[tuple[int, ...]] | np.ndarray) -> np.ndarray:
        """Index of (u, v) * M for every point (u, v) in gens and every M in rows.

        rows holds n 8-int rows (see Mat2.row), as a sequence or an (n, 8)
        int64 array; the result is the (len(gens), n) int64 array of the indices of
        point_of(u*a + v*c, u*b + v*d), -1 where that pair is not
        unimodular.  The products use omega^2 = t*omega - m, and each
        coordinate is reduced into the Hermite box the way reduce_mod does,
        with numpy's // and % flooring as Python's do.  InvariantError is
        raised when a row entry times a point coordinate, or anything the
        reduction builds from it, could leave int64.
        """
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 8)
        codes, coords, reach = self._codes, self._coords, self._reach
        e11, e12, e22 = self._hnf
        t, m = self.field.t, self.field.m
        # |xa|, |xb|, |ya|, |yb| <= (2 + 2m) * entry * coordinate, and the
        # Hermite reduction grows that by at most a factor 1 + e12
        entry = absmax(rows)
        if ((2 + 2 * m) * entry * reach + 1) * (1 + e12) > INT64_MAX:
            raise InvariantError(f"row entries up to {entry} overflow int64 at level "
                                 f"{self.level} (d={self.field.d})")
        p = coords[gens].astype(np.int64)
        ua, ub, va, vb = (p[:, k, None] for k in range(4))
        # (p + q*omega)(r + s*omega) = p*r - m*q*s + ((p + t*q)*s + q*r)*omega
        ut, vt = ua + t * ub, va + t * vb
        aa, ab, ba, bb, ca, cb, da, db = rows.T
        xa = ua * aa + va * ca - m * (ub * ab + vb * cb)
        xb = ut * ab + ub * aa + vt * cb + vb * ca
        ya = ua * ba + va * da - m * (ub * bb + vb * db)
        yb = ut * bb + ub * ba + vt * db + vb * da
        kx, ky = xa // e11, ya // e11
        code = (((xa - kx * e11) * e22 + (xb - kx * e12) % e22) * (e11 * e22)
                + (ya - ky * e11) * e22 + (yb - ky * e12) % e22)
        return codes[code]

    def _cusp_moves(self) -> list[Mat2]:
        """Generators of the stabilizer of oo, for _set_cusp_pass: the unit
        scalings diag(eps, conj(eps)) and J = diag(eps, 1), eps a generator of
        the units, and the translations by 1 and by omega."""
        fld = self.field
        one, zero, eps = fld.one, fld.zero, self.J.a
        return [Mat2(eps, zero, zero, eps.conj()), self.J,
                Mat2(one, one, zero, one), Mat2(one, fld.omega, zero, one)]

    def _point_pass(self) -> tuple[list[np.ndarray], tuple[tuple[Mat2, ...], ...], np.ndarray,
                                   np.ndarray]:
        """Every point's images under the matrices of each word, J and the cusp moves.

        Consecutive matrices of a word differ by a step, w[k] = w[k-1] *
        step, and on unimodular pairs p*(AB) = (p*A)*B.  So one act_points
        call moves the points through the distinct rows of J, the cusp moves
        and the steps only (6 to 9 rows), and the image under w[k] is the
        step's image gathered at the image under w[k-1], from the identity
        w[0].  Returns (words, steps, j_image, cusp): words[i] is the
        (points, len(word)) array of sum_words[i] (its column 1 is the image
        under S for the word [I, S]), steps[i] that word's steps, and cusp
        the (points, 4) array of _cusp_moves.
        """
        everyone = np.arange(self.npts)
        steps = _word_steps(self.field)
        cusp = self._cusp_moves()
        moves = [self.J, *cusp, *(s for st in steps for s in st)]
        rows = list(dict.fromkeys(m.row() for m in moves))
        image = dict(zip(rows, self.act_points(everyone, rows).T))
        words = []
        for st in steps:
            cols = [everyone]
            for s in st:
                cols.append(image[s.row()][cols[-1]])
            words.append(np.column_stack(cols))
        return words, steps, image[self.J.row()], np.column_stack([image[m.row()] for m in cusp])

    def _set_cusp_pass(self, images: np.ndarray, s_image: np.ndarray) -> None:
        """cusp_pass = (orbit, s_image, twist): each point's cusp orbit, its
        index times S and its twist exponent.

        images holds every point's images under _cusp_moves.  The orbits are
        those of the stabilizer of oo, acting on the right, which its
        generators determine; they are in bijection with the cusps of the
        symbol quotient, the point of g standing for the cusp g*oo and its S
        image for g*0.  A boundary coefficient at the cusp of point p is
        twisted by a power of tau = zeta^(k-2), zeta = J's corner, of order n
        = #units / gcd(#units, k-2): the scaling diag(eps, conj(eps)) moves
        the cusp data (a, c) of p to (eps*a, eps*c), which twists it by
        tau, and J and the translations keep the twist.  So _orbit_roots
        settles the orbits with label 1 on the scaling and 0 on the other
        moves: the coefficient at p is tau^twist[p] times the one at its
        orbit's least point, and twist is -1 on a dead orbit, one a scaling
        maps to a nontrivial twist of itself.  At weight 2, n = 1, every
        twist is 0 and no orbit is dead.  The orbits are numbered in the
        order of their least points.  The arrays are standalone, so the
        build's point arrays are freed when it ends.
        """
        units = len(self.field.units)
        root, twist = _orbit_roots(images, [1, 0, 0, 0],
                                   units // int(np.gcd(units, self.weight - 2)))
        # points stay below POINT_LIMIT and the exponents lie in -1..5, so
        # int32 and int8 keep the pass of a cached space small
        self.cusp_pass = (np.unique(root, return_inverse=True)[1].astype(np.int32),
                          s_image.astype(np.int32), twist.astype(np.int8))

    def _build_weight2(self) -> None:
        """The weight-2 quotient in two stages (see _build_general): stage 1
        is _two_term_roots, and a word row sums its images' stage-1 terms."""
        words, steps, j_image, cusp = self._point_pass()
        s_image = words[0][:, 1]
        self._set_cusp_pass(cusp, s_image)
        cols1, vals1 = self._two_term_roots(s_image, j_image)
        root, sign = cols1[:, 0], vals1[:, 0]
        blocks = []
        for img, st in zip(words[1:], steps[1:]):
            if all(s == st[0] for s in st):
                # a word [I, X, ..., X^(n-1)]: its row at p*X is its row at p
                # less e_p plus e_(p*X^n), and X^n is a unit scalar, which
                # the S and J relations fix; so the rows are constant on the
                # orbits of X, and only each orbit's least point keeps its row
                closed = img[:, 1][img[:, -1]]
                if not (np.array_equal(root[closed], root)
                        and np.array_equal(sign[closed], sign)):
                    raise InvariantError(f"a power of the step {st[0]!r} moves a class at "
                                         f"level {self.level} (d={self.field.d})")
                img = img[_orbit_roots(img[:, 1:2], 0, 1)[0] == np.arange(self.npts)]
            blocks.append((root[img], sign[img]))
        self._settle(cols1, vals1, blocks)

    def _two_term_roots(self, s_image: np.ndarray,
                        j_image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every point's image modulo x + x*S = 0 and x*J = x alone, as (cols,
        vals) of shape (points, 1): its class's least point and its sign
        against it, or the blank column npts and 0 on a dead class."""
        root, unit = _orbit_roots(np.column_stack([s_image, j_image]), [1, 0], 2)
        sign = np.where(unit < 0, 0, 1 - 2 * unit)
        return np.where(sign != 0, root, self.npts)[:, None], sign[:, None]

    def _settle(self, cols1: np.ndarray, vals1: np.ndarray,
                blocks: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """The tail of both builds: the distinct word rows of blocks, on the
        stage-1 images' (cols1, vals1) free columns, reduced by _quotient,
        and qmap with those images as its terms."""
        ngens = len(cols1)
        # the free columns, ascending, without np.unique (it imports numpy.ma);
        # a dead generator's blank column ngens reads stage 2's zero row
        free = np.zeros(ngens + 1, dtype=bool)
        free[cols1] = True
        free1 = np.flatnonzero(free[:ngens])
        matrix, den = self._quotient(_distinct_rows(*_padded(blocks, ngens), ngens),
                                     free1.tolist())
        position = np.full(ngens + 1, -1, dtype=np.int64)
        position[free1] = np.arange(len(free1))
        self.qmap = QuotientMap.build(matrix, den, position[cols1], vals1,
                                      f"at level {self.level} (d={self.field.d})")

    def _quotient(self, rows: list[dict[int, int]], gens: list[int]) -> tuple[np.ndarray, int]:
        """Reduce the relation rows over gens; set free_gens and dim.

        Returns (matrix, den): den is the lcm of the pivot entries of
        rref_ints' primitive rows, which is the lcm of the denominators of
        rref's, and row t of the int64 matrix is den times the quotient image
        of gens[t], followed by a zero row.  InvariantError when an entry or
        den leaves int64.
        """
        piv = rref_ints(rows)
        free = [g for g in gens if g not in piv]
        self.dim = len(free)
        self.free_gens = free
        qidx = {g: t for t, g in enumerate(free)}
        den = lcm(1, *(prow[c] for c, prow in piv.items()))
        at, cols, vals = [], [], []
        for t, g in enumerate(gens):
            # a free g is e_g, a pivot g is -sum(prow[c] / prow[g] * e_c), c free
            prow = piv.get(g)
            terms = ([(g, den)] if prow is None else
                     [(c, -a * (den // prow[g])) for c, a in prow.items() if c != g])
            for c, v in terms:
                at.append(t)
                cols.append(qidx[c])
                vals.append(v)
        check_int64(vals, den, f"quotient map at level {self.level} (d={self.field.d})")
        matrix = np.zeros((len(gens) + 1, len(free)), dtype=np.int64)
        matrix[at, cols] = vals
        return matrix, den

    def _two_term_classes(self, s_image: np.ndarray,
                          j_image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every generator's image modulo the S and J relations alone.

        Returns (cols, vals), each of shape (generators, 2): generator g is
        vals[g, 0] * e_cols[g, 0] + vals[g, 1] * e_cols[g, 1] modulo those
        relations, on the free columns that rref of their rows would keep; a
        dead generator has vals 0 and the blank column ngens.

        The slash of X^i Y^(k-2-i) by S^-1 or J^-1 is a unit times one
        monomial X^j Y^(k-2-j), so each relation says x_(i, p) = u * x_(j, p')
        for the coordinate x_(i, p): xi -> [xi * X^i Y^(k-2-i), p] on O and
        the unit u = zeta^s, zeta = J's corner, a generator of the units.
        _orbit_roots settles them on the (monomial, point) nodes.  A class
        where a unit other than 1 fixes its root is dead; a live one spans
        the two columns of its root, and every generator g of it is the
        root's coordinate at zeta^s * (1 or omega), an integer vector v_g on
        them.  Column j is a pivot of rref exactly when e_j lies in the span
        of the later columns, so a class keeps its highest generator f1 and
        the highest f2 with v_f2 independent of v_f1, and every generator is
        an integer combination of those two: v_f1, v_f2 are unit multiples of
        1 and omega, with determinant +-1.  InvariantError names the level
        when either premise fails.
        """
        fld, npts = self.field, self.npts
        deg = self.weight - 2
        ngens = 2 * (deg + 1) * npts
        where = f"at level {self.level} (d={fld.d})"
        # mul[s, part]: zeta^s times 1 (part 0) or omega (part 1), on 1, omega
        mul = unit_multiples(self.J.a, 1)
        exponent = {tuple(block): s for s, block in enumerate(mul.reshape(-1, 4).tolist())}
        # x_(i, p) = -[P|S^-1, pS] and = [P|J^-1, pJ] for P = xi * X^i Y^(k-2-i)
        slash = _relation_slashes(fld, self.weight)[0]
        target = np.zeros((2, deg + 1), dtype=np.int64)
        label = np.zeros((2, deg + 1), dtype=np.int64)
        for k, sgn in ((0, -1), (1, 1)):
            for i in range(deg + 1):
                # block[j]: the images of (1, omega) * X^i Y^(k-2-i) on monomial j
                block = sgn * slash[k, 2 * i:2 * i + 2].reshape(2, deg + 1, 2).swapaxes(0, 1)
                (hit,) = np.nonzero(block.any(axis=(1, 2)))
                s = exponent.get(tuple(block[hit].ravel().tolist()))
                if s is None:
                    raise InvariantError(f"the slash of X^{i} Y^{deg - i} by {'SJ'[k]} is not "
                                         f"a unit times one monomial {where}")
                target[k, i], label[k, i] = hit[0], s
        nodes = np.column_stack([(target[0, :, None] * npts + s_image).ravel(),
                                 (target[1, :, None] * npts + j_image).ravel()])
        root, unit = _orbit_roots(nodes, np.repeat(label, npts, axis=1).T, len(mul))
        # generator g = (2*i + part) * npts + p sits on node i * npts + p
        comp, pt = np.divmod(np.arange(ngens), npts)
        node = comp // 2 * npts + pt
        gens = np.flatnonzero(unit[node] >= 0)
        vec = mul[unit[node[gens]], comp[gens] % 2]
        # class by class, highest generator first
        order = np.lexsort((-gens, root[node[gens]]))
        gens, vec, cls = gens[order], vec[order], root[node[gens[order]]]
        head = np.ones(len(gens), dtype=bool)
        head[1:] = cls[1:] != cls[:-1]
        run = np.cumsum(head) - 1
        v1 = vec[head][run]
        second = np.flatnonzero(vec[:, 0] * v1[:, 1] - vec[:, 1] * v1[:, 0])
        second = second[np.diff(run[second], prepend=-1) != 0]
        if len(second) != head.sum():
            raise InvariantError(f"a live S, J class spans one column {where}")
        v2 = vec[second][run]
        det = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
        if np.any(np.abs(det) != 1):
            raise InvariantError(f"an S, J class has free columns of determinant "
                                 f"{int(det[np.abs(det) != 1][0])} {where}")
        cols = np.full((ngens, 2), ngens, dtype=np.int64)
        vals = np.zeros((ngens, 2), dtype=np.int64)
        cols[gens, 0], cols[gens, 1] = gens[head][run], gens[second][run]
        vals[gens, 0] = (vec[:, 0] * v2[:, 1] - vec[:, 1] * v2[:, 0]) * det
        vals[gens, 1] = (v1[:, 0] * vec[:, 1] - v1[:, 1] * vec[:, 0]) * det
        return cols, vals

    def _build_general(self) -> None:
        """The weight-k quotient in two stages.

        Stage 1 (_two_term_classes) settles the S and J relations with no
        rows.  Stage 2 writes each word relation's rows, the slash
        coefficients of its matrices' inverses (slash_tensor) at their
        images, on stage 1's free columns and reduces them by rref_ints.  The
        S and J rows are block-diagonal over the classes, and reducing a
        subset of the rows first only moves pivots onto later columns, so the
        pivots are the union of the two stages' and a generator's image is
        its stage-1 image pushed through stage 2: the quotient one rref of
        every row gives, which qmap keeps as those two factors.  Its
        denominator is stage 2's, the lcm of the denominators of the free
        stage-1 columns' images, and each of those columns is a generator
        whose stage-1 image is itself; so it is the lcm of the map's entry
        denominators, as one rref's is.
        """
        npts = self.npts
        ncomp = 2 * (self.weight - 1)
        ngens = ncomp * npts
        words, _, j_image, cusp = self._point_pass()
        self._set_cusp_pass(cusp, words[0][:, 1])
        cols1, vals1 = self._two_term_classes(words[0][:, 1], j_image)
        blocks = []
        for coef, img in zip(_relation_slashes(self.field, self.weight)[1:], words[1:]):
            # per component c of the row, the (matrix, component) pairs with a
            # nonzero coefficient, padded with zero coefficients; on Python
            # ints (object) where a row value could leave int64, as at high
            # weight, which _distinct_rows and rref_ints take as they are
            coef = coef.swapaxes(0, 1).reshape(ncomp, -1)
            if absmax(coef) * absmax(vals1) > INT64_MAX:
                coef = coef.astype(object)
            pick = np.argsort(coef == 0, axis=1, kind="stable")
            pick = pick[:, :int(np.count_nonzero(coef, axis=1).max())]
            at, cj = np.divmod(pick, ncomp)
            gens = cj * npts + img[:, at]
            scale = np.take_along_axis(coef, pick, axis=1)[..., None]
            # about half the entries are 0 (dead generators, or one parallel
            # to its class's first free column), so each block keeps only
            # as many entries a row as its fullest row has
            blocks.append(_nonzero_first(cols1[gens].reshape(npts * ncomp, -1),
                                         (scale * vals1[gens]).reshape(npts * ncomp, -1), ngens))
        self._settle(cols1, vals1, blocks)

    def generator(self, g: int) -> tuple[dict[int, QuadInt], int]:
        """The (poly, point) pair generator g stands for, in the class layout."""
        comp, pt = divmod(g, self.npts)
        mono, part = divmod(comp, 2)
        return {mono: self.field.omega if part else self.field.one}, pt

    def symbol_vector(self, poly: dict[int, QuadInt], pt: int) -> dict:
        """Quotient image of the symbol [poly, point]."""
        npts = self.npts
        out: dict = {}
        for mono, c in poly.items():
            if c.a:
                vec_axpy(out, Fraction(c.a), self.qmap.vector(2 * mono * npts + pt))
            if c.b:
                vec_axpy(out, Fraction(c.b), self.qmap.vector((2 * mono + 1) * npts + pt))
        return out


def symbol_space(fld: Field, nu: QuadInt, weight: int = 2) -> SymbolSpace:
    """The space of level nu, built once per (field, canonical level, weight).

    Associate levels and an omitted or explicit weight 2 share one cache
    entry; cache_info and cache_clear are those of that cache.
    """
    return _symbol_space(fld, canonical_associate(nu)[0], weight)


@lru_cache(maxsize=None)
def _symbol_space(fld: Field, nu: QuadInt, weight: int) -> SymbolSpace:
    return SymbolSpace(fld, nu, weight)


symbol_space.cache_info = _symbol_space.cache_info
symbol_space.cache_clear = _symbol_space.cache_clear


def continued_fraction_path(fld: Field, p: QuadInt, q: QuadInt) -> list[Mat2]:
    """Step matrices whose cusp pairs chain from oo to p/q; determinants are +-1."""
    p, q = normalize_cusp(p, q)
    mats = []
    b = Mat2.identity(fld)
    x0, x1 = p, q
    while not x1.is_zero():
        qj, r = euclidean_division(x0, x1)
        b = b * Mat2(qj, fld.one, fld.one, fld.zero)
        mats.append(b)
        x0, x1 = x1, r
    if not x0.is_unit():
        raise InvariantError(f"cusp ({p} : {q}) ends its continued fraction at {x0}, "
                             f"not a unit (d={fld.d})")
    return mats


def path_vector(space: SymbolSpace, cusp: tuple[QuadInt, QuadInt], poly=None) -> dict:
    """Quotient image of {oo, cusp} times poly, by default {0: 1}, i.e. Y^(k-2)."""
    fld = space.field
    poly = {0: fld.one} if poly is None else poly
    out: dict = {}
    for b in continued_fraction_path(fld, *cusp):
        dt = b.det()
        if dt == fld.one:
            bn = b
        else:
            # [P, B] = [P|_(D^-1), B*D] for D = diag(unit, 1) fixes the cusps
            bn = b * Mat2(dt.conj(), fld.zero, fld.zero, fld.one)
        pt = space.point_of(bn.c, bn.d)
        if pt is None:
            raise InvariantError(f"path step {bn} to cusp ({cusp[0]} : {cusp[1]}) has no "
                                 f"point at level {space.level} (d={fld.d})")
        vec_axpy(out, 1, space.symbol_vector(slash_poly(poly, bn.inv_unit(), space.weight), pt))
    return out


def modular_symbol_vec(space: SymbolSpace, alpha, beta, poly=None) -> dict:
    """Quotient image of the modular symbol from cusp alpha to cusp beta, times poly."""
    return vec_axpy(path_vector(space, beta, poly), -1, path_vector(space, alpha, poly))


def cusp_count(space: SymbolSpace) -> int:
    """Number of cusps of the symbol quotient."""
    orbit = space.cusp_pass[0]
    return int(orbit.max()) + 1 if orbit.size else 0
