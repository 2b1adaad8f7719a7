"""Weight-k modular symbol spaces for the Euclidean Bianchi groups.

Generators are unimodular pairs (u, v) mod the level, found by a sieve over
the primes of the level.  The space is cut out by the edge relations of the
tessellation of hyperbolic 3-space: the two-term S and J identifications,
the universal triangle relation, and one extra polygon relation per field
(none for d = 3, a triangle for d = 1, squares for d = 2 and 7, a hexagon
for d = 11).  Points are moved by matrices, given as 8-int rows (Mat2.row),
as plain-int Hermite-box codes in one kernel, SymbolSpace.act_points: the
builds, the cusp-orbit search, the Hecke operators and the Fourier layer
move many points through many rows in one call and work on the int arrays
it returns.  Two-term relations are folded with a signed union-find;
the rest become integer rows, repeats up to sign dropped, for the sparse row
reduction in linalg.rref.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .linalg import rref, vec_axpy, vec_sub
from .quadints import (
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
        """The 8-int row that act_points, slash_rows and the Heilbronn families use."""
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
    so the corresponding sum of symbols vanishes for every weight.
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


def _pmul(u: list[QuadInt], v: list[QuadInt], fld: Field) -> list[QuadInt]:
    out = [fld.zero] * (len(u) + len(v) - 1)
    for i, ci in enumerate(u):
        if ci.is_zero():
            continue
        for j, cj in enumerate(v):
            out[i + j] = out[i + j] + ci * cj
    return out


def _pmul_ints(u: list[tuple[int, int]], v: list[tuple[int, int]],
               t: int, m: int) -> list[tuple[int, int]]:
    # _pmul on (a, b) pairs standing for a + b*omega, omega^2 = t*omega - m
    out_a = [0] * (len(u) + len(v) - 1)
    out_b = out_a[:]
    for i, (p, q) in enumerate(u):
        if not (p or q):
            continue
        for j, (r, s) in enumerate(v):
            qs = q * s
            out_a[i + j] += p * r - m * qs
            out_b[i + j] += p * s + q * r + t * qs
    return list(zip(out_a, out_b))


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


def enumerate_points(fld: Field, nu: QuadInt) -> list[tuple[QuadInt, QuadInt]]:
    """Unimodular pairs mod nu, in transversal order.

    A pair is unimodular when no prime dividing nu divides both entries, so
    each residue gets a bitmask of the primes of nu dividing it (bit k for
    the k-th prime) and the pairs with disjoint masks are kept.
    """
    reps = residues_mod(nu)
    primes = [pi for pi, _ in factorize(nu)[1]]
    masks = [sum(1 << k for k, pi in enumerate(primes) if divides(pi, r)) for r in reps]
    return [(u, v) for u, mu in zip(reps, masks) for v, mv in zip(reps, masks)
            if not mu & mv]


def point_count_formula(fld: Field, nu: QuadInt) -> int:
    """Norm(nu)^2 * prod(1 - Norm(pi)^-2) over the primes dividing nu."""
    total = Fraction(nu.norm() ** 2)
    for pi, _ in factorize(nu)[1]:
        total *= 1 - Fraction(1, pi.norm() ** 2)
    if total.denominator != 1:
        raise InvariantError(f"point count {total} at level {nu} is not an integer "
                             f"(d={fld.d})")
    return int(total)


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


def _distinct_rows(cols: np.ndarray, vals: np.ndarray, blank: int) -> list[dict[int, int]]:
    """Row i is the sum of vals[i, k] * e_cols[i, k]; the distinct nonzero rows.

    Equal columns of a row are merged, zero entries and zero rows dropped, and
    each row is signed so its lowest-column entry is positive; rows that are
    then equal are kept once.  blank is a column above every real one, used
    with value 0 for padding.  The rows come out in descending order of
    their columns: rref's result does not depend on the order, and on the
    weight-2 systems measured this one gives it the least fill-in.
    """
    order = np.argsort(cols, axis=1, kind="stable")
    cols = np.take_along_axis(cols, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    for k in range(1, cols.shape[1]):
        same = cols[:, k] == cols[:, k - 1]
        vals[same, k] += vals[same, k - 1]
        vals[same, k - 1] = 0
    # nonzero entries first, ascending by column, then blanks
    cols = np.where(vals != 0, cols, blank)
    order = np.argsort(cols, axis=1, kind="stable")
    cols = np.take_along_axis(cols, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    vals *= np.where(vals[:, :1] < 0, -1, 1)
    keys = np.unique(np.hstack([cols, vals])[vals[:, 0] != 0], axis=0)[::-1]
    width = cols.shape[1]
    return [{c: a for c, a in zip(key[:width], key[width:]) if a} for key in keys.tolist()]


class _SignedUF:
    """Union-find tracking e_i = sign * e_root, with dead (forced-zero) roots."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.sign = [1] * n
        self.dead = [False] * n

    def find(self, i: int) -> tuple[int, int]:
        chain = []
        while self.parent[i] != i:
            chain.append(i)
            i = self.parent[i]
        s = 1
        for j in reversed(chain):
            s *= self.sign[j]
            self.parent[j] = i
            self.sign[j] = s
        return (i, self.sign[chain[0]]) if chain else (i, 1)

    def union(self, i: int, j: int, s: int) -> None:
        """Impose e_i = s * e_j."""
        ri, si = self.find(i)
        rj, sj = self.find(j)
        t = si * s * sj
        if ri == rj:
            if t != 1:
                self.dead[ri] = True
            return
        if ri < rj:
            ri, rj = rj, ri
        self.parent[ri] = rj
        self.sign[ri] = t
        self.dead[rj] = self.dead[rj] or self.dead[ri]


class SymbolSpace:
    """Weight-k Manin symbols at level nu, reduced to a quotient basis.

    gen_map sends each generator index to its coordinate vector on the
    quotient basis; free_gens lists one generator per basis vector.
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
        self.points = enumerate_points(fld, self.level)
        self.point_index = {pt: i for i, pt in enumerate(self.points)}
        self._build_point_codes()
        self.sum_words, self.J = relation_words(fld)
        if weight == 2:
            self._build_weight2()
        else:
            self._build_general()

    def point_of(self, u: QuadInt, v: QuadInt) -> int | None:
        pair = (reduce_mod(u, self.level), reduce_mod(v, self.level))
        return self.point_index.get(pair)

    def _build_point_codes(self) -> None:
        # a Hermite-box residue r = a + b*omega has code a*e22 + b in [0, N),
        # a pair (u, v) has code(u) * N + code(v); the int64 table maps a code
        # to its point index, -1 for non-unimodular pairs.  The point
        # coordinates (u.a, u.b, v.a, v.b) are kept as int32 columns, and
        # reach bounds them and u.a + t*u.b, v.a + t*v.b
        e11, e12, e22 = self._hnf = hnf_module(self.level)
        n = e11 * e22
        coords = np.array([(u.a, u.b, v.a, v.b) for u, v in self.points],
                          dtype=np.int32).reshape(-1, 4)
        ua, ub, va, vb = coords.astype(np.int64).T
        codes = np.full(n * n, -1, dtype=np.int64)
        codes[(ua * e22 + ub) * n + va * e22 + vb] = np.arange(len(self.points))
        self._codes, self._coords = codes, coords
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
        entry = max(int(rows.max(initial=0)), -int(rows.min(initial=0)))
        if ((2 + 2 * m) * entry * reach + 1) * (1 + e12) > np.iinfo(np.int64).max:
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

    def _build_weight2(self) -> None:
        npts = len(self.points)
        everyone = np.arange(npts)
        uf = _SignedUF(npts)
        two_term = [self.sum_words[0][1].row(), self.J.row()]
        for i, (s_img, j_img) in enumerate(self.act_points(everyone, two_term).tolist()):
            uf.union(i, s_img, -1)  # x + x*S = 0
            uf.union(i, j_img, 1)  # x*J = x
        found = [uf.find(i) for i in range(npts)]
        dead = uf.dead  # read at roots only
        root = np.array([r for r, _ in found], dtype=np.int64)
        # e_i = sign[i] * e_root[i], and sign 0 on the classes forced to zero
        sign = np.array([0 if dead[r] else s for r, s in found], dtype=np.int64)
        width = max(len(word) for word in self.sum_words[1:])
        cols, vals = [], []
        for word in self.sum_words[1:]:
            img = self.act_points(everyone, [m.row() for m in word])
            pad = ((0, 0), (0, width - len(word)))
            cols.append(np.pad(root[img], pad, constant_values=npts))
            vals.append(np.pad(sign[img], pad))
        rrows, pivots = rref(_distinct_rows(np.vstack(cols), np.vstack(vals), npts))
        roots = [i for i, (r, _) in enumerate(found) if r == i and not dead[i]]
        free = [r for r in roots if r not in pivots]
        self.dim = len(free)
        self.free_gens = free
        qidx = {r: t for t, r in enumerate(free)}
        # each live root's image, and its negative, copied to the points of its class
        images = {}
        for r in roots:
            if r in pivots:
                plus = {qidx[c]: -a for c, a in rrows[pivots[r]].items() if c != r}
            else:
                plus = {qidx[r]: Fraction(1)}
            images[r] = (plus, {k: -a for k, a in plus.items()})
        self.gen_map = [{} if dead[r] else dict(images[r][s < 0]) for r, s in found]

    def slash_rows(self, row: tuple[int, ...]) -> list[dict[int, int]]:
        """Integer matrix of P -> P|_g on the flattened components.

        g is given as its 8-int row (see Mat2.row).  Row 2*i + part of the
        result is the image of X^i Y^(k-2-i) times 1 (part 0) or omega
        (part 1), keyed by the same flattening.  Relation words slash by
        w^-1, Heilbronn matrices by their adjugate.  The powers of the two
        linear forms slash_poly substitutes are built once per matrix, on
        (a, b) int pairs standing for a + b*omega.
        """
        t, m = self.field.t, self.field.m
        deg = self.weight - 2
        aa, ab, ba, bb, ca, cb, da, db = row
        # images of X and Y, as [Y-part, X-part]
        l1 = [(-ba, -bb), (da, db)]
        l2 = [(aa, ab), (-ca, -cb)]
        pows1, pows2 = [[(1, 0)]], [[(1, 0)]]
        for _ in range(deg):
            pows1.append(_pmul_ints(pows1[-1], l1, t, m))
            pows2.append(_pmul_ints(pows2[-1], l2, t, m))
        out = []
        for i in range(deg + 1):
            prod = _pmul_ints(pows1[i], pows2[deg - i], t, m)
            # (a + b*omega) * omega = -m*b + (a + t*b)*omega
            for coeffs in (prod, [(-m * b, a + t * b) for a, b in prod]):
                row: dict[int, int] = {}
                for j, (a, b) in enumerate(coeffs):
                    if a:
                        row[2 * j] = a
                    if b:
                        row[2 * j + 1] = b
                out.append(row)
        return out

    def _build_general(self) -> None:
        fld = self.field
        npts = len(self.points)
        ncomp = 2 * (self.weight - 1)
        ngens = ncomp * npts
        rels = [[(w, 1) for w in word] for word in self.sum_words]
        rels.append([(Mat2.identity(fld), 1), (self.J, -1)])
        everyone = np.arange(npts)
        rows = []
        seen = set()
        for rel in rels:
            mats = [self.slash_rows(w.inv_unit().row()) for w, _ in rel]
            acts = self.act_points(everyone, [w.row() for w, _ in rel]).T.tolist()
            for p in range(npts):
                for ci in range(ncomp):
                    row: dict[int, int] = {}
                    for (w, sgn), cm, act in zip(rel, mats, acts):
                        for cj, coeff in cm[ci].items():
                            key = cj * npts + act[p]
                            val = row.get(key, 0) + sgn * coeff
                            if val:
                                row[key] = val
                            else:
                                row.pop(key, None)
                    if not row:
                        continue
                    # drop a repeat up to sign: rref would reduce it to zero
                    key = tuple(sorted(row.items()))
                    if key[0][1] < 0:
                        key = tuple((c, -a) for c, a in key)
                    if key not in seen:
                        seen.add(key)
                        rows.append(row)
        rrows, pivots = rref(rows)
        free = [g for g in range(ngens) if g not in pivots]
        self.dim = len(free)
        self.free_gens = free
        qidx = {g: t for t, g in enumerate(free)}
        gm: list[dict] = []
        for g in range(ngens):
            if g in pivots:
                row = rrows[pivots[g]]
                gm.append({qidx[c]: -a for c, a in row.items() if c != g})
            else:
                gm.append({qidx[g]: Fraction(1)})
        self.gen_map = gm

    def poly_symbol_vector(self, poly: dict[int, QuadInt], pt: int) -> dict:
        """Quotient image of the symbol [poly, point] for weight > 2."""
        assert self.weight > 2
        npts = len(self.points)
        out: dict = {}
        for mono, c in poly.items():
            if c.a:
                vec_axpy(out, Fraction(c.a), self.gen_map[2 * mono * npts + pt])
            if c.b:
                vec_axpy(out, Fraction(c.b), self.gen_map[(2 * mono + 1) * npts + pt])
        return out


@lru_cache(maxsize=None)
def symbol_space(fld: Field, nu: QuadInt, weight: int = 2) -> SymbolSpace:
    return SymbolSpace(fld, canonical_associate(nu)[0], weight)


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
    """Quotient image of {oo, cusp} (times poly for weight > 2)."""
    fld = space.field
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
        if space.weight == 2:
            vec_axpy(out, Fraction(1), space.gen_map[pt])
        else:
            vec_axpy(out, 1, space.poly_symbol_vector(slash_poly(poly, bn.inv_unit(), space.weight), pt))
    return out


def modular_symbol_vec(space: SymbolSpace, alpha, beta, poly=None) -> dict:
    """Quotient image of the modular symbol from cusp alpha to cusp beta."""
    return vec_sub(path_vector(space, beta, poly), path_vector(space, alpha, poly))


def point_cusp_orbits(space: SymbolSpace) -> list[int]:
    """Orbit id per generator under the right action of the stabilizer of oo.

    The stabilizer is generated by unit scalings and the two translations;
    its orbits on the generators are in bijection with the cusps of the
    symbol quotient.
    """
    fld = space.field
    one, zero = fld.one, fld.zero
    moves = []
    for lam in fld.units:
        moves.append(Mat2(lam, zero, zero, lam.conj()))  # (u, v) -> (lam*u, conj(lam)*v)
        moves.append(Mat2(lam, zero, zero, one))  # (u, v) -> (lam*u, v)
    for mu in (one, -one, fld.omega, -fld.omega):
        moves.append(Mat2(one, mu, zero, one))  # (u, v) -> (u, v + mu*u)
    npts = len(space.points)
    neighbours = space.act_points(np.arange(npts), [mv.row() for mv in moves]).tolist()
    ids = [-1] * npts
    nxt = 0
    for i in range(npts):
        if ids[i] >= 0:
            continue
        ids[i] = nxt
        stack = [i]
        while stack:
            for t in neighbours[stack.pop()]:
                if ids[t] < 0:
                    ids[t] = nxt
                    stack.append(t)
        nxt += 1
    return ids


def cusp_count(space: SymbolSpace) -> int:
    """Number of cusps of the symbol quotient."""
    ids = point_cusp_orbits(space)
    return max(ids) + 1 if ids else 0
