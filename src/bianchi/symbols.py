"""Weight-k modular symbol spaces for the Euclidean Bianchi groups.

Generators are unimodular pairs (u, v) mod the level.  The space is cut out
by the edge relations of the tessellation of hyperbolic 3-space: the
two-term S and J identifications, the universal triangle relation, and one
extra polygon relation per field (none for d = 3, a triangle for d = 1,
squares for d = 2 and 7, a hexagon for d = 11).  Two-term relations are
folded with a signed union-find; the rest go through sparse row reduction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .linalg import rref, vec_axpy, vec_sub
from .quadints import (
    Field,
    QuadInt,
    canonical_associate,
    divides,
    euclidean_division,
    exact_div,
    factorize,
    gcd,
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
        assert dt.is_unit()
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
    """Unimodular pairs mod nu, in transversal order."""
    reps = residues_mod(nu)
    return [(u, v) for u in reps for v in reps if gcd(gcd(u, v), nu).is_unit()]


def point_count_formula(fld: Field, nu: QuadInt) -> int:
    """Norm(nu)^2 * prod(1 - Norm(pi)^-2) over the primes dividing nu."""
    total = Fraction(nu.norm() ** 2)
    for pi, _ in factorize(nu)[1]:
        total *= 1 - Fraction(1, pi.norm() ** 2)
    assert total.denominator == 1
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
            raise AssertionError(f"no coprime shift for ({u}, {v}) mod {nu}")
    g0, x, y = xgcd(vv, uu)
    assert g0.is_unit()
    gi = g0.conj()
    m = Mat2(x * gi, -(y * gi), uu, vv)
    assert m.det() == fld.one
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
        self.sum_words, self.J = relation_words(fld)
        if weight == 2:
            self._build_weight2()
        else:
            self._build_general()

    @property
    def n_gens(self) -> int:
        if self.weight == 2:
            return len(self.points)
        return 2 * (self.weight - 1) * len(self.points)

    def point_of(self, u: QuadInt, v: QuadInt) -> int | None:
        pair = (reduce_mod(u, self.level), reduce_mod(v, self.level))
        return self.point_index.get(pair)

    def act_point(self, idx: int, mat: Mat2) -> int | None:
        """Index of (u, v) * mat, or None when the product is not unimodular."""
        u, v = self.points[idx]
        return self.point_of(u * mat.a + v * mat.c, u * mat.b + v * mat.d)

    def _build_weight2(self) -> None:
        npts = len(self.points)
        uf = _SignedUF(npts)
        S = self.sum_words[0][1]
        for i in range(npts):
            uf.union(i, self.act_point(i, S), -1)  # x + x*S = 0
            uf.union(i, self.act_point(i, self.J), 1)  # x*J = x
        rows = []
        for word in self.sum_words[1:]:
            acts = [[self.act_point(i, w) for i in range(npts)] for w in word]
            for i in range(npts):
                row: dict[int, int] = {}
                for act in acts:
                    r, s = uf.find(act[i])
                    if not uf.dead[r]:
                        row[r] = row.get(r, 0) + s
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows.append({c: Fraction(v) for c, v in row.items()})
        rrows, pivots = rref(rows)
        roots = [i for i in range(npts) if uf.parent[i] == i and not uf.dead[i]]
        free = [r for r in roots if r not in pivots]
        self.dim = len(free)
        self.free_gens = free
        qidx = {r: t for t, r in enumerate(free)}
        gm: list[dict] = []
        for i in range(npts):
            r, s = uf.find(i)
            if uf.dead[r]:
                gm.append({})
            elif r in pivots:
                row = rrows[pivots[r]]
                gm.append({qidx[c]: -s * a for c, a in row.items() if c != r})
            else:
                gm.append({qidx[r]: Fraction(s)})
        self.gen_map = gm

    def slash_rows(self, g: Mat2) -> list[dict[int, int]]:
        """Integer matrix of P -> P|_g on the flattened components.

        Row 2*i + part is the image of X^i Y^(k-2-i) times 1 (part 0) or
        omega (part 1), keyed by the same flattening.  Relation words slash
        by w^-1, Heilbronn matrices by their adjugate.
        """
        fld = self.field
        out = []
        for i in range(self.weight - 1):
            for part in (0, 1):
                coeff = fld.one if part == 0 else fld.omega
                poly = slash_poly({i: coeff}, g, self.weight)
                row: dict[int, int] = {}
                for j, c in poly.items():
                    if c.a:
                        row[2 * j] = c.a
                    if c.b:
                        row[2 * j + 1] = c.b
                out.append(row)
        return out

    def _build_general(self) -> None:
        fld = self.field
        npts = len(self.points)
        ncomp = 2 * (self.weight - 1)
        ngens = ncomp * npts
        rels = [[(w, 1) for w in word] for word in self.sum_words]
        rels.append([(Mat2.identity(fld), 1), (self.J, -1)])
        rows = []
        for rel in rels:
            mats = [self.slash_rows(w.inv_unit()) for w, _ in rel]
            acts = [[self.act_point(i, w) for i in range(npts)] for w, _ in rel]
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
                    if row:
                        rows.append({c: Fraction(v) for c, v in row.items()})
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

    def summary(self) -> dict:
        return {
            "d": self.field.d,
            "level": str(self.level),
            "level_norm": self.level.norm(),
            "weight": self.weight,
            "num_points": len(self.points),
            "dim": self.dim,
        }


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
    assert x0.is_unit()
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
        assert pt is not None
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
    nu = space.level
    moves = []
    for lam in fld.units:
        moves.append(lambda u, v, lam=lam: (lam * u, lam.conj() * v))
        moves.append(lambda u, v, lam=lam: (lam * u, v))
    for mu in (fld.one, -fld.one, fld.omega, -fld.omega):
        moves.append(lambda u, v, mu=mu: (u, v + mu * u))
    ids = [-1] * len(space.points)
    nxt = 0
    for i in range(len(space.points)):
        if ids[i] >= 0:
            continue
        ids[i] = nxt
        stack = [i]
        while stack:
            u, v = space.points[stack.pop()]
            for mv in moves:
                uu, vv = mv(u, v)
                t = space.point_index[(reduce_mod(uu, nu), reduce_mod(vv, nu))]
                if ids[t] < 0:
                    ids[t] = nxt
                    stack.append(t)
        nxt += 1
    return ids


def cusp_count(space: SymbolSpace) -> int:
    """Number of cusps of the symbol quotient."""
    ids = point_cusp_orbits(space)
    return max(ids) + 1 if ids else 0
