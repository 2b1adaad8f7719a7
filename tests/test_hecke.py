import gc
import random
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bianchi.boundary import cuspidal_subspace
from bianchi.fourier import (
    DualFunctional,
    fourier_coefficients,
    functional_slash,
    seed_from_vector,
)
from bianchi.heilbronn import heilbronn_family
from bianchi.hecke import (
    HeckeOperator,
    _left_functional,
    commute_check,
    coset_representatives,
    eigensystems,
    hecke_matrix,
    hecke_on_manin,
    hecke_operators,
    hecke_oracle,
    heilbronn_action,
    heilbronn_actions,
)
from bianchi.linalg import (
    IntMat,
    Subspace,
    absmax,
    charpoly,
    rational_eigensystem,
    vec_axpy,
    vec_dot,
)
from bianchi.quadints import (
    Field,
    canonical_elements_of_norm,
    divides,
    divisors_up_to_units,
    exact_div,
    gcd,
    parse_element,
    reduce_mod,
    xgcd,
)
from bianchi.symbols import Mat2, lift_to_sl2, symbol_space
from bianchi.verify import DEFAULT_COMMUTE_LEVELS, REFERENCE_FORM, _coprime_etas, reference_form
from test_linalg import (
    Mat,
    RefSpace,
    charpoly_reference,
    full_reference,
    int_rows,
    kernel_reference,
    lift_reference,
    rational_eigensystem_reference,
    restrict_reference,
    vec_scale,
)
from test_symbols import act_point, slash_rows_reference, spaces

ORACLE_CASES = [
    (1, "3", "1+1w"),
    (1, "2+1w", "1+1w"),
    (1, "3", "2"),
    (2, "1+1w", "w"),
    (3, "2", "1+1w"),
    (7, "w", "1+1w"),
    (11, "2", "w"),
]


def first_etas(fld, nu, count, bound=40):
    out = []
    for n in range(2, bound):
        for e in canonical_elements_of_norm(fld, n):
            if gcd(e, nu).is_unit():
                out.append(e)
                if len(out) == count:
                    return out
    raise AssertionError("not enough coprime etas below the bound")


def test_unit_eta_is_identity():
    for d, nt in [(1, "3"), (11, "w")]:
        fld = Field.get(d)
        sp = symbol_space(fld, parse_element(fld, nt))
        assert Mat.of_int(hecke_matrix(sp, fld.one)) == Mat.identity(sp.dim)


def test_coprimality_enforced():
    fld = Field.get(1)
    sp = symbol_space(fld, parse_element(fld, "1+1w"))
    with pytest.raises(ValueError):
        hecke_matrix(sp, fld.from_int(2))
    with pytest.raises(ValueError):
        hecke_matrix(sp, fld.zero)
    # the bare family action carries no coprimality requirement
    assert heilbronn_action(sp, fld.from_int(2)).num.shape == (sp.dim, sp.dim)


def test_production_equals_oracle():
    for d, nt, et in ORACLE_CASES:
        fld = Field.get(d)
        nu, eta = parse_element(fld, nt), parse_element(fld, et)
        sp = symbol_space(fld, nu)
        prod = hecke_on_manin(sp, eta)
        orac = hecke_oracle(sp, eta)
        assert prod.matrix == orac.matrix, (d, nt, et)
        assert prod.cuspidal_matrix == orac.cuspidal_matrix


def test_production_equals_oracle_weight4():
    fld = Field.get(3)
    sp = symbol_space(fld, fld.from_int(2), 4)
    eta = parse_element(fld, "1+1w")
    assert sp.dim > 0
    assert hecke_on_manin(sp, eta).matrix == hecke_oracle(sp, eta).matrix


def coset_count(eta):
    # number of left cosets of determinant-eta matrices, sum of divisor norms
    return sum(d.norm() for d in divisors_up_to_units(eta))


def same_coset(m1, m2, nu, eta):
    # whether m2 = gamma * m1 for gamma with det 1, c = 0 and d = 1 mod nu
    fld = nu.field
    a = m2 * m1.adj()
    for e in a.entries():
        if not divides(eta, e):
            return False
    q = Mat2(*(exact_div(e, eta) for e in a.entries()))
    return q.det() == fld.one and divides(nu, q.c) and divides(nu, q.d - fld.one)


def coset_reps_bruteforce(fld, nu, eta, budget=5):
    # reference for coset_representatives: scan matrices with det = eta,
    # a = 1 and c = 0 mod nu in growing coordinate boxes, one per coset,
    # until coset_count is reached or the budget box is spent; returns what
    # the last box found
    target = coset_count(eta)
    reps = []
    for lim in range(1, budget + 1):
        box = [fld.elt(x, y) for x in range(-lim, lim + 1) for y in range(-lim, lim + 1)]
        box.sort(key=lambda z: z.sort_key())
        avals = [a for a in box if divides(nu, a - fld.one)]
        cvals = [c for c in box if divides(nu, c)]
        reps = []
        for a in avals:
            for c in cvals:
                if a.is_zero() and c.is_zero():
                    continue
                g, s, t = xgcd(a, c)
                if not divides(g, eta):
                    continue
                w = exact_div(eta, g)
                b0, d0 = -(t * w), s * w
                ag, cg = exact_div(a, g), exact_div(c, g)
                for k in box:
                    m = Mat2(a, b0 + k * ag, c, d0 + k * cg)
                    if not any(same_coset(r, m, nu, eta) for r in reps):
                        reps.append(m)
                        if len(reps) == target:
                            return reps
    return reps


def test_coset_representatives_match_bruteforce():
    for d, nt, et in ORACLE_CASES:
        fld = Field.get(d)
        nu, eta = parse_element(fld, nt), parse_element(fld, et)
        built = coset_representatives(fld, nu, eta)
        found = coset_reps_bruteforce(fld, nu, eta)
        assert len(built) == len(found) == coset_count(eta), (d, nt, et)
        for r in built:
            assert sum(1 for s in found if same_coset(s, r, nu, eta)) == 1
        # pairwise inequivalent (injectivity half of the coset matching)
        for i, r in enumerate(built):
            for s in built[i + 1:]:
                assert not same_coset(r, s, nu, eta)


def test_bruteforce_misses_a_coset_the_hermite_forms_reach():
    # the default search box finds 7 of the 8 cosets of eta = 1-2w at this
    # level, each of them one of the Hermite representatives
    fld = Field.get(7)
    nu, eta = parse_element(fld, "2+4w"), parse_element(fld, "1-2w")
    built = coset_representatives(fld, nu, eta)
    found = coset_reps_bruteforce(fld, nu, eta, budget=5)
    assert len(built) == coset_count(eta) == 8
    assert len(found) == 7
    for s in found:
        assert sum(1 for r in built if same_coset(r, s, nu, eta)) == 1


# every level up to these norms, per weight, in all five fields
SWEEP_NORMS = {2: 10, 4: 4, 6: 4}


def sweep_cases():
    # first the two levels where coset_reps_bruteforce at budget 5 falls short
    for d, nt, et in [(7, "2+4w", "1-2w"), (11, "1-2w", "3")]:
        fld = Field.get(d)
        yield symbol_space(fld, parse_element(fld, nt)), parse_element(fld, et)
    for d in (1, 2, 3, 7, 11):
        fld = Field.get(d)
        for weight, bound in SWEEP_NORMS.items():
            for n in range(2, bound + 1):
                for nu in canonical_elements_of_norm(fld, n):
                    sp = symbol_space(fld, nu, weight)
                    if sp.dim:
                        yield sp, first_etas(fld, nu, 1)[0]


def test_production_equals_oracle_sweep():
    covered = set()
    for sp, eta in sweep_cases():
        prod, orac = hecke_on_manin(sp, eta), hecke_oracle(sp, eta)
        case = (sp.field.d, str(sp.level), sp.weight, str(eta))
        assert prod.matrix == orac.matrix, case
        assert prod.cuspidal_matrix == orac.cuspidal_matrix, case
        covered.add((sp.field.d, sp.weight))
    assert covered == {(d, k) for d in (1, 2, 3, 7, 11) for k in SWEEP_NORMS}


@pytest.mark.parametrize("damage", ["drop", "duplicate"])
def test_oracle_sees_a_wrong_coset_list(monkeypatch, damage):
    fld = Field.get(7)
    sp = symbol_space(fld, parse_element(fld, "2+4w"))
    eta = parse_element(fld, "1-2w")
    real = coset_representatives

    def damaged(*args):
        reps = real(*args)
        return reps[:-1] if damage == "drop" else reps + reps[:1]

    monkeypatch.setattr("bianchi.hecke.coset_representatives", damaged)
    assert hecke_oracle(sp, eta).matrix != hecke_on_manin(sp, eta).matrix


def test_coset_invariants_fire_under_python_O(run_optimized):
    # a level inverse that is not invertible, an SL2 move of determinant 0,
    # and a representative that misses the congruences
    out = run_optimized(
        "from bianchi import hecke\n"
        "from bianchi.quadints import Field, InvariantError\n"
        "fld = Field.get(1)\n"
        "three, two = fld.from_int(3), fld.from_int(2)\n"
        "def attempt(name):\n"
        "    try:\n"
        "        hecke.coset_representatives(fld, three, two)\n"
        "    except InvariantError as exc:\n"
        "        print(name + ':', exc)\n"
        "inverse_mod, xgcd = hecke.inverse_mod, hecke.xgcd\n"
        "hecke.inverse_mod = lambda delta, nu: nu\n"
        "attempt('gcd')\n"
        "hecke.inverse_mod = inverse_mod\n"
        "hecke.xgcd = lambda a, b: (fld.one, fld.zero, fld.zero)\n"
        "attempt('det')\n"
        "hecke.xgcd = xgcd\n"
        "hecke.inverse_mod = lambda delta, nu: fld.one\n"
        "attempt('congruence')\n"
    )
    assert [line.split(":")[0] for line in out] == ["gcd", "det", "congruence"], out


def random_sl2(fld, rng, length=5):
    s = Mat2(fld.zero, -fld.one, fld.one, fld.zero)
    gens = [s,
            Mat2(fld.one, fld.one, fld.zero, fld.one),
            Mat2(fld.one, -fld.one, fld.zero, fld.one),
            Mat2(fld.one, fld.omega, fld.zero, fld.one),
            Mat2(fld.one, -fld.omega, fld.zero, fld.one)]
    m = Mat2.identity(fld)
    for _ in range(rng.randrange(1, length + 1)):
        m = m * rng.choice(gens)
    return m


def test_section_pair_properties():
    # sample check of the compatibility properties between the coset section
    # phi (lift of the bottom row) and the congruence matrices of det eta
    rng = random.Random(11)
    for d, nt, et in [(1, "3", "1+1w"), (2, "1+1w", "w")]:
        fld = Field.get(d)
        nu, eta = parse_element(fld, nt), parse_element(fld, et)
        sp = symbol_space(fld, nu)
        reps = coset_representatives(fld, nu, eta)

        def phi(mat):
            u, v = reduce_mod(mat.c, nu), reduce_mod(mat.d, nu)
            return lift_to_sl2(fld, nu, u, v)

        for delta in reps:
            for _ in range(4):
                gamma = delta.adj() * random_sl2(fld, rng)
                g = random_sl2(fld, rng)
                # (1) phi(gamma * g) and phi(gamma) * g share a coset
                assert same_coset(phi(gamma) * g, phi(gamma * g), nu, fld.one)
                # (2) phi(gamma) * adj(gamma) lands in the congruence set
                m = phi(gamma) * gamma.adj()
                assert m.det() == eta
                assert divides(nu, m.c) and divides(nu, m.a - fld.one)


def test_commutativity():
    for space in spaces():
        fld, nu = space.field, space.level
        etas = first_etas(fld, nu, 3)
        ops = [hecke_on_manin(space, e) for e in etas]
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                assert commute_check(ops[i], ops[j])


def test_commute_check_rejects_space_mismatch():
    fld = Field.get(1)
    sp1 = symbol_space(fld, parse_element(fld, "3"))
    sp2 = symbol_space(fld, parse_element(fld, "2+1w"))
    eta = parse_element(fld, "1+1w")
    with pytest.raises(ValueError):
        commute_check(hecke_on_manin(sp1, eta), hecke_on_manin(sp2, eta))


# every determinant here has different "low" and "high" families; each level
# has coprime and non-coprime ones
TIE_CASES = [
    (1, "3", 2, ["1+w", "2", "3", "3+w"]),
    (2, "1+1w", 4, ["w", "2", "3"]),
    (3, "2", 6, ["2-w", "2"]),
    (7, "w", 4, ["1-w", "w", "2", "1+w"]),
    (7, "1+w", 6, ["w", "1+w"]),
    (11, "1-2w", 2, ["2", "3", "1-2w"]),
]


def test_tie_break_invariance_on_quotient():
    # Merel's condition, certified by telescoping for both tie rules, makes
    # the operator independent of the family; production takes no tie, so
    # it is held against the reference sum over the "high" families
    for d, level, weight, etas in TIE_CASES:
        fld = Field.get(d)
        sp = symbol_space(fld, parse_element(fld, level), weight)
        assert sp.dim > 0
        coprime = 0
        for text in etas:
            alpha = parse_element(fld, text)
            assert heilbronn_family(alpha, "low") != heilbronn_family(alpha, "high")
            coprime += gcd(alpha, sp.level).is_unit()
            want = heilbronn_action_reference(sp, alpha, "high")
            assert Mat.of_int(heilbronn_action(sp, alpha)) == want, (d, level, weight, text)
        assert 0 < coprime < len(etas)
    # the reference-level table, entry by entry, from "high" slash sums
    space, systems = reference_form()
    phi = DualFunctional(space, systems[0].functional)
    x = seed_from_vector(space, systems[0].vector)
    table = fourier_coefficients(phi, x, 30)
    high = {alpha: functional_slash(phi, heilbronn_family(alpha, "high"), x)
            for alpha in table.entries}
    assert table.entries == high and any(high.values())


def test_dropped_operator_is_freed():
    # nothing memoises an operator: dropping the result frees its matrix
    fld = Field.get(11)
    sp = symbol_space(fld, parse_element(fld, "1-2w"))
    op = hecke_on_manin(sp, fld.from_int(2))
    ref = weakref.ref(op.matrix)
    del op
    gc.collect()
    assert ref() is None


def test_eigensystems_builds_each_operator_once(monkeypatch):
    import bianchi.hecke as hecke_mod

    calls = Counter()
    batches = []
    real = hecke_mod.heilbronn_actions

    def counted(space, alphas):
        calls.update(alphas)
        batches.append(len(alphas))
        return real(space, alphas)

    monkeypatch.setattr(hecke_mod, "heilbronn_actions", counted)
    fld = Field.get(11)
    sp = symbol_space(fld, parse_element(fld, "1-2w"))
    etas = first_etas(fld, sp.level, 8)
    tab = eigensystems(sp, etas)
    # the one-dimensional system also needs every operator for its functional
    assert tab.systems[0].functional is not None
    assert calls == Counter(etas) and batches == [len(etas)]


def test_associate_etas_give_equal_operators():
    # observed relation: the quotient matrix only depends on eta up to units
    for d, nt in [(1, "3"), (3, "2"), (11, "2")]:
        fld = Field.get(d)
        sp = symbol_space(fld, parse_element(fld, nt))
        eta = first_etas(fld, sp.level, 1)[0]
        base = hecke_matrix(sp, eta)
        for u in fld.units:
            assert hecke_matrix(sp, u * eta) == base


def test_cuspidal_columns_contained():
    fld = Field.get(11)
    sp = symbol_space(fld, parse_element(fld, "1-2w"))
    cusp = cuspidal_subspace(sp)
    mat = hecke_matrix(sp, parse_element(fld, "2"))
    for b in cusp.basis:
        assert cusp.coords(mat.matvec(b)) is not None


def test_eigensystems_empty_without_cusp_forms():
    fld = Field.get(1)
    sp = symbol_space(fld, parse_element(fld, "3"))
    tab = eigensystems(sp, first_etas(fld, sp.level, 2))
    assert tab.systems == [] and tab.residual_factors == []


def test_eigensystems_rejects_bad_eta():
    fld = Field.get(11)
    sp = symbol_space(fld, parse_element(fld, "1-2w"))
    with pytest.raises(ValueError):
        eigensystems(sp, [sp.level])


@pytest.mark.parametrize("bad, match", [
    ("0", "eta must be nonzero"),
    ("1-2w", "eta must be coprime to the level"),
    # norm 9,003,003: its family would start about 9 million chains
    ("3000+w", "starts at least 9003004 division chains, above the"),
], ids=["zero", "not-coprime", "past-start-limit"])
def test_eigensystems_checks_every_eta_before_any_operator(monkeypatch, bad, match):
    # check_eta refuses each bad eta, beside good ones, before the cuspidal
    # subspace or any operator is built
    import bianchi.hecke as hecke_mod

    def never(*args):
        raise AssertionError("built before every eta was checked")

    monkeypatch.setattr(hecke_mod, "heilbronn_actions", never)
    monkeypatch.setattr(hecke_mod, "cuspidal_subspace", never)
    fld = Field.get(11)
    sp = symbol_space(fld, parse_element(fld, "1-2w"))
    etas = first_etas(fld, sp.level, 2)
    with pytest.raises(ValueError, match=match):
        eigensystems(sp, [etas[0], parse_element(fld, bad), etas[1]])


def test_first_rational_eigensystem():
    # smallest level in any of the five fields with a cuspidal class: d = 11,
    # nu = 1 - 2w of norm 11, one-dimensional cuspidal space
    fld = Field.get(11)
    sp = symbol_space(fld, parse_element(fld, "1-2w"))
    assert cuspidal_subspace(sp).dim == 1
    etas = first_etas(fld, sp.level, 8)
    tab = eigensystems(sp, etas)
    assert len(tab.systems) == 1 and not tab.residual_factors
    s = tab.systems[0]
    assert s.label == "a" and s.dim == 1
    expected = {"w": -1, "1-w": -1, "2": 0, "1+w": 1, "2-w": 1,
                "2+w": -2, "3-w": -2, "3": 1}
    assert {str(k): v for k, v in s.eigenvalues.items()} == expected
    v, phi = s.vector, s.functional
    assert vec_dot(phi, v) == 1
    for eta, a in s.eigenvalues.items():
        mat = Mat.of_int(hecke_matrix(sp, eta))
        assert mat.matvec(v) == vec_scale(v, a)
        assert mat.transpose().matvec(phi) == vec_scale(phi, a)


def test_eigenvalue_multiplicativity_on_split_prime():
    # 3 = w * (1 - w) up to a unit in the d = 11 integers; the eigenvalue at
    # 3 must be the product of the eigenvalues at the two prime factors
    fld = Field.get(11)
    sp = symbol_space(fld, parse_element(fld, "1-2w"))
    w, wb, three = (parse_element(fld, t) for t in ("w", "1-w", "3"))
    tab = eigensystems(sp, [w, wb, three])
    s = tab.systems[0]
    assert s.eigenvalues[three] == s.eigenvalues[w] * s.eigenvalues[wb]


def test_oldform_block_at_composite_level():
    # nu = w * (1 - 2w) (norm 33): the norm-11 system reappears with
    # multiplicity two and the same eigenvalues
    fld = Field.get(11)
    new = symbol_space(fld, parse_element(fld, "1-2w"))
    old = symbol_space(fld, parse_element(fld, "6-w"))
    etas = first_etas(fld, fld.from_int(33), 3, bound=12)
    t_new = eigensystems(new, etas)
    t_old = eigensystems(old, etas)
    assert len(t_old.systems) == 1
    s = t_old.systems[0]
    assert s.dim == 2
    assert s.vector is None and s.functional is None
    assert s.eigenvalues == t_new.systems[0].eigenvalues


def test_left_functional_is_none_off_the_integer_eigenvalues():
    # T1 = diag(1, 2) and T2 = I / 2: the left eigenspace of T1 for 1 is the
    # line of e0, where T2 restricts to 1/2 over the denominator 2, so 1/2 is
    # its eigenvalue and 1/3 (2 * 1/3 not an integer) is none
    t1 = IntMat(np.array([[1, 0], [0, 2]], dtype=np.int64), 1)
    t2 = IntMat(np.array([[1, 0], [0, 1]], dtype=np.int64), 2)
    mats = {"t1": t1, "t2": t2}
    vector = {0: Fraction(3)}
    assert _left_functional(2, mats, {"t1": 1, "t2": Fraction(1, 2)}, vector) == \
        {0: Fraction(1, 3)}
    assert _left_functional(2, mats, {"t1": 1, "t2": Fraction(1, 3)}, vector) is None
    # an eigenvalue of neither operator, and one the first operator lacks
    assert _left_functional(2, mats, {"t1": Fraction(1, 2), "t2": Fraction(1, 2)},
                            vector) is None
    assert _left_functional(2, mats, {"t1": 3, "t2": Fraction(1, 2)}, vector) is None
    # the functional must pair to a nonzero value with the vector
    assert _left_functional(2, mats, {"t1": 2, "t2": Fraction(1, 2)}, vector) is None


def left_functional_reference(dim, mats, vals, vector):
    # _left_functional on Fraction transposes, restrictions and kernels
    space = full_reference(dim)
    for eta, mat in mats.items():
        r = restrict_reference(space, mat.transpose())
        null = kernel_reference(r - Mat.identity(space.dim).scale(vals[eta]))
        space = RefSpace(dim, [lift_reference(space, v) for v in null])
        if space.dim == 0:
            return None
    for phi in space.basis:
        c = vec_dot(phi, vector)
        if c:
            return {key: val / c for key, val in phi.items()}
    return None


def eigensystems_reference(space, etas):
    # the refinement of eigensystems on the Fraction route: (eigenvalues,
    # dim, vector, functional) per system in label order, and the residual
    # factors; the operators and the cuspidal subspace are its inputs
    order = sorted(set(etas), key=lambda e: e.sort_key())
    cusp = cuspidal_subspace(space)
    full = {eta: Mat.of_int(hecke_matrix(space, eta)) for eta in order}
    pieces = [({}, full_reference(cusp.dim))] if cusp.dim else []
    residuals = []
    for eta in order:
        restricted = restrict_reference(cusp, full[eta])
        refined = []
        for vals, sub in pieces:
            eigs, residual = rational_eigensystem_reference(restricted, sub)
            if len(residual) > 1:
                residuals.append((eta, residual))
            refined += [({**vals, eta: val}, RefSpace(cusp.dim, basis)) for val, basis in eigs]
        pieces = refined
    pieces.sort(key=lambda piece: tuple(piece[0][e] for e in order))
    systems = []
    for vals, sub in pieces:
        vector = functional = None
        if sub.dim == 1:
            vector = lift_reference(cusp, sub.basis[0])
            functional = left_functional_reference(space.dim, full, vals, vector)
        systems.append((vals, sub.dim, vector, functional))
    return systems, residuals


# perfbench's survey runs eigen at these levels
SURVEY_EIGEN_LEVELS = [(2, "5"), (7, "5"), (11, "1-2w"), (11, "4"), (11, "5")]


EIGEN_PARITY_LEVELS = sorted(set(DEFAULT_COMMUTE_LEVELS) | {REFERENCE_FORM[:2]}
                             | set(SURVEY_EIGEN_LEVELS))


@pytest.mark.parametrize("d, level", EIGEN_PARITY_LEVELS)
def test_eigensystems_match_fraction_route(d, level):
    fld = Field.get(d)
    sp = symbol_space(fld, parse_element(fld, level))
    etas = _coprime_etas(fld, sp.level, REFERENCE_FORM[2])
    table = eigensystems(sp, etas)
    got = [(s.eigenvalues, s.dim, s.vector, s.functional) for s in table.systems]
    assert (got, table.residual_factors) == eigensystems_reference(sp, etas)
    if (d, level) == REFERENCE_FORM[:2]:
        assert any(functional is not None for *_, functional in got)


def test_irrational_residuals_reported():
    fld = Field.get(7)
    sp = symbol_space(fld, fld.from_int(5))
    assert cuspidal_subspace(sp).dim == 2
    tab = eigensystems(sp, [parse_element(fld, "w")])
    assert tab.systems == []
    assert [(str(e), r) for e, r in tab.residual_factors] == [("w", [2, 2, 1])]


def heilbronn_action_reference(space, alpha, tie="low"):
    # the per-member Fraction loop the int gather in heilbronn_action
    # replaced: the scalar act_point, one quotient vector per hit
    fam = heilbronn_family(alpha, tie)
    npts = len(space.points)
    sub_rows = (None if space.weight == 2
                else [slash_rows_reference(space, Mat2.from_row(space.field, m).adj())
                      for m in fam])
    out = Mat(space.dim, space.dim)
    for j, g in enumerate(space.free_gens):
        col: dict = {}
        if space.weight == 2:
            for m in fam:
                pt = act_point(space, g, m)
                if pt is not None:
                    vec_axpy(col, Fraction(1), space.qmap.vector(pt))
        else:
            comp, p = divmod(g, npts)
            for m, rows in zip(fam, sub_rows):
                pt = act_point(space, p, m)
                if pt is None:
                    continue
                for cj, cv in rows[comp].items():
                    vec_axpy(col, Fraction(cv), space.qmap.vector(cj * npts + pt))
        for i, c in col.items():
            out.add_to(i, j, c)
    return out


# level 6 is the only level up to norm 40 whose quotient map has non-integral
# entries (denominator 2); survey reaches none of them
ACTION_CASES = [
    (2, "6", 2, ["3-w", "3+2w", "2", "w", "3", "1+w"]),
    (7, "6", 2, ["1-2w", "3+2w", "2", "w", "3", "1+w"]),
    (11, "6", 2, ["1+w", "4+w", "2", "w", "3", "1-w"]),
    (1, "2+1w", 4, ["1+1w", "3", "2+1w", "1+2w"]),
    (3, "2", 4, ["1+1w", "2", "3"]),
    (11, "w", 4, ["2", "w", "1-w"]),
    (7, "w", 6, ["1-2w", "w", "2"]),
    (2, "1+1w", 6, ["w", "1+1w", "3"]),
]


@pytest.mark.parametrize("d, level, weight, etas", ACTION_CASES,
                         ids=[f"d{d}-{lv}-k{k}" for d, lv, k, _ in ACTION_CASES])
def test_heilbronn_action_matches_fraction_loop(d, level, weight, etas):
    fld = Field.get(d)
    sp = symbol_space(fld, parse_element(fld, level), weight)
    assert sp.dim > 0
    coprime = 0
    for text in etas:
        alpha = parse_element(fld, text)
        coprime += gcd(alpha, sp.level).is_unit()
        got = heilbronn_action(sp, alpha)
        assert got.num.dtype == np.int64 and got.den == sp.qmap.den
        for tie in ("low", "high"):
            want = heilbronn_action_reference(sp, alpha, tie)
            assert Mat.of_int(got) == want, (d, level, weight, text, tie)
    # both the Hecke operators and the bare family sums are covered
    assert 0 < coprime < len(etas)


@pytest.mark.parametrize("d, level, weight", [(1, "1", 2), (7, "1", 2), (1, "1+w", 4),
                                              (3, "2-w", 4)])
def test_heilbronn_action_on_a_zero_space(d, level, weight):
    # no free generators: every family gives the 0 x 0 matrix
    fld = Field.get(d)
    sp = symbol_space(fld, parse_element(fld, level), weight)
    assert sp.dim == 0
    for text in ("1", "2", "1+w"):
        got = heilbronn_action(sp, parse_element(fld, text))
        assert got.num.shape == (0, 0)
        assert Mat.of_int(got) == heilbronn_action_reference(sp, parse_element(fld, text))


def commute_check_reference(a, b):
    # the Fraction product comparison commute_check replaced
    return all(Mat.of_int(x) * Mat.of_int(y) == Mat.of_int(y) * Mat.of_int(x)
               for x, y in ((a.matrix, b.matrix), (a.cuspidal_matrix, b.cuspidal_matrix)))


def test_commute_check_agrees_with_fraction_products():
    for d, level in [(1, "2+1w"), (2, "6"), (7, "6"), (11, "6"), (11, "6-w")]:
        fld = Field.get(d)
        sp = symbol_space(fld, parse_element(fld, level))
        ops = [hecke_on_manin(sp, e) for e in first_etas(fld, sp.level, 4)]
        for a in ops:
            for b in ops:
                assert commute_check(a, b) == commute_check_reference(a, b), (d, level)


def perturbed(op, i, j, c, cuspidal=False):
    # the operator with c added to one entry of its full or cuspidal matrix
    mats = [op.matrix, op.cuspidal_matrix]
    m = Mat.of_int(mats[cuspidal])
    m.add_to(i, j, c)
    mats[cuspidal] = m.to_int()
    return HeckeOperator(op.space, op.eta, *mats)


def test_commute_check_negative_control():
    # d = 11, level 6: the operators have entries with denominator 2
    fld = Field.get(11)
    sp = symbol_space(fld, parse_element(fld, "6"))
    a, b = (hecke_on_manin(sp, e) for e in first_etas(fld, sp.level, 2))
    assert any(c.denominator == 2 for row in Mat.of_int(a.matrix).rows for c in row.values())
    assert a.matrix.den == 2
    # a third of an operator against halves still commutes
    third = HeckeOperator(sp, a.eta, IntMat(a.matrix.num, 3 * a.matrix.den),
                          IntMat(a.cuspidal_matrix.num, 3 * a.cuspidal_matrix.den))
    assert commute_check(third, b) and commute_check(b, third)
    # one numerator moved by one, at the full and at the cuspidal level
    nudged = []
    for m in (a.matrix, a.cuspidal_matrix):
        num = m.num.copy()
        num[0, 1] += 1
        nudged.append(IntMat(num, m.den))
    for bad in (perturbed(a, 0, 1, Fraction(1, 3)), perturbed(third, 0, 1, 1),
                perturbed(a, 0, 1, 1, cuspidal=True),
                HeckeOperator(sp, a.eta, nudged[0], a.cuspidal_matrix),
                HeckeOperator(sp, a.eta, a.matrix, nudged[1])):
        assert not commute_check_reference(bad, b)
        assert not commute_check(bad, b) and not commute_check(b, bad)


# the levels perfbench's survey builds: weight 2 to norm 25, weight 4 to norm 7
SURVEY_WEIGHTS = ((2, 25), (4, 7))


def survey_spaces(d):
    fld = Field.get(d)
    for weight, bound in SURVEY_WEIGHTS:
        for n in range(2, bound + 1):
            for nu in canonical_elements_of_norm(fld, n):
                yield symbol_space(fld, nu, weight)


def assert_int_layer_matches(sp, count=4, every_pair=True):
    # production operators, cuspidal restrictions and commutation checks
    # against the Fraction references, at count coprime etas; every ordered
    # pair of them is checked, or only the first two when every_pair is off
    cusp = cuspidal_subspace(sp)
    ops = []
    for eta in first_etas(sp.field, sp.level, count):
        op = hecke_on_manin(sp, eta)
        where = (sp.field.d, str(sp.level), sp.weight, str(eta))
        ref = heilbronn_action_reference(sp, eta)
        assert Mat.of_int(op.matrix) == ref, where
        assert Mat.of_int(op.cuspidal_matrix) == restrict_reference(cusp, ref), where
        ops.append(op)
    pairs = [(a, b) for a in ops for b in ops] if every_pair else [ops[:2]]
    for a, b in pairs:
        assert commute_check(a, b) == commute_check_reference(a, b)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 11])
def test_int_layer_matches_fraction_reference_on_survey_levels(d):
    spaces = list(survey_spaces(d))
    assert {sp.weight for sp in spaces} == {2, 4}
    for sp in spaces:
        assert_int_layer_matches(sp)


def test_int_layer_matches_fraction_reference_at_a_large_level():
    # d = 11 level 9: dimension 103, quotient entries up to 61 in size; the
    # Fraction products of 103 x 103 matrices take most of a second each, so
    # one pair is compared there
    fld = Field.get(11)
    sp = symbol_space(fld, fld.from_int(9))
    assert sp.dim == 103 and absmax(sp.qmap.matrix) > 30 * sp.qmap.den
    assert_int_layer_matches(sp, every_pair=False)


def test_int_layer_refuses_a_non_invariant_subspace():
    # restriction is an invariance certificate on ints as it was on Fractions
    fld = Field.get(11)
    sp = symbol_space(fld, parse_element(fld, "1-2w"))
    mat = hecke_matrix(sp, fld.from_int(2))
    line = Subspace(sp.dim, [{0: Fraction(1), 1: Fraction(1, 3)}])
    with pytest.raises(ValueError):
        restrict_reference(line, Mat.of_int(mat))
    with pytest.raises(ValueError):
        line.restrict_ints(mat)


def charpoly_parity(sp, etas):
    # every cuspidal operator's characteristic polynomial and rational
    # eigensystem against the Fraction charpoly and p/q root search
    cusp = cuspidal_subspace(sp)
    assert cusp.dim > 0
    for eta in etas:
        restricted = cusp.restrict_ints(hecke_matrix(sp, eta))
        mat = Mat.of_int(restricted)
        den, num = int_rows(mat)
        n = cusp.dim
        assert charpoly(num) == [c * den ** (n - k)
                                 for k, c in enumerate(charpoly_reference(mat))]
        eigs, residual = rational_eigensystem(restricted)
        assert ([(val, es.basis) for val, es in eigs], residual) == \
            rational_eigensystem_reference(mat)


@pytest.mark.parametrize("d, level", SURVEY_EIGEN_LEVELS)
def test_charpoly_matches_fraction_route_on_survey_eigen_levels(d, level):
    fld = Field.get(d)
    sp = symbol_space(fld, parse_element(fld, level))
    charpoly_parity(sp, _coprime_etas(fld, sp.level, 8))


def test_charpoly_matches_fraction_route_at_a_large_level():
    # the eight cuspidal operators of eigen --d 11 --level 9 (dimension 22)
    fld = Field.get(11)
    sp = symbol_space(fld, fld.from_int(9))
    assert cuspidal_subspace(sp).dim == 22
    charpoly_parity(sp, _coprime_etas(fld, sp.level, 8))


def test_int_range_checks_fire_under_python_O(run_optimized):
    # every int64 range check of the operator layer raises InvariantError
    out = run_optimized(
        "from fractions import Fraction\n"
        "import numpy as np\n"
        "from bianchi import hecke, linalg, symbols\n"
        "from bianchi.quadints import Field, InvariantError, parse_element\n"
        "def attempt(name, fn, *args):\n"
        "    try:\n"
        "        fn(*args)\n"
        "    except InvariantError as exc:\n"
        "        print(name + ':', exc)\n"
        "fld = Field.get(11)\n"
        "fresh = lambda weight: symbols.SymbolSpace(fld, parse_element(fld, '1-2w'), weight)\n"
        "big = 2**62\n"
        "attempt('map entry', fresh(2)._quotient, [{0: 1, 1: -2**70}], [0, 1])\n"
        "attempt('map den', fresh(2)._quotient, [{0: 2**70, 1: 1}], [0, 1])\n"
        "one = np.ones((2, 2), dtype=np.int64)\n"
        "attempt('terms', symbols.QuotientMap.build, np.full((2, 2), 2**61, dtype=np.int64), 1,\n"
        "        np.zeros((2, 2), dtype=np.int64), 2 * one, 'at a test map')\n"
        "attempt('from_columns', linalg.IntMat.from_columns, [{0: Fraction(1, 2**64)}], 1)\n"
        "attempt('den', linalg.IntMat, np.zeros((1, 1), dtype=np.int64), 0)\n"
        "attempt('basis', lambda: linalg.Subspace(2, [{0: 1, 1: Fraction(1, 2**70)}]).int_basis)\n"
        "full = np.full((2, 2), big, dtype=np.int64)\n"
        "attempt('product', linalg.int_product, full, full)\n"
        "line = linalg.Subspace(2, [{0: 1, 1: Fraction(1, 2**40)}])\n"
        "op = linalg.IntMat(np.array([[2**20, 0], [0, 0]], dtype=np.int64), 1)\n"
        "attempt('restrict', line.restrict_ints, op)\n"
        "for weight in (2, 4, 6):\n"
        "    space = fresh(weight)\n"
        "    q = space.qmap\n"
        "    space.qmap = symbols.QuotientMap(np.full_like(q.matrix, big), q.den, q.row, q.coef)\n"
        "    attempt(f'action {weight}', hecke.heilbronn_action, space, fld.from_int(2))\n"
        "sp = symbols.symbol_space(fld, parse_element(fld, '1-2w'))\n"
        "a = hecke.hecke_on_manin(sp, fld.from_int(2))\n"
        "huge = hecke.HeckeOperator(sp, a.eta, linalg.IntMat(np.full_like(a.matrix.num, big), 1),\n"
        "                           a.cuspidal_matrix)\n"
        "attempt('commute', hecke.commute_check, huge, a)\n"
    )
    assert [line.split(":")[0] for line in out] == [
        "map entry", "map den", "terms", "from_columns", "den", "basis", "product", "restrict",
        "action 2", "action 4", "action 6", "commute"], out


# a batch of one, a repeated eta, families of mixed sizes (etas coprime to
# the level and not), and weights 4 and 6
BATCH_CASES = [
    (11, "1-2w", 2, ["2"]),
    (7, "6", 2, ["3+2w", "w", "3+2w"]),
    (2, "6", 2, ["1", "3-w", "2", "3+2w", "w"]),
    (1, "2+1w", 4, ["1+1w", "3", "1+1w"]),
    (7, "w", 6, ["1-2w", "w", "2"]),
]


@pytest.mark.parametrize("d, level, weight, etas", BATCH_CASES,
                         ids=[f"d{d}-{lv}-k{k}" for d, lv, k, _ in BATCH_CASES])
def test_heilbronn_actions_batch_matches_fraction_loop(d, level, weight, etas):
    fld = Field.get(d)
    sp = symbol_space(fld, parse_element(fld, level), weight)
    alphas = [parse_element(fld, text) for text in etas]
    got = heilbronn_actions(sp, alphas)
    assert len(got) == len(alphas)
    for alpha, mat in zip(alphas, got):
        assert mat.den == sp.qmap.den
        assert Mat.of_int(mat) == heilbronn_action_reference(sp, alpha), (d, level, str(alpha))
    if len(alphas) > 2:
        assert len({len(heilbronn_family(a)) for a in alphas}) > 1
    assert heilbronn_actions(sp, []) == []


def test_hecke_operators_batch_equals_one_at_a_time():
    fld = Field.get(11)
    sp = symbol_space(fld, parse_element(fld, "1-2w"))
    etas = first_etas(fld, sp.level, 4)
    for op in hecke_operators(sp, etas + etas[:1]):
        one = hecke_on_manin(sp, op.eta)
        assert (op.matrix, op.cuspidal_matrix) == (one.matrix, one.cuspidal_matrix)
    # every eta is checked before any operator is built
    with pytest.raises(ValueError, match="coprime"):
        hecke_operators(sp, etas + [sp.level])
