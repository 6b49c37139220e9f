"""Tests for cospans with central legs, 2-diagrams, 3-cells, composition in
both directions, the interchanger, and the coherence checkers."""

import importlib
import importlib.util
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from fieldref import ref_solve_3cell_family
from testfixtures import reference_interchanger_grid

from centrum.algebra import (
    AlgebraMap,
    alg_dual_numbers,
    alg_group_c2,
    alg_k,
    alg_matrix,
    alg_product_k,
    compose_maps,
    identity_map,
    is_isomorphism,
    matrix_algebra,
    tensor_algebra,
    unit_map,
    validate_algebra,
    validate_algebra_map,
)
from centrum import corpus
from centrum.bimodule import (
    Bimodule,
    direct_sum_bimodules,
    free_bimodule,
    regular_bimodule,
    tensor_over,
)
from centrum.cospanbicat import (
    BetaResult,
    CoherenceReport,
    Cospan,
    CospanComposition,
    ThreeCell,
    TwoDiagram,
    beta_cell,
    check_beta_naturality,
    check_functor_A_composition,
    check_pentagon,
    check_triangle,
    compose_3cells,
    compose_cospans,
    cospan_morphism_2diagram,
    find_3cell,
    find_invertible_3cell,
    functor_A_embed,
    horizontal_compose,
    identity_2diagram,
    identity_3cell,
    identity_cospan,
    is_invertible_2diagram,
    is_invertible_cospan,
    pushout_universal,
    solve_3cell_family,
    two_diagrams_equal,
    validate_2diagram,
    validate_3cell,
    validate_cospan,
    vertical_compose,
)
from centrum.exactla import (
    MEMO_BOUND,
    QQ,
    Matrix,
    PrimeField,
    content_key,
    is_invertible,
    kron_product,
    random_matrix,
    stack_rows,
)
from centrum.fixtures import (
    _grid_column,
    extend_cospan,
    random_interchanger_grid,
    random_invertible,
    tensor_product_cospan,
    twist_2diagram,
)


# ---------------------------------------------------------------------------
# cospans and their composition


def matrix_cospan(a, b, n: int) -> Cospan:
    """A -> M_n(A (x) B) <- B with scalar-diagonal legs; the apex is not
    commutative for n > 1 but the leg images are central."""
    apex = matrix_algebra(tensor_algebra(a, b), n)
    f = a.field
    # vec(I_n), the identity read row by row, as one column
    vec_i = Matrix.from_columns(
        [[f.one if i == j else f.zero for i in range(n) for j in range(n)]],
        n * n, f)
    tp = tensor_product_cospan(a, b)
    return Cospan(AlgebraMap(a, apex, vec_i.kron(tp.leg_a.mat)),
                  AlgebraMap(b, apex, vec_i.kron(tp.leg_b.mat)))


def test_valid_cospans():
    assert validate_cospan(identity_cospan(alg_group_c2())) == []
    assert validate_cospan(tensor_product_cospan(alg_product_k(2), alg_group_c2())) == []
    assert validate_cospan(matrix_cospan(alg_k(), alg_k(), 2)) == []


def test_invalid_cospan_noncentral_leg():
    k2 = alg_product_k(2)
    m2 = alg_matrix(2)
    diag = AlgebraMap(k2, m2, Matrix.from_columns(
        [[QQ.one, QQ.zero, QQ.zero, QQ.zero],
         [QQ.zero, QQ.zero, QQ.zero, QQ.one]], 4, QQ))
    c = Cospan(diag, unit_map(m2))
    assert any("central" in m for m in validate_cospan(c))


def test_invalid_cospan_noncommutative_outer():
    m2 = alg_matrix(2)
    c = Cospan(identity_map(m2), identity_map(m2))
    msgs = validate_cospan(c)
    assert any("commutative" in m for m in msgs)


def test_compose_identity_cospans():
    b = alg_group_c2()
    comp = compose_cospans(identity_cospan(b), identity_cospan(b))
    assert comp.cospan.apex.dim == 2
    assert validate_algebra(comp.cospan.apex) == []
    assert is_isomorphism(comp.cospan.leg_a) is not None
    assert comp.cospan.leg_a.mat == comp.cospan.leg_b.mat


def test_compose_tensor_cospans():
    k = alg_k()
    k2 = alg_product_k(2)
    c2 = alg_group_c2()
    first = tensor_product_cospan(k2, k)
    second = tensor_product_cospan(k, c2)
    comp = compose_cospans(second, first)
    assert comp.cospan.apex.dim == 4
    assert validate_algebra(comp.cospan.apex) == []
    assert validate_cospan(comp.cospan) == []


def test_compose_disjoint_points_collapses():
    k = alg_k()
    k2 = alg_product_k(2)
    proj0 = AlgebraMap(k2, k, Matrix.from_int_rows([[1, 0]], QQ))
    proj1 = AlgebraMap(k2, k, Matrix.from_int_rows([[0, 1]], QQ))
    first = Cospan(identity_map(k), proj0)
    second = Cospan(proj1, identity_map(k))
    comp = compose_cospans(second, first)
    assert comp.cospan.apex.dim == 0
    # the zero apex composes on either side, to the zero apex
    for c in (compose_cospans(identity_cospan(k), comp.cospan),
              compose_cospans(comp.cospan, identity_cospan(k))):
        assert c.cospan.apex.dim == 0
    # and over the zero algebra itself, as M (x)_0 N = 0 for tensor_over
    zero = identity_cospan(comp.cospan.apex)
    assert compose_cospans(zero, zero).cospan.apex.dim == 0


def test_compose_with_identity_is_isomorphic():
    c = tensor_product_cospan(alg_product_k(2), alg_group_c2())
    comp = compose_cospans(c, identity_cospan(c.a))
    # collapse the composite onto the original apex via the universal map
    w = c.leg_a
    v = identity_map(c.apex)
    u = pushout_universal(comp, w, v)
    assert is_isomorphism(u) is not None
    assert u.mat @ comp.cospan.leg_a.mat == c.leg_a.mat
    assert u.mat @ comp.cospan.leg_b.mat == c.leg_b.mat
    d = cospan_morphism_2diagram(comp.cospan, c, u)
    assert is_invertible_2diagram(d)


def test_pushout_universal_recovers_identity():
    k = alg_k()
    first = tensor_product_cospan(alg_product_k(2), k)
    second = tensor_product_cospan(k, alg_dual_numbers())
    comp = compose_cospans(second, first)
    T, S = first.apex, second.apex
    f = QQ
    wcols = [comp.quot.proj.apply(_pair(T, S, i, None)) for i in range(T.dim)]
    vcols = [comp.quot.proj.apply(_pair(T, S, None, j)) for j in range(S.dim)]
    w = AlgebraMap(T, comp.cospan.apex, Matrix.from_columns(wcols, comp.quot.dim, f))
    v = AlgebraMap(S, comp.cospan.apex, Matrix.from_columns(vcols, comp.quot.dim, f))
    u = pushout_universal(comp, w, v)
    assert u.mat == Matrix.identity(comp.quot.dim, f)


def _pair(T, S, i, j):
    """Flat coordinates of e_i (x) 1 or 1 (x) e_j."""
    t = T.basis_vector(i) if i is not None else T.unit
    s = S.basis_vector(j) if j is not None else S.unit
    out = [QQ.zero] * (T.dim * S.dim)
    for a, x in enumerate(t):
        for b, y in enumerate(s):
            if x and y:
                out[a * S.dim + b] = x * y
    return out


def test_pushout_universal_refuses_a_map_that_fails_its_check(monkeypatch,
                                                              fresh_memos):
    import centrum.cospanbicat as cospanbicat

    c = tensor_product_cospan(alg_product_k(2), alg_group_c2())
    comp = compose_cospans(c, identity_cospan(c.a))
    monkeypatch.setattr(cospanbicat, "validate_algebra_map",
                        lambda f: ["forced violation"])
    with pytest.raises(ValueError, match="universal map is not an algebra map"):
        pushout_universal(comp, c.leg_a, identity_map(c.apex))


def test_a_patched_validator_refuses_over_a_cached_clean_verdict(monkeypatch,
                                                                 fresh_memos):
    """pushout_universal caches the clean verdict on its map; a patched
    validator is still the one called, and its refusal fires."""
    import centrum.cospanbicat as cospanbicat

    c = tensor_product_cospan(alg_product_k(2), alg_group_c2())
    comp = compose_cospans(c, identity_cospan(c.a))
    out = pushout_universal(comp, c.leg_a, identity_map(c.apex))
    computed = validate_algebra_map.misses
    assert validate_algebra_map(out) == []
    assert validate_algebra_map.misses == computed
    monkeypatch.setattr(cospanbicat, "validate_algebra_map",
                        lambda f: ["forced violation"])
    with pytest.raises(ValueError, match="universal map is not an algebra map"):
        pushout_universal(comp, c.leg_a, identity_map(c.apex))


def test_pushout_universal_refuses_factor_maps_with_different_targets():
    c = tensor_product_cospan(alg_product_k(2), alg_group_c2())
    comp = compose_cospans(c, identity_cospan(c.a))
    with pytest.raises(ValueError):
        pushout_universal(comp, identity_map(c.a), identity_map(c.apex))


def test_cospan_morphism_2diagram_refuses_a_map_that_is_not_a_morphism():
    c = tensor_product_cospan(alg_product_k(2), alg_group_c2())
    doubled = AlgebraMap(c.apex, c.apex, Matrix.identity(c.apex.dim, QQ).scale(2))
    with pytest.raises(ValueError, match="not an algebra map"):
        cospan_morphism_2diagram(c, c, doubled)
    swap = Matrix.from_int_rows([[0, 1], [1, 0]], QQ)
    flip = AlgebraMap(c.apex, c.apex, swap.kron(Matrix.identity(2, QQ)))
    with pytest.raises(ValueError, match="does not commute with A legs"):
        cospan_morphism_2diagram(c, c, flip)


def _reference_flat_bilinear_op(u, left_ops, right_ops, field):
    """sum_{(a,b)} u[(a,b)] * (left_ops[a] (x) right_ops[b])."""
    nr = len(right_ops)
    n = left_ops[0].rows * right_ops[0].rows
    out = Matrix.zeros(n, n, field)
    for a, La in enumerate(left_ops):
        for b, Rb in enumerate(right_ops):
            if u[a * nr + b]:
                out = out + La.kron(Rb.scale(u[a * nr + b]))
    return out


def _reference_flat_pair(t, s, field):
    out = [field.zero] * (len(t) * len(s))
    for i, a in enumerate(t):
        for j, b in enumerate(s):
            if a and b:
                out[i * len(s) + j] = a * b
    return out


def _reference_composite(comp):
    """The composite apex, unit and legs as they were built before the apex
    was a quotient of the tensor algebra: structure constants from sums of
    Kronecker products of the factors' multiplication operators, unit and
    legs from flat pairs."""
    first, second, quot = comp.first, comp.second, comp.quot
    T, S = first.apex, second.apex
    f = T.field
    LT = [T.left_mult(T.basis_vector(i)) for i in range(T.dim)]
    LS = [S.left_mult(S.basis_vector(i)) for i in range(S.dim)]
    d = quot.dim
    ops = [_reference_flat_bilinear_op(quot.sect.col_list(i), LT, LS, f)
           for i in range(d)]
    mult = Matrix.from_columns(
        [quot.proj.apply(ops[i].apply(quot.sect.col_list(j)))
         for i in range(d) for j in range(d)], d, f)
    unit = quot.proj.apply(_reference_flat_pair(T.unit, S.unit, f))
    leg_a = Matrix.from_columns(
        [quot.proj.apply(_reference_flat_pair(c, S.unit, f))
         for c in first.leg_a.mat.columns()], d, f)
    leg_b = Matrix.from_columns(
        [quot.proj.apply(_reference_flat_pair(T.unit, c, f))
         for c in second.leg_b.mat.columns()], d, f)
    return mult, unit, leg_a, leg_b


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
def test_composite_apex_matches_the_kronecker_sum_construction(monkeypatch, field):
    import centrum.cospanbicat as cospanbicat

    comps = []

    def recording(second, first):
        comps.append(cospanbicat.CospanComposition(second, first))
        return comps[-1]

    monkeypatch.setattr(cospanbicat, "compose_cospans", recording)
    for seed in range(8):
        beta_cell(*random_interchanger_grid(random.Random(seed), field))
    assert len(comps) >= 16
    # a composite whose apex is not commutative, unlike the grids' apexes
    m2 = matrix_cospan(alg_k(field), alg_k(field), 2)
    comps.append(CospanComposition(m2, m2))
    for comp in comps:
        apex, legs = comp.cospan.apex, comp.cospan
        assert (apex.mult, apex.unit, legs.leg_a.mat, legs.leg_b.mat) == \
            _reference_composite(comp)


FOUR_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(1000003)]
FOUR_FIELD_IDS = ["QQ", "GF2", "GF3", "GF1000003"]


# ---------------------------------------------------------------------------
# 2-diagrams


def test_identity_2diagram_valid():
    c = tensor_product_cospan(alg_product_k(2), alg_group_c2())
    assert validate_2diagram(identity_2diagram(c)) == []


def test_extension_2diagram_valid():
    c = tensor_product_cospan(alg_k(), alg_group_c2())
    c2, d = extend_cospan(c, alg_dual_numbers())
    assert validate_cospan(c2) == []
    assert validate_2diagram(d) == []


def test_twisted_2diagram_valid():
    rng = random.Random(1)
    c = tensor_product_cospan(alg_k(), alg_group_c2())
    d = twist_2diagram(identity_2diagram(c), random_invertible(2, rng))
    assert validate_2diagram(d) == []


def k2_pieces():
    """Pieces over the apex k^2 = product:k^2: its algebra, regular
    bimodule, the (k^2, k^2)-bimodule whose right action swaps the two
    idempotents, and the matrices with the given integer rows."""
    k2 = alg_product_k(2)
    reg = regular_bimodule(k2)
    swapped = Bimodule(k2, k2, 2, reg.lact, reg.ract[::-1])
    return k2, reg, swapped, lambda *rows: Matrix.from_int_rows(rows, QQ)


def broken_2diagrams():
    """(2-diagram, its violation list), each breaking one axiom only."""
    k, c2 = alg_k(), alg_group_c2()
    k2, reg, swapped, mat = k2_pieces()
    I, Z = mat([1, 0], [0, 1]), mat([0, 0], [0, 0])
    units = Cospan(unit_map(k2), unit_map(k2))  # k -> k^2 <- k
    left_id = Cospan(identity_map(k2), unit_map(k2))
    right_id = Cospan(unit_map(k2), identity_map(k2))
    # the idempotents e0 and e1 as legs k -> k^2: not unital, so the legs
    # can disagree on one side only
    idems = Cospan(AlgebraMap(k, k2, mat([1], [0])), AlgebraMap(k, k2, mat([0], [1])))
    # left action conjugate to the regular one: unital and multiplicative,
    # but not commuting with the right action
    skew = Bimodule(k2, k2, 2, [mat([1, 1], [0, 0]), mat([0, -1], [0, 1])], reg.ract)
    other_a = Cospan(AlgebraMap(c2, k2, I), unit_map(k2))
    wrong = mat([2, -1], [0, 1])  # fixes the unit, but is no module map
    return [
        (TwoDiagram(units, units, skew, Z, Z),
         [f"bimodule: actions do not commute at (left e{i}, right e{j})"
          for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))]),
        (TwoDiagram(left_id, other_a, reg, I, I),
         ["source and target cospans have different outer algebras"]),
        (TwoDiagram(left_id, left_id, swapped, Z, Z),
         ["outer action through A disagrees at e0",
          "outer action through A disagrees at e1"]),
        (TwoDiagram(right_id, right_id, swapped, Z, Z),
         ["outer action through B disagrees at e0",
          "outer action through B disagrees at e1"]),
        (TwoDiagram(units, units, reg, wrong, I),
         ["f is not a right module map at e0", "f is not a right module map at e1"]),
        (TwoDiagram(units, units, reg, I, wrong),
         ["g is not a left module map at e0", "g is not a left module map at e1"]),
        (TwoDiagram(idems, idems, reg, I, mat([2, 0], [0, 1])),
         ["legs disagree after the A side"]),
        (TwoDiagram(idems, idems, reg, I, mat([1, 0], [0, 2])),
         ["legs disagree after the B side"]),
        # outer algebras of different dimensions: nothing else is compared
        (TwoDiagram(identity_cospan(k), identity_cospan(k2), free_bimodule(k2, k, 1),
                    Matrix.zeros(2, 1, QQ), Z),
         ["source and target cospans have different outer algebras"]),
    ]


@pytest.mark.parametrize("case", range(9))
def test_validate_2diagram_names_the_one_broken_axiom(case):
    d, expected = broken_2diagrams()[case]
    assert validate_2diagram(d) == expected


def test_validate_3cell_names_the_one_broken_axiom():
    k2, reg, _, mat = k2_pieces()
    I, twice = mat([1, 0], [0, 1]), mat([2, 0], [0, 2])
    units = Cospan(unit_map(k2), unit_map(k2))
    d = identity_2diagram(units)
    other = identity_2diagram(Cospan(identity_map(k2), unit_map(k2)))
    assert validate_3cell(ThreeCell(d, other, I)) == ["2-diagrams are not parallel"]
    assert validate_3cell(ThreeCell(d, TwoDiagram(units, units, reg, twice, I), I)) == [
        "does not intertwine the f legs"]
    assert validate_3cell(ThreeCell(d, TwoDiagram(units, units, reg, I, twice), I)) == [
        "does not intertwine the g legs"]


def test_vertical_compose_valid_and_isomorphic_to_direct():
    c0 = tensor_product_cospan(alg_k(), alg_group_c2())
    c1, d1 = extend_cospan(c0, alg_product_k(2))
    c2_, d2 = extend_cospan(c1, alg_dual_numbers())
    comp = vertical_compose(d2, d1)
    assert validate_2diagram(comp) == []
    h21 = compose_maps(_morphism_of(d2), _morphism_of(d1))
    direct = cospan_morphism_2diagram(c0, c2_, h21)
    res = find_invertible_3cell(comp, direct)
    assert res.found and res.certified
    assert validate_3cell(res.cell) == []


def _morphism_of(d: TwoDiagram) -> AlgebraMap:
    """Recover the algebra map of a morphism-induced 2-diagram (g = id)."""
    return AlgebraMap(d.src.apex, d.tgt.apex, d.f)


def test_horizontal_compose_valid():
    k = alg_k()
    b = alg_group_c2()
    s1 = tensor_product_cospan(k, b)
    t1 = tensor_product_cospan(b, k)
    _, dl = extend_cospan(s1, alg_product_k(2))
    dr = identity_2diagram(t1)
    comp = horizontal_compose(dr, dl)
    assert validate_2diagram(comp) == []
    assert validate_cospan(comp.src) == [] and validate_cospan(comp.tgt) == []


def test_horizontal_compose_of_identities_has_identity_legs():
    k = alg_k()
    b = alg_product_k(2)
    s1 = tensor_product_cospan(k, b)
    t1 = tensor_product_cospan(b, k)
    comp = horizontal_compose(identity_2diagram(t1), identity_2diagram(s1))
    assert validate_2diagram(comp) == []
    assert is_invertible(comp.f) and is_invertible(comp.g)


def _restricted_tensor(right: TwoDiagram, left: TwoDiagram):
    """left.M (x)_B right.M as the tensor of two bimodules over B: B acts on
    left.M through the source cospan's B leg and on right.M through the
    target cospan's, the construction horizontal_compose reads directly as
    relations."""
    B = left.src.b
    M1, M2 = left.M, right.M
    m1b = Bimodule(M1.left, B, M1.dim, M1.lact,
                   [M1.ract_of(left.src.leg_b.mat.col_list(j)) for j in range(B.dim)])
    m2b = Bimodule(B, M2.right, M2.dim,
                   [M2.lact_of(right.tgt.leg_a.mat.col_list(j)) for j in range(B.dim)],
                   M2.ract)
    return tensor_over(m1b, m2b)


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=FOUR_FIELD_IDS)
def test_horizontal_quotient_is_the_restricted_tensor(field):
    """The composite's quotient is that of the restricted bimodules' tensor
    product, and the basis element at free position (a, b) of a composite
    apex acts as the class of L_a (x) R_b, as a kron_product descends it:
    on an interchanger grid's two rows and on a twisted pair over C2."""
    rng = random.Random(23)
    d1p, d1, d2p, d2 = random_interchanger_grid(rng, field)
    b = alg_group_c2(field)
    _, dl = extend_cospan(tensor_product_cospan(alg_k(field), b),
                          alg_product_k(2, field))
    dr = identity_2diagram(tensor_product_cospan(b, alg_k(field)))
    pairs = [(d2, d1), (d2p, d1p),
             tuple(twist_2diagram(d, random_invertible(d.M.dim, rng, field))
                   for d in (dr, dl))]
    for right, left in pairs:
        h = horizontal_compose(right, left)
        quot = _restricted_tensor(right, left).quot
        for slot in ("relations", "proj", "sect", "free"):
            assert getattr(h.quot, slot) == getattr(quot, slot)
        for acts, lops, rops, apex in (
                (h.M.lact, left.M.lact, right.M.lact,
                 compose_cospans(right.tgt, left.tgt).quot),
                (h.M.ract, left.M.ract, right.M.ract,
                 compose_cospans(right.src, left.src).quot)):
            n = len(rops)
            assert acts == [quot.descend(kron_product(
                quot.proj, [lops[t // n], rops[t % n]]), "no descent")
                for t in apex.free]


# ---------------------------------------------------------------------------
# 3-cells


def test_find_3cell_between_twists():
    rng = random.Random(5)
    c = tensor_product_cospan(alg_k(), alg_group_c2())
    d = identity_2diagram(c)
    P = random_invertible(2, rng)
    e = twist_2diagram(d, P)
    cell = find_3cell(d, e)
    assert cell is not None
    assert validate_3cell(cell) == []
    res = find_invertible_3cell(d, e)
    assert res.found and res.certified
    back = find_3cell(e, d)
    assert back is not None
    assert (back.mat @ cell.mat) == Matrix.identity(2, QQ)


def test_no_3cell_when_legs_incompatible():
    c = tensor_product_cospan(alg_k(), alg_group_c2())
    d = identity_2diagram(c)
    bad = TwoDiagram(c, c, d.M, d.f.scale(QQ.from_int(2)), d.g)
    assert find_3cell(d, bad) is None
    res = find_invertible_3cell(d, bad)
    assert not res.found and res.certified


def _weighted_diagram(c, u):
    """M = the apex regular bimodule, both legs right-multiplication by u."""
    M = regular_bimodule(c.apex)
    R = c.apex.right_mult(u)
    I = Matrix.identity(c.apex.dim, QQ)
    return TwoDiagram(c, c, M, R @ I, R @ I)


def test_unique_noninvertible_3cell_certified():
    k2 = alg_product_k(2)
    c = Cospan(unit_map(k2), unit_map(k2))
    d = _weighted_diagram(c, k2.unit)  # the identity 2-diagram
    e = _weighted_diagram(c, [QQ.one, QQ.zero])
    assert validate_2diagram(d) == [] and validate_2diagram(e) == []
    res = find_invertible_3cell(d, e)
    assert not res.found and res.certified
    assert "unique" in res.detail


def test_grid_certified_noninvertible_family():
    k2 = alg_product_k(2)
    c = Cospan(unit_map(k2), unit_map(k2))
    d = _weighted_diagram(c, [QQ.one, QQ.zero])
    e = _weighted_diagram(c, [QQ.zero, QQ.zero])
    assert validate_2diagram(e) == []
    res = find_invertible_3cell(d, e)
    assert not res.found and res.certified
    assert "grid" in res.detail


def singular_family(field):
    """Two 2-diagrams on a plain 4-dimensional bimodule whose 3-cells all
    kill two basis vectors, so none is invertible; too many to exhaust."""
    k = alg_k(field)
    ident = Matrix.identity(4, field)
    m = Bimodule(k, k, 4, [ident], [ident])
    triv = identity_cospan(k)
    d = TwoDiagram(triv, triv, m, Matrix.from_int_rows([[1], [0], [0], [0]], field),
                   Matrix.from_int_rows([[0], [1], [0], [0]], field))
    zero = Matrix.zeros(4, 1, field)
    return d, TwoDiagram(triv, triv, m, zero, zero)


@pytest.mark.parametrize("p, sample_range, bound", [
    (None, 1 << 25, Fraction(4, 2 ** 26 + 1) ** 3),
    (1000003, 1, Fraction(1)),  # 3 residues sampled, 4 roots possible
    (101, 100, Fraction(4 * 2, 201) ** 3),  # some residues drawn twice
])
def test_failure_bound_counts_the_residues_actually_sampled(p, sample_range, bound):
    field = QQ if p is None else PrimeField(p)
    res = find_invertible_3cell(*singular_family(field), rng=random.Random(0),
                                sample_range=sample_range)
    assert not res.found and not res.certified
    assert res.failure_bound == bound


def plain_diagram(n, field=QQ):
    """A 2-diagram over identity_cospan(k) on the plain k^n bimodule with
    zero legs."""
    k = alg_k(field)
    ident, zero = Matrix.identity(n, field), Matrix.zeros(n, 1, field)
    triv = identity_cospan(k)
    return TwoDiagram(triv, triv, Bimodule(k, k, n, [ident], [ident]), zero, zero)


@pytest.mark.parametrize("tgt_dim, sample_range, detail", [
    (2, 1 << 25, "found by random sampling"),
    (2, 0, "found by grid search"),  # every sample is the singular x0 = 0
    (3, 1 << 25, "apex dimensions differ"),
])
def test_invertible_3cell_in_the_family_of_all_maps(tgt_dim, sample_range, detail):
    """Every linear map k^2 -> k^tgt_dim is a 3-cell, and the particular
    solution is 0, which is singular."""
    d, e = plain_diagram(2), plain_diagram(tgt_dim)
    x0, ks = solve_3cell_family(d, e)
    assert x0.is_zero() and len(ks) == 2 * tgt_dim
    res = find_invertible_3cell(d, e, sample_range=sample_range)
    assert (res.detail, res.certified, res.found) == (detail, True, tgt_dim == 2)
    if res.found:
        assert validate_3cell(res.cell) == [] and is_invertible(res.cell.mat)


def doubled_regular_diagram(c: Cospan, s) -> TwoDiagram:
    """reg(T) + reg(T) over the cospan c with apex T, both legs [I; sI]."""
    reg = regular_bimodule(c.apex)
    ident = Matrix.identity(reg.dim, reg.field)
    legs = stack_rows([ident, ident.scale(s)])
    return TwoDiagram(c, c, direct_sum_bimodules([reg, reg]), legs, legs)


def differential_3cell_pairs(field):
    """(d, e) pairs of parallel 2-diagrams over field: twisted identity
    2-diagrams, families of doubled regular diagrams, an interchanger's
    source and target, and the singular family (8 directions one way, no
    3-cell the other), last.  A 3-cell [I; sI] -> [I; s'I] of doubled
    regular diagrams is a 2 x 2 matrix over the commutative apex T with
    x11 + s x12 = 1 and x21 + s x22 = s': a family neither unique nor
    homogeneous, plain and twisted by a random invertible."""
    rng = random.Random(19)
    pairs = []
    for a, b in ((alg_k(field), alg_group_c2(field)),
                 (alg_product_k(2, field), alg_dual_numbers(field))):
        c = tensor_product_cospan(a, b)
        ident = identity_2diagram(c)
        d = twist_2diagram(ident, random_invertible(ident.M.dim, rng, field))
        pairs += [(d, ident), (ident, d)]
        d, e = (doubled_regular_diagram(c, field.from_int(rng.randint(-3, 3)))
                for _ in range(2))
        twisted = twist_2diagram(e, random_invertible(e.M.dim, rng, field, bound=1))
        pairs += [(d, e), (e, d), (d, twisted), (twisted, d)]
    beta = beta_cell(*random_interchanger_grid(rng, field))
    pairs += [(beta.src_diagram, beta.tgt_diagram),
              (beta.tgt_diagram, beta.src_diagram)]
    d, e = singular_family(field)
    return pairs + [(d, e), (e, d)]


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3),
                                   PrimeField(1000003)])
def test_solve_3cell_family_matches_the_row_loops(field):
    """x0 and the directions, numerators and denominators, equal those of
    the system built row by row and solved on the reference kernels, on
    every differential pair: x0 sets each free entry of X to 0."""
    pairs = differential_3cell_pairs(field)

    def rows(x0, ks):
        return [(m.field, m.shape, m.num, m.den) for m in [x0] + ks if m is not None]

    for d, e in pairs:
        x0, ks = solve_3cell_family(d, e)
        ref_x0, ref_ks = ref_solve_3cell_family(d, e)
        assert (x0 is None) == (ref_x0 is None)
        assert rows(x0, ks) == rows(ref_x0, ref_ks)
    # the doubled regular families: non-unique and non-homogeneous
    for d, e in pairs[2:6] + pairs[8:12]:
        assert validate_2diagram(d) == [] and validate_2diagram(e) == []
        x0, ks = solve_3cell_family(d, e)
        assert ks and not x0.is_zero()
    assert len(solve_3cell_family(*pairs[-2])[1]) == 8
    assert solve_3cell_family(*pairs[-1]) == (None, [])


def test_solve_3cell_family_builds_no_intertwining_rows(monkeypatch, fresh_memos):
    """solve_3cell_family constrains vec(X) to hom_space, so middle_relations
    serves only the relations of tensor quotients."""
    import centrum.bimodule as bimodule
    import centrum.cospanbicat as cospanbicat

    def refused(*args):
        raise AssertionError("solve_3cell_family built the intertwining rows")

    pairs = differential_3cell_pairs(PrimeField(1000003))
    # cospanbicat reaches middle_relations only through bimodule
    assert not hasattr(cospanbicat, "middle_relations")
    monkeypatch.setattr(bimodule, "middle_relations", refused)
    for d, e in pairs:
        solve_3cell_family(d, e)


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)])
def test_invertibility_battery_bounds_stay_below_2_to_the_minus_20(field):
    rep = corpus.run_battery("invertibility certificates", 0, 1.0, field)
    entry = next(e for e in rep.entries if "2^-20" in e["name"])
    assert rep.ok and entry["detail"].startswith("1 probabilistic searches")


def test_compose_3cells_and_identity():
    rng = random.Random(9)
    c = tensor_product_cospan(alg_k(), alg_product_k(2))
    d = identity_2diagram(c)
    P = random_invertible(2, rng)
    e = twist_2diagram(d, P)
    ab = ThreeCell(d, e, P)
    assert validate_3cell(ab) == []
    back = ThreeCell(e, d, (find_3cell(e, d)).mat)
    around = compose_3cells(back, ab)
    assert around.mat == identity_3cell(d).mat
    assert two_diagrams_equal(d, d) and not two_diagrams_equal(d, e)


def three_cell_refusals():
    """Names of the 3-cell path's checks that did not refuse a bad input
    with a ValueError.  Written without assert, so it means the same under
    python -O."""
    c = tensor_product_cospan(alg_k(), alg_group_c2())
    d = identity_2diagram(c)
    e = twist_2diagram(d, Matrix.from_int_rows([[1, 1], [0, 1]], QQ))
    other = identity_2diagram(identity_cospan(alg_group_c2()))
    cases = {
        "TwoDiagram leg f shape": lambda: TwoDiagram(
            c, c, d.M, Matrix.zeros(2, 1, QQ), d.g),
        "TwoDiagram leg g shape": lambda: TwoDiagram(
            c, c, d.M, d.f, Matrix.zeros(2, 3, QQ)),
        "ThreeCell shape": lambda: ThreeCell(d, e, Matrix.identity(3, QQ)),
        "compose_3cells": lambda: compose_3cells(identity_3cell(d),
                                                 identity_3cell(e)),
        "solve_3cell_family": lambda: find_3cell(d, other),
    }
    out = []
    for name, call in cases.items():
        try:
            call()
        except ValueError:
            continue
        out.append(name)
    return out


def test_three_cell_checks_refuse_bad_inputs():
    assert three_cell_refusals() == []


def test_three_cell_checks_refuse_bad_inputs_under_optimize():
    tests = Path(__file__).parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    script = ("import sys, test_cospanbicat as t\n"
              "print(sys.flags.optimize, t.three_cell_refusals())\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "[]"]


# ---------------------------------------------------------------------------
# the interchanger


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=FOUR_FIELD_IDS)
def test_interchanger_grids_are_drawn_as_before_their_columns_were_shared(field):
    """Seeds 0-199: the fixture, whose columns are memoised, gives the grid
    that building every 2-diagram afresh gives, and leaves the rng where
    the afresh build leaves it."""
    for seed in range(200):
        shared, fresh = random.Random(seed), random.Random(seed)
        grid = random_interchanger_grid(shared, field)
        ref = reference_interchanger_grid(fresh, field)
        assert [content_key(d) for d in grid] == [content_key(d) for d in ref]
        assert shared.random() == fresh.random()


class ScriptedRandom:
    """Answers each randrange and random call with the next scripted value."""

    def __init__(self, values):
        self.values = iter(values)

    def randrange(self, n):
        value = next(self.values)
        assert 0 <= value < n
        return value

    def random(self):
        return next(self.values)


def every_grid(field):
    """Each of the 144 interchanger grids over field, drawn once: B, the
    two extensions and the two placements, scripted."""
    return [random_interchanger_grid(ScriptedRandom(draws), field)
            for draws in itertools.product(range(4), range(3), range(3),
                                           (0.25, 0.75), (0.25, 0.75))]


def test_each_grid_column_is_built_once_per_field():
    """Work counted: drawing all 144 grids twice over QQ builds each of
    their 48 columns once, the same draws over GF(2) build 48 more, and
    no 2-diagram of a GF(2) grid is one of a QQ grid's."""
    _grid_column.cache.clear()
    misses = _grid_column.misses
    qq = every_grid(QQ) + every_grid(QQ)
    assert len({tuple(map(content_key, grid)) for grid in qq}) == 144
    assert _grid_column.misses - misses == 48
    gf2 = every_grid(PrimeField(2)) + every_grid(PrimeField(2))
    assert _grid_column.misses - misses == 96
    assert {id(d) for grid in qq for d in grid}.isdisjoint(
        id(d) for grid in gf2 for d in grid)
    assert {d.M.field for grid in gf2 for d in grid} == {PrimeField(2)}
    assert len(_grid_column.cache) <= MEMO_BOUND


def test_beta_cell_small_grid():
    rng = random.Random(2)
    d1p, d1, d2p, d2 = random_interchanger_grid(rng)
    res = beta_cell(d1p, d1, d2p, d2)
    assert validate_2diagram(res.src_diagram) == []
    assert validate_2diagram(res.tgt_diagram) == []
    assert validate_3cell(res.cell) == []
    assert validate_3cell(res.inverse_cell) == []
    n_t = res.tgt_diagram.M.dim
    n_s = res.src_diagram.M.dim
    assert res.cell.mat @ res.inverse_cell.mat == Matrix.identity(n_t, QQ)
    assert res.inverse_cell.mat @ res.cell.mat == Matrix.identity(n_s, QQ)


def test_beta_cell_more_seeds():
    for seed in (4, 7):
        rng = random.Random(seed)
        grid = random_interchanger_grid(rng)
        res = beta_cell(*grid)
        assert res.cell.mat.rows == res.cell.mat.cols


def test_beta_naturality_under_twists():
    rng = random.Random(3)
    d1p, d1, d2p, d2 = random_interchanger_grid(rng)
    bd = beta_cell(d1p, d1, d2p, d2)
    ps = [random_invertible(x.M.dim, rng) for x in (d1p, d1, d2p, d2)]
    e1p, e1, e2p, e2 = (twist_2diagram(x, P) for x, P in zip((d1p, d1, d2p, d2), ps))
    be = beta_cell(e1p, e1, e2p, e2)
    assert check_beta_naturality(bd, be, *ps)


def test_beta_naturality_fails_for_maps_that_are_not_3cells():
    rng = random.Random(3)
    grid = random_interchanger_grid(rng)
    bd = beta_cell(*grid)
    deltas = [random_matrix(x.M.dim, x.M.dim, 3, rng, QQ) for x in grid]
    assert check_beta_naturality(bd, bd, *deltas) is False


def test_beta_cell_composes_each_cospan_once(monkeypatch):
    """One composite per distinct row of cospans: the bottom, middle and
    top rows of grid 0 differ; in grid 2 the middle and top rows are equal
    on the nose and share one composite."""
    import centrum.cospanbicat as cospanbicat
    import centrum.exactla as exactla

    built = {"CospanComposition": 0, "inverse": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            built[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(cospanbicat, "CospanComposition")
    counted(exactla, "inverse")
    for seed, rows in ((0, 3), (2, 2)):
        built["CospanComposition"] = 0
        compose_cospans.cache.clear()
        beta_cell(*random_interchanger_grid(random.Random(seed)))
        assert built == {"CospanComposition": rows, "inverse": 0}


def test_beta_cell_refuses_an_interchanger_that_is_not_a_3cell(monkeypatch,
                                                               fresh_memos):
    import centrum.cospanbicat as cospanbicat

    grid = random_interchanger_grid(random.Random(2))
    monkeypatch.setattr(cospanbicat, "validate_3cell",
                        lambda cell: ["does not intertwine the f legs"])
    with pytest.raises(ValueError, match="interchanger is not a 3-cell"):
        beta_cell(*grid)


def load_bench_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_canon_walks_interchanger_results():
    """The benchmark's tracer keys arguments by walking every slot of an
    object; a composite cached on the cospans it came from would make that
    walk cyclic."""
    canon = load_bench_tracer().canon
    grid = random_interchanger_grid(random.Random(2))
    res = beta_cell(*grid)
    _, d1, _, d2 = grid
    # the memoised composite the target diagram's source cospan came from
    comp = compose_cospans(d2.src, d1.src)
    assert isinstance(res, BetaResult) and isinstance(comp, CospanComposition)
    assert comp.cospan is res.tgt_diagram.src
    assert canon(comp)[0] == "CospanComposition"
    assert canon(res) == canon(beta_cell(*grid))


def test_bench_tracer_names_resolve():
    """The tracer skips a traced name that its module no longer has, so a
    renamed function would silently lose its per-layer metrics."""
    tracer = load_bench_tracer()
    traced = [f"{layer}.{name}" for layer, names in tracer.TRACED.items()
              for name in names]
    for span in traced + list(tracer.REPEAT):
        layer, name = span.split(".")
        module = importlib.import_module(f"centrum.{layer}")
        assert callable(getattr(module, name, None)), span


def test_composition_checks_survive_optimize():
    """python -O strips assert statements; the composition checks are
    explicit ValueErrors and still refuse bad inputs."""
    script = (
        "import sys\n"
        "from centrum.algebra import alg_k, alg_matrix, alg_product_k, identity_map\n"
        "from centrum.cospanbicat import Cospan, compose_cospans, identity_cospan\n"
        "m2 = alg_matrix(2)\n"
        "bad = Cospan(identity_map(m2), identity_map(m2))\n"
        "print(sys.flags.optimize)\n"
        "for second, first in ((identity_cospan(alg_product_k(2)),\n"
        "                       identity_cospan(alg_k())), (bad, bad)):\n"
        "    try:\n"
        "        compose_cospans(second, first)\n"
        "    except ValueError as exc:\n"
        "        print(str(exc).split(':')[0])\n"
        "    else:\n"
        "        print('accepted')\n")
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "1", "middle algebras must agree", "invalid cospan", ""]


# ---------------------------------------------------------------------------
# coherence of vertical composition


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=FOUR_FIELD_IDS)
def test_pentagon_of_vertical_composites(field):
    rng = random.Random(6)
    c0 = tensor_product_cospan(alg_k(field), alg_group_c2(field))
    c1, d1 = extend_cospan(c0, alg_product_k(2, field))
    d2 = twist_2diagram(identity_2diagram(c1), random_invertible(4, rng, field))
    d3 = twist_2diagram(identity_2diagram(c1), random_invertible(4, rng, field))
    d4 = identity_2diagram(c1)
    assert check_pentagon(d4, d3, d2, d1)


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=FOUR_FIELD_IDS)
def test_triangle_of_vertical_composites(field):
    rng = random.Random(8)
    c0 = tensor_product_cospan(alg_k(field), alg_group_c2(field))
    c1, d1 = extend_cospan(c0, alg_dual_numbers(field))
    d2 = twist_2diagram(identity_2diagram(c1), random_invertible(4, rng, field))
    assert check_triangle(d2, d1)


# ---------------------------------------------------------------------------
# invertible cospans and embedded algebra maps


def test_identity_cospan_invertible_with_witnesses():
    res = is_invertible_cospan(identity_cospan(alg_group_c2()))
    assert res.invertible
    assert validate_2diagram(res.witness_left) == []
    assert validate_2diagram(res.witness_right) == []
    assert is_invertible_2diagram(res.witness_left)
    assert is_invertible_2diagram(res.witness_right)


def test_swap_leg_cospan_invertible():
    k2 = alg_product_k(2)
    swap = AlgebraMap(k2, k2, Matrix.from_int_rows([[0, 1], [1, 0]], QQ))
    res = is_invertible_cospan(Cospan(identity_map(k2), swap))
    assert res.invertible
    assert res.inverse.leg_a.mat == swap.mat
    assert validate_2diagram(res.witness_left) == []


def test_tensor_cospan_not_invertible():
    res = is_invertible_cospan(tensor_product_cospan(alg_product_k(2), alg_group_c2()))
    assert not res.invertible
    assert res.reasons


def test_functor_embedding():
    k = alg_k()
    k2 = alg_product_k(2)
    swap = AlgebraMap(k2, k2, Matrix.from_int_rows([[0, 1], [1, 0]], QQ))
    assert validate_cospan(functor_A_embed(swap)) == []
    assert check_functor_A_composition(swap, unit_map(k2))
    assert check_functor_A_composition(swap, swap)


def test_coherence_report():
    rep = CoherenceReport()
    rep.add("first", True)
    rep.add("second", True, "detail")
    assert rep.ok
    rep.add("third", False)
    assert not rep.ok
    assert len(rep.entries) == 3
    outer = CoherenceReport()
    outer.add("own", True)
    outer.extend(rep, "inner: ")
    assert [e["name"] for e in outer.entries] == [
        "own", "inner: first", "inner: second", "inner: third"]
    assert outer.entries[2]["detail"] == "detail" and not outer.ok
