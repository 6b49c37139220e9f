"""The full-center assignment and its comparison maps.

Oracles here are independent of the construction under test: expected center
and centralizer dimensions are classical (matrix algebras are central simple;
the centralizer of the diagonal in M_2 is the diagonal), the lax witness rank
is computed from first principles, and the square 3-cell is cross-checked
against a second instance built from different connecting maps (its matrix
must not depend on them).
"""

import io
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from fieldref import content_key_ref
from testfixtures import ALL_MEMOISED, clear_memos, exactla_calls, restriction_bimodule

from centrum.exactla import (
    MEMO_BOUND,
    QQ,
    Keyed,
    Matrix,
    PrimeField,
    cokernel,
    content_key,
    is_invertible,
    memoised,
    rank,
)
from centrum.algebra import (
    Algebra,
    AlgebraMap,
    alg_dual_numbers,
    alg_group_c2,
    alg_k,
    alg_matrix,
    alg_product_k,
    center,
    identity_map,
    is_isomorphism,
    product_algebra,
    unit_map,
    validate_algebra,
    validate_algebra_map,
)
from centrum.bimodule import (
    LEAVES_HOM,
    Bimodule,
    BimoduleMap,
    comp_bar,
    direct_sum_bimodules,
    end_algebra,
    free_bimodule,
    hom_bimodule,
    hom_space,
    identity_bimodule_map,
    induced_map,
    middle_relations,
    regular_bimodule,
    tensor_over,
    twist_bimodule,
    validate_bimodule,
)
from centrum.cli import input_hash, main as cli_main
from centrum.corpus import run_battery, semisimple_corpus
from centrum.cospanbicat import (
    compose_cospans,
    identity_2diagram,
    identity_cospan,
    validate_2diagram,
    validate_cospan,
)
from centrum.fixtures import (
    _grid_column,
    algebra_map_pool,
    col_bimodule,
    conjugation_automorphism,
    random_hom_element,
    random_invertible,
    random_map_chain,
    row_bimodule,
)
from centrum.fullcenter import (
    _pair_checks,
    _unit_checks,
    Z_2cell,
    Z_bimodule,
    Z_hom,
    check_m_hexagon,
    check_m_unit_axiom,
    check_theorem58_hypotheses,
    m_square,
    morita_center_check,
    mult_transform,
    mult_transform_bimodule,
    n_general,
    verify_lax_functor,
    verify_m_naturality,
    zero_bimodule_map,
)


def diag_inclusion():
    """k x k -> M_2 onto the diagonal matrix units."""
    return AlgebraMap(
        alg_product_k(2), alg_matrix(2),
        Matrix.from_int_rows([[1, 0], [0, 0], [0, 0], [0, 1]], QQ))


def twisted_free(a, b, rng, bound=1):
    m = free_bimodule(a, b, 1)
    return twist_bimodule(m, random_invertible(m.dim, rng, a.field, bound=bound))


def twisted(m, rng, bound=1):
    return twist_bimodule(m, random_invertible(m.dim, rng, m.field, bound=bound))


def point_module(b, c):
    """k as a (k, B)-bimodule for a two-dimensional B with basis (1, x):
    x acts on the right by the scalar c."""
    k = alg_k(b.field)
    one = Matrix.identity(1, b.field)
    return Bimodule(k, b, 1, [one], [one, one.scale(b.field.from_int(c))])


# -- objects -----------------------------------------------------------------


def test_center_dims_on_the_pool():
    assert center(alg_matrix(2)).dim == 1
    assert center(alg_matrix(3)).dim == 1
    assert center(alg_product_k(2)).dim == 2
    assert center(alg_dual_numbers()).dim == 2
    assert center(alg_group_c2()).dim == 2
    assert center(product_algebra([alg_k(), alg_matrix(2)])).dim == 2


# -- the cospan of an algebra map -------------------------------------------


def test_z_hom_diagonal_inclusion():
    f = diag_inclusion()
    zf = Z_hom(f)
    assert zf.apex.dim == 2
    # the centralizer of the diagonal is the diagonal itself
    cols = zf.realization.incl
    assert cols.shape == (4, 2)
    for j in range(2):
        col = cols.col_list(j)
        assert col[1] == QQ.zero and col[2] == QQ.zero
    assert validate_cospan(zf.cospan) == []
    # the left leg is f restricted to the (full) center of k x k
    assert zf.cospan.leg_a.mat.shape == (2, 2)
    assert is_invertible(zf.cospan.leg_a.mat)


def test_z_hom_unit_map_of_matrix_algebra():
    zf = Z_hom(unit_map(alg_matrix(2)))
    # everything commutes with scalars: the apex is all of M_2
    assert zf.apex.dim == 4
    assert zf.z_left.dim == 1 and zf.z_right.dim == 1


def test_z_hom_identity_is_strict():
    for a in (alg_product_k(2), alg_matrix(2), alg_dual_numbers()):
        zf = Z_hom(identity_map(a))
        d = zf.apex.dim
        assert d == center(a).dim
        assert zf.cospan.leg_a.mat == Matrix.identity(d, QQ)
        assert zf.cospan.leg_b.mat == Matrix.identity(d, QQ)


def test_restriction_agreement_on_the_pool():
    """For the bimodule B with left action through f, evaluation at 1 is an
    algebra isomorphism End -> centralizer commuting with both legs."""
    for f in algebra_map_pool():
        zb = Z_bimodule(restriction_bimodule(f))
        zh = Z_hom(f)
        ev_mat = zh.realization.subspace.coords_matrix(Matrix.from_columns(
            [b.apply(f.tgt.unit) for b in zb.realization.basis],
            f.tgt.dim, f.tgt.field), "evaluation leaves the centralizer")
        ev = AlgebraMap(zb.apex, zh.apex, ev_mat)
        assert validate_algebra_map(ev) == []
        assert is_isomorphism(ev) is not None
        assert ev.mat @ zb.cospan.leg_a.mat == zh.cospan.leg_a.mat
        assert ev.mat @ zb.cospan.leg_b.mat == zh.cospan.leg_b.mat


# -- the cospan of a bimodule ------------------------------------------------


def test_z_bimodule_regular_is_center():
    for a in (alg_product_k(2), alg_dual_numbers(), alg_group_c2()):
        zm = Z_bimodule(regular_bimodule(a))
        assert zm.apex.dim == center(a).dim
        # a central element acts identically from either side
        assert zm.cospan.leg_a.mat == zm.cospan.leg_b.mat


def test_z_bimodule_free_over_matrix_pair():
    rng = random.Random(2)
    m = twisted_free(alg_matrix(2), alg_product_k(2), rng)
    zm = Z_bimodule(m)
    # endomorphisms of the rank-one free bimodule are M_2 (x) (k^2)^op:
    # the full 8-dimensional algebra, with both centers landing centrally
    assert zm.apex.dim == 8
    assert validate_cospan(zm.cospan) == []


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)])
def test_end_is_read_on_the_one_hom_space(field, fresh_memos):
    """End(M) is the Algebra on hom_space(M, M)'s basis: Z_bimodule keeps
    that hom space itself as its realization and end_algebra as its apex,
    and the hom bimodules act by the same two End algebras."""
    rng = random.Random(45)
    k, a = alg_k(field), alg_matrix(2, field)
    for m in (regular_bimodule(a), twisted(free_bimodule(a, k, 1), rng)):
        zm = Z_bimodule(m)
        assert zm.realization is hom_space(m, m)
        assert zm.apex is end_algebra(m)
        assert isinstance(zm.apex, Algebra)
        n = twisted(m, rng)
        hom_bm, H = hom_bimodule(m, n)
        assert H is hom_space(m, n)
        assert hom_bm.left is end_algebra(n) and hom_bm.right is end_algebra(m)


# -- the 2-diagram of a bimodule map ----------------------------------------


def test_z_2cell_of_identity_has_identity_legs():
    reg = regular_bimodule(alg_product_k(2))
    d = Z_2cell(identity_bimodule_map(reg))
    assert d.f == Matrix.identity(d.M.dim, QQ)
    assert d.g == Matrix.identity(d.M.dim, QQ)


def test_z_2cell_random_maps_give_valid_diagrams():
    rng = random.Random(7)
    a, b = alg_product_k(2), alg_k()
    for _ in range(5):
        m = twisted_free(a, b, rng)
        n = twisted_free(a, b, rng)
        phi = random_hom_element(m, n, rng)
        d = Z_2cell(phi)
        assert validate_2diagram(d) == []


# -- multiplication for algebra maps ----------------------------------------


def test_lax_witness_scalars_into_diagonal_into_matrices():
    d2 = alg_product_k(2)
    u = unit_map(d2)
    f = diag_inclusion()
    mt = mult_transform(u, f)
    # Z(f o u) = Z(k -> M_2) = M_2 itself, dimension 4
    assert mt.mult.tgt.dim == 4
    # the composite of centers only reaches the diagonal plane
    assert rank(mt.mult.mat) == 2
    assert not is_invertible(mt.mult.mat)
    # injective but not surjective: genuinely lax, not degenerate
    assert rank(mt.mult.mat) == mt.comp.quot.dim
    assert validate_algebra_map(mt.mult) == []


def test_mult_transform_iso_for_automorphism_chain():
    m2 = alg_matrix(2)
    g = conjugation_automorphism(m2, Matrix.from_int_rows([[1, 1], [0, 1]], QQ))
    mt = mult_transform(g, identity_map(m2))
    assert is_invertible(mt.mult.mat)


def test_lax_functor_reports_on_random_chains():
    rng = random.Random(13)
    pool = algebra_map_pool()
    for _ in range(20):
        chain = random_map_chain(rng, length=3, pool=pool)
        rep = verify_lax_functor(chain)
        assert rep.ok, [e for e in rep.entries if not e["ok"]]


def test_lax_functor_two_step_chain():
    rep = verify_lax_functor([unit_map(alg_product_k(2)), diag_inclusion()])
    assert rep.ok
    names = [e["name"] for e in rep.entries]
    assert "unit first factor" in names
    assert "unit second factor" in names
    assert any(n.startswith("multiplication algebra map") for n in names)


# -- multiplication for bimodules -------------------------------------------


def test_mult_transform_bimodule_iso_over_simple_middle():
    rng = random.Random(21)
    m = twisted(row_bimodule(2), rng)
    n = twisted(col_bimodule(2), rng)
    mb = mult_transform_bimodule(m, n)
    assert is_invertible(mb.mult.mat)
    assert validate_2diagram(mb.diagram) == []


def test_mult_transform_bimodule_lax_over_two_block_middle():
    """With a two-block middle algebra the endomorphisms of the composite
    see cross-block maps the tensor of endomorphisms cannot reach."""
    rng = random.Random(22)
    k, k2 = alg_k(), alg_product_k(2)
    m = twisted_free(k, k2, rng)
    n = twisted_free(k2, k, rng)
    mb = mult_transform_bimodule(m, n)
    assert mb.mult.mat.shape == (4, 2)
    assert not is_invertible(mb.mult.mat)
    # still a genuine 2-cell under both legs, just not invertible
    assert validate_2diagram(mb.diagram) == []


def center_pair_quotient(tens_src, tens_tgt):
    """[M,M'] (x) [N,N'] modulo the relations over Z(B), built from the
    center of the middle algebra B of tens_src = M (x)_B N and tens_tgt =
    M' (x)_B N': the quotient that n_general descends through."""
    m, n = tens_src.left_factor, tens_src.right_factor
    left = hom_space(m, tens_tgt.left_factor)
    right = hom_space(n, tens_tgt.right_factor)
    zb = center(m.right)
    zs = zb.incl.columns()
    # column (b, k) of each: b composed with the action of zs[k]
    Cs = [H.product_coords(H, [act(z) for z in zs], LEAVES_HOM)
          for H, act in ((left, m.ract_of), (right, n.lact_of))]
    rops, lops = ([C.select_columns(slice(k, None, len(zs))) for k in range(len(zs))]
                  for C in Cs)
    return cokernel(middle_relations(rops, lops))


def test_n_general_matches_square_internal_quotient():
    rng = random.Random(23)
    m, mp = twisted(row_bimodule(2), rng), twisted(row_bimodule(2), rng)
    n, np_ = twisted(col_bimodule(2), rng), twisted(col_bimodule(2), rng)
    phi = random_hom_element(m, mp, rng)
    psi = random_hom_element(n, np_, rng)
    sq = m_square(phi, psi)
    standalone = n_general(sq.mult_src.composite, sq.mult_tgt.composite,
                           center_pair_quotient(sq.mult_src.composite, sq.mult_tgt.composite))
    # the hand-built center quotient coincides with the composite's quotient
    assert standalone == sq.n_res
    assert is_invertible(standalone)


def test_n_general_rank_drop_over_two_block_middle():
    rng = random.Random(24)
    k, k2 = alg_k(), alg_product_k(2)
    m, mp = twisted_free(k, k2, rng), twisted_free(k, k2, rng)
    n, np_ = twisted_free(k2, k, rng), twisted_free(k2, k, rng)
    t_src, t_tgt = tensor_over(m, n), tensor_over(mp, np_)
    res = n_general(t_src, t_tgt, center_pair_quotient(t_src, t_tgt))
    # two of the four target blocks are cross-block and unreachable
    assert res.shape == (4, 2)
    assert rank(res) == 2
    assert not is_invertible(res)


def test_m_square_naturality_small_instances():
    rng = random.Random(29)
    k, k2 = alg_k(), alg_product_k(2)
    for _ in range(3):
        m, mp = twisted_free(k, k2, rng), twisted_free(k, k2, rng)
        n, np_ = twisted_free(k2, k, rng), twisted_free(k2, k, rng)
        phi = random_hom_element(m, mp, rng)
        psi = random_hom_element(n, np_, rng)
        rep = verify_m_naturality(phi, psi)
        assert rep.ok, [e for e in rep.entries if not e["ok"]]


def test_m_square_cell_independent_of_the_maps():
    rng = random.Random(31)
    k, k2 = alg_k(), alg_product_k(2)
    m, mp = twisted_free(k, k2, rng), twisted_free(k, k2, rng)
    n, np_ = twisted_free(k2, k, rng), twisted_free(k2, k, rng)
    sq_random = m_square(random_hom_element(m, mp, rng),
                         random_hom_element(n, np_, rng))
    sq_zero = m_square(zero_bimodule_map(m, mp), zero_bimodule_map(n, np_))
    assert sq_random.cell.mat == sq_zero.cell.mat


def test_m_square_over_matrix_outer():
    rng = random.Random(37)
    m2, k, k2 = alg_matrix(2), alg_k(), alg_product_k(2)
    m, mp = twisted_free(m2, k, rng), twisted_free(m2, k, rng)
    n, np_ = twisted_free(k, k2, rng), twisted_free(k, k2, rng)
    rep = verify_m_naturality(random_hom_element(m, mp, rng),
                              random_hom_element(n, np_, rng))
    assert rep.ok, [e for e in rep.entries if not e["ok"]]


def test_hexagon_scalar_towers():
    k = alg_k()
    dims = [1, 1, 1, 1, 2, 2]
    M, Mp, Mpp, N, Np, Npp = [free_bimodule(k, k, d) for d in dims]
    phi = BimoduleMap(M, Mp, Matrix.from_int_rows([[2]], QQ))
    phip = BimoduleMap(Mp, Mpp, Matrix.from_int_rows([[5]], QQ))
    psi = BimoduleMap(N, Np, Matrix.from_int_rows([[1], [3]], QQ))
    psip = BimoduleMap(Np, Npp, Matrix.from_int_rows([[1, 2], [0, 1]], QQ))
    assert check_m_hexagon(phi, phip, psi, psip)


def test_hexagon_with_nontrivial_middle():
    rng = random.Random(41)
    k, k2 = alg_k(), alg_product_k(2)
    m = twisted_free(k, k2, rng)
    mp = twisted_free(k, k2, rng)
    mpp = twisted_free(k, k2, rng)
    n = twisted_free(k2, k, rng)
    np_ = twisted_free(k2, k, rng)
    npp = twisted_free(k2, k, rng)
    phi = random_hom_element(m, mp, rng)
    phip = random_hom_element(mp, mpp, rng)
    psi = random_hom_element(n, np_, rng)
    psip = random_hom_element(np_, npp, rng)
    assert check_m_hexagon(phi, phip, psi, psip)


def test_unit_axiom_on_algebra_pool():
    for b in (alg_k(), alg_product_k(2), alg_group_c2(), alg_dual_numbers()):
        assert check_m_unit_axiom(b)


# -- Morita invariance -------------------------------------------------------


def test_morita_invariance_of_centers():
    pool = [alg_k(), alg_product_k(2), alg_dual_numbers(), alg_group_c2(),
            alg_matrix(2)]
    for a in pool:
        for n in (2, 3):
            rep = morita_center_check(a, n)
            assert rep.ok, (a.name, n)
            assert rep.z_small.dim == rep.z_big.dim


# -- invertibility hypotheses ------------------------------------------------


# B, the scalar x acts by on T, and the primes (None for QQ) over which the
# composition collapse of (T, k (x) B, T) vanishes
POINT_MODULE_PROBES = {
    "dual_numbers_augmentation": (alg_dual_numbers, 0, {None, 2, 3}),
    "C2_trivial": (alg_group_c2, 1, {2}),
    "C2_sign": (alg_group_c2, -1, {2}),
}


@pytest.mark.parametrize("probe", POINT_MODULE_PROBES)
@pytest.mark.parametrize("p", [None, 2, 3], ids=["QQ", "gfp2", "gfp3"])
def test_composition_collapse_of_point_modules(p, probe):
    """The collapse [N,T] (x)_{[N,N]} [T,N] -> [T,T] for N = k (x) B is a
    map between one-dimensional spaces.  It is the zero map, so the
    assignment is lax, over the dual numbers in every field and over k[C2]
    exactly when k[C2] is not semisimple, in characteristic 2 (Maschke)."""
    make, c, lax_primes = POINT_MODULE_PROBES[probe]
    field = QQ if p is None else PrimeField(p)
    b = make(field)
    t, free = point_module(b, c), free_bimodule(alg_k(field), b, 1)
    lax = p in lax_primes
    cb = comp_bar(t, free, t)
    assert hom_space(t, t).dim == cb.tensor.quot.dim == 1
    assert cb.mat.is_zero() == lax
    rep = check_theorem58_hypotheses(chains=[(t, free, t)])
    assert rep.verdict == ("lax behaviour witnessed" if lax
                           else "non-lax on this corpus")
    assert rep.entries[0] == {"name": "composition collapse", "ok": not lax,
                              "detail": f"1x1 rank {0 if lax else 1}"}


def test_theorem58_semisimple_corpus_verdict():
    rng = random.Random(43)
    k, k2, m2 = alg_k(), alg_product_k(2), alg_matrix(2)
    r2, c2 = row_bimodule(2), col_bimodule(2)
    chains = [
        (twisted_free(m2, k, rng), twisted_free(m2, k, rng),
         twisted_free(m2, k, rng)),
        (twisted_free(k2, k2, rng), twisted_free(k2, k2, rng),
         twisted_free(k2, k2, rng)),
    ]
    # composable squares need a single-block middle algebra
    squares = [
        (twisted(r2, rng), twisted(r2, rng), twisted(c2, rng), twisted(c2, rng)),
        (twisted(direct_sum_bimodules([r2, r2]), rng),
         twisted(direct_sum_bimodules([r2, r2]), rng),
         twisted(c2, rng), twisted(c2, rng)),
    ]
    rep = check_theorem58_hypotheses(chains=chains, squares=squares)
    assert rep.ok and rep.all_iso, [e for e in rep.entries if not e["ok"]]
    assert rep.verdict == "non-lax on this corpus"
    kinds = {e["name"] for e in rep.entries}
    assert "composition collapse" in kinds
    assert "descended tensor of maps" in kinds
    assert "square 3-cell" in kinds
    assert "multiplication 2-cell" in kinds
    assert "identity center strict" in kinds


# -- memoised constructions --------------------------------------------------


# the memos whose results are verdicts or hashes, which hold no field object
VERDICT_MEMOS = (validate_algebra, validate_algebra_map, validate_bimodule,
                 validate_cospan, validate_2diagram, _pair_checks, _unit_checks,
                 input_hash)


def test_every_memo_is_found():
    assert {fn.__name__ for fn in ALL_MEMOISED} >= {
        "center", "hom_space", "end_algebra", "compose_cospans", "Z_hom",
        "Z_bimodule", "Z_2cell", "mult_transform_bimodule", "mult_transform",
        "_grid_column", "validate_algebra", "validate_algebra_map",
        "validate_bimodule", "validate_cospan", "validate_2diagram",
        "_pair_checks", "_unit_checks", "input_hash"}
    assert all(fn in ALL_MEMOISED for fn in VERDICT_MEMOS)
    assert len(ALL_MEMOISED) == len({fn.__name__ for fn in ALL_MEMOISED})


def fields_in(key):
    """The fields among the leaves of a content key."""
    if type(key) is tuple:
        return set().union(*map(fields_in, key))
    return {key} if isinstance(key, (type(QQ), PrimeField)) else set()


def served_key(out):
    """A memoised result keyed by a fresh walk; a grid column is a tuple of
    2-diagrams, so it is walked as their list."""
    return content_key_ref(list(out) if type(out) is tuple else out)


def test_memo_never_shares_an_entry_across_fields():
    """k x k has the same integer mult and unit over QQ, GF(2) and GF(3);
    each field gets its own center, cospan and grid column, every entry of
    every memo is keyed over the one field of its arguments, and every
    result but a verdict lies over that field too."""
    fields = (QQ, PrimeField(2), PrimeField(3))
    algs = [alg_product_k(2, f) for f in fields]
    assert len({content_key(a.mult.data) for a in algs}) == 1
    assert [center(a).algebra.field for a in algs] == list(fields)
    assert [Z_hom(identity_map(a)).apex.field for a in algs] == list(fields)
    # B = k x k extended by k x k
    assert [_grid_column(f, 1, 0, True, True)[1].M.field for f in fields] == \
        list(fields)
    for fn in ALL_MEMOISED:
        for key, out in fn.cache.items():
            assert len(fields_in(key)) == 1
            held = set() if fn in VERDICT_MEMOS else fields_in(key)
            assert fields_in(served_key(out)) == held, fn.__name__


def three_on_k(field):
    """The linear map [3] on k: an algebra map over GF(2), where 3 = 1, and
    over QQ one that keeps neither the unit nor the product."""
    k = alg_k(field)
    return AlgebraMap(k, k, Matrix.from_int_rows([[3]], field))


def k_times_three(field):
    """k with e0 e0 = 3 e0 and unit e0: an algebra over GF(2), where 3 = 1,
    and over QQ one whose unit fails on both sides."""
    return Algebra(Matrix.from_int_rows([[3]], field), [field.one])


@pytest.mark.parametrize("fields", [(QQ, PrimeField(2)), (PrimeField(2), QQ)])
def test_verdict_memos_keep_one_entry_per_field(fields, fresh_memos):
    """The same integer algebra, map, chain, bimodule and 2-diagram over QQ
    and GF(2), in either order, get a verdict each: [3] and k with e0 e0 =
    3 e0 get two entries, the verdict over one field is never served for
    the other, and every verdict memo holds entries over both fields, the
    input hashes included."""
    before = validate_algebra_map.misses
    verdicts = {f: validate_algebra_map(three_on_k(f)) for f in fields}
    assert validate_algebra_map.misses - before == 2
    assert len(validate_algebra_map.cache) == 2
    assert verdicts == {
        PrimeField(2): [],
        QQ: ["unit is not preserved", "multiplicativity fails at (e0, e0)"]}
    before = validate_algebra.misses
    verdicts = {f: validate_algebra(k_times_three(f)) for f in fields}
    assert validate_algebra.misses - before == 2
    assert verdicts == {
        PrimeField(2): [],
        QQ: ["unit fails on the left at basis 0",
             "unit fails on the right at basis 0"]}
    for f in fields:
        k2 = alg_product_k(2, f)
        ident = identity_map(k2)
        assert verify_lax_functor([ident, ident]).ok
        assert validate_bimodule(regular_bimodule(k2)) == []
        assert validate_2diagram(identity_2diagram(identity_cospan(k2))) == []
        input_hash("algebra", k2)
    # the hash is of the encoded form, which reads no field
    assert len({input_hash("algebra", alg_product_k(2, f)) for f in fields}) == 1
    assert len(input_hash.cache) == 2
    for fn in VERDICT_MEMOS:
        assert set().union(*map(fields_in, fn.cache)) == set(fields), fn.__name__


def test_memo_computes_equal_inputs_once(monkeypatch, fresh_memos):
    import centrum.fullcenter as fullcenter

    calls = []
    real = fullcenter.centralizer
    monkeypatch.setattr(fullcenter, "centralizer",
                        lambda f: calls.append(f) or real(f))
    first, second = diag_inclusion(), diag_inclusion()
    assert first is not second
    assert Z_hom(first) is Z_hom(second)
    assert calls == [first]
    # the centers Z_hom built are served to the next caller
    assert center(alg_matrix(2)) is Z_hom(first).z_right
    regs = [regular_bimodule(alg_matrix(2)) for _ in range(2)]
    assert Z_bimodule(regs[0]) is Z_bimodule(regs[1])
    assert Z_2cell(identity_bimodule_map(regs[0])) is \
        Z_2cell(identity_bimodule_map(regs[1]))
    assert mult_transform_bimodule(*regs) is mult_transform_bimodule(*regs[::-1])
    assert len(compose_cospans.cache) == 1


def test_memo_keeps_its_bound_most_recently_used_entries():
    computed = []

    @memoised
    def square(m):
        computed.append(m)
        return m @ m

    mats = [Matrix.from_int_rows([[i]], QQ) for i in range(MEMO_BOUND + 5)]
    for m in mats:
        square(m)
        square(mats[0])  # keeps the first one recently used
    assert len(square.cache) == MEMO_BOUND
    computed.clear()
    square(Matrix.from_int_rows([[0]], QQ))
    square(mats[-1])
    assert computed == []
    square(mats[1])
    assert computed == [mats[1]]
    for fn in ALL_MEMOISED:
        assert len(fn.cache) <= MEMO_BOUND


def test_lax_maps_and_hom_bases_are_shared_by_content():
    """Content-equal copies under other display names are served the
    results computed for the originals, so verifying the copied chain
    computes no multiplication map and runs no unit or pair check again."""
    chain = random_map_chain(random.Random(5), length=3)
    copies = {}

    def copy(a):
        if id(a) not in copies:
            copies[id(a)] = Algebra(Matrix(a.mult.data, a.field), a.unit,
                                    name=f"{a.name} copy")
        return copies[id(a)]

    twin = [AlgebraMap(copy(f.src), copy(f.tgt), Matrix(f.mat.data, f.mat.field))
            for f in chain]
    first = verify_lax_functor(chain)
    counted = (mult_transform, _unit_checks, _pair_checks)
    calls = [fn.calls for fn in counted]
    computed = [fn.misses for fn in counted]
    second = verify_lax_functor(twin)
    assert second.entries == first.entries
    assert all(fn.calls > c for fn, c in zip(counted, calls))
    assert [fn.misses for fn in counted] == computed
    assert mult_transform(twin[0], twin[1]) is mult_transform(chain[0], chain[1])
    for f in chain:
        m = restriction_bimodule(f)
        n = Bimodule(copy(m.left), copy(m.right), m.dim,
                     [Matrix(a.data, a.field) for a in m.lact],
                     [Matrix(a.data, a.field) for a in m.ract], name="copy")
        assert hom_space(n, n) is hom_space(m, m)
    with pytest.raises(AttributeError):
        mult_transform.misses = 0


def test_memo_holds_the_working_set_of_recurring_lax_chains(monkeypatch):
    """Six chains over the five pool algebras, each verified three times in
    shuffled order: every multiplication map, composite and Z-cospan is
    computed once per distinct argument content, so the LRU never evicts
    an input that comes back."""
    watched = (mult_transform, compose_cospans, Z_hom)
    seen = {fn.__name__: set() for fn in watched}

    def spy(fn):
        def call(*args):
            seen[fn.__name__].add(content_key(list(args)))
            return fn(*args)
        return call

    for name, module in list(sys.modules.items()):
        if name.startswith("centrum."):
            for fn in watched:
                if getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, spy(fn))
    clear_memos()
    rng = random.Random(1)
    maps = algebra_map_pool(PrimeField(1000003))
    chains = [random_map_chain(rng, length=3, pool=maps) for _ in range(6)]
    order = chains * 3
    rng.shuffle(order)
    before = {fn.__name__: fn.misses for fn in watched}
    for chain in order:
        assert verify_lax_functor(chain).ok
    misses = {fn.__name__: fn.misses - before[fn.__name__] for fn in watched}
    assert misses == {name: len(keys) for name, keys in seen.items()}
    assert len(seen["mult_transform"]) > 16  # more than a 16-entry LRU holds


def test_comparison_maps_are_eliminated_once_where_read(monkeypatch):
    """Work counted, not timed, over GF(1000003): a semisimple square's
    verdicts take one rank per comparison map (four), and verifying a lax
    chain ranks none of its multiplication maps; their eliminations in all
    are pinned too."""
    field = PrimeField(1000003)
    _, squares = semisimple_corpus(random.Random(1), scale=0.1, field=field)
    chain = random_map_chain(random.Random(1), length=3, field=field,
                             pool=algebra_map_pool(field))
    verdicts = (lambda: check_theorem58_hypotheses(squares=squares[:1]).ok,
                lambda: verify_lax_functor(chain).ok)
    assert [len(exactla_calls(monkeypatch, "rank", v)) for v in verdicts] == [4, 0]
    assert [len(exactla_calls(monkeypatch, "rref", v)) for v in verdicts] == [33, 16]


def test_comp_bar_solves_hom_spaces_for_the_generators_only(monkeypatch):
    """Work counted on the one-twisted M_3 chain of semisimple_corpus over
    GF(1000003), whose bimodules are cyclic of dim 9: comp_bar's ten
    eliminations are one presentation per bimodule (Phi beside the
    identity, 9 x 18), the echelon form of each of the six hom spaces (9
    basis maps of 81 entries) and the tensor quotient's relations (162
    distinct rows), and no hom space solves a system: a return to dim M *
    dim N unknowns (810 intertwining rows on 81) shows here."""
    field = PrimeField(1000003)
    chains, _ = semisimple_corpus(random.Random(1), scale=1.0, field=field)
    m, n, p = chains[3]
    assert [x.dim for x in (m, n, p)] == [9, 9, 9] and m.left.dim == 9
    shapes = Counter(a.shape for a in exactla_calls(
        monkeypatch, "rref", lambda: comp_bar(m, n, p)))
    assert shapes == {(9, 18): 3, (9, 81): 6, (162, 81): 1}
    assert exactla_calls(monkeypatch, "kernel", lambda: comp_bar(m, n, p)) == []


def plain_leaves(key):
    """The leaves of a content key that are not immutable values."""
    if type(key) is tuple:
        return [leaf for part in key for leaf in plain_leaves(part)]
    ok = (bool, int, str, Fraction, type, type(None), type(QQ), PrimeField)
    return [] if isinstance(key, ok) else [key]


VALIDATIONS = (["validate", "map", "unit:product:k^2"],
               ["validate", "bimodule", "regular:matrix:2"],
               ["validate", "cospan", "identity:k"])


def test_served_results_are_never_mutated():
    """Every result a memoised construction serves, hom bases included, and
    every verdict a memoised check serves, violations included, keep their
    content through a second run of batteries and `centrum validate`
    reports that share them, and the reports repeat byte for byte."""
    field = PrimeField(1000003)

    def batteries():
        assert run_battery("lax multiplication on algebra maps", 1, 0.1, field).ok
        assert run_battery("semisimple comparison isomorphisms", 1, 0.1, field).ok
        assert run_battery("horizontal interchanger", 1, 0.1, field).ok
        assert validate_algebra_map(three_on_k(QQ)) != []
        reports = []
        for argv in VALIDATIONS:
            with redirect_stdout(io.StringIO()) as out:
                assert cli_main(argv) == 0
            reports.append(out.getvalue())
        return reports

    clear_memos()
    reports = batteries()
    # keyed by fresh walks: content_key would read the keys stored on them
    served = [(fn.__name__, out, served_key(out))
              for fn in ALL_MEMOISED for out in fn.cache.values()]
    assert {name for name, _, _ in served} == {fn.__name__ for fn in ALL_MEMOISED}
    assert [leaf for _, _, key in served for leaf in plain_leaves(key)] == []
    assert batteries() == reports
    assert [name for name, out, key in served if served_key(out) != key] == []


def keyed_objects(roots):
    """Every Keyed object reachable from roots, through slots, lists,
    tuples, dicts and instance dicts, whose content key is set."""
    found, seen, todo = [], set(), list(roots)
    while todo:
        x = todo.pop()
        if id(x) in seen or type(x) is Matrix:
            continue
        seen.add(id(x))
        if isinstance(x, (list, tuple)):
            todo.extend(x)
        elif isinstance(x, dict):
            todo.extend(x.values())
        else:
            todo.extend(getattr(x, s) for cls in type(x).__mro__
                        for s in vars(cls).get("__slots__", ())
                        if s != "_key" and hasattr(x, s))
            todo.extend(getattr(x, "__dict__", {}).values())
            if isinstance(x, Keyed) and hasattr(x, "_key"):
                found.append(x)
    return found


def test_key_cache_serves_each_object_its_own_key(monkeypatch):
    """The batteries read more than 1,000 keys stored on their objects, and
    after them the key stored on every object keyed during them, and on
    every object a memoised result reaches, equals a fresh walk of that
    object."""
    import centrum.exactla as exactla

    keyed, served, real = [], [], exactla.content_key

    def spy(x):
        if isinstance(x, Keyed):
            keyed.append(x)
            served.append(hasattr(x, "_key"))
        return real(x)

    monkeypatch.setattr(exactla, "content_key", spy)
    clear_memos()
    field = PrimeField(1000003)
    assert run_battery("lax multiplication on algebra maps", 1, 0.1, field).ok
    assert run_battery("semisimple comparison isomorphisms", 1, 0.1, field).ok
    assert run_battery("lax multiplication on algebra maps", 1, 0.1, QQ).ok
    stored = keyed_objects([keyed] + [out for fn in ALL_MEMOISED
                                      for out in fn.cache.values()])
    assert sum(served) > 1000
    assert [x for x in stored if x._key != content_key_ref(x)] == []


def test_key_cache_never_serves_a_dropped_objects_key():
    """Many content-distinct short-lived maps, each dropped once keyed:
    Python gives the ids of dropped maps to new ones, and each new map
    still gets its own key."""
    k = alg_k()
    ids = set()
    for i in range(1536):
        f = AlgebraMap(k, k, Matrix.from_int_rows([[i]], QQ))
        ids.add(id(f))
        assert content_key(f) == content_key_ref(f)
        del f
    assert len(ids) < 1536  # ids were reused


def test_keying_an_object_holds_no_reference_to_it():
    """A content key lives on its object, so keying the object leaves its
    reference count as it was and the key dies with it."""
    k = alg_k()
    f = AlgebraMap(k, k, Matrix.from_int_rows([[7]], QQ))
    before = sys.getrefcount(f)
    key = content_key(f)
    assert sys.getrefcount(f) == before
    assert content_key(f) is key


def test_a_second_lax_verification_walks_no_chain_matrix(monkeypatch):
    """Work counted: verifying a chain walks the multiplication table of
    each of its algebras and the matrix of each of its maps once, and
    verifying the same chain objects again walks none of them."""
    import centrum.exactla as exactla

    field = PrimeField(1000003)
    chain = random_map_chain(random.Random(1), length=3, field=field,
                             pool=algebra_map_pool(field))
    watched = {id(f.mat) for f in chain}
    watched |= {id(a.mult) for f in chain for a in (f.src, f.tgt)}
    walked, real = [], exactla.content_key

    def spy(x):
        if type(x) is Matrix and id(x) in watched:
            walked.append(x)
        return real(x)

    monkeypatch.setattr(exactla, "content_key", spy)
    clear_memos()
    assert verify_lax_functor(chain).ok
    assert len(walked) == len(watched)
    walked.clear()
    assert verify_lax_functor(chain).ok
    assert walked == []


# -- invariant checks that survive python -O ---------------------------------


def invariant_failures():
    """Names of the invariant checks that did not raise ValueError when
    their invariant was broken; a memoised certificate is served many times,
    so none of these may be an assert."""
    import centrum.fullcenter as fullcenter

    reg = regular_bimodule(alg_product_k(2))
    other = regular_bimodule(alg_group_c2())
    k2 = alg_product_k(2)
    c2_map = identity_map(alg_group_c2())
    cases = {
        "Z_hom": (lambda: Z_hom(unit_map(alg_matrix(2))), "validate_cospan",
                  lambda c: ["broken"]),
        "Z_bimodule": (lambda: Z_bimodule(reg), "validate_cospan",
                       lambda c: ["broken"]),
        "Z_2cell": (lambda: Z_2cell(identity_bimodule_map(reg)),
                    "validate_2diagram", lambda d: ["broken"]),
        "mult_transform": (lambda: mult_transform(unit_map(k2), c2_map),
                           None, None),
        "m_square": (lambda: m_square(identity_bimodule_map(reg),
                                      identity_bimodule_map(reg)),
                     "unit_column", lambda a: Matrix.zeros(a.dim, 1, a.field)),
        "induced_map": (lambda: induced_map(
            identity_bimodule_map(reg), identity_bimodule_map(reg),
            tensor_over(other, other), tensor_over(reg, reg)), None, None),
        "check_m_hexagon": (lambda: check_m_hexagon(
            *[identity_bimodule_map(m) for m in (reg, other, reg, other)]),
            None, None),
    }
    out = []
    for name, (call, attr, broken) in cases.items():
        clear_memos()
        real = getattr(fullcenter, attr) if attr else None
        if attr:
            setattr(fullcenter, attr, broken)
        try:
            call()
        except ValueError:
            continue
        finally:
            if attr:
                setattr(fullcenter, attr, real)
        out.append(name)
    return out


def test_invariant_checks_raise_value_errors(fresh_memos):
    assert invariant_failures() == []


def test_invariant_checks_raise_value_errors_under_optimize():
    tests = Path(__file__).parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    script = ("import sys, test_fullcenter as t\n"
              "print(sys.flags.optimize, t.invariant_failures())\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "[]"]


def test_content_checks_accept_equal_but_distinct_bimodules():
    reg, again = (regular_bimodule(alg_product_k(2)) for _ in range(2))
    ident = identity_bimodule_map(reg)
    hom_bm, H = hom_bimodule(reg, again)
    assert hom_bm.dim == H.dim == len(H.basis) == 2
    t = tensor_over(again, again)
    assert induced_map(ident, ident, t, t).mat == Matrix.identity(t.dim, QQ)
