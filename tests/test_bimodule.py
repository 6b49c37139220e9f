"""Tests for bimodules, hom spaces, and fibered tensor products.

Oracles:
  * sympy nullspace/rank computations on independently assembled systems;
  * hand-computed hom and tensor dimensions for column/row modules over
    matrix algebras (Schur-style counts);
  * brute-force equivariance loops.
"""

import random

import pytest
import sympy as sm
from fieldref import kernel_ref, red, ref_validate_bimodule
from hypothesis import given, settings
from hypothesis import strategies as st
from refusals import bimodule_refusals, optimized
from testfixtures import restriction_bimodule

import centrum.bimodule as bimodule
import centrum.fixtures as fixtures
from centrum.algebra import (
    alg_dual_numbers,
    alg_group_c2,
    alg_k,
    alg_matrix,
    alg_product_k,
    Algebra,
    center,
    is_commutative,
)
from centrum.bimodule import (
    Bimodule,
    BimoduleMap,
    comp_bar,
    direct_sum_bimodules,
    end_algebra,
    free_bimodule,
    hom_space,
    identity_bimodule_map,
    induced_map,
    interchange_check,
    middle_relations,
    pentagon_check,
    presentation,
    regular_bimodule,
    restrict,
    assoc_iso,
    tensor_over,
    triangle_check,
    twist_bimodule,
    unit_iso_left,
    unit_iso_right,
    validate_bimodule,
    validate_bimodule_map,
)
from centrum.exactla import (
    QQ,
    HomSpace,
    Matrix,
    PrimeField,
    Subspace,
    combination,
    is_invertible,
    kernel,
    kron_product,
    random_matrix,
    same_content,
    stack_columns,
    stack_rows,
)
from centrum.corpus import semisimple_corpus
from centrum.fixtures import (
    commutative_pool,
    random_bimodule,
    random_hom_element,
    random_signed_permutation,
)


def to_sympy(m: Matrix) -> sm.Matrix:
    return sm.Matrix([[sm.Rational(x.numerator, x.denominator) for x in row]
                      for row in m.data]) if m.rows else sm.zeros(0, m.cols)


def pure(t, mvec, nvec):
    """The class of the pure tensor m (x) n in t's quotient coordinates."""
    f = t.quot.field
    return kron_product(t.quot.proj, [Matrix.from_columns([v], len(v), f)
                                      for v in (mvec, nvec)]).col_list(0)


# ---------------------------------------------------------------------------
# fixtures


def col_bimodule(n: int) -> Bimodule:
    """k^n as a (matrix algebra, k)-bimodule: columns."""
    a = alg_matrix(n)
    k = alg_k()
    f = QQ
    lact = []
    for i in range(n):
        for j in range(n):
            m = Matrix.zeros(n, n, f)
            m.data[i][j] = f.one
            lact.append(m)
    ract = [Matrix.identity(n, f)]
    return Bimodule(a, k, n, lact, ract, name=f"col({n})")


def row_bimodule(n: int) -> Bimodule:
    """k^n as a (k, matrix algebra)-bimodule: rows."""
    a = alg_matrix(n)
    k = alg_k()
    f = QQ
    ract = []
    for i in range(n):
        for j in range(n):
            m = Matrix.zeros(n, n, f)
            m.data[j][i] = f.one  # right action of E_ij maps e_i -> e_j
            ract.append(m)
    lact = [Matrix.identity(n, f)]
    return Bimodule(k, a, n, lact, ract, name=f"row({n})")


def weighted_point_bimodule(weights, field=QQ) -> Bimodule:
    """k as a (k^m, k)-bimodule where factor i acts by the 0/1 weight."""
    a = alg_product_k(len(weights), field)
    k = alg_k(field)
    lact = [Matrix([[field.from_int(w)]], field) for w in weights]
    ract = [Matrix.identity(1, field)]
    return Bimodule(a, k, 1, lact, ract)


def random_twisted_free(a: Algebra, b: Algebra, d: int, rng) -> Bimodule:
    m = free_bimodule(a, b, d)
    while True:
        P = random_matrix(m.dim, m.dim, 2, rng, QQ)
        if is_invertible(P):
            return twist_bimodule(m, P)


# ---------------------------------------------------------------------------
# bimodule axioms


def test_standard_bimodules_valid():
    for bim in [
        regular_bimodule(alg_matrix(2)),
        regular_bimodule(alg_dual_numbers()),
        free_bimodule(alg_group_c2(), alg_product_k(2), 2),
        col_bimodule(2),
        row_bimodule(3),
        weighted_point_bimodule([1, 0]),
        direct_sum_bimodules([col_bimodule(2), col_bimodule(2)]),
    ]:
        assert validate_bimodule(bim) == []


def test_twist_preserves_validity():
    rng = random.Random(7)
    bim = random_twisted_free(alg_dual_numbers(), alg_group_c2(), 1, rng)
    assert validate_bimodule(bim) == []


def test_restriction_bimodule_valid():
    from centrum.algebra import AlgebraMap, unit_map

    f = unit_map(alg_matrix(2))
    bim = restriction_bimodule(f)
    assert validate_bimodule(bim) == []
    assert bim.left.dim == 1 and bim.right.dim == 4 and bim.dim == 4


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(1000003)],
                         ids=["QQ", "GF2", "GF3", "GF1000003"])
def test_restrict_matches_the_hand_written_restriction(field):
    """The regular bimodule of f.tgt restricted along f on the left is the
    hand-written restriction_bimodule(f), and a valid bimodule, for every
    map of the pool."""
    for f in fixtures.algebra_map_pool(field):
        bim = restrict(regular_bimodule(f.tgt), left=f)
        assert same_content(bim, restriction_bimodule(f))
        assert validate_bimodule(bim) == []


def test_validate_catches_broken_action():
    bim = col_bimodule(2)
    bad = Bimodule(bim.left, bim.right, bim.dim, bim.lact,
                   [Matrix.from_int_rows([[1, 1], [0, 1]], QQ)])
    assert any("unital" in msg for msg in validate_bimodule(bad))


def test_validate_catches_noncommuting_actions():
    # left and right actions that fail to commute: both act by the same
    # noncommutative algebra on the nose
    a = alg_matrix(2)
    reg = regular_bimodule(a)
    bad = Bimodule(a, a, 4, reg.lact, reg.lact)
    msgs = validate_bimodule(bad)
    assert any("commute" in m for m in msgs) or any("anti" in m for m in msgs)


def test_validate_bimodule_map_names_the_action_it_breaks():
    """The swap of k^2 breaks the action of the idempotents of k^2 = product:k^2
    and keeps that of k."""
    k, k2 = alg_k(), alg_product_k(2)
    reg, one = regular_bimodule(k2), Matrix.identity(2, QQ)
    swap = Matrix.from_int_rows([[0, 1], [1, 0]], QQ)
    left = Bimodule(k2, k, 2, reg.lact, [one])
    right = Bimodule(k, k2, 2, [one], reg.ract)
    assert validate_bimodule_map(BimoduleMap(left, left, swap)) == [
        "does not intertwine left action of e0", "does not intertwine left action of e1"]
    assert validate_bimodule_map(BimoduleMap(right, right, swap)) == [
        "does not intertwine right action of e0", "does not intertwine right action of e1"]


DIFF_FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(1000003))
SMALL_ALGEBRAS = (alg_k, alg_dual_numbers, alg_group_c2,
                  lambda f: alg_product_k(2, f))


@st.composite
def maybe_broken_bimodules(draw):
    """(bimodule, broken): a valid bimodule over two small algebras drawn
    independently, of dimension 0 now and then, or a copy with one entry of
    one action matrix changed."""
    field = draw(st.sampled_from(DIFF_FIELDS))
    a, b = (draw(st.sampled_from(SMALL_ALGEBRAS))(field) for _ in range(2))
    if draw(st.integers(0, 4)) == 0:
        zero = Matrix.zeros(0, 0, field)
        m = Bimodule(a, b, 0, [zero] * a.dim, [zero] * b.dim)
    else:
        m = random_bimodule(a, b, random.Random(draw(st.integers(0, 1 << 16))))
    if not m.dim or draw(st.booleans()):
        return m, False
    side = draw(st.sampled_from(("lact", "ract")))
    acts = list(getattr(m, side))
    k = draw(st.integers(0, len(acts) - 1))
    i, j = (draw(st.integers(0, m.dim - 1)) for _ in range(2))
    delta = draw(st.sampled_from((field.one, QQ.div(1, 2)) if field == QQ
                                 else (field.one,)))
    rows = [row[:] for row in acts[k].data]
    rows[i][j] = red(field, rows[i][j] + delta)
    acts[k] = Matrix(rows, field, ncols=m.dim)
    lact, ract = (acts, m.ract) if side == "lact" else (m.lact, acts)
    return Bimodule(a, b, m.dim, lact, ract), True


@settings(max_examples=150, deadline=None)
@given(maybe_broken_bimodules())
def test_validate_bimodule_matches_the_pair_loops(args):
    """The structure-map equations report the same violations, in the same
    order, as one check per pair of basis elements."""
    m, broken = args
    got = validate_bimodule(m)
    assert got == ref_validate_bimodule(m)
    assert broken or got == []


def test_validate_bimodule_over_the_zero_algebra():
    """An algebra of dimension 0 has no basis actions to stack."""
    z, k = Algebra(Matrix.zeros(0, 0, QQ), []), alg_k()
    left_zero = Bimodule(z, k, 2, [], [Matrix.identity(2, QQ)])
    right_zero = Bimodule(k, z, 0, [Matrix.zeros(0, 0, QQ)], [])
    assert validate_bimodule(left_zero) == ["left action is not unital"]
    assert validate_bimodule(right_zero) == []
    for m in (left_zero, right_zero):
        assert validate_bimodule(m) == ref_validate_bimodule(m)


# ---------------------------------------------------------------------------
# hom spaces


def test_hom_space_regular_is_center():
    # maps A -> A of (A, A)-bimodules are right multiplications by central
    # elements, so the dimension equals dim Z(A)
    for a, zdim in [
        (alg_matrix(2), 1),
        (alg_matrix(3), 1),
        (alg_product_k(3), 3),
        (alg_dual_numbers(), 2),
        (alg_group_c2(), 2),
    ]:
        H = hom_space(regular_bimodule(a), regular_bimodule(a))
        assert H.dim == len(H.basis) == zdim == center(a).dim


def test_hom_space_simple_module():
    H = hom_space(col_bimodule(2), col_bimodule(2))
    assert H.dim == 1
    # the unique (up to scale) endomorphism is a multiple of the identity
    assert H.coords([Matrix.identity(2, QQ)], "outside").shape == (1, 1)


def test_hom_space_elements_are_equivariant():
    m = direct_sum_bimodules([col_bimodule(2), col_bimodule(2)])
    basis = hom_space(m, m).basis
    assert len(basis) == 4  # two copies of a simple: 2x2 matrix algebra
    for b in basis:
        assert validate_bimodule_map(BimoduleMap(m, m, b)) == []


def test_hom_space_disjoint_weights_is_zero():
    m1 = weighted_point_bimodule([1, 0])
    m2 = weighted_point_bimodule([0, 1])
    assert hom_space(m1, m2).basis == []
    assert hom_space(m1, m1).dim == 1


def test_hom_space_sympy_cross_check():
    # independently assemble the intertwining conditions in sympy and compare
    # nullspace dimensions, over randomly twisted free bimodules
    rng = random.Random(11)
    for _ in range(5):
        a = alg_group_c2()
        b = alg_product_k(2)
        src = random_twisted_free(a, b, 1, rng)
        tgt = random_twisted_free(a, b, 1, rng)
        n_s, n_t = src.dim, tgt.dim
        unknowns = sm.Matrix(n_t, n_s, lambda i, j: sm.Symbol(f"x_{i}_{j}"))
        eqs = []
        for L_s, L_t in zip(src.lact, tgt.lact):
            diff = unknowns * to_sympy(L_s) - to_sympy(L_t) * unknowns
            eqs.extend(diff)
        for R_s, R_t in zip(src.ract, tgt.ract):
            diff = unknowns * to_sympy(R_s) - to_sympy(R_t) * unknowns
            eqs.extend(diff)
        sols = sm.linsolve(eqs, list(unknowns))
        free_syms = len(list(sols.free_symbols)) if sols else 0
        assert hom_space(src, tgt).dim == free_syms


def kron_hom_system(src: Bimodule, tgt: Bimodule) -> Matrix:
    """The blocks T (x) I - I (x) S^T, one per pair of actions (S of src, T
    of tgt), formed as Kronecker products with identities and stacked: the
    bimodule maps are the kernel on their vectorisations."""
    f, ns, nt = src.field, src.dim, tgt.dim
    It, Is = Matrix.identity(nt, f), Matrix.identity(ns, f)
    return stack_rows([Matrix.zeros(0, nt * ns, f)]
                      + [T.kron(Is) - It.kron(S.transpose())
                         for S, T in zip(src.lact + src.ract, tgt.lact + tgt.ract)])


def kron_hom_space(src: Bimodule, tgt: Bimodule):
    """Reference: the kernel of kron_hom_system, as matrices."""
    f, ns, nt = src.field, src.dim, tgt.dim
    return [Matrix([v[r * ns:(r + 1) * ns] for r in range(nt)], f, ncols=ns)
            for v in kernel(kron_hom_system(src, tgt)).basis.columns()]


@pytest.mark.parametrize("seed", range(16))
def test_hom_space_matches_kron_and_subtract(seed):
    rng = random.Random(seed)
    field = (QQ, PrimeField(2), PrimeField(3), PrimeField(1000003))[seed % 4]
    small = [alg_k(field), alg_group_c2(field), alg_dual_numbers(field),
             alg_product_k(2, field)]
    a, b = rng.choice(small), rng.choice(small)
    # twisted rank-2 bimodules over QQ grow large coefficients: seconds each
    rank = 1 if field == QQ else 2
    src, tgt = (random_bimodule(a, b, rng, max_rank=rank) for _ in range(2))
    for s, t in ((src, tgt), (tgt, src), (src, src)):
        assert hom_space(s, t).basis == kron_hom_space(s, t)
        # hom_space hands its relation rows to kernel untransposed; dense
        # elimination of the Kronecker system agrees
        assert hom_space(s, t).span.basis == kernel_ref(kron_hom_system(s, t))


def intertwining_hom_basis(src: Bimodule, tgt: Bimodule) -> Matrix:
    """Reference: hom_space as it was built before it solved for the images
    of generators.  X S = T X for every action pair (S of src, T of tgt):
    its equations on vec(X) are the rows of (T^T (x) I - I (x) S)^T, which
    middle_relations builds from the T^T and the S; the canonical basis of
    their kernel."""
    return kernel(middle_relations([T.transpose() for T in tgt.lact + tgt.ract],
                                   src.lact + src.ract)).basis


def differential_hom_pairs(field):
    """(src, tgt) pairs over field: the regular bimodule of every algebra of
    the pool (the commutative pool and M_2, M_3), random bimodules over
    pairs of pool algebras, sources that no one orbit spans (sums of two
    free or regular pieces, sums of col/row simples, point modules over
    k^3) beside those simples, zero-dimensional bimodules, and the
    one-twisted M_3 chain of semisimple_corpus."""
    rng = random.Random(43)
    pool = commutative_pool(field) + [alg_matrix(2, field)]
    pairs = [(r, r) for r in map(regular_bimodule, pool + [alg_matrix(3, field)])]
    # twisted rank-2 bimodules over QQ grow large coefficients
    rank = 1 if field == QQ else 2
    for _ in range(6):
        a, b = rng.choice(pool[:4]), rng.choice(pool)
        src, tgt = (random_bimodule(a, b, rng, max_rank=rank) for _ in range(2))
        pairs += [(src, tgt), (tgt, src), (src, src)]
    # sums of two free or regular pieces, twisted twice by signed
    # permutations, which keep QQ coefficients small
    for a, b in ((pool[3], pool[3]), (pool[2], pool[0]), (pool[2], pool[1])):
        piece = regular_bimodule(a) if a is b else free_bimodule(a, b, 1)
        m = direct_sum_bimodules([piece, free_bimodule(a, b, 1)])
        src, tgt = (twist_bimodule(m, random_signed_permutation(m.dim, rng, field))
                    for _ in range(2))
        pairs += [(src, tgt), (tgt, src)]
    c2, r3 = fixtures.col_bimodule(2, field), fixtures.row_bimodule(3, field)
    c222, r33 = direct_sum_bimodules([c2] * 3), direct_sum_bimodules([r3, r3])
    pts = [weighted_point_bimodule(w, field)
           for w in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    p001 = direct_sum_bimodules([pts[0], pts[0], pts[2]])
    pairs += [(c2, c222), (c222, c2), (c222, c222), (r3, r33), (r33, r3),
              (r33, r33), (p001, p001), (pts[0], p001), (p001, pts[2]),
              (pts[1], p001)]
    zero = Matrix.zeros(0, 0, field)
    z = Bimodule(pts[0].left, pts[0].right, 0, [zero] * 3, [zero])
    pairs += [(z, z), (z, p001), (p001, z)]
    chains, _ = semisimple_corpus(random.Random(1), scale=1.0, field=field)
    m, n, p = chains[3]
    return pairs + [(m, n), (n, p), (m, p), (m, m)]


@pytest.mark.parametrize("field", DIFF_FIELDS)
def test_hom_space_matches_the_intertwining_kernel(field):
    """hom_space, solved for the images of its source's generators, against
    the kernel of every intertwining row, on sources that one orbit spans
    and sources that it does not, in every field."""
    pairs = differential_hom_pairs(field)
    assert max(presentation(s).gens for s, _ in pairs) >= 2
    assert [i for i, (s, t) in enumerate(pairs)
            if hom_space(s, t).span.basis != intertwining_hom_basis(s, t)] == []


def test_hom_space_builds_no_intertwining_rows(monkeypatch, fresh_memos):
    """src has one hom-space path: hom_space never calls middle_relations,
    which builds the relations of tensor quotients and 3-cell families."""
    def refused(*args):
        raise AssertionError("hom_space built the intertwining rows")

    monkeypatch.setattr(bimodule, "middle_relations", refused)
    for s, t in differential_hom_pairs(PrimeField(1000003)):
        hom_space(s, t)


def hom_chain(field, rng):
    """Bimodules m, n, p over one pair of small algebras, twisted (so over
    QQ their actions are not integral as a rule): m and the hom spaces
    [n, p], [m, n] and [m, p]."""
    small = [alg_k(field), alg_group_c2(field), alg_dual_numbers(field),
             alg_product_k(2, field)]
    a, b = rng.choice(small), rng.choice(small)
    m, n, p = (random_bimodule(a, b, rng, max_rank=2) for _ in range(3))
    return m, (hom_space(n, p), hom_space(m, n), hom_space(m, p))


@pytest.mark.parametrize("field", DIFF_FIELDS)
def test_product_coords_matches_the_coords_of_each_product(field):
    """product_coords against the coordinates of the products formed one by
    one, with either factor a HomSpace and the other a list of maps."""
    rng = random.Random(7)

    def elements(H):
        return [combination([field.from_int(rng.randint(-2, 2)) for _ in H.basis],
                            H.basis, Matrix.zeros(H.rows, H.cols, field))
                for _ in range(2)]

    fractional = False
    for _ in range(4):
        m, (Hnp, Hmn, Hmp) = hom_chain(field, rng)
        fractional |= any(X.den is not None for X in m.lact + m.ract)
        xs, ys = elements(Hnp), elements(Hmn)
        cases = ((Hnp, Hmn, Hnp.basis, Hmn.basis), (Hnp, ys, Hnp.basis, ys),
                 (xs, Hmn, xs, Hmn.basis), (Hnp, [], Hnp.basis, []),
                 ([], Hmn, [], Hmn.basis))
        for X, Y, xlist, ylist in cases:
            want = Hmp.coords([x @ y for x in xlist for y in ylist], "no")
            assert Hmp.product_coords(X, Y, "no") == want
    assert fractional or field != QQ


def test_product_coords_of_zero_dimensional_hom_spaces():
    """The dimension-0 bimodule over k has a 0-dimensional hom space in a
    0-dimensional ambient space; two point bimodules with disjoint weights
    have one in a 1-dimensional ambient space."""
    k = alg_k()
    zero = Matrix.zeros(0, 0, QQ)
    z = Bimodule(k, k, 0, [zero], [zero])
    Z = hom_space(z, z)
    assert Z.dim == 0 and Z.vecs.shape == (0, 0)
    assert Z.product_coords(Z, Z, "no") == Matrix.zeros(0, 0, QQ)
    assert Z.product_coords([zero, zero], Z, "no") == Z.coords([], "no")
    assert end_algebra(z).dim == 0
    m1, m2 = weighted_point_bimodule([1, 0]), weighted_point_bimodule([0, 1])
    H, E = hom_space(m1, m2), hom_space(m1, m1)
    assert H.dim == 0 and H.vecs.shape == (0, 1)
    one = Matrix.identity(1, QQ)
    assert H.product_coords(H, E, "no") == Matrix.zeros(0, 0, QQ)
    assert H.product_coords([Matrix.zeros(1, 1, QQ)], E, "no") == \
        H.coords([Matrix.zeros(1, 1, QQ)], "no")
    with pytest.raises(ValueError, match="^outside$"):
        H.product_coords([one], E, "outside")


def test_hom_products_cost_one_product_per_space(monkeypatch):
    """Work counted, not timed, on the free (M_n, k)-bimodule over
    GF(1000003) with the memo caches cleared: End(M) reads its
    multiplication in one product for every n, comp_bar(M, M, M) makes
    fewer than 100 products, and neither hom_space nor tensor_over
    transposes its relation matrix, of n |B| rows."""
    F = PrimeField(1000003)
    products, shapes = [], []
    matmul, transpose = Matrix.__matmul__, Matrix.transpose
    monkeypatch.setattr(Matrix, "__matmul__",
                        lambda x, y: products.append(1) or matmul(x, y))
    monkeypatch.setattr(Matrix, "transpose",
                        lambda x: shapes.append(x.shape) or transpose(x))
    counts = []
    for n in (2, 3):
        A = alg_matrix(n, F)
        m = free_bimodule(A, alg_k(F), 1)
        hom_space.cache.clear()
        end_algebra.cache.clear()
        del products[:]
        end_algebra(m)
        counts.append(len(products))
        end_algebra.cache.clear()
        del products[:], shapes[:]
        comp_bar(m, m, m)
        if n == 3:
            assert len(products) < 100
        # n |B|: the relation rows of [M, M] and of A (x)_A M
        hom_space.cache.clear()
        for build, rows in ((lambda: hom_space(m, m), m.dim ** 2 * (A.dim + 1)),
                            (lambda: tensor_over(regular_bimodule(A), m),
                             A.dim * m.dim * A.dim)):
            del shapes[:]
            build()
            assert shapes and rows not in {d for shape in shapes for d in shape}
    assert counts[0] == counts[1]


def test_hom_space_coords_refuse_a_map_outside_the_span():
    c = col_bimodule(2)
    H = hom_space(c, c)  # the scalar matrices
    three = Matrix.identity(2, QQ).scale(QQ.from_int(3))
    shift = Matrix.from_int_rows([[0, 1], [0, 0]], QQ)
    assert H.coords([three, three], "unused") == Matrix.from_int_rows([[3, 3]], QQ)
    with pytest.raises(ValueError, match="^shift is not a bimodule map$"):
        H.coords([three, shift], "shift is not a bimodule map")
    with pytest.raises(ValueError, match="^outside$"):
        H.coords([shift], "outside")
    # a product outside the span, with the space on either side
    half = Matrix.identity(2, QQ).scale(QQ.div(1, 2))
    assert H.product_coords(H, [half, half], "no") == H.coords([half, half], "no")
    for xs, ys in ((H, [half, shift]), ([shift], H)):
        with pytest.raises(ValueError, match="^shift leaves the span$"):
            H.product_coords(xs, ys, "shift leaves the span")
    # with an empty span only the zero map has coordinates
    empty = HomSpace(2, 2, kernel(Matrix.identity(4, QQ)))
    assert empty.basis == []
    assert empty.coords([Matrix.zeros(2, 2, QQ)], "outside").shape == (0, 1)
    with pytest.raises(ValueError, match="^outside$"):
        empty.coords([shift], "outside")
    # a span that kernel cannot have produced is refused when it is built
    with pytest.raises(ValueError, match="echelon"):
        HomSpace(2, 2, Subspace(4, three.flatten().transpose(), QQ))


def test_end_algebra_of_simple_pair_is_matrix_algebra():
    m = direct_sum_bimodules([col_bimodule(2), col_bimodule(2)])
    end = end_algebra(m)
    assert end.dim == 4
    assert not is_commutative(end)
    assert center(end).dim == 1


def test_end_algebra_of_regular_is_center():
    a = alg_dual_numbers()
    end = end_algebra(regular_bimodule(a))
    assert end.dim == 2
    assert is_commutative(end)


def test_end_algebra_of_free_rank_one():
    # End of A (x) B free of rank one has dimension (dim A)(dim B)
    a = alg_product_k(2)
    end = end_algebra(free_bimodule(a, a, 1))
    assert end.dim == 4
    assert is_commutative(end)


# ---------------------------------------------------------------------------
# fibered tensor products


def test_tensor_over_scalars_is_full_tensor():
    v = free_bimodule(alg_k(), alg_k(), 2)
    w = free_bimodule(alg_k(), alg_k(), 3)
    t = tensor_over(v, w)
    assert t.dim == 6


def test_row_tensor_col_is_scalar_line():
    t = tensor_over(row_bimodule(2), col_bimodule(2))
    assert t.dim == 1
    # diagonal pure tensors agree and are nonzero; off-diagonal vanish
    e0, e1 = [QQ.one, QQ.zero], [QQ.zero, QQ.one]
    assert pure(t, e0, e0) == pure(t, e1, e1)
    assert any(pure(t, e0, e0))
    assert not any(pure(t, e0, e1))


def test_col_tensor_row_is_matrix_algebra_bimodule():
    t = tensor_over(col_bimodule(2), row_bimodule(2))
    assert t.dim == 4
    # as an (M2, M2)-bimodule this is the regular one: one-dimensional hom
    # space with an invertible representative
    basis = hom_space(regular_bimodule(alg_matrix(2)), t.product).basis
    assert len(basis) == 1
    assert is_invertible(basis[0])


def test_tensor_dim_sympy_cross_check():
    rng = random.Random(23)
    for _ in range(4):
        b = alg_group_c2()
        m = random_twisted_free(alg_k(), b, 1, rng)
        n = random_twisted_free(b, alg_product_k(2), 1, rng)
        rel = middle_relations(m.ract, n.lact)
        t = tensor_over(m, n)
        assert t.dim == m.dim * n.dim - to_sympy(rel).rank()
        assert validate_bimodule(t.product) == []


def kron_middle_relations(dim_m, dim_n, ract_mid, lact_mid, field) -> Matrix:
    """Reference: the blocks R_b (x) I - I (x) L_b as Kronecker products with
    identities, subtracted densely and stacked side by side."""
    Im = Matrix.identity(dim_m, field)
    In = Matrix.identity(dim_n, field)
    return stack_columns([Matrix.zeros(dim_m * dim_n, 0, field)]
                         + [Rb.kron(In) - Im.kron(Lb)
                            for Rb, Lb in zip(ract_mid, lact_mid)])


@st.composite
def middle_actions(draw):
    """Sizes and action matrices over QQ, GF(2), GF(3) or GF(1000003), each
    matrix dense or sparse, entries in [-3, 3]."""
    field = draw(st.sampled_from((QQ, PrimeField(2), PrimeField(3),
                                  PrimeField(1000003))))
    dim_m, dim_n, nb = (draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                        draw(st.integers(1, 3)))

    def mat(n):
        sparse = draw(st.booleans())
        cells = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)),
                              min_size=n * n, max_size=n * n))
        vals = [v if not sparse or keep == 0 else 0 for v, keep in cells]
        return Matrix([[field.from_int(vals[i * n + j]) for j in range(n)]
                       for i in range(n)], field, ncols=n)

    ract = [mat(dim_m) for _ in range(nb)]
    lact = [mat(dim_n) for _ in range(nb)]
    return dim_m, dim_n, ract, lact, field


@settings(max_examples=150, deadline=None)
@given(middle_actions())
def test_middle_relations_match_kron_and_subtract(args):
    _, _, ract, lact, _ = args
    assert middle_relations(ract, lact) == kron_middle_relations(*args).transpose()


def test_middle_relations_refuse_a_middle_algebra_without_basis():
    # the sizes and the field are read off the first action pair
    with pytest.raises(ValueError, match="middle algebra with a basis"):
        middle_relations([], [])


def test_tensor_over_the_zero_algebra_is_zero():
    """A bimodule over the 0-dimensional algebra is 0, so M (x)_0 N is the
    0-dimensional quotient of a 0-dimensional flat tensor, by no relations."""
    zero = end_algebra(free_bimodule(alg_k(), alg_k(), 0))
    assert zero.dim == 0
    m = Bimodule(alg_k(), zero, 0, [Matrix.identity(0, QQ)], [])
    n = Bimodule(zero, alg_k(), 0, [], [Matrix.identity(0, QQ)])
    assert validate_bimodule(m) == validate_bimodule(n) == []
    t = tensor_over(m, n)
    assert (t.dim, t.quot.ambient) == (0, 0)
    assert validate_bimodule(t.product) == []


def test_pure_respects_middle_relations():
    b = alg_group_c2()
    m = free_bimodule(alg_k(), b, 1)
    n = free_bimodule(b, alg_k(), 1)
    t = tensor_over(m, n)
    rng = random.Random(5)
    for _ in range(10):
        mv = [QQ.from_int(rng.randint(-3, 3)) for _ in range(m.dim)]
        nv = [QQ.from_int(rng.randint(-3, 3)) for _ in range(n.dim)]
        bv = [QQ.from_int(rng.randint(-3, 3)) for _ in range(b.dim)]
        left = pure(t, m.ract_of(bv).apply(mv), nv)
        right = pure(t, mv, n.lact_of(bv).apply(nv))
        assert left == right


def test_induced_map_descends_and_composes():
    m = direct_sum_bimodules([col_bimodule(2), col_bimodule(2)])
    n = row_bimodule(2)
    t = tensor_over(m, n)
    end_m = hom_space(m, m)
    zero = Matrix.zeros(m.dim, m.dim, QQ)
    for coords in ([1, 0, 0, 1], [2, 1, 1, 1]):
        xi = BimoduleMap(m, m, combination([QQ.from_int(c) for c in coords],
                                           end_m.basis, zero))
        ind = induced_map(xi, identity_bimodule_map(n), t, t)
        assert validate_bimodule_map(ind) == []


# ---------------------------------------------------------------------------
# unit and associativity isomorphisms


def test_unit_iso_left_and_right():
    a = alg_matrix(2)
    m = col_bimodule(2)
    t = tensor_over(regular_bimodule(a), m)
    iso = unit_iso_left(t)
    assert validate_bimodule_map(iso) == []
    d = alg_dual_numbers()
    n = free_bimodule(alg_group_c2(), d, 1)
    t2 = tensor_over(n, regular_bimodule(d))
    iso2 = unit_iso_right(t2)
    assert validate_bimodule_map(iso2) == []


def test_assoc_iso_small_chain():
    tl, tr, iso, inv = assoc_iso(col_bimodule(2), row_bimodule(2), col_bimodule(2))
    assert tl.dim == tr.dim == 2
    assert iso.mat @ inv.mat == Matrix.identity(tr.dim, QQ)


def test_assoc_iso_with_nontrivial_middles():
    b = alg_group_c2()
    c = alg_dual_numbers()
    m = free_bimodule(alg_k(), b, 1)
    n = free_bimodule(b, c, 1)
    p = free_bimodule(c, alg_k(), 1)
    tl, tr, iso, inv = assoc_iso(m, n, p)
    assert tl.dim == tr.dim
    assert iso.mat @ inv.mat == Matrix.identity(tr.dim, QQ)


def test_pentagon_matrix_chain():
    assert pentagon_check(
        col_bimodule(2), row_bimodule(2), col_bimodule(2), row_bimodule(2)
    )


def test_pentagon_free_chain():
    b = alg_group_c2()
    bims = [
        free_bimodule(alg_k(), b, 1),
        regular_bimodule(b),
        free_bimodule(b, alg_k(), 1),
        free_bimodule(alg_k(), alg_k(), 2),
    ]
    assert pentagon_check(*bims)


def test_triangle():
    assert triangle_check(col_bimodule(2), row_bimodule(2))
    b = alg_dual_numbers()
    assert triangle_check(free_bimodule(alg_k(), b, 1), free_bimodule(b, alg_k(), 1))


def test_interchange():
    m = direct_sum_bimodules([col_bimodule(2), col_bimodule(2)])
    n = direct_sum_bimodules([row_bimodule(2), row_bimodule(2)])
    end_m = hom_space(m, m)
    end_n = hom_space(n, n)
    rng = random.Random(3)

    def endomorphism(b, end):
        coords = [QQ.from_int(rng.randint(-2, 2)) for _ in range(end.dim)]
        return BimoduleMap(b, b, combination(coords, end.basis,
                                             Matrix.zeros(b.dim, b.dim, QQ)))

    for _ in range(5):
        xi = endomorphism(m, end_m)
        zeta = endomorphism(n, end_n)
        assert interchange_check(xi, zeta)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(1000003)],
                         ids=["QQ", "GF2", "GF3", "GF1000003"])
def test_interchange_on_quotients_matches_induced_maps(field, monkeypatch):
    """The five maps that interchange_check induces on bare quotients, with
    identities as int factors, equal induced_map's on full TensorResults
    with identity BimoduleMaps, its formulation before it read quotients,
    so its three composites are theirs.  It calls none of that
    formulation's functions."""
    rng = random.Random(23)
    a, b, c = alg_group_c2(field), alg_dual_numbers(field), alg_product_k(2, field)
    real, made = bimodule.tensor_induced, []

    def recorded(*args):
        made.append(real(*args))
        return made[-1]

    def refused(*args):
        raise AssertionError("interchange_check built a TensorResult or BimoduleMap")

    for _ in range(3):
        m, mp = random_bimodule(a, b, rng), random_bimodule(a, b, rng)
        n, np_ = random_bimodule(b, c, rng), random_bimodule(b, c, rng)
        xi, zeta = random_hom_element(m, mp, rng), random_hom_element(n, np_, rng)
        made.clear()
        monkeypatch.setattr(bimodule, "tensor_induced", recorded)
        for name in ("tensor_over", "induced_map", "identity_bimodule_map"):
            monkeypatch.setattr(bimodule, name, refused)
        assert interchange_check(xi, zeta)
        monkeypatch.undo()
        t_m_n, t_mp_n, t_m_np, t_mp_np = (
            tensor_over(*pair) for pair in ((m, n), (mp, n), (m, np_), (mp, np_)))
        one = identity_bimodule_map
        reference = [
            induced_map(xi, one(np_), t_m_np, t_mp_np),
            induced_map(one(m), zeta, t_m_n, t_m_np),
            induced_map(one(mp), zeta, t_mp_n, t_mp_np),
            induced_map(xi, one(n), t_m_n, t_mp_n),
            induced_map(xi, zeta, t_m_n, t_mp_np),
        ]
        assert made == [r.mat for r in reference]


# ---------------------------------------------------------------------------
# descended composition


def test_comp_bar_simple_chain_iso():
    c = col_bimodule(2)
    res = comp_bar(c, c, c)
    assert res.mat.shape == (1, 1)
    assert is_invertible(res.mat)


def test_comp_bar_regular_chain_iso():
    r = regular_bimodule(alg_dual_numbers())
    res = comp_bar(r, r, r)
    assert res.mat.shape == (2, 2)
    assert is_invertible(res.mat)


def test_comp_bar_through_vector_space():
    # [N,P] (x)_{[N,N]} [M,N] with M = P = k and N = k^2 over (k, k):
    # rows tensor columns over a matrix algebra, composition is the pairing
    k = alg_k()
    m = free_bimodule(k, k, 1)
    n = free_bimodule(k, k, 2)
    res = comp_bar(m, n, m)
    assert res.tensor.dim == 1
    assert is_invertible(res.mat)


def test_comp_bar_not_iso_for_disjoint_weights():
    m = weighted_point_bimodule([1, 0])
    n = weighted_point_bimodule([0, 1])
    res = comp_bar(m, n, m)
    assert res.tensor.dim == 0
    assert res.mat.shape == (1, 0)
    assert not is_invertible(res.mat)


def test_comp_bar_agrees_with_plain_composition():
    m = direct_sum_bimodules([col_bimodule(2), col_bimodule(2)])
    res = comp_bar(m, m, m)
    assert is_invertible(res.mat)
    # comp_bar o rho == composition on every pair of basis maps
    H = hom_space(m, m)
    for i, bi in enumerate(H.basis):
        for j, bj in enumerate(H.basis):
            f = QQ
            flat = [f.zero] * (H.dim * H.dim)
            flat[i * H.dim + j] = f.one
            cls = res.tensor.quot.proj.apply(flat)
            expect = H.coords([bi @ bj], "outside").col_list(0)
            assert res.mat.apply(cls) == expect


# ---------------------------------------------------------------------------
# construction checks that survive python -O


def test_construction_checks_raise_value_errors():
    assert bimodule_refusals() == []


def test_construction_checks_raise_value_errors_under_optimize():
    assert optimized("bimodule_refusals") == ["1", "[]"]
