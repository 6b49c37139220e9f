"""Structure-constant algebras: validators, centers, centralizers,
constructions, maps.

The center/centralizer oracle is independent of the kernel machinery: we
rebuild the commutation system in sympy and take its nullspace dimension, and
we brute-force commutators of the returned basis against every basis element.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from centrum import algebra as algebra_module
from centrum.cli import algebra_dict, algebra_from_dict, content_hash, fmt_vector
from centrum.corpus import _automorphism_pool
from centrum.exactla import QQ, Matrix, PrimeField, is_invertible, rank
from centrum.algebra import (
    Algebra,
    AlgebraMap,
    alg_dual_numbers,
    alg_group_c2,
    alg_k,
    alg_matrix,
    alg_product_k,
    center,
    centralizer,
    compose_maps,
    identity_map,
    image_central_in,
    is_commutative,
    is_isomorphism,
    matrix_algebra,
    named_algebra,
    opposite_algebra,
    product_algebra,
    subalgebra_from_subspace,
    subalgebra_map,
    tensor_algebra,
    unit_map,
    validate_algebra,
    validate_algebra_map,
)


# -- oracles -----------------------------------------------------------------


def from_sc(sc, unit, field, name=""):
    """The algebra with structure constants sc[i][j][k], the e_k-coefficient
    of e_i * e_j: column i*dim + j of its mult is sc[i][j]."""
    n = len(sc)
    cols = [sc[i][j] for i in range(n) for j in range(n)]
    return Algebra(Matrix.from_columns(cols, n, field), unit, name)


def sympy_center_dim(a: Algebra) -> int:
    """Independent recomputation: nullspace of the stacked commutation system
    built directly from the structure constants in sympy."""
    n = a.dim
    rows = []
    for i in range(n):
        # commutator with e_i: row block for z e_i - e_i z
        for k in range(n):
            row = []
            for z in range(n):
                # coefficient of e_k in e_z e_i - e_i e_z
                row.append(
                    sympy.Rational(a.mult.data[k][z * n + i])
                    - sympy.Rational(a.mult.data[k][i * n + z])
                )
            rows.append(row)
    M = sympy.Matrix(rows)
    return M.cols - M.rank()


def brute_force_is_central(a: Algebra, vec) -> bool:
    return all(
        a.multiply(vec, a.basis_vector(i)) == a.multiply(a.basis_vector(i), vec)
        for i in range(a.dim)
    )


# -- fixtures ----------------------------------------------------------------


def broken_associativity_algebra() -> Algebra:
    """dim 3, unit e0; e1*e1 = e2, e1*e2 = e1, everything else zero.
    (e1 e1) e1 = e2 e1 = 0 but e1 (e1 e1) = e1 e2 = e1."""
    z, o = QQ.zero, QQ.one
    sc = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    for j in range(3):
        sc[0][j][j] = o
        sc[j][0][j] = o
    sc[1][1] = [z, z, o]
    sc[1][2] = [z, o, z]
    return from_sc(sc, [o, z, z], QQ)


def diag_embedding() -> AlgebraMap:
    """k^2 -> M2 sending the idempotents to E11, E22."""
    d2 = alg_product_k(2)
    m2 = alg_matrix(2)
    mat = Matrix.from_int_rows([[1, 0], [0, 0], [0, 0], [0, 1]], QQ)
    return AlgebraMap(d2, m2, mat)


# -- validators --------------------------------------------------------------


@pytest.mark.parametrize(
    "builder",
    [
        alg_k,
        lambda: alg_matrix(2),
        lambda: alg_matrix(3),
        lambda: alg_product_k(3),
        alg_dual_numbers,
        alg_group_c2,
    ],
)
def test_named_algebras_valid(builder):
    a = builder()
    assert validate_algebra(a) == []


def test_validate_catches_broken_associativity():
    bad = broken_associativity_algebra()
    violations = validate_algebra(bad)
    assert violations
    assert any("associativity" in v for v in violations)


def test_validate_catches_broken_unit():
    z, o = QQ.zero, QQ.one
    sc = [[[o, z], [z, z]], [[z, z], [z, z]]]
    a = from_sc(sc, [o, z], QQ)
    violations = validate_algebra(a)
    assert any("unit" in v for v in violations)


def test_matrix_units_multiplication():
    m2 = alg_matrix(2)
    # E_{ij} at index i*2+j; E01 * E10 = E00, E01 * E01 = 0
    e01, e10 = m2.basis_vector(1), m2.basis_vector(2)
    assert m2.multiply(e01, e10) == m2.basis_vector(0)
    assert m2.multiply(e01, e01) == [QQ.zero] * 4
    assert m2.multiply(m2.unit, e01) == e01


# -- centers -----------------------------------------------------------------


@pytest.mark.parametrize(
    "builder,expect",
    [
        (lambda: alg_matrix(2), 1),
        (lambda: alg_matrix(3), 1),
        (lambda: alg_product_k(3), 3),
        (alg_dual_numbers, 2),
        (alg_group_c2, 2),
        (lambda: tensor_algebra(alg_matrix(2), alg_matrix(2)), 1),
        (lambda: tensor_algebra(alg_product_k(2), alg_product_k(2)), 4),
        (lambda: matrix_algebra(alg_dual_numbers(), 2), 2),
    ],
)
def test_center_dims_match_oracle(builder, expect):
    a = builder()
    c = center(a)
    assert c.dim == expect
    assert c.dim == sympy_center_dim(a)
    for col in c.incl.columns():
        assert brute_force_is_central(a, col)
    # the induced algebra on the center is a valid commutative algebra
    assert validate_algebra(c.algebra) == []
    assert is_commutative(c.algebra)


def test_center_of_m2_is_scalars():
    c = center(alg_matrix(2))
    assert c.incl.columns() == [list(alg_matrix(2).unit)]


def test_center_closure_error_surfaces():
    # span{E11, E12+E21} in M2 is not closed under multiplication
    basis = Matrix.from_int_rows([[1, 0], [0, 1], [0, 1], [0, 0]], QQ)
    with pytest.raises(ValueError):
        subalgebra_from_subspace(alg_matrix(2), basis)


# -- centralizers ------------------------------------------------------------


def test_centralizer_of_diagonal_embedding():
    f = diag_embedding()
    c = centralizer(f)
    assert c.dim == 2
    # the diagonal matrices, canonically
    assert c.incl == Matrix.from_int_rows([[1, 0], [0, 0], [0, 0], [0, 1]], QQ)
    assert validate_algebra(c.algebra) == []


def test_centralizer_of_unit_map_is_everything():
    m2 = alg_matrix(2)
    c = centralizer(unit_map(m2))
    assert c.dim == 4


def test_centralizer_brute_force_random():
    rng = random.Random(7)
    f = diag_embedding()
    c = centralizer(f)
    # element-wise: everything in the centralizer commutes with the image
    for j in range(c.dim):
        z = c.incl.col_list(j)
        for i in range(f.src.dim):
            u = f.apply(f.src.basis_vector(i))
            assert f.tgt.multiply(z, u) == f.tgt.multiply(u, z)
    # and a random non-diagonal matrix does not lie in it
    probe = [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
    assert c.coords(probe) is None


# -- constructions -----------------------------------------------------------


def test_tensor_algebra_structure():
    t = tensor_algebra(alg_matrix(2), alg_group_c2())
    assert t.dim == 8
    assert validate_algebra(t) == []
    assert center(t).dim == 2


def test_opposite_algebra():
    m2 = alg_matrix(2)
    op = opposite_algebra(m2)
    assert validate_algebra(op) == []
    e01, e10 = m2.basis_vector(1), m2.basis_vector(2)
    assert op.multiply(e01, e10) == m2.multiply(e10, e01)
    assert center(op).dim == 1
    assert opposite_algebra(op).equal_on_the_nose(m2)


def test_matrix_algebra_over_product():
    a = matrix_algebra(alg_product_k(2), 2)
    assert a.dim == 8
    assert validate_algebra(a) == []
    assert center(a).dim == 2


def test_product_algebra():
    a = product_algebra([alg_matrix(2), alg_k()])
    assert a.dim == 5
    assert validate_algebra(a) == []
    assert center(a).dim == 2


def test_named_constructor_parsing():
    assert named_algebra("k").dim == 1
    assert named_algebra("matrix:3").dim == 9
    assert named_algebra("product:k^4").dim == 4
    assert named_algebra("dual_numbers").dim == 2
    assert named_algebra("group:C2").dim == 2
    with pytest.raises(ValueError):
        named_algebra("nope")


# -- maps --------------------------------------------------------------------


def test_validate_algebra_map():
    f = diag_embedding()
    assert validate_algebra_map(f) == []
    # doubling is linear but not an algebra map
    bad = AlgebraMap(f.src, f.src, Matrix.identity(2, QQ).scale(QQ.from_int(2)))
    assert validate_algebra_map(bad)


def test_compose_and_identity():
    f = diag_embedding()
    i = identity_map(f.src)
    assert compose_maps(f, i).mat == f.mat
    g = unit_map(f.src)
    h = compose_maps(f, g)
    assert validate_algebra_map(h) == []
    assert h.apply([QQ.one]) == list(f.tgt.unit)


def test_is_isomorphism():
    d2 = alg_product_k(2)
    swap = AlgebraMap(d2, d2, Matrix.from_int_rows([[0, 1], [1, 0]], QQ))
    inv = is_isomorphism(swap)
    assert inv is not None and inv.mat == swap.mat
    assert is_isomorphism(unit_map(d2)) is None
    bij_not_alg = AlgebraMap(d2, d2, Matrix.from_int_rows([[1, 1], [0, 1]], QQ))
    assert is_isomorphism(bij_not_alg) is None


def test_image_central_in():
    m2 = alg_matrix(2)
    assert image_central_in(unit_map(m2))
    assert not image_central_in(diag_embedding())
    assert image_central_in(identity_map(alg_product_k(2)))


def test_subalgebra_map_restriction():
    # the swap on k^2 restricted to its center (everything) is the swap again
    d2 = alg_product_k(2)
    c = center(d2)
    swap = Matrix.from_int_rows([[0, 1], [1, 0]], QQ)
    f = subalgebra_map(c, c, swap)
    assert validate_algebra_map(f) == []
    assert rank(f.mat) == 2


@pytest.mark.parametrize("p", [None, 2, 3, 1000003])
def test_automorphism_pool_is_invertible_in_every_field(p):
    field = QQ if p is None else PrimeField(p)
    for _, maps in _automorphism_pool(field):
        for f in maps:
            assert validate_algebra_map(f) == []
            assert is_invertible(f.mat)


# -- failures are ValueErrors, not asserts -----------------------------------


def test_algebra_map_of_the_wrong_shape_is_refused():
    d2, m2 = alg_product_k(2), alg_matrix(2)
    with pytest.raises(ValueError):
        AlgebraMap(d2, m2, Matrix.identity(2, QQ))


def test_composing_mismatched_maps_is_refused():
    f = diag_embedding()
    with pytest.raises(ValueError, match="composition type mismatch"):
        compose_maps(f, f)


def test_malformed_mult_is_refused():
    with pytest.raises(ValueError):
        Algebra(Matrix.identity(2, QQ), [QQ.one, QQ.zero])
    with pytest.raises(ValueError):
        Algebra(alg_k().mult, [QQ.one, QQ.zero])


def test_is_isomorphism_refuses_an_inverse_that_fails_its_check(monkeypatch):
    d2 = alg_product_k(2)
    swap = AlgebraMap(d2, d2, Matrix.from_int_rows([[0, 1], [1, 0]], QQ))
    calls = []

    def second_call_fails(f):
        calls.append(f)
        return ["forced violation"] if len(calls) > 1 else []

    monkeypatch.setattr(algebra_module, "validate_algebra_map", second_call_fails)
    with pytest.raises(ValueError):
        is_isomorphism(swap)


# -- differential tests against the structure-constant loops -----------------
#
# The functions below are the nested-loop implementations that the
# multiplication-matrix representation replaced, kept as a reference.  They
# work on sc[i][j][k], the e_k-coefficient of e_i * e_j.


def to_sc(a):
    n = a.dim
    return [[a.mult.col_list(i * n + j) for j in range(n)] for i in range(n)]


def ref_multiply(sc, x, y, field):
    out = [field.zero] * len(sc)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            coef = xi * yj
            for k, c in enumerate(sc[i][j]):
                if c:
                    out[k] = out[k] + coef * c
    return out


def ref_left_mult(sc, x, field):
    n = len(sc)
    cols = []
    for j in range(n):
        col = [field.zero] * n
        for i, xi in enumerate(x):
            if not xi:
                continue
            for k, c in enumerate(sc[i][j]):
                if c:
                    col[k] = col[k] + xi * c
        cols.append(col)
    return Matrix.from_columns(cols, n, field)


def ref_right_mult(sc, x, field):
    n = len(sc)
    cols = []
    for j in range(n):
        col = [field.zero] * n
        for i, xi in enumerate(x):
            if not xi:
                continue
            for k, c in enumerate(sc[j][i]):
                if c:
                    col[k] = col[k] + xi * c
        cols.append(col)
    return Matrix.from_columns(cols, n, field)


def ref_is_commutative(sc):
    n = len(sc)
    return all(sc[i][j] == sc[j][i] for i in range(n) for j in range(n))


def ref_validate_algebra(sc, unit, field):
    out = []
    n = len(sc)
    for i in range(n):
        e = [field.zero] * n
        e[i] = field.one
        if ref_multiply(sc, unit, e, field) != e:
            out.append(f"unit fails on the left at basis {i}")
        if ref_multiply(sc, e, unit, field) != e:
            out.append(f"unit fails on the right at basis {i}")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    lhs = rhs = field.zero
                    for m in range(n):
                        if sc[i][j][m]:
                            lhs = lhs + sc[i][j][m] * sc[m][k][l]
                        if sc[j][k][m]:
                            rhs = rhs + sc[j][k][m] * sc[i][m][l]
                    if lhs != rhs:
                        out.append(
                            f"associativity fails at (e{i}*e{j})*e{k} vs "
                            f"e{i}*(e{j}*e{k}), coefficient of e{l}"
                        )
    return out


def ref_validate_algebra_map(src_sc, src_unit, tgt_sc, tgt_unit, mat, field):
    out = []
    if mat.apply(src_unit) != tgt_unit:
        out.append("unit is not preserved")
    n = len(src_sc)
    for i in range(n):
        for j in range(n):
            lhs = mat.apply(src_sc[i][j])
            rhs = ref_multiply(tgt_sc, mat.col_list(i), mat.col_list(j), field)
            if lhs != rhs:
                out.append(f"multiplicativity fails at (e{i}, e{j})")
    return out


def ref_tensor_algebra(a_sc, a_unit, b_sc, b_unit, field):
    n, m = len(a_sc), len(b_sc)
    dim = n * m
    sc = [[[field.zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for p in range(n):
            for j in range(m):
                for q in range(m):
                    row = sc[i * m + j][p * m + q]
                    for r in range(n):
                        for t in range(m):
                            c1, c2 = a_sc[i][p][r], b_sc[j][q][t]
                            if c1 and c2:
                                row[r * m + t] = row[r * m + t] + c1 * c2
    unit = [x * y for x in a_unit for y in b_unit]
    return sc, unit


def ref_matrix_algebra(base_sc, base_unit, n, field):
    d = len(base_sc)
    dim = n * n * d
    sc = [[[field.zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(d):
                for q in range(n):
                    for l in range(d):
                        row = sc[(i * n + j) * d + k][(j * n + q) * d + l]
                        for r, c in enumerate(base_sc[k][l]):
                            if c:
                                row[(i * n + q) * d + r] = row[(i * n + q) * d + r] + c
    unit = [field.zero] * dim
    for i in range(n):
        for k in range(d):
            unit[(i * n + i) * d + k] = base_unit[k]
    return sc, unit


def ref_product_algebra(parts, field):
    dim = sum(len(sc) for sc, _ in parts)
    sc = [[[field.zero] * dim for _ in range(dim)] for _ in range(dim)]
    unit = []
    off = 0
    for psc, punit in parts:
        d = len(psc)
        unit.extend(punit)
        for i in range(d):
            for j in range(d):
                for k, c in enumerate(psc[i][j]):
                    sc[off + i][off + j][off + k] = c
        off += d
    return sc, unit


def ref_opposite_algebra(sc):
    n = len(sc)
    return [[sc[j][i] for j in range(n)] for i in range(n)]


def ref_algebra_dict(sc, unit, field):
    n = len(sc)
    return {
        "kind": "algebra",
        "dim": n,
        "sc": [[fmt_vector(sc[i][j], field) for j in range(n)] for i in range(n)],
        "unit": fmt_vector(unit, field),
    }


DIFF_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(1000003)]


def _values(field):
    ints = st.integers(-3, 3).map(field.from_int)
    if field != QQ:
        return ints
    halves = st.integers(-3, 3).map(lambda k: QQ.div(k, 2))
    return st.one_of(ints, ints, halves)


@st.composite
def raw_algebras(draw, field=None, max_dim=4):
    """(sc, unit, field): random structure constants of dim 1..max_dim, most
    of them non-associative, non-unital and non-commutative; sometimes a
    named algebra, possibly with one constant perturbed."""
    if field is None:
        field = draw(st.sampled_from(DIFF_FIELDS))
    if draw(st.integers(0, 3)) == 0:
        a = draw(st.sampled_from([alg_k, alg_dual_numbers, alg_group_c2,
                                  lambda f: alg_matrix(2, f),
                                  lambda f: alg_product_k(3, f)]))(field)
        sc, unit = to_sc(a), list(a.unit)
        if draw(st.booleans()):
            n = a.dim
            i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
            sc[i][j][k] = sc[i][j][k] + field.one
        return sc, unit, field
    n = draw(st.integers(1, max_dim))
    zero = st.just(field.zero)
    entry = st.one_of(zero, zero, _values(field))
    sc = [[draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
          for _ in range(n)]
    unit = draw(st.lists(entry, min_size=n, max_size=n))
    return sc, unit, field


def vectors(draw, n, field):
    return draw(st.lists(st.one_of(st.just(field.zero), _values(field)),
                         min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(raw_algebras(), st.data())
def test_products_and_validator_match_the_loops(raw, data):
    sc, unit, field = raw
    a = from_sc(sc, unit, field)
    n = a.dim
    x, y = vectors(data.draw, n, field), vectors(data.draw, n, field)
    assert a.multiply(x, y) == ref_multiply(sc, x, y, field)
    assert a.left_mult(x) == ref_left_mult(sc, x, field)
    assert a.right_mult(x) == ref_right_mult(sc, x, field)
    for i in range(n):
        e = a.basis_vector(i)
        assert a.left_mult(e) == ref_left_mult(sc, e, field)
        assert a.right_mult(e) == ref_right_mult(sc, e, field)
    assert is_commutative(a) == ref_is_commutative(sc)
    assert validate_algebra(a) == ref_validate_algebra(sc, unit, field)
    op = opposite_algebra(a)
    assert to_sc(op) == ref_opposite_algebra(sc) and op.unit == unit


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(DIFF_FIELDS).flatmap(
    lambda f: st.tuples(raw_algebras(f, 3), raw_algebras(f, 3))))
def test_constructions_match_the_loops(pair):
    (a_sc, a_unit, field), (b_sc, b_unit, _) = pair
    a, b = from_sc(a_sc, a_unit, field, "a"), from_sc(b_sc, b_unit, field, "b")
    t = tensor_algebra(a, b)
    assert (to_sc(t), t.unit) == ref_tensor_algebra(a_sc, a_unit, b_sc, b_unit, field)
    assert t.name == "a(x)b"
    for n in (1, 2):
        m = matrix_algebra(a, n)
        assert (to_sc(m), m.unit) == ref_matrix_algebra(a_sc, a_unit, n, field)
        assert m.name == f"M{n}(a)"
    p = product_algebra([a, b, t])
    assert (to_sc(p), p.unit) == ref_product_algebra(
        [(a_sc, a_unit), (b_sc, b_unit), (to_sc(t), t.unit)], field)
    assert p.name == "a x b x a(x)b"


@st.composite
def raw_maps(draw):
    """(src, tgt, mat, field): a random linear map between random algebras,
    or a map that is an algebra map (an identity or a swap of k^2), possibly
    perturbed."""
    field = draw(st.sampled_from(DIFF_FIELDS))
    if draw(st.booleans()):
        src = tgt = draw(st.sampled_from([alg_k, alg_group_c2, alg_dual_numbers,
                                          lambda f: alg_product_k(2, f)]))(field)
        mat = Matrix.identity(src.dim, field)
        if src.name == "k^2" and draw(st.booleans()):
            mat = Matrix.from_int_rows([[0, 1], [1, 0]], field)
        if draw(st.booleans()):
            i, j = (draw(st.integers(0, src.dim - 1)) for _ in range(2))
            mat.data[i][j] = mat.data[i][j] + field.one
        return src, tgt, mat, field
    src = from_sc(*draw(raw_algebras(field, 3)))
    tgt = from_sc(*draw(raw_algebras(field, 3)))
    cols = [vectors(draw, tgt.dim, field) for _ in range(src.dim)]
    return src, tgt, Matrix.from_columns(cols, tgt.dim, field), field


@settings(max_examples=150, deadline=None)
@given(raw_maps())
def test_validate_algebra_map_matches_the_loops(raw):
    src, tgt, mat, field = raw
    f = AlgebraMap(src, tgt, mat)
    assert validate_algebra_map(f) == ref_validate_algebra_map(
        to_sc(src), src.unit, to_sc(tgt), tgt.unit, mat, field)


@settings(max_examples=100, deadline=None)
@given(raw_algebras())
def test_json_round_trip_is_exact(raw):
    sc, unit, field = raw
    a = from_sc(sc, unit, field)
    back = algebra_from_dict(algebra_dict(a), field)
    assert back.equal_on_the_nose(a)
    assert algebra_dict(a) == ref_algebra_dict(sc, unit, field)
    assert content_hash(algebra_dict(back)) == content_hash(
        ref_algebra_dict(sc, unit, field))
