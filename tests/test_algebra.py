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
                    sympy.Rational(a.sc[z][i][k]) - sympy.Rational(a.sc[i][z][k])
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
    return Algebra(3, sc, [o, z, z], QQ)


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
    a = Algebra(2, sc, [o, z], QQ)
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
