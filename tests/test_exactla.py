"""Exact linear algebra: unit tests plus sympy cross-checks.

sympy's Rational matrices are an independent implementation of rank/nullspace/
inverse; agreeing with them on random instances is the oracle for this layer.
"""

import random
import time
from fractions import Fraction
from math import gcd

import pytest
import sympy
from fieldref import (
    add_ref,
    apply_ref,
    cokernel_ref,
    column_echelon_ref,
    descend_ref,
    kernel_ref,
    kron_product_ref,
    kron_ref,
    matmul_ref,
    red,
    reference_kernels,
    rref_ref,
    scale_ref,
    select_columns_ref,
    stack_ref,
    transpose_ref,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from refusals import optimized, refusal_failures, shape_refusals

from centrum import exactla
from centrum.exactla import (
    QQ,
    Matrix,
    PrimeField,
    Quotient,
    Subspace,
    _is_prime,
    _row_echelon_basis,
    cokernel,
    combination,
    field_from_name,
    inverse,
    is_invertible,
    kernel,
    kron_product,
    random_matrix,
    rank,
    rref,
    same_content,
    slot_products,
    solve_matrix,
    stack_columns,
    stack_rows,
    tensor_induced,
    tensor_permutation_index,
)


def to_sympy(m: Matrix) -> sympy.Matrix:
    return sympy.Matrix(
        [[sympy.Rational(a.numerator, a.denominator) for a in row] for row in m.data]
    )


def column_space(m: Matrix) -> Subspace:
    """The span of the columns of m as a canonical subspace, on the
    elimination that cokernel runs for its relations."""
    return Subspace(m.rows, _row_echelon_basis(m.transpose()), m.field)


def test_field_parsing():
    assert field_from_name("rational") is QQ
    gf = field_from_name("gfp:7")
    assert isinstance(gf, PrimeField) and gf.p == 7
    with pytest.raises(ValueError):
        field_from_name("gfp:8")
    with pytest.raises(ValueError):
        field_from_name("real")
    assert QQ.parse("-3/4") == Fraction(-3, 4)
    assert QQ.parse(" 7 ") == 7
    # Fraction alone reads these too; an exponent passes the int digit limit
    for s in ("1e5000", "0.5", "1_0"):
        with pytest.raises(ValueError):
            QQ.parse(s)
    # int alone reads underscores and non-ASCII digits, also in a field name
    gf5 = field_from_name("gfp:5")
    assert (gf5.parse(" 7 "), gf5.parse("-3")) == (2, 2)
    for s in ("1_000_001", "\u0663", "1/2", "0.5"):
        with pytest.raises(ValueError):
            gf5.parse(s)
    for name in ("gfp:\u0665", "gfp: 5", "gfp:5 ", "gfp:5_0", "gfp:+5",
                 "gfp:-5", "gfp:05", "gfp:0", "gfp:"):
        with pytest.raises(ValueError, match="unknown field"):
            field_from_name(name)
    # a name that parses is the field's own name
    for name in ("rational", "gfp:2", "gfp:5", "gfp:1000003"):
        assert field_from_name(name).name == name


def test_matrix_basics():
    a = Matrix.from_int_rows([[1, 2], [3, 4]], QQ)
    b = Matrix.from_int_rows([[0, 1], [1, 0]], QQ)
    assert (a @ b) == Matrix.from_int_rows([[2, 1], [4, 3]], QQ)
    assert (a + b - b) == a
    assert a.transpose().transpose() == a
    assert a.apply([QQ.one, QQ.zero]) == [Fraction(1), Fraction(3)]
    i2 = Matrix.identity(2, QQ)
    assert (a @ i2) == a
    k = a.kron(i2)
    assert k.shape == (4, 4)
    # left factor major: (i,k),(j,l) entry is a[i][j] * I[k][l]
    assert k.data[0][0] == 1 and k.data[1][1] == 1
    assert k.data[0][2] == 2 and k.data[2][0] == 3


def test_rref_small():
    m = Matrix.from_int_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]], QQ)
    R, piv = rref(m)
    assert piv == [0, 1]
    assert rank(m) == 2
    assert R.data[0][0] == 1 and R.data[1][1] == 1
    # fully reduced: pivot columns are standard basis vectors
    assert R.data[0][1] == 0


@pytest.mark.parametrize("seed", range(25))
def test_rank_kernel_match_sympy(seed):
    rng = random.Random(seed)
    r = rng.randint(1, 6)
    c = rng.randint(1, 6)
    m = random_matrix(r, c, 4, rng, QQ)
    sm = to_sympy(m)
    assert rank(m) == sm.rank()
    ker = kernel(m)
    assert ker.dim == c - sm.rank()
    # every basis vector really is in the kernel
    for col in ker.basis.columns():
        assert all(not x for x in m.apply(col))
    # sympy nullspace spans the same space
    sns = sm.nullspace()
    for v in sns:
        vec = [Fraction(x.p, x.q) for x in v]
        ker.coords_matrix(Matrix.from_columns([vec], c, QQ), "outside")


@pytest.mark.parametrize("seed", range(15))
def test_solve_and_inverse_match_sympy(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(1, 5)
    m = random_matrix(n, n, 4, rng, QQ)
    inv = inverse(m)
    sm = to_sympy(m)
    if sm.det() == 0:
        assert inv is None
        assert not is_invertible(m)
    else:
        assert inv is not None
        assert to_sympy(inv) == sm.inv()
        b = [QQ.from_int(rng.randint(-5, 5)) for _ in range(n)]
        x = solve_matrix(m, Matrix.from_columns([b], n, QQ))
        assert x is not None and m.apply(x.col_list(0)) == b


def test_solve_inconsistent_and_free_vars():
    m = Matrix.from_int_rows([[1, 1], [1, 1]], QQ)
    assert solve_matrix(m, Matrix.from_int_rows([[1], [0]], QQ)) is None
    # underdetermined: free variables are zeroed
    m2 = Matrix.from_int_rows([[1, 1]], QQ)
    x = solve_matrix(m2, Matrix.from_int_rows([[5]], QQ))
    assert x.col_list(0) == [Fraction(5), Fraction(0)]
    # solve_matrix rejects if any column inconsistent
    B = Matrix.from_int_rows([[1, 1], [1, 0]], QQ)
    assert solve_matrix(m, B) is None


def test_subspace_canonical_equality():
    # same plane presented by two different spanning sets
    b1 = Matrix.from_int_rows([[1, 0], [0, 1], [1, 1]], QQ)
    b2 = Matrix.from_int_rows([[2, 1], [2, 3], [4, 4]], QQ)
    s1 = column_space(b1)
    s2 = column_space(b2)
    assert same_content(s1, s2)
    assert s1.basis == _row_echelon_basis(b2.transpose())
    assert s1.dim == 2
    assert s1.coords_matrix(Matrix.from_int_rows([[3], [5], [8]], QQ), "outside") == \
        Matrix.from_int_rows([[3], [5]], QQ)
    with pytest.raises(ValueError, match="outside"):
        s1.coords_matrix(Matrix.from_int_rows([[0], [0], [1]], QQ), "outside")


@pytest.mark.parametrize("seed", range(25))
def test_cokernel_witnesses(seed):
    rng = random.Random(200 + seed)
    n = rng.randint(1, 7)
    r = rng.randint(0, 7)
    rel = random_matrix(n, r, 3, rng, QQ) if r else Matrix.zeros(n, 0, QQ)
    q = cokernel(rel.transpose())
    d = rank(rel) if r else 0
    assert q.dim == n - d
    assert (q.proj @ q.sect) == Matrix.identity(q.dim, QQ)
    assert (q.proj @ q.relations).is_zero()
    if r:
        assert (q.proj @ rel).is_zero()
    # proj is surjective and ker proj == relation space
    assert rank(q.proj) == q.dim
    assert same_content(kernel(q.proj),
                        column_space(rel if r else Matrix.zeros(n, 0, QQ)))
    # section embeds standard basis vectors only
    for j in range(q.sect.cols):
        col = q.sect.col_list(j)
        assert sum(1 for x in col if x) == 1


def test_quotient_induced_descends():
    # quotient of k^2 by span(e0 - e1); the swap map descends, projection to e0 does not
    rel = Matrix.from_int_rows([[1], [-1]], QQ)
    q = cokernel(rel.transpose())
    assert q.dim == 1
    swap = Matrix.from_int_rows([[0, 1], [1, 0]], QQ)
    ind = tensor_induced(q, [swap], q)
    assert ind == Matrix.identity(1, QQ)
    bad = Matrix.from_int_rows([[1, 0], [0, 0]], QQ)
    with pytest.raises(ValueError):
        tensor_induced(q, [bad], q)


def test_quotient_descend():
    # k^2 modulo span(e0 - e1): the swap descends, projection to e0 does not
    q = cokernel(Matrix.from_int_rows([[1], [-1]], QQ).transpose())
    swap = Matrix.from_int_rows([[0, 1], [1, 0]], QQ)
    assert q.descend(q.proj @ swap, "no") == Matrix.identity(1, QQ)
    bad = Matrix.from_int_rows([[1, 0]], QQ)
    with pytest.raises(ValueError, match="^bad map$"):
        q.descend(bad, "bad map")


def symmetric_witness():
    """(k^2 (x) k^2 modulo the swap) (x) k^2, modulo e_00 (x) e_0 - e_11 (x) e_1:
    a two-level quotient of the flat tensor k^2 (x) k^2 (x) k^2."""
    swap = Matrix.from_int_rows([[0], [1], [-1], [0]], QQ)
    inner = Quotient.leaf(2, QQ).tensor(Quotient.leaf(2, QQ),
                                        cokernel(swap.transpose()))
    outer = Matrix.from_int_rows([[1], [0], [0], [0], [0], [-1]], QQ)
    return inner.tensor(Quotient.leaf(2, QQ), cokernel(outer.transpose()))


def test_flat_witness_two_levels():
    w = symmetric_witness()
    assert w.dims == (2, 2, 2)
    assert w.proj.shape == (5, 8) and w.sect.shape == (8, 5)
    assert w.proj @ w.sect == Matrix.identity(5, QQ)


def test_flat_witness_descend():
    w = symmetric_witness()
    rng = random.Random(5)
    g = random_matrix(3, 5, 4, rng, QQ)
    assert w.descend(g @ w.proj, "no") == g
    # the coordinate of e_0 (x) e_1 (x) e_0 alone is not swap-invariant
    bad = Matrix.zeros(1, 8, QQ)
    bad.data[0][2] = QQ.one
    with pytest.raises(ValueError, match="^bad flat map$"):
        w.descend(bad, "bad flat map")


def test_flat_witness_rejects_a_false_section():
    q = cokernel(Matrix.from_int_rows([[1], [-1]], QQ).transpose())
    with pytest.raises(ValueError, match="^quotient section is not a section"
                                         " of the projection$"):
        Quotient(q.dims, q.proj.scale(QQ.from_int(2)), q.free)


def test_tensor_permutation_middle_swap():
    # swap the middle two slots of a 4-fold tensor
    dims = [2, 3, 2, 2]
    # the permutation matrices select the columns of the identity
    I = Matrix.identity(24, QQ)
    P = I.select_columns(tensor_permutation_index(dims, [0, 2, 1, 3]))
    Pinv = I.select_columns(tensor_permutation_index([2, 2, 3, 2], [0, 2, 1, 3]))
    assert (Pinv @ P) == I
    # spot check: source index (1,2,0,1) -> target (1,0,2,1)
    src = ((1 * 3 + 2) * 2 + 0) * 2 + 1
    tgt = ((1 * 2 + 0) * 3 + 2) * 2 + 1
    assert P.data[tgt][src] == 1


def test_prime_field_linear_algebra():
    gf = PrimeField(5)
    m = Matrix.from_int_rows([[1, 2], [3, 4]], gf)
    inv = inverse(m)
    assert inv is not None
    assert (m @ inv) == Matrix.identity(2, gf)
    sing = Matrix.from_int_rows([[1, 2], [2, 4]], gf)
    assert inverse(sing) is None
    assert kernel(sing).dim == 1


def test_prime_field_elements_are_reduced_ints():
    gf = PrimeField(7)
    assert (gf.zero, gf.one) == (0, 1)
    assert (gf.from_int(-1), gf.from_int(15), gf.parse("-3")) == (6, 1, 4)


def test_mixed_fields_and_bad_shapes_are_refused():
    assert refusal_failures() == []


def test_mixed_fields_and_bad_shapes_are_refused_under_optimize():
    assert optimized("refusal_failures") == ["1", "[]"]


# ---------------------------------------------------------------------------
# Miller-Rabin primality


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(20000) if _is_prime(n) != trial_division(n)] == []


def test_is_prime_rejects_strong_pseudoprimes():
    # a Carmichael number and strong pseudoprimes to base 2, to bases 2..7
    # and to bases 2..37
    for n in (561, 2047, 3215031751, 3825123056546413051):
        assert not _is_prime(n)


def test_large_prime_field_is_fast():
    start = time.perf_counter()
    gf = field_from_name("gfp:2305843009213693951")
    assert time.perf_counter() - start < 0.5
    assert gf.p == 2 ** 61 - 1


def test_field_beyond_the_certified_bound_is_refused():
    with pytest.raises(ValueError, match="too large"):
        field_from_name(f"gfp:{2 ** 89 - 1}")


# ---------------------------------------------------------------------------
# differential tests against the dense reference formulas


FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(1000003))


@st.composite
def field_matrices(draw, max_rows=7, max_cols=7, fields=FIELDS):
    """A matrix over one of fields with entries in [-4, 4]: dense, or sparse
    with about one entry in five nonzero."""
    field = draw(st.sampled_from(fields))
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(0, max_cols))
    sparse = draw(st.booleans())
    cells = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 4)),
                          min_size=rows * cols, max_size=rows * cols))
    vals = [v if not sparse or keep == 0 else 0 for v, keep in cells]
    data = [[field.from_int(vals[i * cols + j]) for j in range(cols)]
            for i in range(rows)]
    return Matrix(data, field, ncols=cols)


def dense_rref(m: Matrix):
    """Reference elimination: every row update runs over every column.
    Over QQ it scales rows through Fraction, since int / int is a float;
    over GF(p) it multiplies by the Fermat inverse pv^(p-2)."""
    field = m.field
    R = [row[:] for row in m.data]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r >= m.rows:
            break
        pr = next((i for i in range(r, m.rows) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        pv = R[r][c]
        if field.p:
            inv = pow(pv, field.p - 2, field.p)
            R[r] = [red(field, a * inv) for a in R[r]]
        else:
            R[r] = [Fraction(a) / pv for a in R[r]]
        for i in range(m.rows):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [red(field, a - f * b) for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return Matrix(R, m.field, ncols=m.cols), pivots


def dense_kernel_basis(m: Matrix) -> Matrix:
    R, pivots = dense_rref(m)
    z, o = m.field.zero, m.field.one
    cols = []
    for j in (j for j in range(m.cols) if j not in pivots):
        v = [z] * m.cols
        v[j] = o
        for i, p in enumerate(pivots):
            v[p] = red(m.field, -R.data[i][j])
        cols.append(v)
    return _row_echelon_basis(Matrix(cols, m.field, ncols=m.cols))


def inverse_proj(rel: Matrix) -> Matrix:
    """The cokernel projection as the last rows of the inverse of
    [B | sect], B the reduced column echelon basis of the relations."""
    field, n = rel.field, rel.rows
    B = _row_echelon_basis(rel.transpose())
    d = B.cols
    lead = {next(i for i in range(n) if B.data[i][j]) for j in range(d)}
    free = [i for i in range(n) if i not in lead]
    sect = Matrix.zeros(n, n - d, field)
    for j, i in enumerate(free):
        sect.data[i][j] = field.one
    R, pivots = dense_rref(stack_columns([B, sect, Matrix.identity(n, field)]))
    assert pivots == list(range(n))
    return Matrix([row[n:] for row in R.data[d:]], field, ncols=n)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(FIELDS[1:]))
def test_gfp_references_store_reduced_ints(data, field):
    """Over GF(p) every entry-by-entry reference of fieldref stores its
    entries as ints in [0, p), as the library does, so rref_ref accepts
    what it returns."""
    A = data.draw(field_matrices(max_rows=4, max_cols=4, fields=(field,)))
    B = data.draw(field_matrices(max_rows=3, max_cols=3, fields=(field,)))
    C = A.scale(field.from_int(-3))
    c = field.from_int(data.draw(st.integers(-4, 4)))
    v = [field.from_int(x) for x in data.draw(
        st.lists(st.integers(-4, 4), min_size=A.cols, max_size=A.cols))]
    q = cokernel(A)
    refs = {
        "add": add_ref(A, C),
        "sub": add_ref(A, C, -1),
        "scale": scale_ref(A, c),
        "transpose": transpose_ref(A),
        "select": select_columns_ref(A, range(0, A.cols, 2)),
        "stack": stack_ref([A, C]),
        "stack beside": stack_ref([A, C], beside=True),
        "kron": kron_ref(A, B),
        "kron_product": kron_product_ref(transpose_ref(kron_ref(B, A)),
                                         [B, A]),
        "descend": descend_ref(q, q.proj, "no"),
    }

    def reduced_ints(entries):
        return all(type(x) is int and 0 <= x < field.p for x in entries)

    assert reduced_ints(apply_ref(A, v))
    for name, M in refs.items():
        assert M.den is None and all(map(reduced_ints, M.num)), name
        assert rref_ref(M) == rref(M), name


@settings(max_examples=150, deadline=None)
@given(field_matrices())
def test_rref_matches_dense_row_updates(m):
    R, pivots = rref(m)
    R0, pivots0 = dense_rref(m)
    assert pivots == pivots0
    assert R == R0
    assert kernel(m).basis == dense_kernel_basis(m)


@settings(max_examples=150, deadline=None)
@given(field_matrices())
def test_cokernel_projection_matches_the_inverse(rel):
    q = cokernel(rel.transpose())
    assert q.proj == inverse_proj(rel)
    assert q.proj @ rel == Matrix.zeros(q.dim, rel.cols, rel.field)


@settings(max_examples=100, deadline=None)
@given(field_matrices())
def test_kernels_reduce_every_entry(m):
    """Each Matrix kernel over GF(p) gives the reduced value of the plain
    integer formula, so every entry is an int in [0, p)."""
    f = m.field
    c = f.from_int(-2)
    assert m.scale(c) == Matrix([[red(f, c * a) for a in row] for row in m.data],
                                f, ncols=m.cols)
    assert m + m.scale(c) - m == m.scale(c)
    t = m.transpose()
    dot = [[red(f, sum(a * b for a, b in zip(ra, cb))) for cb in m.data]
           for ra in m.data]
    assert m @ t == Matrix(dot, f, ncols=m.rows)
    assert m.apply(m.data[0]) == [row[0] for row in dot]
    assert m.kron(t) == Matrix([[red(f, a * b) for a in ra for b in rb]
                                for ra in m.data for rb in t.data], f,
                               ncols=m.cols * t.cols)
    if f.p:
        for out in (m.scale(c), m @ t, m.kron(t), rref(m)[0],
                    kernel(m).basis, cokernel(m).proj):
            assert all(type(x) is int and 0 <= x < f.p
                       for row in out.data for x in row)


@settings(max_examples=100, deadline=None)
@given(field_matrices(fields=FIELDS[1:]))
def test_gfp_kernels_store_no_denominator(m):
    """A GF(p) matrix never stores den, whichever kernel made it."""
    f, t = m.field, m.transpose()
    c = f.from_int(-2)
    sq = m @ t
    q = cokernel(m)
    outs = [m + m, m - m, m.scale(c), sq, t @ m, t, m.kron(t), m.flatten(),
            m.select_columns(list(range(m.cols))[::-1]), stack_rows([m, m]),
            stack_columns([m, m]), combination([c, f.one], [m, m], m),
            *slot_products(m, [t @ m, Matrix.identity(m.cols, f)], 1, 1),
            kron_product(sq, [1, sq]), rref(m)[0], kernel(m).basis,
            _row_echelon_basis(m.transpose()), q.relations, q.proj, q.sect,
            solve_matrix(m, m), inverse(sq) or sq]
    assert [out.den for out in outs] == [None] * len(outs)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_reshape_inverts_flatten(r, c, data):
    """X.flatten().reshape(r, c) == X, numerators and denominators, on
    non-integral QQ rows and over GF(p), 0-row and 0-column shapes
    included; a reshape to another number of entries is refused."""
    field = data.draw(st.sampled_from(FIELDS))
    entry = (st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))
             if field is QQ else st.integers(0, 4).map(field.from_int))
    X = Matrix(data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                                  min_size=r, max_size=r)), field, ncols=c)
    assert X.flatten().reshape(r, c) == X
    assert X.reshape(c, r).reshape(r, c) == X
    assert X.reshape(1, r * c) == X.flatten()
    with pytest.raises(ValueError, match="cannot reshape"):
        X.reshape(r + 1, c + 1)


@pytest.mark.parametrize("field", FIELDS)
def test_combination_edge_cases(field):
    M = Matrix.from_int_rows([[1, -2], [0, 3]], field)
    N = Matrix.from_int_rows([[0, 1], [4, -1]], field)
    zero = Matrix.zeros(2, 2, field)
    c = field.parse("1/2") if field == QQ else field.from_int(-3)
    assert combination([], [], zero) == zero
    assert combination([field.zero, field.zero], [M, N], zero) == zero
    assert combination([field.zero, field.zero], [M, N], N) == N
    assert combination([field.one], [M], zero) == M
    assert combination([field.zero, field.one], [M, N], zero) == N
    assert combination([c, field.one], [M, N], M) == M + M.scale(c) + N


@st.composite
def span_targets(draw):
    """A canonical subspace over one of FIELDS (the zero subspace included)
    and a matrix whose columns lie in it, or, when perturbed, may not."""
    A = draw(field_matrices())
    field, span = A.field, column_space(A)
    k = draw(st.integers(0, 3))

    def ints(rows):
        vals = draw(st.lists(st.integers(-4, 4), min_size=rows * k,
                             max_size=rows * k))
        return Matrix([[field.from_int(vals[i * k + j]) for j in range(k)]
                       for i in range(rows)], field, ncols=k)

    M = span.basis @ ints(span.dim)
    if draw(st.booleans()):
        M = M + ints(A.rows)
    return span, M


@settings(max_examples=200, deadline=None)
@given(span_targets())
def test_coords_matrix_matches_solve_matrix(args):
    span, M = args
    want = solve_matrix(span.basis, M)
    if want is None:
        with pytest.raises(ValueError, match="outside"):
            span.coords_matrix(M, "outside")
    else:
        X = span.coords_matrix(M, "outside")
        assert X == want
        assert span.basis @ X == M


def test_coords_in_the_zero_subspace():
    zero = Subspace(3, Matrix.zeros(3, 0, QQ), QQ)
    assert zero.coords_matrix(Matrix.zeros(3, 2, QQ), "outside") == Matrix.zeros(0, 2, QQ)
    assert zero.coords_matrix(Matrix.zeros(3, 1, QQ), "outside").col_list(0) == []
    with pytest.raises(ValueError, match="outside"):
        zero.coords_matrix(Matrix.from_int_rows([[0], [1], [0]], QQ), "outside")


def test_refuse_names_the_violations():
    assert exactla.refuse([], "invalid cospan") is None
    with pytest.raises(ValueError) as err:
        exactla.refuse(["left leg: not unital", "apex"], "invalid cospan")
    assert str(err.value) == "invalid cospan: ['left leg: not unital', 'apex']"


@pytest.mark.parametrize("rows", [
    [[2], [0]],          # leading entry is not 1
    [[0, 1], [1, 0]],    # leading rows out of order
    [[1, 1], [0, 1]],    # two columns lead in the same row
    [[1, 0], [0, 0]],    # a zero column
    [[1, 0], [1, 1]],    # a leading row is nonzero in another column
])
def test_canonical_subspace_rejects_a_basis_out_of_echelon_form(rows):
    B = Matrix.from_int_rows(rows, QQ)
    with pytest.raises(ValueError, match="echelon"):
        Subspace(B.rows, B, QQ)
    reduced = column_space(B)
    assert same_content(Subspace(B.rows, reduced.basis, QQ), reduced)
    with pytest.raises(ValueError, match="ambient"):
        Subspace(B.rows + 1, reduced.basis, QQ)


# ---------------------------------------------------------------------------
# the QQ representation: an int when integral, else a Fraction


def test_rationals_are_ints_when_integral():
    for s, value in [("4/2", 2), ("-6/3", -2), ("0/5", 0), ("7", 7)]:
        x = QQ.parse(s)
        assert type(x) is int and x == value
    assert type(QQ.parse("3/2")) is Fraction and QQ.parse("3/2") == Fraction(3, 2)
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_int(-5)) is int
    assert type(QQ.div(6, -3)) is int and QQ.div(6, -3) == -2
    assert QQ.div(3, 6) == Fraction(1, 2)
    assert type(QQ.div(Fraction(3, 2), Fraction(1, 2))) is int
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)


def as_fractions(m: Matrix) -> Matrix:
    return Matrix([[Fraction(x) for x in row] for row in m.data], QQ,
                  ncols=m.cols)


def entries(x) -> list:
    """Every field element held by a result of the functions below."""
    if isinstance(x, Matrix):
        return [a for row in x.data for a in row]
    if isinstance(x, Subspace):
        return entries(x.basis)
    if isinstance(x, Quotient):
        return entries(x.relations) + entries(x.proj) + entries(x.sect)
    if isinstance(x, tuple):  # rref's (R, pivots)
        return entries(x[0])
    return [] if x is None else list(x)


def same(x, y) -> bool:
    if isinstance(x, Quotient):
        return (x.relations, x.proj, x.sect) == (y.relations, y.proj, y.sect)
    return same_content(x, y)


@st.composite
def qq_operands(draw):
    """Int-entry matrices over QQ in [-4, 4]: A and C are n x k, B is k x l,
    S is n x n, v has length k; c is an int or a Fraction scalar."""
    n, k, l = (draw(st.integers(1, 5)) for _ in range(3))

    def ints(rows, cols):
        vals = draw(st.lists(st.integers(-4, 4), min_size=rows * cols,
                             max_size=rows * cols))
        return Matrix([vals[i * cols:(i + 1) * cols] for i in range(rows)],
                      QQ, ncols=cols)

    A, B, C, S = ints(n, k), ints(k, l), ints(n, k), ints(n, n)
    v = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
    c = draw(st.sampled_from([2, -1, Fraction(1, 2), Fraction(-4, 3)]))
    return A, B, C, S, v, c


def qq_results(A, B, C, S, v, c):
    """name -> (result, whether each integral entry must be an int)."""
    return {
        "matmul": (A @ B, False),
        "kron": (A.kron(B), False),
        "add": (A + C, False),
        "sub": (A - C, False),
        "scale": (A.scale(c), False),
        "apply": (A.apply(v), False),
        "rref": (rref(A), True),
        "kernel": (kernel(A), True),
        "cokernel": (cokernel(A), True),
        "inverse": (inverse(S), True),
        "solve_matrix": (solve_matrix(A, C), True),
    }


@settings(max_examples=200, deadline=None)
@given(qq_operands())
def test_int_and_fraction_entries_give_equal_results(ops):
    A, B, C, S, v, c = ops
    ints = qq_results(A, B, C, S, v, c)
    fracs = qq_results(*map(as_fractions, (A, B, C, S)),
                       [Fraction(x) for x in v], c)
    for name, (x, normal) in ints.items():
        y = fracs[name][0]
        assert same(x, y), name
        for a in entries(x) + entries(y):
            assert type(a) in (int, Fraction), (name, a)
            if normal and type(a) is Fraction:
                assert a.denominator != 1, (name, a)


# ---------------------------------------------------------------------------
# the integer-row QQ kernels against the Fraction references


@st.composite
def qq_matrices(draw, rows, cols):
    """A rows x cols matrix over QQ: all int, one Fraction cell, entries
    over pairwise coprime denominators, or each row over one shared
    denominator; some rows negated or zeroed.  Unless drawn raw, integral
    entries are ints; raw keeps Fraction(0) and Fraction(n, 1), which sums
    and differences of matrices can produce."""
    kind = draw(st.sampled_from(("int", "one fraction", "coprime", "shared")))
    nums = draw(st.lists(st.integers(-6, 6), min_size=rows * cols,
                         max_size=rows * cols))
    data = [nums[i * cols:(i + 1) * cols] for i in range(rows)]
    if kind == "one fraction" and rows and cols:
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        data[i][j] = Fraction(draw(st.integers(-6, 6).filter(bool)),
                              draw(st.integers(2, 7)))
    elif kind == "coprime":
        data = [[Fraction(x, (2, 3, 5, 7, 11)[j % 5]) for j, x in enumerate(row)]
                for row in data]
    elif kind == "shared":
        data = [[Fraction(x, d) for x in row]
                for row, d in zip(data, draw(st.lists(
                    st.integers(2, 6), min_size=rows, max_size=rows)))]
    for i in range(rows):
        op = draw(st.sampled_from(("keep", "keep", "negate", "zero")))
        if op == "negate":
            data[i] = [-x for x in data[i]]
        elif op == "zero":
            data[i] = [Fraction(0) if type(x) is Fraction else 0 for x in data[i]]
    if not draw(st.booleans()):
        data = [[QQ.parse(str(x)) for x in row] for row in data]
    return Matrix(data, QQ, ncols=cols)


def assert_normal(x, name):
    """Every entry is an int, or a Fraction in lowest terms that is not
    integral: no float, no Fraction(n, 1)."""
    for a in entries(x):
        assert type(a) is int or (type(a) is Fraction and a.denominator > 1
                                  and gcd(a.numerator, a.denominator) == 1), \
            (name, a)


qq_dims = st.integers(0, 5)


@settings(max_examples=300, deadline=None)
@given(st.data(), qq_dims, qq_dims, qq_dims)
def test_qq_matmul_and_rref_match_the_fraction_references(data, n, k, l):
    A = data.draw(qq_matrices(n, k))
    B = data.draw(qq_matrices(k, l))
    prod = A @ B
    assert prod == matmul_ref(A, B)
    assert_normal(prod, "matmul")
    R, pivots = rref(A)
    R0, pivots0 = rref_ref(A)
    assert pivots == pivots0 and R == R0
    assert_normal(R, "rref")


@settings(max_examples=300, deadline=None)
@given(st.data(), qq_dims, qq_dims, qq_dims)
def test_qq_solvers_match_the_fraction_references(data, n, k, l):
    A = data.draw(qq_matrices(n, k))
    C = data.draw(qq_matrices(n, l))
    S = data.draw(qq_matrices(n, n))
    ops = {
        "kernel": lambda: kernel(A),
        "cokernel": lambda: cokernel(A),
        "inverse": lambda: inverse(S),
        "solve_matrix": lambda: solve_matrix(A, C),
    }
    with reference_kernels():
        expected = {name: op() for name, op in ops.items()}
    for name, op in ops.items():
        got = op()
        assert same(got, expected[name]), name
        assert_normal(got, name)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-30, 30), min_size=4, max_size=4),
                min_size=2, max_size=5))
def test_integer_elimination_keeps_cross_multiplied_rows_primitive(rows):
    """One elimination step on primitive integer rows: the pivot row is made
    positive, column c is cleared in every other row, each row keeps its
    direction, and a row that was cross-multiplied is primitive again."""
    R = [exactla._primitive(row) for row in rows]
    for before, row in zip(rows, R):
        g = gcd(*before)
        assert row == ([x // g for x in before] if g else before)
    c = next((j for j, x in enumerate(R[0]) if x), None)
    if c is None:
        return
    old = [row[:] for row in R]
    pv = old[0][c]
    exactla._eliminate_integer(R, 0, c)
    assert R[0] == [x if pv > 0 else -x for x in old[0]]
    for Ri, Oi in zip(R[1:], old[1:]):
        f = Oi[c]
        target = [Fraction(a) - Fraction(f, pv) * b for a, b in zip(Oi, old[0])]
        assert Ri[c] == 0
        scale = next((Fraction(x, t) for x, t in zip(Ri, target) if t), 1)
        assert scale > 0 and Ri == [scale * t for t in target]
        if f % pv:
            assert gcd(*Ri) in (0, 1)


def test_shape_mismatches_are_refused():
    assert shape_refusals() == []
    m = Matrix([[Fraction(4, 2), -3]], QQ)
    assert m.num == [[2, -3]] and m.den is None


def test_shape_mismatches_are_refused_under_optimize():
    assert optimized("shape_refusals") == ["1", "[]"]


# ---------------------------------------------------------------------------
# kernel and _row_echelon_basis eliminate only the distinct nonzero rows


@st.composite
def redundant_matrices(draw):
    """A matrix over one of FIELDS whose rows are drawn from at most three
    base rows and the zero row, so that rows repeat and zero rows occur;
    0 x n and all-zero matrices are among them.  Over QQ a row may hold
    Fraction(n, 1) where an equal row holds the int n."""
    field = draw(st.sampled_from(FIELDS))
    cols = draw(st.integers(0, 6))
    base = draw(st.lists(st.lists(st.integers(-4, 4), min_size=cols,
                                  max_size=cols), max_size=3))
    base.append([0] * cols)
    picks = draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                    st.booleans()), max_size=9))
    rows = []
    for k, as_fraction in picks:
        row = [field.from_int(x) for x in base[k]]
        rows.append([Fraction(x) for x in row] if as_fraction and not field.p
                    else row)
    return Matrix(rows, field, ncols=cols)


def assert_eliminations_match_the_references(m):
    for a in (m, m.transpose()):
        K, E = kernel(a).basis, _row_echelon_basis(a.transpose())
        q = cokernel(a.transpose())
        assert K == kernel_ref(a)
        assert E == column_echelon_ref(a)
        assert (q.relations, q.proj, q.sect) == cokernel_ref(a)
        for name, x in (("kernel", K), ("_row_echelon_basis", E), ("cokernel", q)):
            assert_normal(x, name)


@settings(max_examples=300, deadline=None)
@given(redundant_matrices())
def test_eliminations_of_redundant_rows_match_the_references(m):
    assert_eliminations_match_the_references(m)


@pytest.mark.parametrize("field", FIELDS)
def test_eliminations_of_empty_and_zero_matrices(field):
    for rows, cols in ((0, 0), (0, 3), (3, 0), (3, 4)):
        m = Matrix.zeros(rows, cols, field)
        assert_eliminations_match_the_references(m)
        assert kernel(m).basis == Matrix.identity(cols, field)
        assert _row_echelon_basis(m.transpose()) == Matrix.zeros(rows, 0, field)
        assert cokernel(m.transpose()).proj == Matrix.identity(rows, field)


@pytest.mark.parametrize("field", FIELDS)
def test_kernel_hands_rref_only_distinct_nonzero_rows(monkeypatch, field):
    handed = []
    real = exactla.rref
    monkeypatch.setattr(exactla, "rref",
                        lambda m: handed.append(m.data) or real(m))
    m = Matrix.from_int_rows([[1, 2, 0], [0, 0, 0], [1, 2, 0], [3, 0, 1],
                              [0, 0, 0], [3, 0, 1], [1, 2, 0]], field)
    nonzero = {tuple(row) for row in m.data if any(row)}
    for op in (kernel, _row_echelon_basis):
        handed.clear()
        op(m)
        (seen,) = handed
        if op is kernel:  # kernel eliminates with the columns reversed
            seen = [row[::-1] for row in seen]
        assert sorted(map(tuple, seen)) == sorted(nonzero)
    assert kernel(m).basis == kernel_ref(m)


def test_rows_holding_a_fraction_are_looked_up_for_repeats(monkeypatch):
    """A QQ row is stored as integer numerators over one denominator, and
    kernel looks up the numerators: a row holding a Fraction loses its
    repeats too, and so does any row it is a multiple of by a denominator.
    The kernel is the same either way."""
    handed = []
    real = exactla.rref
    monkeypatch.setattr(exactla, "rref",
                        lambda m: handed.append(m.data) or real(m))
    half = Fraction(1, 2)
    m = Matrix([[half, 1], [0, 0], [half, 1], [1, 2],
                [Fraction(1), Fraction(2)]], QQ)
    K = kernel(m)
    assert [row[::-1] for row in handed[0]] == [[1, 2]]
    assert K.basis == kernel_ref(m)


def test_stack_rows_copies_each_row_once():
    mats = [Matrix.from_int_rows([[1, 2]], QQ), Matrix.zeros(0, 2, QQ),
            Matrix.from_int_rows([[3, 4], [5, 6]], QQ)]
    s = stack_rows(mats)
    assert s == Matrix.from_int_rows([[1, 2], [3, 4], [5, 6]], QQ)
    assert not any(row is q for row in s.data for m in mats for q in m.data)
    assert stack_rows(mats[:1]) == mats[0] and stack_rows(mats[:1]) is not mats[0]
