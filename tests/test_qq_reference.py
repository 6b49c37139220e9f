"""Every QQ Matrix operation against the entry-by-entry Fraction references
of fieldref, on inputs that hold non-integral entries, zero rows, rows
repeated in another spelling and entries written as Fraction(n, 1) or over
a negative denominator.  Quotient.descend is checked over GF(2), GF(3) and
GF(1000003) as well, on cokernels and on nested quotients."""

from fractions import Fraction
from functools import partial
from math import gcd

import pytest
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
    nested_quotient_ref,
    reference_kernels,
    rref_ref,
    scale_ref,
    section_descend_ref,
    select_columns_ref,
    stack_ref,
    transpose_ref,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from centrum.exactla import (
    QQ,
    Matrix,
    PrimeField,
    Quotient,
    _row_echelon_basis,
    cokernel,
    content_key,
    inverse,
    kernel,
    kron_product,
    rref,
    same_content,
    slot_products,
    solve_matrix,
    stack_columns,
    stack_rows,
)

INTS = st.integers(-6, 6)
FRACS = st.builds(Fraction, INTS, st.integers(2, 7))
ENTRIES = {"int": INTS, "fraction": FRACS, "mixed": st.one_of(INTS, FRACS)}
SCALARS = st.sampled_from([0, 1, 2, -1, Fraction(1, 2), Fraction(-4, 3)])


def respell(x):
    """x as a Fraction built over a negative denominator: Fraction(n, 1)
    when x is integral."""
    x = Fraction(x)
    return Fraction(-x.numerator, -x.denominator)


@st.composite
def qq_rows(draw, rows, cols, kind=None):
    """rows x cols entries over QQ, all ints, all Fractions or mixed.  A
    row may be zero, repeat an earlier row, or be respelled; values stay
    those drawn, written as ints where integral unless respelled."""
    entry = ENTRIES[kind or draw(st.sampled_from(sorted(ENTRIES)))]
    data = [[QQ.parse(str(x)) for x in draw(st.lists(entry, min_size=cols,
                                                     max_size=cols))]
            for _ in range(rows)]
    for i in range(rows):
        how = draw(st.sampled_from(("keep", "keep", "zero", "copy", "spell")))
        if how == "zero":
            data[i] = [0] * cols
        elif how == "copy" and i:
            data[i] = data[draw(st.integers(0, i - 1))][:]
        if how != "keep" and draw(st.booleans()):
            data[i] = [respell(x) for x in data[i]]
    return data


def qq_matrix(draw, rows, cols, kind=None) -> Matrix:
    return Matrix(draw(qq_rows(rows, cols, kind)), QQ, ncols=cols)


FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(1000003))


def field_matrix(draw, field, rows, cols) -> Matrix:
    """qq_matrix over QQ; over GF(p) entries drawn in [-6, 6], reduced."""
    if field is QQ:
        return qq_matrix(draw, rows, cols)
    vals = draw(st.lists(st.integers(-6, 6), min_size=rows * cols,
                         max_size=rows * cols))
    return Matrix([[field.from_int(v) for v in vals[i * cols:(i + 1) * cols]]
                   for i in range(rows)], field, ncols=cols)


def normal(a) -> bool:
    """a is an int, or a Fraction in lowest terms that is not integral."""
    return type(a) is int or (type(a) is Fraction and a.denominator > 1
                              and gcd(a.numerator, a.denominator) == 1)


def assert_normal(m: Matrix, name):
    for row in m.data:
        for a in row:
            assert normal(a), (name, a)


def assert_same(got, ref, name):
    """got equals ref as a Matrix and entry for entry, and its entries are
    normal."""
    assert got.shape == ref.shape, name
    assert got == ref, name
    assert got.data == ref.data, name
    assert_normal(got, name)


dims = st.integers(0, 4)


@settings(max_examples=250, deadline=None)
@given(st.data(), dims, dims, dims)
def test_entrywise_operations_match_the_references(data, n, k, l):
    A = qq_matrix(data.draw, n, k)
    B = qq_matrix(data.draw, k, l)
    C = qq_matrix(data.draw, n, k)
    c = data.draw(SCALARS)
    v = data.draw(st.lists(st.one_of(INTS, FRACS, INTS.map(respell)),
                           min_size=k, max_size=k))
    cols = data.draw(st.lists(st.integers(0, k - 1), max_size=5)) if k else []
    assert_same(A @ B, matmul_ref(A, B), "matmul")
    assert_same(A + C, add_ref(A, C), "add")
    assert_same(A - C, add_ref(A, C, -1), "sub")
    assert_same(A.scale(c), scale_ref(A, c), "scale")
    assert_same(A.kron(B), kron_ref(A, B), "kron")
    assert_same(A.transpose(), transpose_ref(A), "transpose")
    assert_same(A.select_columns(cols), select_columns_ref(A, cols), "select")
    assert_same(A.select_columns(slice(1, None, 2)),
                select_columns_ref(A, list(range(k))[1::2]), "slice")
    assert_same(stack_columns([A, C]), stack_ref([A, C], beside=True),
                "stack_columns")
    assert_same(stack_rows([A, C, A]), stack_ref([A, C, A]), "stack_rows")
    image = A.apply(v)
    assert image == apply_ref(A, v)
    assert all(map(normal, image))
    assert A.is_zero() == (not any(map(any, A.data)))


@settings(max_examples=250, deadline=None)
@given(st.data(), dims, dims)
def test_equality_and_content_keys_read_values(data, n, k):
    A = qq_matrix(data.draw, n, k)
    spelled = Matrix([[respell(x) for x in row] for row in A.data], QQ, ncols=k)
    plain = Matrix([[QQ.parse(str(x)) for x in row] for row in A.data], QQ,
                   ncols=k)
    for copy in (spelled, plain):
        assert copy == A and A == copy
        assert content_key(copy) == content_key(A)
        assert hash(content_key(copy)) == hash(content_key(A))
        assert same_content(copy, A)
    if n and k:
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, k - 1))
        bumped = [row[:] for row in A.data]
        bumped[i][j] += data.draw(st.sampled_from([1, Fraction(1, 3)]))
        B = Matrix(bumped, QQ, ncols=k)
        assert B != A and not same_content(B, A)
        assert content_key(B) != content_key(A)


@settings(max_examples=250, deadline=None)
@given(st.data(), dims, dims)
def test_eliminations_match_the_references(data, n, k):
    A = qq_matrix(data.draw, n, k)
    R, pivots = rref(A)
    R0, pivots0 = rref_ref(A)
    assert pivots == pivots0
    assert_same(R, R0, "rref")
    assert_same(kernel(A).basis, kernel_ref(A), "kernel")
    assert_same(_row_echelon_basis(A.transpose()), column_echelon_ref(A),
                "_row_echelon_basis")
    q = cokernel(A.transpose())
    for name, got, ref in zip(("relations", "proj", "sect"),
                              (q.relations, q.proj, q.sect), cokernel_ref(A)):
        assert_same(got, ref, name)


@settings(max_examples=200, deadline=None)
@given(st.data(), dims, dims, dims)
def test_solvers_match_the_references(data, n, k, l):
    A = qq_matrix(data.draw, n, k)
    C = qq_matrix(data.draw, n, l)
    S = qq_matrix(data.draw, n, n)
    with reference_kernels():
        expected = solve_matrix(A, C), inverse(S)
    for name, got, ref in zip(("solve_matrix", "inverse"),
                              (solve_matrix(A, C), inverse(S)), expected):
        if ref is None:
            assert got is None, name
        else:
            assert_same(got, ref, name)


@st.composite
def rows_over_distinct_denominators(draw, rows, cols, nonzeros):
    """rows x cols over QQ with at most nonzeros nonzero positions per row
    (all of them when None), some rows all zero: row i is drawn over its
    own denominator, distinct from every other row's, and may be
    respelled."""
    dens = draw(st.permutations([1, 2, 3, 4, 5, 6, 7, 9]))
    data = []
    for i in range(rows):
        row = [0] * cols
        if cols and draw(st.integers(0, 3)):
            at = range(cols) if nonzeros is None else draw(st.lists(
                st.integers(0, cols - 1), unique=True, max_size=nonzeros))
            for j in at:
                row[j] = QQ.div(draw(INTS), dens[i])
            if draw(st.booleans()):
                row = [respell(x) for x in row]
        data.append(row)
    return Matrix(data, QQ, ncols=cols)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 4), st.integers(1, 4), st.booleans())
def test_slot_products_match_the_kronecker_references(data, left, r, c,
                                                      rows, right, sparse):
    """X with zero rows or no columns; when sparse, P has mostly-zero rows
    (at most one in five entries nonzero, or one) and every row of P and X
    is over its own denominator."""
    n = left * r * right
    if sparse:
        P = data.draw(rows_over_distinct_denominators(rows, n, max(1, n // 5)))
        Xs = [data.draw(rows_over_distinct_denominators(r, c, None))
              for _ in range(data.draw(st.integers(1, 3)))]
    else:
        P = qq_matrix(data.draw, rows, n)
        Xs = [qq_matrix(data.draw, r, c) for _ in range(data.draw(st.integers(1, 3)))]
    for X, got in zip(Xs, slot_products(P, Xs, left, right)):
        assert_same(got, kron_product_ref(P, [left, X, right]), "slot_products")
    F = qq_matrix(data.draw, right, data.draw(st.integers(1, 2)))
    factors = [Xs[0], left, F]
    Q = qq_matrix(data.draw, rows, n)
    assert_same(kron_product(Q, factors), kron_product_ref(Q, factors),
                "kron_product")


def assert_descends_as(descend, ref, down):
    """descend(down, "no") refused with "no" where ref(down, "no") raises,
    and equal to it otherwise."""
    try:
        expected = ref(down, "no")
    except ValueError:
        with pytest.raises(ValueError, match="^no$"):
            descend(down, "no")
        return
    assert_same(descend(down, "no"), expected, "descend")


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(FIELDS), st.integers(0, 4), st.integers(0, 3),
       st.integers(0, 3))
def test_descend_matches_the_reference(data, field, n, r, m):
    """A random map, mostly refused, and g @ proj, which descends to g."""
    q = cokernel(field_matrix(data.draw, field, n, r).transpose())
    g = field_matrix(data.draw, field, m, q.dim)
    assert q.descend(g @ q.proj, "no") == g
    for down in (field_matrix(data.draw, field, m, n), g @ q.proj):
        assert_descends_as(q.descend, partial(descend_ref, q), down)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(FIELDS), *[st.integers(1, 3)] * 3,
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_two_level_towers_match_the_section_reference(data, field, a, b, c,
                                                      r1, r2, m):
    """(k^a (x) k^b)/R1 (x) k^c, then modulo R2: the free coordinates and
    descend of Quotient.tensor against the Kronecker product of the child
    sections, formed, and the section descent on it."""
    R1 = field_matrix(data.draw, field, r1, a * b)
    inner = Quotient.leaf(a, field).tensor(Quotient.leaf(b, field), cokernel(R1))
    R2 = field_matrix(data.draw, field, r2, inner.dim * c)
    w = inner.tensor(Quotient.leaf(c, field), cokernel(R2))
    leaf = [(Matrix.identity(d, field),) * 2 for d in (a, b, c)]
    proj, sect = nested_quotient_ref(
        nested_quotient_ref(leaf[0], leaf[1], cokernel_ref(R1.transpose())[1:]),
        leaf[2], cokernel_ref(R2.transpose())[1:])
    assert w.dims == (a, b, c)
    assert_same(w.proj, proj, "proj")
    # each column of the section is the standard vector at one free coordinate
    cols = transpose_ref(sect).data
    assert [sum(map(bool, col)) for col in cols] == [1] * len(cols)
    assert w.free == [next(i for i, x in enumerate(col) if x == 1) for col in cols]
    g = field_matrix(data.draw, field, m, w.dim)
    for down in (field_matrix(data.draw, field, m, a * b * c), g @ w.proj):
        assert_descends_as(w.descend, partial(section_descend_ref, proj, sect), down)


def count_fractions(monkeypatch) -> list:
    """Count every Fraction built from now on: the list grows by one per
    Fraction.__new__ call."""
    made = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return made


def test_kernels_build_no_fraction_until_data_is_read(monkeypatch):
    h, t = Fraction(1, 2), Fraction(-2, 3)
    A = Matrix([[h, 1, t, 0], [0, 0, 0, 0], [1, t, 2, h], [h, 1, t, 0]], QQ)
    B = Matrix([[t, 1], [h, 0], [5, Fraction(7, 4)], [0, t]], QQ)
    q = cokernel(A)
    X = Matrix([[h, t]], QQ)
    down = X @ q.proj
    made = count_fractions(monkeypatch)
    got = {
        "matmul": A @ B,
        "rref": rref(A)[0],
        "kernel": kernel(A).basis,
        "cokernel": cokernel(A).proj,
        "descend": q.descend(down, "no"),
        "slot_products": slot_products(A, [B.transpose()], 1, 2)[0],
        "entrywise": stack_columns([
            A + A.scale(t) - A.kron(X).select_columns(range(4)), A.transpose()]),
    }
    assert made == []
    assert all(m.den is not None for m in got.values())
    monkeypatch.undo()
    refs = {
        "matmul": matmul_ref(A, B),
        "rref": rref_ref(A)[0],
        "kernel": kernel_ref(A),
        "cokernel": cokernel_ref(A.transpose())[1],
        "descend": descend_ref(q, down, "no"),
        "slot_products": kron_product_ref(A, [1, B.transpose(), 2]),
        "entrywise": stack_ref([add_ref(add_ref(A, scale_ref(A, t)),
                                        select_columns_ref(kron_ref(A, X),
                                                           range(4)), -1),
                                transpose_ref(A)], beside=True),
    }
    for name, m in got.items():
        assert_same(m, refs[name], name)
