"""Field arithmetic and reference kernels for the tests.

An element of GF(p) is a plain int in [0, p), so a reference that adds,
subtracts or multiplies elements with Python operators reduces each result
with ``red``; over QQ it is the identity.

``matmul_ref`` and ``rref_ref`` are the Matrix product and elimination done
with Python's Fraction arithmetic entry by entry, the way the library did
them before its QQ kernels ran on integer rows; the differential tests
compare the library with them.  ``reference_kernels`` swaps them into
``centrum.exactla`` so that ``kernel``, ``cokernel``, ``inverse`` and
``solve_matrix`` can be computed on them too.  ``column_echelon_ref``,
``kernel_ref`` and ``cokernel_ref`` build canonical bases and cokernel
witnesses on ``rref_ref`` of every row they are given, zero and repeated
rows included.
"""

import contextlib
from fractions import Fraction

from centrum import exactla
from centrum.exactla import Matrix


def red(field, x):
    """x as an element of field: x % p over GF(p), x itself over QQ."""
    return x % field.p if field.p else x


def _integral(x):
    """x, or its numerator when x is a Fraction with denominator 1."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def matmul_ref(A: Matrix, B: Matrix) -> Matrix:
    """A @ B summed term by term in the field's elements (Fractions over
    QQ), reduced once per output cell over GF(p)."""
    if A.cols != B.rows or A.field != B.field:
        raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
    p = A.field.p
    zero = A.field.zero
    out = []
    for row in A.data:
        nz = [(k, a) for k, a in enumerate(row) if a]
        new = [zero] * B.cols
        for k, a in nz:
            rk = B.data[k]
            for j in range(B.cols):
                b = rk[j]
                if b:
                    new[j] = new[j] + a * b
        out.append([x % p for x in new] if p else new)
    return Matrix(out, A.field, ncols=B.cols)


def rref_ref(m: Matrix):
    """Reduced row echelon form by pivot division: each pivot row is divided
    by its pivot through field.div and subtracted from the other rows on its
    nonzero columns.  Over QQ every integral entry is kept an int."""
    p = m.field.p
    qq = p is None
    R = [[_integral(x) for x in row]
         if qq and Fraction in map(type, row) else row[:] for row in m.data]
    rows, cols = m.rows, m.cols
    one, div = m.field.one, m.field.div
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = next((i for i in range(r, rows) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        Rr = R[r]
        nz = [j for j in range(c, cols) if Rr[j]]
        pv = Rr[c]
        if pv != one:
            if p:
                inv = pow(pv, -1, p)
                for j in nz:
                    Rr[j] = Rr[j] * inv % p
            else:
                for j in nz:
                    Rr[j] = div(Rr[j], pv)
        entries = [(j, Rr[j]) for j in nz]
        frac = qq and Fraction in map(type, Rr)
        for i in range(rows):
            Ri = R[i]
            f = Ri[c]
            if not f or i == r:
                continue
            if p:
                for j, b in entries:
                    Ri[j] = (Ri[j] - f * b) % p
            elif frac or type(f) is Fraction:
                for j, b in entries:
                    Ri[j] = _integral(Ri[j] - f * b)
            else:
                for j, b in entries:
                    Ri[j] = Ri[j] - f * b
        pivots.append(c)
        r += 1
    return Matrix(R, m.field, ncols=cols), pivots


def column_echelon_ref(m: Matrix) -> Matrix:
    """The reduced column echelon basis of the column space of m, from
    rref_ref of every column of m."""
    R, pivots = rref_ref(m.transpose())
    return Matrix.from_columns(R.data[:len(pivots)], m.rows, m.field)


def kernel_ref(m: Matrix) -> Matrix:
    """The canonical kernel basis of m: one vector per free column of
    rref_ref of every row of m, brought to column_echelon_ref."""
    R, pivots = rref_ref(m)
    z, o = m.field.zero, m.field.one
    cols = []
    for j in (j for j in range(m.cols) if j not in pivots):
        v = [z] * m.cols
        v[j] = o
        for i, c in enumerate(pivots):
            v[c] = red(m.field, -R.data[i][j])
        cols.append(v)
    return column_echelon_ref(Matrix.from_columns(cols, m.cols, m.field))


def cokernel_ref(rel: Matrix):
    """(relations, proj, sect) of k^rel.rows over the column space of rel:
    relations is column_echelon_ref(rel), sect holds the standard vectors at
    the rows that lead no relation column, and proj is the last rows of the
    inverse of [relations | sect], by rref_ref."""
    field, n = rel.field, rel.rows
    B = column_echelon_ref(rel)
    lead = {next(i for i in range(n) if B.data[i][j]) for j in range(B.cols)}
    free = [i for i in range(n) if i not in lead]
    sect = Matrix([[field.one if i == f else field.zero for f in free]
                   for i in range(n)], field, ncols=len(free))
    R, _ = rref_ref(B.hstack(sect).hstack(Matrix.identity(n, field)))
    proj = Matrix([row[n:] for row in R.data[B.cols:]], field, ncols=n)
    return B, proj, sect


@contextlib.contextmanager
def reference_kernels():
    """Run centrum.exactla on matmul_ref and rref_ref inside the block."""
    saved = exactla.Matrix.__matmul__, exactla.rref
    exactla.Matrix.__matmul__, exactla.rref = matmul_ref, rref_ref
    try:
        yield
    finally:
        exactla.Matrix.__matmul__, exactla.rref = saved
