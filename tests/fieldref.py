"""Field arithmetic and reference kernels for the tests.

An element of GF(p) is a plain int in [0, p), so a reference that adds,
subtracts or multiplies elements with Python operators reduces each result
with ``red``; over QQ it is the identity.

A QQ Matrix stores each row as integer numerators over one reduced
denominator, and its kernels never build a Fraction.  The references here
read a matrix only through its ``data`` view (ints where integral, Fractions
otherwise) and build their results with the checked ``Matrix`` constructor,
so they share no arithmetic with the cleared kernels.  ``matmul_ref`` and
``rref_ref`` are the Matrix product and elimination done with Python's
Fraction arithmetic entry by entry; the differential tests compare the
library with them.  ``reference_kernels`` swaps them into ``centrum.exactla``
so that ``kernel``, ``cokernel``, ``inverse`` and ``solve_matrix`` can be
computed on them too.  ``column_echelon_ref``, ``kernel_ref`` and
``cokernel_ref`` build canonical bases and cokernel witnesses on
``rref_ref`` of every row they are given, zero and repeated rows included.
The entry-by-entry references at the end (``add_ref``, ``kron_ref``,
``kron_product_ref``, ``descend_ref``, ...) cover the remaining Matrix
operations.  ``descend_ref`` refuses a map that does not kill a cokernel's
relations; ``nested_quotient_ref`` and ``section_descend_ref`` build a
nested quotient's section as a Kronecker product of its children's and
descend through it.  ``ref_validate_bimodule`` checks the bimodule axioms
one pair of basis elements at a time on them.  ``ref_solve_3cell_family``
builds the 3-cell system row by row and solves it on ``rref_ref`` and
``kernel_ref``.  ``content_key_ref`` walks an object for its content key
afresh every time, as ``exactla.content_key`` does before it stores the key
on a ``Keyed`` object.
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
    by its pivot (over QQ as a Fraction, over GF(p) times its inverse) and
    subtracted from the other rows on its nonzero columns.  Over QQ every
    integral entry is kept an int."""
    p = m.field.p
    qq = p is None
    R = [[_integral(x) for x in row]
         if qq and Fraction in map(type, row) else row[:] for row in m.data]
    rows, cols = m.rows, m.cols
    one = m.field.one
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
                    Rr[j] = _integral(Fraction(Rr[j], pv))
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
    R, _ = rref_ref(stack_ref([B, sect, Matrix.identity(n, field)], beside=True))
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


def content_key_ref(x):
    """exactla.content_key walked afresh, reading no stored key: the key
    every key stored on an object must equal."""
    if type(x) is Matrix:
        return (x.field, x.cols, tuple(map(tuple, x.num)), x.den)
    if type(x) is list:
        return tuple(map(content_key_ref, x))
    slots = getattr(type(x), "__slots__", None)
    if slots is None:
        return x
    return (type(x),) + tuple(content_key_ref(getattr(x, s)) for s in slots
                              if s != "name")


# ---------------------------------------------------------------------------
# entry-by-entry references for the remaining Matrix operations


def _entries(m: Matrix) -> list:
    """The entries of m row by row, as the references compute with them:
    Fractions over QQ, the stored ints in [0, p) over GF(p)."""
    if m.field.p:
        return m.data
    return [[Fraction(x) for x in row] for row in m.data]


def add_ref(A: Matrix, B: Matrix, sign=1) -> Matrix:
    """A + sign * B, entry by entry."""
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} + {B.shape}")
    return Matrix([[red(A.field, a + sign * b) for a, b in zip(ra, rb)]
                   for ra, rb in zip(_entries(A), _entries(B))],
                  A.field, ncols=A.cols)


def scale_ref(A: Matrix, c) -> Matrix:
    return Matrix([[red(A.field, c * a) for a in row] for row in _entries(A)],
                  A.field, ncols=A.cols)


def apply_ref(A: Matrix, vec) -> list:
    return [red(A.field, sum((a * x for a, x in zip(row, vec)), A.field.zero))
            for row in _entries(A)]


def transpose_ref(A: Matrix) -> Matrix:
    a = _entries(A)
    return Matrix([[a[i][j] for i in range(A.rows)] for j in range(A.cols)],
                  A.field, ncols=A.rows)


def select_columns_ref(A: Matrix, cols) -> Matrix:
    return Matrix([[row[c] for c in cols] for row in _entries(A)], A.field,
                  ncols=len(cols))


def stack_ref(mats, beside=False) -> Matrix:
    """The matrices one above the other, or side by side when beside."""
    f = mats[0].field
    if beside:
        return Matrix([sum(rows, []) for rows in zip(*map(_entries, mats))],
                      f, ncols=sum(m.cols for m in mats))
    return Matrix([row for m in mats for row in _entries(m)], f,
                  ncols=mats[0].cols)


def kron_ref(A: Matrix, B: Matrix) -> Matrix:
    """The Kronecker product, left factor major."""
    a, b = _entries(A), _entries(B)
    return Matrix([[red(A.field, a[i][j] * b[k][l])
                    for j in range(A.cols) for l in range(B.cols)]
                   for i in range(A.rows) for k in range(B.rows)],
                  A.field, ncols=A.cols * B.cols)


def kron_product_ref(P: Matrix, factors) -> Matrix:
    """P @ (F_1 (x) ... (x) F_k), the Kronecker product formed; an int n
    is the identity of k^n."""
    K = Matrix.identity(1, P.field)
    for F in factors:
        K = kron_ref(K, Matrix.identity(F, P.field) if type(F) is int else F)
    return matmul_ref(P, K)


def descend_ref(q, down: Matrix, message: str) -> Matrix:
    """down on the quotient q: refused unless down @ q.relations is zero
    entry by entry, then read at q.free."""
    if any(map(any, matmul_ref(down, q.relations).data)):
        raise ValueError(message)
    return select_columns_ref(down, q.free)


def nested_quotient_ref(left, right, quot):
    """(proj, sect) of quot, a quotient of left (x) right, as a quotient of
    their flat tensor; each argument is a (proj, sect) pair.  proj is
    quot's after the Kronecker product of the child projections, and sect
    the Kronecker product of the child sections before quot's, both
    formed."""
    (lp, ls), (rp, rs), (qp, qs) = left, right, quot
    return matmul_ref(qp, kron_ref(lp, rp)), matmul_ref(kron_ref(ls, rs), qs)


def section_descend_ref(proj, sect, down: Matrix, message: str) -> Matrix:
    """down on the quotient with projection proj and section sect: down @
    sect, refused unless that times proj gives down back."""
    mat = matmul_ref(down, sect)
    if matmul_ref(mat, proj) != down:
        raise ValueError(message)
    return mat


def ref_validate_bimodule(m) -> list:
    """The violations of the bimodule axioms, found one pair of basis
    elements at a time: the action of each product is summed from the basis
    actions term by term and compared with the product of two actions."""
    f = m.field

    def act_of(acts, x):
        out = Matrix.zeros(m.dim, m.dim, f)
        for M, c in zip(acts, x):
            if c:
                out = add_ref(out, scale_ref(M, c))
        return out

    def product(alg, i, j):
        """The coordinates of e_i e_j, column (i, j) of alg.mult."""
        return [row[i * alg.dim + j] for row in alg.mult.data]

    out = []
    A, B = m.left, m.right
    I = Matrix.identity(m.dim, f)
    if act_of(m.lact, A.unit) != I:
        out.append("left action is not unital")
    if act_of(m.ract, B.unit) != I:
        out.append("right action is not unital")
    for i in range(A.dim):
        for j in range(A.dim):
            if act_of(m.lact, product(A, i, j)) != matmul_ref(m.lact[i], m.lact[j]):
                out.append(f"left action not multiplicative at (e{i}, e{j})")
    for i in range(B.dim):
        for j in range(B.dim):
            if act_of(m.ract, product(B, i, j)) != matmul_ref(m.ract[j], m.ract[i]):
                out.append(f"right action not anti-multiplicative at (e{i}, e{j})")
    for i in range(A.dim):
        for j in range(B.dim):
            if (matmul_ref(m.lact[i], m.ract[j])
                    != matmul_ref(m.ract[j], m.lact[i])):
                out.append(f"actions do not commute at (left e{i}, right e{j})")
    return out


def ref_solve_3cell_family(d, e):
    """All 3-cells d -> e as (particular solution or None, kernel basis), by
    loops: one row per entry (r, c) of T X - X S for each action pair (S of
    d.M, T of e.M), on the row-major entries of X, and one row per
    entry (r, c) of X F = G for both legs (F of d, G of e); the augmented
    system goes through rref_ref with free variables zero, the directions
    are kernel_ref's, and each vector is cut back into a matrix row by
    row."""
    f = d.M.field
    m1, m2 = d.M.dim, e.M.dim
    n = m2 * m1
    rows, rhs = [], []
    for S, T in zip(d.M.lact + d.M.ract, e.M.lact + e.M.ract):
        S, T = S.data, T.data
        for r in range(m2):
            for c in range(m1):
                row = [f.zero] * n
                for k in range(m2):
                    row[k * m1 + c] = T[r][k]
                for k in range(m1):
                    row[r * m1 + k] = red(f, row[r * m1 + k] - S[k][c])
                rows.append(row)
                rhs.append(f.zero)
    for F, G in ((d.f, e.f), (d.g, e.g)):
        cols = [[row[c] for row in F.data] for c in range(F.cols)]
        G = G.data
        for r in range(m2):
            for c in range(F.cols):
                row = [f.zero] * n
                row[r * m1:(r + 1) * m1] = cols[c]
                rows.append(row)
                rhs.append(G[r][c])

    def unvec(v):
        return Matrix([v[r * m1:(r + 1) * m1] for r in range(m2)], f, ncols=m1)

    R, pivots = rref_ref(Matrix([row + [b] for row, b in zip(rows, rhs)], f,
                                ncols=n + 1))
    if pivots and pivots[-1] == n:
        return None, []
    x = [f.zero] * n
    for i, c in enumerate(pivots):
        x[c] = R.data[i][n]
    ker = kernel_ref(Matrix(rows, f, ncols=n))
    return unvec(x), [unvec([row[j] for row in ker.data]) for j in range(ker.cols)]
