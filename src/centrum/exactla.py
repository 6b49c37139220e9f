"""Exact linear algebra over the rationals or a prime field.

Everything here is deterministic and exact: no floats anywhere.  Matrices are
dense lists-of-lists of field elements; vectors are plain lists.  A rational
is an int when it is integral and a fractions.Fraction otherwise, so integer
arithmetic and zero tests run in C; since int / int is a float, the one
division (rref's pivot scaling) goes through the field's exact div.  Subspaces
are stored in reduced column echelon form, so two equal subspaces have equal
basis matrices and can be compared with ==.  Quotients carry explicit
projection/section witnesses with proj @ sect == I and proj @ relations == 0,
checked at construction time.  A FlatWitness carries the same witnesses for a
nested quotient of a flat multi-tensor; both kinds descend a map with one
exact check (descend).
"""

from __future__ import annotations

import operator
from fractions import Fraction


# ---------------------------------------------------------------------------
# fields


def _integral(x):
    """x, or its numerator when x is a Fraction with denominator 1."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


class Rationals:
    """The field of rational numbers.  An element is an int when it is
    integral and a fractions.Fraction otherwise, so that zero tests and
    integer arithmetic run in C.  Ints and Fractions compare, hash and print
    alike.  Division goes only through div, since int / int is a float."""

    name = "rational"

    def __init__(self):
        self.zero = 0
        self.one = 1

    def from_int(self, n: int):
        return int(n)

    def parse(self, s: str):
        return _integral(Fraction(s))

    def div(self, a, b):
        """The exact quotient a / b, an int when it is integral."""
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return _integral(a / b)

    def fmt(self, x) -> str:
        return str(x)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rational")


class FpElem:
    """An element of GF(p), with operator overloading so the generic matrix
    code works unchanged.  Truthiness == nonzero, as for Fraction."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return FpElem(self.v + other.v, self.p)

    def __sub__(self, other):
        return FpElem(self.v - other.v, self.p)

    def __neg__(self):
        return FpElem(-self.v, self.p)

    def __mul__(self, other):
        return FpElem(self.v * other.v, self.p)

    def __truediv__(self, other):
        if other.v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return FpElem(self.v * pow(other.v, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, FpElem) and self.v == other.v and self.p == other.p

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}"


# Miller-Rabin with the prime bases 2..41 is deterministic below this bound
# (Sorenson and Webster 2017); larger fields are refused, never accepted as
# probable primes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large: primality is certified only"
                         f" below {_MR_BOUND}")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) for a prime p."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"gfp:{p}"
        self.zero = FpElem(0, p)
        self.one = FpElem(1, p)

    def from_int(self, n: int):
        return FpElem(n, self.p)

    def parse(self, s: str):
        return FpElem(int(s), self.p)

    div = staticmethod(operator.truediv)

    def fmt(self, x) -> str:
        return str(x.v)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("gfp", self.p))


QQ = Rationals()


def field_from_name(name: str):
    """Parse a field spec: "rational" or "gfp:<p>"."""
    if name == "rational":
        return QQ
    if name.startswith("gfp:"):
        return PrimeField(int(name.split(":", 1)[1]))
    raise ValueError(f"unknown field {name!r}")


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Dense matrix over an exact field.  Rows-of-rows storage; treat as
    immutable after construction."""

    __slots__ = ("rows", "cols", "data", "field")

    def __init__(self, data, field, ncols=None):
        self.data = [list(r) for r in data]
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
        else:
            self.cols = 0 if ncols is None else ncols
        for r in self.data:
            assert len(r) == self.cols, "ragged matrix"
        self.field = field

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(n: int, field) -> "Matrix":
        z, o = field.zero, field.one
        return Matrix([[o if i == j else z for j in range(n)] for i in range(n)], field)

    @staticmethod
    def zeros(r: int, c: int, field) -> "Matrix":
        z = field.zero
        return Matrix([[z] * c for _ in range(r)], field, ncols=c)

    @staticmethod
    def from_int_rows(data, field) -> "Matrix":
        return Matrix([[field.from_int(x) for x in row] for row in data], field)

    @staticmethod
    def from_columns(columns, ambient: int, field) -> "Matrix":
        """Build an ambient x len(columns) matrix from a list of vectors."""
        cols = list(columns)
        for c in cols:
            assert len(c) == ambient
        return Matrix([[c[i] for c in cols] for i in range(ambient)], field,
                      ncols=len(cols))

    # -- basic ops ----------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"

    def __add__(self, other) -> "Matrix":
        assert self.shape == other.shape
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
            self.field,
            ncols=self.cols,
        )

    def __sub__(self, other) -> "Matrix":
        assert self.shape == other.shape
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
            self.field,
            ncols=self.cols,
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.data], self.field, ncols=self.cols)

    def scale(self, c) -> "Matrix":
        return Matrix([[c * a for a in row] for row in self.data], self.field, ncols=self.cols)

    def __matmul__(self, other) -> "Matrix":
        assert self.cols == other.rows, f"shape mismatch {self.shape} @ {other.shape}"
        zero = self.field.zero
        ot = other.data
        out = []
        for row in self.data:
            nz = [(k, a) for k, a in enumerate(row) if a]
            new = [zero] * other.cols
            for k, a in nz:
                rk = ot[k]
                for j in range(other.cols):
                    b = rk[j]
                    if b:
                        new[j] = new[j] + a * b
            out.append(new)
        return Matrix(out, self.field, ncols=other.cols)

    def apply(self, vec):
        """Matrix-vector product; vec is a plain list."""
        assert len(vec) == self.cols
        zero = self.field.zero
        out = []
        for row in self.data:
            s = zero
            for a, x in zip(row, vec):
                if a and x:
                    s = s + a * x
            out.append(s)
        return out

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.field,
            ncols=self.rows,
        )

    def kron(self, other) -> "Matrix":
        """Kronecker product; row-major, left factor major: index (i,k) of the
        product space is i*other.rows + k."""
        z = self.field.zero
        out = []
        for i in range(self.rows):
            ri = self.data[i]
            for k in range(other.rows):
                rk = other.data[k]
                row = []
                for j in range(self.cols):
                    a = ri[j]
                    if a:
                        row.extend(a * b if b else z for b in rk)
                    else:
                        row.extend([z] * other.cols)
                out.append(row)
        return Matrix(out, self.field, ncols=self.cols * other.cols)

    def hstack(self, other) -> "Matrix":
        assert self.rows == other.rows
        return Matrix(
            [ra + rb for ra, rb in zip(self.data, other.data)],
            self.field,
            ncols=self.cols + other.cols,
        )

    def vstack(self, other) -> "Matrix":
        assert self.cols == other.cols
        return Matrix(self.data + other.data, self.field, ncols=self.cols)

    def col_list(self, j: int):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.col_list(j) for j in range(self.cols)]

    def select_columns(self, cols) -> "Matrix":
        """The columns at cols, a slice or a list of indices, in that order."""
        if isinstance(cols, slice):
            return Matrix([row[cols] for row in self.data], self.field,
                          ncols=len(range(self.cols)[cols]))
        return Matrix([[row[c] for c in cols] for row in self.data],
                      self.field, ncols=len(cols))

    def is_zero(self) -> bool:
        return all(not a for row in self.data for a in row)

    def to_int_grid(self):
        """Convenience for tests: entries as ints (fails if non-integral)."""
        out = []
        for row in self.data:
            r = []
            for a in row:
                f = Fraction(a) if not isinstance(a, FpElem) else Fraction(a.v)
                assert f.denominator == 1
                r.append(int(f))
            out.append(r)
        return out


def stack_rows(mats) -> Matrix:
    """Vertical stack of a nonempty list of matrices."""
    out = mats[0]
    for m in mats[1:]:
        out = out.vstack(m)
    return out


def tensor_permutation(dims, perm, field) -> Matrix:
    """Permutation matrix reordering tensor slots.

    dims: sizes of the slots of the source flat space (row-major flattening,
    leftmost slot major).  perm: the target's slot i is the source's slot
    perm[i].  Returns P with P @ e_flat(src multi-index) = e_flat(permuted).
    """
    n = 1
    for d in dims:
        n *= d
    tgt_dims = [dims[p] for p in perm]
    P = Matrix.zeros(n, n, field)
    one = field.one
    # enumerate source multi-indices in row-major order
    idx = [0] * len(dims)
    for flat in range(n):
        # compute source multi-index
        rem = flat
        for s in range(len(dims) - 1, -1, -1):
            idx[s] = rem % dims[s]
            rem //= dims[s]
        # target flat index
        t = 0
        for s in range(len(perm)):
            t = t * tgt_dims[s] + idx[perm[s]]
        P.data[t][flat] = one
    return P


# ---------------------------------------------------------------------------
# elimination


def rref(m: Matrix):
    """Reduced row echelon form.  Returns (R, pivots).

    Each pivot row is subtracted only on its own nonzero columns, since
    a - f*0 == a exactly.  Over QQ every integral entry is kept an int.  An
    update by an int factor and an all-int pivot row keeps that, since a
    non-integral value minus an int is non-integral; only an update that
    involves a Fraction can land on an integer, and only it is normalised."""
    qq = m.field == QQ
    R = [[_integral(x) for x in row]
         if qq and Fraction in map(type, row) else row[:] for row in m.data]
    rows, cols = m.rows, m.cols
    one, div = m.field.one, m.field.div
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = None
        for i in range(r, rows):
            if R[i][c]:
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        Rr = R[r]
        # rows r.. are zero left of column c, so the pivot row is too
        nz = [j for j in range(c, cols) if Rr[j]]
        pv = Rr[c]
        if pv != one:
            for j in nz:
                Rr[j] = div(Rr[j], pv)
        entries = [(j, Rr[j]) for j in nz]
        frac = qq and Fraction in map(type, Rr)
        for i in range(rows):
            Ri = R[i]
            f = Ri[c]
            if not f or i == r:
                continue
            if frac or type(f) is Fraction:
                for j, b in entries:
                    Ri[j] = _integral(Ri[j] - f * b)
            else:
                for j, b in entries:
                    Ri[j] = Ri[j] - f * b
        pivots.append(c)
        r += 1
    return Matrix(R, m.field, ncols=cols), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def column_echelon(m: Matrix) -> Matrix:
    """Reduced column echelon form of the column space of m: each basis column
    has leading entry 1 at a distinct row, that row is zero in the other
    columns, columns ordered by leading row.  Canonical: equal subspaces give
    equal matrices."""
    R, pivots = rref(m.transpose())
    cols = [R.data[i] for i in range(len(pivots))]
    return Matrix.from_columns(cols, m.rows, m.field)


class Subspace:
    """A subspace of k^ambient with canonical (reduced column echelon) basis,
    checked to be in that form; lead[j] is the leading row of column j."""

    __slots__ = ("ambient", "basis", "field", "lead")

    def __init__(self, ambient: int, basis: Matrix, field, canonical=False):
        self.ambient = ambient
        self.field = field
        B = self.basis = basis if canonical else column_echelon(basis)
        if B.rows != ambient:
            raise ValueError("subspace basis does not fit the ambient space")
        # the first nonzero row of each column: in reduced column echelon
        # form these rows increase and together form an identity matrix
        self.lead = [next((i for i, row in enumerate(B.data) if row[j]), None)
                     for j in range(B.cols)]
        if (None in self.lead or self.lead != sorted(set(self.lead))
                or [B.data[i] for i in self.lead] != Matrix.identity(B.cols, field).data):
            raise ValueError("subspace basis is not in reduced column echelon form")

    @property
    def dim(self) -> int:
        return self.basis.cols

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"

    def coords_matrix(self, M: Matrix) -> "Matrix | None":
        """Coordinates of the columns of M in the canonical basis, or None if
        a column lies outside the subspace.  Basis column j is 1 at lead[j]
        and every other basis column is 0 there, so the coordinates are M's
        rows at lead; one product checks them, with no elimination."""
        X = Matrix([M.data[i] for i in self.lead], self.field, ncols=M.cols)
        return X if self.basis @ X == M else None

    def contains(self, vec) -> bool:
        return self.coords(vec) is not None

    def coords(self, vec):
        """Coordinates of vec in the canonical basis, or None."""
        X = self.coords_matrix(Matrix.from_columns([vec], self.ambient, self.field))
        return X.col_list(0) if X is not None else None


def kernel(m: Matrix) -> Subspace:
    """Kernel of m as a canonical subspace of the source.

    Eliminating m with its columns reversed gives, for each free column f,
    the kernel vector that is 1 at f, 0 at the other free columns and
    nonzero only at pivot columns after f: reduced column echelon form
    already, with the free columns as leading rows."""
    n = m.cols
    R, pivots = rref(Matrix([row[::-1] for row in m.data], m.field, ncols=n))
    pivset = set(pivots)
    z, o = m.field.zero, m.field.one
    cols = []
    for j in range(n - 1, -1, -1):
        if j in pivset:
            continue
        v = [z] * n
        v[n - 1 - j] = o
        for i, p in enumerate(pivots):
            if p > j:
                break
            v[n - 1 - p] = -R.data[i][j]
        cols.append(v)
    return Subspace(n, Matrix.from_columns(cols, n, m.field), m.field,
                    canonical=True)


def column_space(m: Matrix) -> Subspace:
    return Subspace(m.rows, column_echelon(m), m.field, canonical=True)


def solve(A: Matrix, b) -> "list | None":
    """One solution of A x = b with free variables set to zero, or None."""
    X = solve_matrix(A, Matrix.from_columns([b], A.rows, A.field))
    return X.col_list(0) if X is not None else None


def solve_matrix(A: Matrix, B: Matrix) -> "Matrix | None":
    """Solve A X = B for all columns at once (free variables zero).
    Returns None if any column is inconsistent."""
    assert A.rows == B.rows
    aug = A.hstack(B)
    R, pivots = rref(aug)
    usable = [p for p in pivots if p < A.cols]
    if len(usable) != len(pivots):
        return None
    z = A.field.zero
    out = [[z] * B.cols for _ in range(A.cols)]
    for i, p in enumerate(usable):
        for j in range(B.cols):
            out[p][j] = R.data[i][A.cols + j]
    X = Matrix(out, A.field, ncols=B.cols)
    return X


def inverse(m: Matrix) -> "Matrix | None":
    """Two-sided inverse of a square matrix, or None."""
    if m.rows != m.cols:
        return None
    X = solve_matrix(m, Matrix.identity(m.rows, m.field))
    if X is None:
        return None
    if (m @ X) != Matrix.identity(m.rows, m.field):
        return None
    if (X @ m) != Matrix.identity(m.rows, m.field):
        raise ValueError("a right inverse of a square matrix is not a left"
                         " inverse")
    return X


def is_invertible(m: Matrix) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


# ---------------------------------------------------------------------------
# quotients


class Quotient:
    """Quotient of k^ambient by a relation subspace, with explicit witnesses.

    relations: canonical basis matrix of the relation subspace (ambient x r).
    proj: dim x ambient, the projection onto quotient coordinates.
    sect: ambient x dim, a section (spanned by standard basis vectors at the
    non-leading rows of the relation space), with proj @ sect == I.
    """

    __slots__ = ("ambient", "relations", "dim", "proj", "sect", "field")

    def __init__(self, ambient, relations, dim, proj, sect, field):
        self.ambient = ambient
        self.relations = relations
        self.dim = dim
        self.proj = proj
        self.sect = sect
        self.field = field

    def project(self, vec):
        return self.proj.apply(vec)

    def descend(self, down: Matrix, message: str) -> Matrix:
        """The map on the quotient induced by down, a map out of the ambient
        space; raises ValueError(message) unless down kills the relations."""
        if not (down @ self.relations).is_zero():
            raise ValueError(message)
        return down @ self.sect

    def __repr__(self):
        return f"Quotient(k^{self.ambient} -> k^{self.dim})"


def cokernel(rel: Matrix) -> Quotient:
    """Quotient of the target space k^rel.rows by the column space of rel.

    With B the reduced column echelon basis of the relations, x = B a +
    sect c has quotient coordinates c: row r of proj is e_free[r] minus
    sum_j B[free[r], j] e_lead[j], read off B without a second elimination."""
    field = rel.field
    n = rel.rows
    span = column_space(rel)
    B, lead = span.basis, span.lead
    d = B.cols
    leadset = set(lead)
    free = [i for i in range(n) if i not in leadset]
    o = field.one
    sect = Matrix.zeros(n, n - d, field)
    proj = Matrix.zeros(n - d, n, field)
    for r, i in enumerate(free):
        sect.data[i][r] = o
        row = proj.data[r]
        row[i] = o
        for j, b in enumerate(B.data[i]):
            if b:
                row[lead[j]] = -b
    if (proj @ sect) != Matrix.identity(n - d, field):
        raise ValueError("cokernel section is not a section of the projection")
    if not (proj @ B).is_zero():
        raise ValueError("cokernel projection does not kill the relations")
    return Quotient(n, B, n - d, proj, sect, field)


def quotient_induced(q_tgt: Quotient, F: Matrix, q_src: Quotient) -> Matrix:
    """The map induced by F: ambient_src -> ambient_tgt on the quotients.

    Raises if F does not descend (i.e. if F does not map the source relations
    into the target relations).
    """
    assert F.rows == q_tgt.ambient and F.cols == q_src.ambient
    return q_src.descend(q_tgt.proj @ F, "map does not descend to the quotient")


class FlatWitness:
    """A nested quotient of a flat tensor k^dims[0] (x) k^dims[1] (x) ...
    (leftmost slot major): proj maps the flat tensor onto the quotient
    coordinates and sect back, with proj @ sect == I checked at every level.

    A one-slot witness (from leaf) is the identity of its slot."""

    __slots__ = ("proj", "sect", "dims")

    def __init__(self, proj: Matrix, sect: Matrix, dims: tuple):
        self.proj = proj
        self.sect = sect
        self.dims = dims

    @staticmethod
    def leaf(dim: int, field) -> "FlatWitness":
        I = Matrix.identity(dim, field)
        return FlatWitness(I, I, (dim,))

    def tensor(self, other: "FlatWitness", quot: Quotient) -> "FlatWitness":
        """The witness of quot, a quotient of (this quotient) (x) (other's)."""
        if len(self.dims) == len(other.dims) == 1:
            proj, sect = quot.proj, quot.sect
        else:
            proj = quot.proj @ self.proj.kron(other.proj)
            sect = self.sect.kron(other.sect) @ quot.sect
        if proj @ sect != Matrix.identity(quot.dim, quot.field):
            raise ValueError("flat section is not a section of the projection")
        return FlatWitness(proj, sect, self.dims + other.dims)

    def descend(self, down: Matrix, message: str) -> Matrix:
        """The map on the quotient induced by down, a map out of the flat
        tensor; raises ValueError(message) unless down factors through proj."""
        mat = down @ self.sect
        if mat @ self.proj != down:
            raise ValueError(message)
        return mat

    def rebracket(self, tgt: "FlatWitness", message: str) -> Matrix:
        """The canonical map from this quotient to tgt, another nested
        quotient of the same flat tensor: the flat identity, descended."""
        if self.dims != tgt.dims:
            raise ValueError("bracketings of different flat tensors")
        return self.descend(tgt.proj, message)


# ---------------------------------------------------------------------------
# randomness (seeded by the caller; uniform integer coordinates)


def random_point(dim: int, bound: int, rng, field):
    """A vector with integer entries drawn uniformly from [-bound, bound]."""
    return [field.from_int(rng.randint(-bound, bound)) for _ in range(dim)]


def random_matrix(rows: int, cols: int, bound: int, rng, field) -> Matrix:
    return Matrix(
        [
            [field.from_int(rng.randint(-bound, bound)) for _ in range(cols)]
            for _ in range(rows)
        ],
        field,
    )
