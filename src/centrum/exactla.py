"""Exact linear algebra over the rationals or a prime field.

Everything here is deterministic and exact: no floats anywhere.  Matrices
are dense and stored row by row; vectors are plain lists.  A rational is an
int when it is integral and a fractions.Fraction otherwise.  Over QQ a
Matrix stores its entries once in cleared form: int rows num over one
positive den for the whole matrix, with gcd(den, every entry) == 1, and den
None when it is 1.  The form is canonical, so ==, is_zero and content_key
read it, and every kernel here takes and returns it: none builds a
Fraction.  transpose, flatten and reshape move entries and keep den; @,
kron, scale and slot_products multiply denominators and reduce once
(Matrix.cleared); a join (+, -, stack_rows, stack_columns) brings its parts
to the lcm of their denominators (_over_lcm), and a choice of some of the
entries (select_columns, _rows_at) is reduced again.  den None flows
through each operation's one body; apply's integral body is the one special
case left, faster end to end (the general one makes the vector a Matrix and
divides each entry).  m.data is a read-only view built on demand, ints
where integral and Fractions in lowest terms otherwise.  An element of
GF(p) is a plain int in [0, p), stored with den None, and the kernels
reduce mod p where the arithmetic happens.  Matrices over different fields
never combine (ValueError) and never compare equal.  Subspaces are stored
in reduced column echelon form, so equal subspaces have equal bases; a
HomSpace is such a subspace of vectorised matrices, read row by row as
flatten and reshape, hom_space's Q rows, product_coords and the leg rows of
solve_3cell_family all assume; product_coords reads products with its basis
in one slot product.  Relations are rows, as kernel and cokernel take them.
A Quotient is a quotient of a flat tensor k^d1 (x) k^d2 (x) ..., one slot
(a cokernel) or nested (Quotient.tensor): its projection and the free
coordinates its section selects, with proj at free the identity, checked at
construction; a product of identity columns is an identity column, so a
nested section is a coordinate list too.  descend refuses a map out of
another space as a shape mismatch, reads a map at free and refuses it
unless that times proj gives the map back.  A cokernel also keeps its
relations, with proj @ relations == 0 checked.  By (A (x) B) vec(X) =
vec(A X B^T), P @ (A (x) B (x) ...) is one slot product per factor
(kron_product): each nonzero of a row of P is scattered onto the nonzeros
of one row of the factor, and an identity factor costs nothing.
Matrix.kron is left to where the Kronecker product is itself the object.
An output sized by a product of its inputs' sizes (slot_products,
Matrix.kron, bimodule.middle_relations, and the orbit matrix and systems
of bimodule.hom_space) is refused before it is allocated when it would
hold more than MAX_CELLS cells (check_cells).  A coordinate
read refuses with its caller's message: Subspace.coords_matrix, the
HomSpace reads, which go through it, and Quotient.descend raise
ValueError(message) for a vector outside.  refuse is the one path for a
failed validator.
combination adds scaled matrices term by term, the one loop for a linear
combination of matrices.  kernel and cokernel eliminate only the distinct
nonzero rows of their input.  memoised computes a pure construction or
verdict once per argument content, in a bounded least-recently-used cache
keyed by content_key.  content_key stores the key of a Keyed object (an
algebra, algebra map, bimodule, bimodule map, cospan or 2-diagram: the six
object kinds of the CLI) on the object the first time it builds it, so the
key lives as long as its object does.  Any other object, a Matrix or a list
included, is walked on every call.
same_content is the one comparison by content.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import update_wrapper
from itertools import chain, compress
from math import gcd, lcm, prod
from operator import add, mul, sub


# ---------------------------------------------------------------------------
# fields


def _integral(x):
    """x, or its numerator when x is a Fraction with denominator 1."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


# a scalar string: an integer, or over QQ also n/d.  Fraction alone also
# reads exponents, which pass Python's int digit limit, and decimals; int
# and Fraction both read underscores and non-ASCII digits
_INTEGER = r"[+-]?[0-9]+"
_RATIONAL = re.compile(rf"\s*{_INTEGER}(/[0-9]+)?\s*")
_PRIME_SCALAR = re.compile(rf"\s*{_INTEGER}\s*")


class Rationals:
    """The field of rational numbers.  An element is an int when it is
    integral and a fractions.Fraction otherwise, so that zero tests and
    integer arithmetic run in C.  Ints and Fractions compare, hash and print
    alike.  A Matrix over QQ holds no elements: it stores each row as ints
    over one denominator (see the module docstring) and builds elements
    only when its data view is read.  Division of elements goes only
    through div, since int / int is a float."""

    name = "rational"
    zero = 0
    one = 1
    # no characteristic to reduce by: the kernels branch on p once per call
    p = None

    def from_int(self, n: int):
        return int(n)

    def parse(self, s: str):
        if not _RATIONAL.fullmatch(s):
            raise ValueError("expected an integer n or a fraction n/d")
        return _integral(Fraction(s))

    def div(self, a, b):
        """The exact quotient of ints a / b, an int when it is integral."""
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rational")


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
    """GF(p) for a prime p.  An element is a plain int in [0, p), so zero
    tests and arithmetic run in C; the Matrix kernels reduce mod p, and
    from_int and parse return reduced values.  No element is divided: a
    kernel inverts a pivot with pow."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"gfp:{p}"

    def from_int(self, n: int):
        return int(n) % self.p

    def parse(self, s: str):
        if not _PRIME_SCALAR.fullmatch(s):
            raise ValueError("expected an integer n")
        return int(s) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("gfp", self.p))


QQ = Rationals()


def field_from_name(name: str):
    """Parse a field spec: "rational" or "gfp:<p>", p in ASCII digits with
    no sign and no leading zero, so that a name that parses is field.name."""
    if name == "rational":
        return QQ
    p = re.fullmatch("gfp:([1-9][0-9]*)", name)
    if p:
        return PrimeField(int(p[1]))
    raise ValueError(f"unknown field {name!r}")


# ---------------------------------------------------------------------------
# matrices


def _check_fields(a, b):
    """Refuse an operation on matrices over different fields; the identity
    test keeps the common case to one comparison."""
    if a.field is not b.field and a.field != b.field:
        raise ValueError(f"field mismatch: {a.field!r} and {b.field!r}")


# One output of check_cells' kernels holds at most 118,098 cells in the
# tests, corpus --scale 1.0 and bench/run.py's workloads; center --algebra
# matrix:9 builds one of 43,046,721 in a 686 MiB process.
MAX_CELLS = 5 * 10 ** 7


def check_cells(cells: int, what: str) -> None:
    """Refuse (ValueError) an output of more than MAX_CELLS cells."""
    if cells > MAX_CELLS:
        raise ValueError(f"{what} would hold {cells} cells; one output may"
                         f" hold at most {MAX_CELLS}")


def refuse(violations: list, what: str) -> None:
    """The one refusal of a failed validator: ValueError(f"{what}:
    {violations}") unless the list of violations is empty."""
    if violations:
        raise ValueError(f"{what}: {violations}")


def _over_lcm(mats):
    """(nums, L): the stored rows of each matrix in mats brought to L, the
    lcm of their denominators, 1 when every one is integral (a matrix
    already over L is not copied).  A prime power that divides L exactly
    divides some matrix's den exactly, and that matrix has an entry it does
    not divide, so their entries joined over L are reduced."""
    L = lcm(*[m.den or 1 for m in mats])
    return [m.num if (m.den or 1) == L else
            [[x * (L // (m.den or 1)) for x in r] for r in m.num] for m in mats], L


class Matrix:
    """Dense matrix over an exact field: the int rows num over one reduced
    denominator den, None when it is 1 (see the module docstring), and data
    is the read-only view of the entries.  Treat as immutable."""

    __slots__ = ("rows", "cols", "field", "num", "den")

    def __init__(self, data, field, ncols=None):
        num = [list(r) for r in data]
        self.rows = len(num)
        if self.rows:
            self.cols = len(num[0])
        else:
            self.cols = 0 if ncols is None else ncols
        for r in num:
            if len(r) != self.cols:
                raise ValueError("ragged matrix")
        self.field = field
        self.num, self.den = num, None
        if not field.p and Fraction in map(type, chain.from_iterable(num)):
            d = lcm(*[x.denominator for x in chain.from_iterable(num)
                      if type(x) is not int])
            self.num = [[x * d if type(x) is int
                         else x.numerator * (d // x.denominator) for x in r]
                        for r in num]
            self.den = d if d != 1 else None

    @staticmethod
    def _fresh(num, field, ncols, den=None) -> "Matrix":
        """A matrix on rows this module has just built: rectangular with
        ncols columns and reduced over den by construction, so neither
        copied nor checked; a den of 1 is dropped."""
        m = object.__new__(Matrix)
        m.num = num
        m.rows = len(num)
        m.cols = ncols
        m.field = field
        m.den = den if den != 1 else None
        return m

    @staticmethod
    def cleared(num, den, field, ncols) -> "Matrix":
        """The matrix num / den (a positive int, or None for 1), on int
        lists the caller has just built and hands over: divided by the gcd
        of den and every entry, which is read row by row until it is 1."""
        g = den or 1
        for r in num:
            if g == 1:
                break
            g = gcd(g, *r)
        if g > 1:
            num = [[x // g for x in r] for r in num]
            den //= g
        return Matrix._fresh(num, field, ncols, den)

    @property
    def data(self):
        """The entries row by row: the stored rows when den is None, else a
        view built on each read, with ints where integral and Fractions in
        lowest terms otherwise.  Read only."""
        d = self.den
        if d is None:
            return self.num
        div = QQ.div
        return [[div(x, d) for x in r] for r in self.num]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(n: int, field) -> "Matrix":
        return Matrix._fresh([[1 if i == j else 0 for j in range(n)]
                              for i in range(n)], field, n)

    @staticmethod
    def zeros(r: int, c: int, field) -> "Matrix":
        return Matrix._fresh([[0] * c for _ in range(r)], field, c)

    @staticmethod
    def from_int_rows(data, field) -> "Matrix":
        return Matrix([[field.from_int(x) for x in row] for row in data], field)

    @staticmethod
    def from_columns(columns, ambient: int, field) -> "Matrix":
        """Build an ambient x len(columns) matrix from a list of vectors."""
        cols = list(columns)
        for c in cols:
            if len(c) != ambient:
                raise ValueError(f"a column of length {len(c)} in k^{ambient}")
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
            and (self.field is other.field or self.field == other.field)
            and self.num == other.num
            and self.den == other.den
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"

    def _check_shape(self, other, op):
        _check_fields(self, other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} {op} {other.shape}")

    def _entrywise(self, other, op, sign) -> "Matrix":
        """self op other for op add or sub; over QQ both meet over the lcm
        of their denominators (see _over_lcm)."""
        self._check_shape(other, sign)
        p = self.field.p
        if p:
            num = [[x % p for x in map(op, ra, rb)]
                   for ra, rb in zip(self.num, other.num)]
            return Matrix._fresh(num, self.field, self.cols)
        (a, b), L = _over_lcm([self, other])
        return Matrix.cleared([list(map(op, ra, rb)) for ra, rb in zip(a, b)],
                              L, self.field, self.cols)

    def __add__(self, other) -> "Matrix":
        return self._entrywise(other, add, "+")

    def __sub__(self, other) -> "Matrix":
        return self._entrywise(other, sub, "-")

    def scale(self, c) -> "Matrix":
        p = self.field.p
        if p:
            return Matrix._fresh([[c * a % p for a in row] for row in self.num],
                                 self.field, self.cols)
        c, q = c.as_integer_ratio()
        return Matrix.cleared([[c * a for a in row] for row in self.num],
                              (self.den or 1) * q, self.field, self.cols)

    def _product_rows(self, other):
        """The rows of self @ other before Matrix.cleared: plain int sums of
        the stored rows, reduced once per cell over GF(p), and their
        denominator, the product of the factors' (1 when both are
        integral); a zero test can read the ints."""
        _check_fields(self, other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        p = self.field.p
        ot, n = other.num, other.cols
        cols = range(self.cols)
        out = []
        for row in self.num:
            new = None
            for k in compress(cols, row):
                a = row[k]
                rk = ot[k]
                if new is None:
                    new = rk[:] if a == 1 else [a * b for b in rk]
                    continue
                for j in range(n):
                    b = rk[j]
                    if b:
                        new[j] += a * b
            if new is None:
                new = [0] * n
            elif p:
                new = [x % p for x in new]
            out.append(new)
        return out, (self.den or 1) * (other.den or 1)

    def __matmul__(self, other) -> "Matrix":
        """The product: _product_rows, then reduced once."""
        return Matrix.cleared(*self._product_rows(other), self.field, other.cols)

    def apply(self, vec):
        """Matrix-vector product; vec is a plain list of elements."""
        if len(vec) != self.cols:
            raise ValueError(f"a vector of length {len(vec)} for a matrix of"
                             f" shape {self.shape}")
        p = self.field.p
        if p:
            return [sum(map(mul, row, vec)) % p for row in self.num]
        if self.den is None and Fraction not in map(type, vec):
            return [sum(map(mul, row, vec)) for row in self.num]
        v = Matrix([vec], self.field, ncols=self.cols)
        d, w = (self.den or 1) * (v.den or 1), v.num[0]
        return [QQ.div(sum(map(mul, row, w)), d) for row in self.num]

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix._fresh([[] for _ in range(self.cols)], self.field, 0)
        return Matrix._fresh(list(map(list, zip(*self.num))), self.field,
                             self.rows, self.den)

    def kron(self, other) -> "Matrix":
        """Kronecker product; row-major, left factor major: index (i,k) of the
        product space is i*other.rows + k."""
        _check_fields(self, other)
        check_cells(self.rows * other.rows * self.cols * other.cols,
                    "a Kronecker product")
        p = self.field.p
        out = []
        for ri in self.num:
            for rk in other.num:
                row = []
                for a in ri:
                    if not a:
                        row.extend([0] * other.cols)
                    elif p:
                        row.extend(a * b % p if b else 0 for b in rk)
                    else:
                        row.extend(a * b if b else 0 for b in rk)
                out.append(row)
        return Matrix.cleared(out, (self.den or 1) * (other.den or 1),
                              self.field, self.cols * other.cols)

    def flatten(self) -> "Matrix":
        """The 1 x rows*cols matrix of the entries read row by row."""
        return Matrix._fresh([list(chain.from_iterable(self.num))], self.field,
                             self.rows * self.cols, self.den)

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The rows x cols matrix of the entries read row by row: the
        inverse of flatten."""
        if rows * cols != self.rows * self.cols:
            raise ValueError(f"cannot reshape {self.shape} to {(rows, cols)}")
        v = list(chain.from_iterable(self.num))
        return Matrix._fresh([v[r * cols:(r + 1) * cols] for r in range(rows)],
                             self.field, cols, self.den)

    def col_list(self, j: int):
        d = self.den
        return [r[j] if d is None else QQ.div(r[j], d) for r in self.num]

    def columns(self):
        return self.transpose().data

    def select_columns(self, cols) -> "Matrix":
        """The columns at cols, a slice or a list of indices, in that order."""
        if isinstance(cols, slice):
            num = [row[cols] for row in self.num]
            n = len(range(self.cols)[cols])
        else:
            num = [[row[c] for c in cols] for row in self.num]
            n = len(cols)
        return Matrix.cleared(num, self.den, self.field, n)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))


def _rows_at(m: Matrix, idx) -> Matrix:
    """The rows of m at idx, in that order, each copied."""
    return Matrix.cleared([m.num[i][:] for i in idx], m.den, m.field, m.cols)


def stack_rows(mats) -> Matrix:
    """Vertical stack of a nonempty list of matrices over one field with
    one column count, each row copied once, over the lcm of their
    denominators (see _over_lcm)."""
    top = mats[0]
    for m in mats[1:]:
        _check_fields(top, m)
        if m.cols != top.cols:
            raise ValueError(f"shape mismatch {top.shape} above {m.shape}")
    nums, L = _over_lcm(mats)
    return Matrix._fresh([row[:] for num in nums for row in num], top.field,
                         top.cols, L)


def stack_columns(mats) -> Matrix:
    """Horizontal stack of a nonempty list of matrices over one field with
    one row count, over the lcm of their denominators (see _over_lcm)."""
    top = mats[0]
    for m in mats[1:]:
        _check_fields(top, m)
        if m.rows != top.rows:
            raise ValueError(f"shape mismatch {top.shape} beside {m.shape}")
    nums, L = _over_lcm(mats)
    return Matrix._fresh([list(chain.from_iterable(rows)) for rows in zip(*nums)],
                         top.field, sum(m.cols for m in mats), L)


def block_diagonal(mats) -> Matrix:
    """The block-diagonal matrix of a nonempty list of matrices over one
    field, stacked from them and zero blocks."""
    f, n = mats[0].field, sum(m.cols for m in mats)
    blocks, off = [], 0
    for m in mats:
        blocks.append(stack_columns([Matrix.zeros(m.rows, off, f), m,
                                     Matrix.zeros(m.rows, n - off - m.cols, f)]))
        off += m.cols
    return stack_rows(blocks)


def combination(coeffs, mats, start: Matrix) -> Matrix:
    """start + the sum of c * M over the pairs (c, M) of coeffs and mats,
    added term by term: a zero c is skipped and c == 1 scales nothing.  A
    plain linear combination starts from the zero matrix of the mats'
    shape."""
    one = start.field.one
    for c, M in zip(coeffs, mats):
        if c:
            start = start + (M if c == one else M.scale(c))
    return start


def tensor_permutation_index(dims, perm) -> list:
    """The reordering of tensor slots as a list idx of flat indices.

    dims: sizes of the slots of the source flat space (row-major flattening,
    leftmost slot major).  perm: the target's slot i is the source's slot
    perm[i].  idx[s] is the flat target index of flat source index s, so
    for X a map out of the target, X.select_columns(idx) is X after the
    permutation of slots, a map out of the source.
    """
    idx = [0]
    for s, d in enumerate(dims):
        # the stride of source slot s in the target
        st = prod(dims[q] for q in perm[list(perm).index(s) + 1:])
        idx = [x + k * st for x in idx for k in range(d)]
    return idx


def slot_products(P: Matrix, Xs, left: int, right: int) -> list:
    """[P @ (I_left (x) X (x) I_right) for X in Xs], all X of one shape r x c,
    as one sparse scatter and without forming a Kronecker product: by
    (A (x) B) vec(Y) = vec(A Y B^T), an entry a at flat index (i, k, j) of a
    row of P (in left x r x right) adds a * X[k][l] to entry (i, l, j) of
    the output row (in left x c x right) for each nonzero X[k][l].  Each row
    of P is walked on its nonzeros only, and the nonzeros of each X are
    listed once per call.  Over QQ an output is int sums over the product
    of P's and X's denominators, reduced once (Matrix.cleared); over GF(p)
    each output cell is reduced once."""
    if not Xs:
        return []
    f, (r, c) = P.field, Xs[0].shape
    w, n = r * right, left * c * right
    if P.cols != left * w or any(X.shape != (r, c) for X in Xs):
        raise ValueError(f"shape mismatch {P.shape} @ I{left} (x) {r}x{c} (x) I{right}")
    check_cells(len(Xs) * P.rows * n, "a slot product")
    p = f.p
    # flat index (i, k, j) of P: row k of X and output index (i, 0, j)
    spots = [(t // right % r, t // w * c * right + t % right) for t in range(P.cols)]
    cols = range(P.cols)
    out = []
    for X in Xs:
        _check_fields(P, X)
        # row k of X as the (offset of l, entry) of its nonzeros
        nz = [[(l * right, b) for l, b in enumerate(row) if b] for row in X.num]
        num = []
        for row in P.num:
            new = [0] * n
            for t in compress(cols, row):
                a = row[t]
                k, o = spots[t]
                for d, b in nz[k]:
                    new[o + d] += a * b
            num.append([x % p for x in new] if p else new)
        out.append(Matrix.cleared(num, (P.den or 1) * (X.den or 1), f, n))
    return out


def kron_product(P: Matrix, factors) -> Matrix:
    """P @ (F_1 (x) ... (x) F_k), one slot product per factor, leftmost
    first; a factor given as an int n is the identity of k^n and costs
    nothing."""
    rows = [F if type(F) is int else F.rows for F in factors]
    cols = [F if type(F) is int else F.cols for F in factors]
    if P.cols != prod(rows):
        raise ValueError(f"shape mismatch {P.shape} @ a tensor of {rows} rows")
    for s, F in enumerate(factors):
        if type(F) is not int:
            P = slot_products(P, [F], prod(cols[:s]), prod(rows[s + 1:]))[0]
    return P


# ---------------------------------------------------------------------------
# elimination


def rref(m: Matrix):
    """Reduced row echelon form.  Returns (R, pivots).

    Over QQ each row is kept as a primitive integer vector: the numerators
    of a row, divided by their content (a row's scale does not change the
    row space).  A pivot row is made positive at its pivot pv and
    eliminates entry f of another row by cross-multiplication, pv/g times
    that row minus f/g times the pivot row (g = gcd(pv, f)); a row so
    scaled is divided by its content again.  At the end each pivot row is
    divided by its content and brought to den, the lcm of the pivots: row
    i of R holds den at its pivot.  Over GF(p) each pivot is inverted
    once and every updated entry is reduced mod p.  Either way a pivot row
    is subtracted only on its own nonzero columns."""
    p = m.field.p
    R = [row[:] for row in m.num] if p else [_primitive(row) for row in m.num]
    rows, cols = m.rows, m.cols
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
        if p:
            _eliminate_mod_p(R, r, c, p)
        else:
            _eliminate_integer(R, r, c)
        pivots.append(c)
        r += 1
    if p:
        return Matrix._fresh(R, m.field, cols), pivots
    R[:r] = map(_primitive, R[:r])
    L = lcm(*[Ri[c] for Ri, c in zip(R, pivots)])
    R[:r] = [Ri if Ri[c] == L else [x * (L // Ri[c]) for x in Ri]
             for Ri, c in zip(R, pivots)]
    return Matrix._fresh(R, m.field, cols, L), pivots


def _primitive(row):
    """An integer row divided by its content, a new list."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row[:]


def _eliminate_mod_p(R, r, c, p):
    """Scale row r of R to pivot 1 at column c and clear column c in every
    other row, mod p.  Rows r.. are zero left of column c."""
    Rr = R[r]
    nz = [j for j in range(c, len(Rr)) if Rr[j]]
    pv = Rr[c]
    if pv != 1:
        inv = pow(pv, -1, p)
        for j in nz:
            Rr[j] = Rr[j] * inv % p
    entries = [(j, Rr[j]) for j in nz]
    for i, Ri in enumerate(R):
        f = Ri[c]
        if f and i != r:
            for j, b in entries:
                Ri[j] = (Ri[j] - f * b) % p


def _eliminate_integer(R, r, c):
    """Clear column c in every integer row of R but r, whose entry pv
    there is the pivot, dividing each row it scales by its content.  Rows
    r.. are zero left of column c."""
    Rr = R[r]
    pv = Rr[c]
    if pv < 0:
        pv = -pv
        Rr = R[r] = [-x for x in Rr]
    entries = [(j, Rr[j]) for j in range(c, len(Rr)) if Rr[j]]
    for i, Ri in enumerate(R):
        f = Ri[c]
        if not f or i == r:
            continue
        g = gcd(pv, f)
        s, f = pv // g, f // g
        # s == 1 when pv divides f: a plain subtraction, no content to find
        if s != 1:
            Ri = R[i] = [s * x for x in Ri]
        for j, b in entries:
            Ri[j] -= f * b
        if s != 1:
            g = gcd(*Ri)
            if g > 1:
                R[i] = [x // g for x in Ri]


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def _distinct(m: Matrix) -> list:
    """The nonzero stored rows of m, over QQ each divided by its content
    (see _primitive), as tuples in order of first appearance, each value
    once.  They span the row space, which is all a kernel or a cokernel
    depends on (rref itself keeps every row: inverse and solve_matrix read
    them all)."""
    rows = m.num if m.field.p else map(_primitive, m.num)
    return list(dict.fromkeys(map(tuple, filter(any, rows))))


def _row_echelon_basis(m: Matrix) -> Matrix:
    """The row space of m in reduced column echelon form, from the rref of
    the distinct nonzero rows of m (see _distinct)."""
    rows = list(map(list, _distinct(m)))
    R, pivots = rref(Matrix._fresh(rows, m.field, m.cols))
    return _rows_at(R, range(len(pivots))).transpose()


class Subspace:
    """A subspace of k^ambient with canonical (reduced column echelon) basis,
    checked to be in that form; lead[j] is the leading row of column j.
    kernel builds one, and cokernel builds one from spanning rows through
    _row_echelon_basis."""

    __slots__ = ("ambient", "basis", "field", "lead")

    def __init__(self, ambient: int, basis: Matrix, field):
        self.ambient = ambient
        self.field = field
        B = self.basis = basis
        if B.rows != ambient:
            raise ValueError("subspace basis does not fit the ambient space")
        # the first nonzero row of each column: in reduced column echelon
        # form these rows increase and together form an identity matrix
        num = B.num
        self.lead = [next((i for i, row in enumerate(num) if row[j]), None)
                     for j in range(B.cols)]
        if (None in self.lead or self.lead != sorted(set(self.lead))
                or _rows_at(B, self.lead) != Matrix.identity(B.cols, field)):
            raise ValueError("subspace basis is not in reduced column echelon form")

    @property
    def dim(self) -> int:
        return self.basis.cols

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"

    def coords_matrix(self, M: Matrix, message: str) -> Matrix:
        """Coordinates of the columns of M in the canonical basis; raises
        ValueError(message) if a column lies outside the subspace.  Basis
        column j is 1 at lead[j] and every other basis column is 0 there, so
        the coordinates are M's rows at lead; one product checks them, with
        no elimination."""
        X = _rows_at(M, self.lead)
        if self.basis @ X != M:
            raise ValueError(message)
        return X


class HomSpace:
    """A space of rows x cols matrices: span is the canonical subspace of
    their row-major vectorisations (Matrix.flatten), checked when it was
    built, vecs its basis as rows and basis those as matrices (reshape)."""

    __slots__ = ("rows", "cols", "span", "vecs", "basis")

    def __init__(self, rows: int, cols: int, span: Subspace):
        self.rows, self.cols, self.span = rows, cols, span
        V = self.vecs = span.basis.transpose()
        self.basis = [_rows_at(V, [j]).reshape(rows, cols) for j in range(V.rows)]

    @property
    def dim(self) -> int:
        return self.span.dim

    def coords(self, mats, message: str) -> Matrix:
        """Coordinates of the matrices mats in basis, one column per matrix;
        raises ValueError(message) if one lies outside the span."""
        n, f = self.rows * self.cols, self.span.field
        V = stack_rows([Matrix.zeros(0, n, f)] + [M.flatten() for M in mats])
        return self.span.coords_matrix(V.transpose(), message)

    def product_coords(self, xs, ys, message: str) -> Matrix:
        """coords of [x @ y for x in xs for y in ys], x-major, where xs or ys
        is a HomSpace standing for its basis: one slot product over its vecs,
        by vec(x y)^T = vec(x)^T (I (x) y) = vec(y)^T (x^T (x) I)."""
        top = Matrix.zeros(0, self.rows * self.cols, self.span.field)
        if isinstance(ys, HomSpace):
            xs = xs.basis if isinstance(xs, HomSpace) else xs
            V = stack_rows([top] + slot_products(
                ys.vecs, [x.transpose() for x in xs], 1, ys.cols))
        else:
            # the k-th slot product has row i at x_i y_k
            V = _rows_at(stack_rows([top] + slot_products(xs.vecs, ys, xs.rows, 1)),
                         tensor_permutation_index((xs.dim, len(ys)), (1, 0)))
        return self.span.coords_matrix(V.transpose(), message)


def kernel(m: Matrix) -> Subspace:
    """Kernel of m as a canonical subspace of the source.

    Eliminating m with its columns reversed gives, for each free column f,
    the kernel vector that is 1 at f, 0 at the other free columns and
    -R[i][f] at the pivot column of each row i of the echelon form R:
    reduced column echelon form already.  Over QQ it is over R's
    denominator D, 1 at a free column stored as D: still reduced, as R
    holds D at each pivot and 0 at the other pivots, so all its other
    entries lie at free columns.  Only the distinct nonzero rows of m are
    eliminated (see _distinct)."""
    n = m.cols
    rows = [list(reversed(row)) for row in _distinct(m)]
    R, pivots = rref(Matrix._fresh(rows, m.field, n))
    row_of = {c: i for i, c in enumerate(pivots)}
    free = [j for j in range(n - 1, -1, -1) if j not in row_of]
    p, D = m.field.p, R.den or 1
    num = []
    t = 0
    # basis row x is column n - 1 - x of the reversed elimination
    for c in range(n - 1, -1, -1):
        i = row_of.get(c)
        if i is None:
            num.append([0] * len(free))
            num[-1][t] = D
            t += 1
        else:
            Ri = R.num[i]
            num.append([-Ri[j] % p for j in free] if p else [-Ri[j] for j in free])
    return Subspace(n, Matrix._fresh(num, m.field, len(free), R.den), m.field)


def solve_matrix(A: Matrix, B: Matrix) -> "Matrix | None":
    """Solve A X = B for all columns at once (free variables zero).
    Returns None if any column is inconsistent."""
    if A.rows != B.rows:
        raise ValueError(f"shape mismatch: A X = B with {A.shape} and"
                         f" {B.shape}")
    R, pivots = rref(stack_columns([A, B]))
    n = A.cols
    if pivots and pivots[-1] >= n:
        return None
    num = [[0] * B.cols for _ in range(n)]
    for i, c in enumerate(pivots):
        num[c] = R.num[i][n:]
    return Matrix.cleared(num, R.den, A.field, B.cols)


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


def mutually_inverse(a: Matrix, b: Matrix) -> bool:
    """Whether a @ b and b @ a are both identities."""
    return (a @ b == Matrix.identity(a.rows, a.field)
            and b @ a == Matrix.identity(b.rows, b.field))


# ---------------------------------------------------------------------------
# quotients


class Quotient:
    """A quotient of the flat tensor k^dims[0] (x) k^dims[1] (x) ...
    (leftmost slot major), nested or not; a cokernel has one slot.

    proj: dim x ambient, the projection onto quotient coordinates.
    free: the flat coordinates its section selects (column r of sect is
    e_free[r]), with proj @ sect == I checked at construction, so descend
    reads a map on the quotient as a column selection.
    relations: the canonical basis of the relation subspace (ambient x r),
    set by cokernel alone.
    """

    __slots__ = ("dims", "proj", "free", "relations")

    def __init__(self, dims: tuple, proj: Matrix, free: list, relations=None):
        if proj.select_columns(free) != Matrix.identity(proj.rows, proj.field):
            raise ValueError("quotient section is not a section of the projection")
        self.dims = dims
        self.proj = proj
        self.free = free
        self.relations = relations

    @staticmethod
    def leaf(dim: int, field) -> "Quotient":
        """k^dim over itself: the identity of one slot."""
        return Quotient((dim,), Matrix.identity(dim, field), list(range(dim)))

    @property
    def ambient(self) -> int:
        return self.proj.cols

    @property
    def dim(self) -> int:
        return self.proj.rows

    @property
    def field(self):
        return self.proj.field

    @property
    def sect(self) -> Matrix:
        """ambient x dim: the standard basis vectors at free."""
        return Matrix.identity(self.ambient, self.field).select_columns(self.free)

    def tensor(self, other: "Quotient", quot: "Quotient") -> "Quotient":
        """quot, a quotient of (this quotient) (x) (other's), as a quotient
        of the flat tensor of both.  A product of identity columns is an
        identity column, so the section selects free[a] * other.ambient +
        other.free[b] at each (a, b) that quot.free selects.  A factor
        whose section selects every coordinate in order is an identity and
        costs nothing."""
        factors = [q.ambient if q.free == list(range(q.ambient)) else q.proj
                   for q in (self, other)]
        n, d = other.ambient, other.dim
        free = [self.free[c // d] * n + other.free[c % d] for c in quot.free]
        return Quotient(self.dims + other.dims, kron_product(quot.proj, factors), free)

    def descend(self, down: Matrix, message: str) -> Matrix:
        """The map on the quotient induced by down, a map out of the flat
        tensor: down at free; raises ValueError(message) unless down
        factors through proj, and refuses a down out of another space."""
        if down.cols != self.ambient:
            raise ValueError(f"shape mismatch: a map out of k^{down.cols}"
                             f" descended to a quotient of k^{self.ambient}")
        mat = down.select_columns(self.free)
        if mat @ self.proj != down:
            raise ValueError(message)
        return mat

    def rebracket(self, tgt: "Quotient", message: str) -> Matrix:
        """The canonical map from this quotient to tgt, another quotient of
        the same flat tensor: the flat identity, descended."""
        if self.dims != tgt.dims:
            raise ValueError("bracketings of different flat tensors")
        return self.descend(tgt.proj, message)

    def __repr__(self):
        return f"Quotient(k^{self.ambient} -> k^{self.dim})"


def cokernel(rel: Matrix) -> Quotient:
    """Quotient of k^rel.cols by the row space of rel: each row is a relation.

    With B the reduced column echelon basis of the relations, x = B a +
    sect c has quotient coordinates c: row r of proj is e_free[r] minus
    sum_j B[free[r], j] e_lead[j], read off B without a second elimination."""
    field = rel.field
    n, p = rel.cols, field.p
    span = Subspace(n, _row_echelon_basis(rel), field)
    B, lead = span.basis, span.lead
    leadset = set(lead)
    free = [i for i in range(n) if i not in leadset]
    # over QQ B is num / D, so proj is over D: reduced, as B holds D at
    # lead and 0 elsewhere in its lead rows
    D = B.den or 1
    rows = []
    for i in free:
        row = [0] * n
        row[i] = D
        for j, b in enumerate(B.num[i]):
            if b:
                row[lead[j]] = -b % p if p else -b
        rows.append(row)
    proj = Matrix._fresh(rows, field, n, B.den)
    if any(map(any, proj._product_rows(B)[0])):
        raise ValueError("cokernel projection does not kill the relations")
    return Quotient((n,), proj, free, B)


def tensor_induced(q_tgt: Quotient, factors, q_src: Quotient,
                   message="map does not descend to the quotient") -> Matrix:
    """The map induced on the quotients by F = F_1 (x) ... (x) F_k: ambient
    of q_src -> ambient of q_tgt (an int n the identity of k^n), with
    q_tgt.proj @ F as a kron_product; raises ValueError(message) unless F
    maps the source relations into the target relations."""
    return q_src.descend(kron_product(q_tgt.proj, factors), message)


# ---------------------------------------------------------------------------
# constructions computed once per argument content

# entries per memoised function: the working set of a run of verdicts on
# recurring inputs.  On the 152 verdicts of bench/run.py's center-gfp pool
# (seed 1, --seconds 15) a 16-entry LRU missed mult_transform 396 times on
# 75 distinct inputs, compose_cospans 310 times on 71 and Z_hom 153 times
# on 30; at 64 they miss 78, 71 and 30 times.  That pool's peak RSS is
# 28.1 MiB at 16 entries and 30.1 MiB at 64.
MEMO_BOUND = 64


class Keyed:
    """The base of the objects whose content key is stored on them: _key
    holds it once content_key has built it.  Such an object must not change
    once keyed, as a memoised result must not; its name may, since the key
    leaves it out."""

    __slots__ = ("_key",)


def content_key(x):
    """A hashable value, equal exactly for objects equal on the nose: a
    matrix by its field and its canonical rows, a list by its entries, an
    object with slots by its type and slots but its name; a scalar or field
    by itself.  The key of a Keyed object is built once and stored on it
    (_key is declared on Keyed, so the walk of type(x).__slots__ does not
    see it); any other object is walked on every call."""
    if type(x) is Matrix:
        return (x.field, x.cols, tuple(map(tuple, x.num)), x.den)
    if type(x) is list:
        return tuple(map(content_key, x))
    slots = getattr(type(x), "__slots__", None)
    if slots is None:
        return x
    key = getattr(x, "_key", None)
    if key is None:
        key = (type(x),) + tuple(content_key(getattr(x, s)) for s in slots
                                 if s != "name")
        if isinstance(x, Keyed):
            x._key = key
    return key


def same_content(a, b) -> bool:
    """Whether a and b are one object or equal on the nose: the one
    comparison by content of algebras, maps, bimodules, cospans and
    subspaces, whose classes define no ==."""
    return a is b or content_key(a) == content_key(b)


class memoised:
    """fn, computed once per argument content: calls on equal arguments
    share one result, which callers must treat as immutable.  The cache is
    the wrapper's own dict, keyed by content_key, of MEMO_BOUND entries;
    the read-only counts calls and misses give the calls made and those
    that computed."""

    def __init__(self, fn):
        update_wrapper(self, fn)
        self.cache = {}
        self._calls = self._misses = 0

    calls = property(lambda self: self._calls)
    misses = property(lambda self: self._misses)

    def __call__(self, *args):
        self._calls += 1
        cache = self.cache
        key = content_key(list(args))
        out = cache.pop(key, None)
        if out is None:
            self._misses += 1
            out = self.__wrapped__(*args)
            if len(cache) >= MEMO_BOUND:
                del cache[next(iter(cache))]
        cache[key] = out
        return out


# ---------------------------------------------------------------------------
# randomness (seeded by the caller; uniform integer coordinates)


def random_matrix(rows: int, cols: int, bound: int, rng, field) -> Matrix:
    return Matrix(
        [
            [field.from_int(rng.randint(-bound, bound)) for _ in range(cols)]
            for _ in range(rows)
        ],
        field,
    )
