"""Finite-dimensional associative unital algebras, each stored as its
multiplication matrix.

An algebra is (mult, unit): mult is the dim x dim^2 matrix whose column
i*dim + j holds the coordinates of e_i * e_j, and unit is the coordinate
vector of 1.  The axioms say that mult is associative as a structure map,
mult (mult (x) 1) == mult (1 (x) mult), and that the unit's operators are
the identity; the two composites, like the products of whole families of
elements, are kron_products on mult.  Every multiplication operator is a
slice of mult, and every construction (tensor, matrix, product and opposite
algebras, subalgebras) is a matrix expression on it.  Centers and
centralizers come out of exact kernel computations and are returned as
subalgebras with closed induced multiplication (closure failure is a hard
error, not a warning).
"""

from __future__ import annotations

import re

from .exactla import (
    Keyed,
    Matrix,
    QQ,
    Subspace,
    _over_lcm,
    inverse,
    kernel,
    kron_product,
    memoised,
    refuse,
    same_content,
    stack_rows,
    tensor_permutation_index,
)


class Algebra(Keyed):
    """An algebra given by its multiplication matrix.  mult is dim x dim^2
    and column i*dim + j is e_i * e_j, so left_mult(e_i) is column block i
    and right_mult(e_i) the columns i, i + dim, i + 2*dim, ...; unit is the
    coordinate vector of 1.  dim and field are read off mult."""

    __slots__ = ("field", "dim", "mult", "unit", "name")

    def __init__(self, mult: Matrix, unit, name=""):
        self.dim = mult.rows
        self.unit = list(unit)
        if mult.cols != self.dim * self.dim or len(self.unit) != self.dim:
            raise ValueError("algebra: the multiplication matrix must be dim x"
                             " dim^2 and the unit a dim-vector")
        self.mult = mult
        self.field = mult.field
        self.name = name

    def __repr__(self):
        tag = f" {self.name}" if self.name else ""
        return f"Algebra(dim {self.dim}{tag})"

    def multiply(self, x, y):
        """Product of two coordinate vectors."""
        return self.left_mult(x).apply(y)

    def _operator(self, x, cut) -> Matrix:
        """sum_i x_i (the columns cut(i) of mult)."""
        one = self.field.one
        out = None
        for i, a in enumerate(x):
            if a:
                term = self.mult.select_columns(cut(i))
                term = term if a == one else term.scale(a)
                out = term if out is None else out + term
        return Matrix.zeros(self.dim, self.dim, self.field) if out is None else out

    def left_mult(self, x) -> Matrix:
        """Matrix of y -> x*y."""
        d = self.dim
        return self._operator(x, lambda i: slice(i * d, (i + 1) * d))

    def right_mult(self, x) -> Matrix:
        """Matrix of y -> y*x."""
        return self._operator(x, lambda i: slice(i, None, self.dim))

    def products(self, X: Matrix, Y: Matrix) -> Matrix:
        """mult @ (X (x) Y), without forming X (x) Y: column a*Y.cols + b is
        the product of column a of X with column b of Y."""
        return kron_product(self.mult, [X, Y])

    def basis_vector(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v


@memoised
def validate_algebra(a: Algebra) -> list[str]:
    """All violations of associativity/unitality, as human-readable strings.
    Empty list == valid.  The unit's operators must be the identity, and
    mult must be associative: mult (mult (x) 1) == mult (1 (x) mult), whose
    column (i, j, k), row l compares the e_l-coefficients of (e_i e_j) e_k
    and e_i (e_j e_k).  The two sides are compared whole, and read entry by
    entry only when they differ."""
    out = []
    n = a.dim
    lunit, runit = a.left_mult(a.unit), a.right_mult(a.unit)
    for i in range(n):
        e = a.basis_vector(i)
        if lunit.col_list(i) != e:
            out.append(f"unit fails on the left at basis {i}")
        if runit.col_list(i) != e:
            out.append(f"unit fails on the right at basis {i}")
    lhs = kron_product(a.mult, [a.mult, n])
    rhs = kron_product(a.mult, [n, a.mult])
    if lhs != rhs:
        diff = (lhs - rhs).num
        out.extend(
            f"associativity fails at (e{i}*e{j})*e{k} vs "
            f"e{i}*(e{j}*e{k}), coefficient of e{l}"
            for i in range(n) for j in range(n) for k in range(n)
            for l in range(n) if diff[l][(i * n + j) * n + k])
    return out


def is_commutative(a: Algebra) -> bool:
    return a.mult == opposite_algebra(a).mult


# ---------------------------------------------------------------------------
# subalgebras, centers, centralizers


class Subalgebra:
    """A subalgebra of `parent` spanned by the columns of `incl` (canonical
    column echelon), together with the induced algebra."""

    __slots__ = ("parent", "subspace", "algebra")

    def __init__(self, parent: Algebra, subspace: Subspace):
        self.parent = parent
        self.subspace = subspace
        # closure: each product of basis columns must be a combination of
        # basis columns, and those coordinates are the induced mult
        mult = subspace.coords_matrix(parent.products(self.incl, self.incl),
                                      "subspace is not closed under multiplication")
        unit = subspace.coords_matrix(unit_column(parent),
                                      "subspace does not contain the unit")
        self.algebra = Algebra(mult, unit.col_list(0))

    @property
    def incl(self) -> Matrix:
        return self.subspace.basis

    @property
    def dim(self):
        return self.algebra.dim

    def __repr__(self):
        return f"Subalgebra(dim {self.dim} of dim {self.parent.dim})"


def _commutant(a: Algebra, elements) -> Subalgebra:
    """The subalgebra of a commuting with every one of elements: the kernel
    of z -> (z u - u z for all u)."""
    blocks = [a.right_mult(u) - a.left_mult(u) for u in elements]
    return Subalgebra(a, kernel(stack_rows(blocks)))


@memoised
def center(a: Algebra) -> Subalgebra:
    """Center as a subalgebra: the commutant of the basis."""
    return _commutant(a, [a.basis_vector(i) for i in range(a.dim)])


def centralizer(f: "AlgebraMap") -> Subalgebra:
    """Centralizer of the image of f inside the target, as a subalgebra."""
    return _commutant(f.tgt, f.mat.columns())


def commutes(a: Algebra, xs, ys) -> bool:
    """Brute force: every x commutes with every y in a, coordinate vectors
    multiplied pair by pair; the oracle for centers and centralizers."""
    return all(a.multiply(x, y) == a.multiply(y, x) for x in xs for y in ys)


# ---------------------------------------------------------------------------
# constructions


def tensor_algebra(a: Algebra, b: Algebra) -> Algebra:
    """A (x) B with basis e_i (x) f_j at index i*b.dim + j (left factor
    major) and componentwise product: the Kronecker product of the two mults,
    whose column ((i, p), (j, q)) moves to ((i, j), (p, q))."""
    if a.field != b.field:
        raise ValueError("tensor_algebra: the factors lie over different fields")
    f = a.field
    mult = a.mult.kron(b.mult).select_columns(
        tensor_permutation_index((a.dim, b.dim) * 2, (0, 2, 1, 3)))
    unit = Matrix([a.unit], f).kron(Matrix([b.unit], f)).data[0]
    name = ""
    if a.name and b.name:
        name = f"{a.name}(x){b.name}"
    return Algebra(mult, unit, name)


def opposite_algebra(a: Algebra) -> Algebra:
    """The same mult with the columns (i, j) and (j, i) swapped."""
    d = a.dim
    mult = a.mult.select_columns(tensor_permutation_index((d, d), (1, 0)))
    return Algebra(mult, a.unit, f"{a.name}^op" if a.name else "")


def matrix_algebra(base: Algebra, n: int) -> Algebra:
    """M_n(base): basis E_{ij} (x) e_k at index (i*n + j)*base.dim + k, the
    tensor product of the matrix units with base."""
    check_dim(n * n * base.dim, f"M_{n} of a {base.dim}-dimensional algebra")
    out = tensor_algebra(alg_matrix(n, base.field), base)
    out.name = f"M{n}({base.name})" if base.name else f"M{n}"
    return out


def product_algebra(parts) -> Algebra:
    """Direct product of algebras (componentwise operations): the mults of
    the parts placed as diagonal blocks."""
    f = parts[0].field
    if any(p.field != f for p in parts):
        raise ValueError("product_algebra: the factors lie over different fields")
    dim = sum(p.dim for p in parts)
    nums, den = _over_lcm([p.mult for p in parts])
    rows = []
    off = 0
    for p, num in zip(parts, nums):
        d = p.dim
        for row in num:
            out = [0] * (dim * dim)
            for i in range(d):
                start = (off + i) * dim + off
                out[start:start + d] = row[i * d:(i + 1) * d]
            rows.append(out)
        off += d
    mult = Matrix.cleared(rows, den, f, dim * dim)
    unit = [x for p in parts for x in p.unit]
    name = " x ".join(p.name for p in parts) if all(p.name for p in parts) else ""
    return Algebra(mult, unit, name)


# -- named constructors ------------------------------------------------------

# The most dimensions a sized constructor builds: an algebra of dimension d
# stores d^3 structure constants, so this allows 10^6.  A larger size is
# refused before anything is allocated (matrix:50 would ask for 50^6,
# about 1.6e10 list entries).
MAX_DIM = 100


def check_dim(dim: int, what: str) -> None:
    """Refuse (ValueError) an algebra of more than MAX_DIM dimensions."""
    if dim > MAX_DIM:
        raise ValueError(f"{what} is too large: an algebra may have at most"
                         f" {MAX_DIM} dimensions ({MAX_DIM ** 3} structure"
                         " constants)")


def alg_k(field=QQ) -> Algebra:
    return Algebra(Matrix.identity(1, field), [field.one], "k")


def alg_matrix(n: int, field=QQ) -> Algebra:
    """The matrix units: E_ij at index i*n + j, with E_ij E_jq = E_iq."""
    nn = n * n
    check_dim(nn, f"matrix:{n}")
    rows = [[field.zero] * (nn * nn) for _ in range(nn)]
    for i in range(n):
        for j in range(n):
            for q in range(n):
                rows[i * n + q][(i * n + j) * nn + j * n + q] = field.one
    mult = Matrix(rows, field, ncols=nn * nn)
    unit = [field.one if r % (n + 1) == 0 else field.zero for r in range(nn)]
    return Algebra(mult, unit, f"M{n}(k)")


def alg_product_k(m: int, field=QQ) -> Algebra:
    check_dim(m, f"product:k^{m}")
    a = product_algebra([alg_k(field) for _ in range(m)])
    a.name = f"k^{m}"
    return a


def alg_dual_numbers(field=QQ) -> Algebra:
    """k[x]/(x^2): basis (1, x)."""
    z, o = field.zero, field.one
    mult = Matrix([[o, z, z, z], [z, o, o, z]], field)
    return Algebra(mult, [o, z], "dual_numbers")


def alg_group_c2(field=QQ) -> Algebra:
    """Group algebra of C2: basis (1, g) with g^2 = 1."""
    z, o = field.zero, field.one
    mult = Matrix([[o, z, z, o], [z, o, o, z]], field)
    return Algebra(mult, [o, z], "group:C2")


def read_size(text: str, what: str) -> int:
    """The size n of a sized constructor (matrix:n, product:k^m, diag:n,
    row:n, col:n) named what, written as str(n) writes it: ASCII digits
    with no sign or leading zero, and at least 1.  Refuses (ValueError)
    text that is no integer, and an integer written another way or below 1,
    each with one message shape (int alone would read a sign, "_", leading
    zeros and non-ASCII digits)."""
    if re.fullmatch("[1-9][0-9]*", text):
        return int(text)
    if re.fullmatch("[+-]?[0-9]+", text):
        raise ValueError(f"{what}: the size must be at least 1, in ASCII digits"
                         f" with no sign or leading zero; got {text!r}")
    raise ValueError(f"{what}: expected an integer, got {text!r}")


def named_algebra(spec: str, field=QQ) -> Algebra:
    """Parse a named constructor: k, matrix:n, product:k^m, dual_numbers,
    group:C2."""
    if spec == "k":
        return alg_k(field)
    for prefix, make in (("matrix:", alg_matrix), ("product:k^", alg_product_k)):
        if spec.startswith(prefix):
            return make(read_size(spec[len(prefix):], prefix.split(":")[0]), field)
    if spec == "dual_numbers":
        return alg_dual_numbers(field)
    if spec == "group:C2":
        return alg_group_c2(field)
    raise ValueError(f"unknown algebra constructor {spec!r}")


# ---------------------------------------------------------------------------
# algebra maps


class AlgebraMap(Keyed):
    """A linear map between algebras, given by its matrix on basis coords."""

    __slots__ = ("src", "tgt", "mat")

    def __init__(self, src: Algebra, tgt: Algebra, mat: Matrix):
        if mat.rows != tgt.dim or mat.cols != src.dim:
            raise ValueError("algebra map: the matrix must be tgt.dim x src.dim")
        if src.field != tgt.field:
            raise ValueError("algebra map: source and target lie over"
                             " different fields")
        self.src = src
        self.tgt = tgt
        self.mat = mat

    def apply(self, vec):
        return self.mat.apply(vec)

    def __repr__(self):
        return f"AlgebraMap({self.src!r} -> {self.tgt!r})"


@memoised
def validate_algebra_map(f: AlgebraMap) -> list[str]:
    """Violations of unitality/multiplicativity; empty == algebra map.
    Column (i, j) of f mult_src is f(e_i e_j), of mult_tgt (f (x) f) it is
    f(e_i) f(e_j)."""
    out = []
    if f.apply(f.src.unit) != f.tgt.unit:
        out.append("unit is not preserved")
    lhs = f.mat @ f.src.mult
    rhs = f.tgt.products(f.mat, f.mat)
    if lhs != rhs:
        n = f.src.dim
        out.extend(f"multiplicativity fails at (e{c // n}, e{c % n})"
                   for c in range(n * n) if lhs.col_list(c) != rhs.col_list(c))
    return out


def identity_map(a: Algebra) -> AlgebraMap:
    return AlgebraMap(a, a, Matrix.identity(a.dim, a.field))


def compose_maps(g: AlgebraMap, f: AlgebraMap) -> AlgebraMap:
    """g after f."""
    if not same_content(f.tgt, g.src):
        raise ValueError("composition type mismatch")
    return AlgebraMap(f.src, g.tgt, g.mat @ f.mat)


def unit_column(a: Algebra) -> Matrix:
    """The unit of A as a dim x 1 matrix."""
    return Matrix.from_columns([a.unit], a.dim, a.field)


def unit_map(a: Algebra) -> AlgebraMap:
    """The unique algebra map k -> A."""
    return AlgebraMap(alg_k(a.field), a, unit_column(a))


def is_isomorphism(f: AlgebraMap) -> "AlgebraMap | None":
    """The inverse algebra map if f is bijective (and a valid algebra map),
    else None."""
    if validate_algebra_map(f):
        return None
    inv = inverse(f.mat)
    if inv is None:
        return None
    g = AlgebraMap(f.tgt, f.src, inv)
    refuse(validate_algebra_map(g),
           "the inverse of an algebra map is not an algebra map")
    return g


def image_central_in(f: AlgebraMap) -> bool:
    """True iff the image of f commutes with everything in the target."""
    t = f.tgt
    return all((t.left_mult(u) - t.right_mult(u)).is_zero() for u in f.mat.columns())


def subalgebra_map(sub_src: Subalgebra, sub_tgt: Subalgebra, parent_map: Matrix) -> AlgebraMap:
    """Restrict a parent-level linear map to subalgebras (in their canonical
    bases).  Raises if the image does not land in the target subalgebra."""
    X = sub_tgt.subspace.coords_matrix(
        parent_map @ sub_src.incl, "image does not land in the target subalgebra")
    return AlgebraMap(sub_src.algebra, sub_tgt.algebra, X)
