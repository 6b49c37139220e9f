"""Finite-dimensional associative unital algebras, each stored as its
multiplication matrix.

An algebra is (mult, unit): mult is the dim x dim^2 matrix whose column
i*dim + j holds the coordinates of e_i * e_j, and unit is the coordinate
vector of 1.  Every multiplication operator is a slice of mult, and every
construction (tensor, matrix, product and opposite algebras, subalgebras) is
a matrix expression on it.  Centers and centralizers come out of exact kernel
computations and are returned as subalgebras with closed induced
multiplication (closure failure is a hard error, not a warning).
"""

from __future__ import annotations

from .exactla import (
    Matrix,
    QQ,
    Subspace,
    inverse,
    kernel,
    stack_rows,
)


class Algebra:
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
        parts = [(self.left_mult(x) @ Y).data for x in X.columns()]
        return Matrix([[c for p in parts for c in p[k]] for k in range(self.dim)],
                      self.field, ncols=X.cols * Y.cols)

    def basis_vector(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

    def equal_on_the_nose(self, other: "Algebra") -> bool:
        return (
            self.unit == other.unit
            and self.mult == other.mult
            and self.field == other.field
        )


def validate_algebra(a: Algebra) -> list[str]:
    """All violations of associativity/unitality, as human-readable strings.
    Empty list == valid.  The unit's operators must be the identity, and
    left multiplication must be multiplicative: L(e_i e_j) == L(e_i) L(e_j),
    whose column k, row l compares the e_l-coefficients of (e_i e_j) e_k and
    e_i (e_j e_k).  Cost is O(dim^5); do not run casually on dim > ~12."""
    out = []
    n = a.dim
    lunit, runit = a.left_mult(a.unit), a.right_mult(a.unit)
    for i in range(n):
        e = a.basis_vector(i)
        if lunit.col_list(i) != e:
            out.append(f"unit fails on the left at basis {i}")
        if runit.col_list(i) != e:
            out.append(f"unit fails on the right at basis {i}")
    L = [a.left_mult(a.basis_vector(i)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = a.left_mult(a.mult.col_list(i * n + j)).data
            rhs = (L[i] @ L[j]).data
            if lhs != rhs:
                out.extend(
                    f"associativity fails at (e{i}*e{j})*e{k} vs "
                    f"e{i}*(e{j}*e{k}), coefficient of e{l}"
                    for k in range(n) for l in range(n)
                    if lhs[l][k] != rhs[l][k])
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
        mult = subspace.coords_matrix(parent.products(self.incl, self.incl))
        if mult is None:
            raise ValueError("subspace is not closed under multiplication")
        unit = subspace.coords(parent.unit)
        if unit is None:
            raise ValueError("subspace does not contain the unit")
        self.algebra = Algebra(mult, unit)

    @property
    def incl(self) -> Matrix:
        return self.subspace.basis

    @property
    def dim(self):
        return self.algebra.dim

    def embed(self, coords):
        """Coordinates in the subalgebra -> coordinates in the parent."""
        return self.incl.apply(coords)

    def coords(self, parent_vec):
        return self.subspace.coords(parent_vec)

    def __repr__(self):
        return f"Subalgebra(dim {self.dim} of dim {self.parent.dim})"


def subalgebra_from_subspace(parent: Algebra, basis: Matrix) -> Subalgebra:
    return Subalgebra(parent, Subspace(parent.dim, basis, parent.field))


def _commutant(a: Algebra, elements) -> Subalgebra:
    """The subalgebra of a commuting with every one of elements: the kernel
    of z -> (z u - u z for all u)."""
    blocks = [a.right_mult(u) - a.left_mult(u) for u in elements]
    return Subalgebra(a, kernel(stack_rows(blocks)))


def center(a: Algebra) -> Subalgebra:
    """Center as a subalgebra: the commutant of the basis."""
    return _commutant(a, [a.basis_vector(i) for i in range(a.dim)])


def centralizer(f: "AlgebraMap") -> Subalgebra:
    """Centralizer of the image of f inside the target, as a subalgebra."""
    return _commutant(f.tgt, [f.apply(f.src.basis_vector(i)) for i in range(f.src.dim)])


# ---------------------------------------------------------------------------
# constructions


def tensor_algebra(a: Algebra, b: Algebra) -> Algebra:
    """A (x) B with basis e_i (x) f_j at index i*b.dim + j (left factor
    major) and componentwise product: the Kronecker product of the two mults,
    whose column ((i, p), (j, q)) moves to ((i, j), (p, q))."""
    if a.field != b.field:
        raise ValueError("tensor_algebra: the factors lie over different fields")
    f = a.field
    n, m = a.dim, b.dim
    order = [((i * n + p) * m + j) * m + q for i in range(n) for j in range(m)
             for p in range(n) for q in range(m)]
    mult = a.mult.kron(b.mult).select_columns(order)
    unit = Matrix([a.unit], f).kron(Matrix([b.unit], f)).data[0]
    name = ""
    if a.name and b.name:
        name = f"{a.name}(x){b.name}"
    return Algebra(mult, unit, name)


def opposite_algebra(a: Algebra) -> Algebra:
    """The same mult with the columns (i, j) and (j, i) swapped."""
    d = a.dim
    mult = a.mult.select_columns([j * d + i for i in range(d) for j in range(d)])
    return Algebra(mult, a.unit, f"{a.name}^op" if a.name else "")


def matrix_algebra(base: Algebra, n: int) -> Algebra:
    """M_n(base): basis E_{ij} (x) e_k at index (i*n + j)*base.dim + k, the
    tensor product of the matrix units with base."""
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
    mult = Matrix.zeros(dim, dim * dim, f)
    off = 0
    for p in parts:
        d = p.dim
        for k, row in enumerate(p.mult.data):
            out = mult.data[off + k]
            for i in range(d):
                start = (off + i) * dim + off
                out[start:start + d] = row[i * d:(i + 1) * d]
        off += d
    unit = [x for p in parts for x in p.unit]
    name = " x ".join(p.name for p in parts) if all(p.name for p in parts) else ""
    return Algebra(mult, unit, name)


# -- named constructors ------------------------------------------------------


def alg_k(field=QQ) -> Algebra:
    one = field.one
    return Algebra(Matrix([[one]], field), [one], "k")


def alg_matrix(n: int, field=QQ) -> Algebra:
    """The matrix units: E_ij at index i*n + j, with E_ij E_jq = E_iq."""
    nn = n * n
    mult = Matrix.zeros(nn, nn * nn, field)
    for i in range(n):
        for j in range(n):
            for q in range(n):
                mult.data[i * n + q][(i * n + j) * nn + j * n + q] = field.one
    unit = [field.one if r % (n + 1) == 0 else field.zero for r in range(nn)]
    return Algebra(mult, unit, f"M{n}(k)")


def alg_product_k(m: int, field=QQ) -> Algebra:
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


def named_algebra(spec: str, field=QQ) -> Algebra:
    """Parse a named constructor: k, matrix:n, product:k^m, dual_numbers,
    group:C2."""
    if spec == "k":
        return alg_k(field)
    for prefix, make in (("matrix:", alg_matrix), ("product:k^", alg_product_k)):
        if spec.startswith(prefix):
            n = int(spec[len(prefix):])
            if n < 1:
                raise ValueError(f"{spec}: the size must be at least 1")
            return make(n, field)
    if spec == "dual_numbers":
        return alg_dual_numbers(field)
    if spec == "group:C2":
        return alg_group_c2(field)
    raise ValueError(f"unknown algebra constructor {spec!r}")


# ---------------------------------------------------------------------------
# algebra maps


class AlgebraMap:
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

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraMap)
            and self.src.equal_on_the_nose(other.src)
            and self.tgt.equal_on_the_nose(other.tgt)
            and self.mat == other.mat
        )


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
    if not f.tgt.equal_on_the_nose(g.src):
        raise ValueError("composition type mismatch")
    return AlgebraMap(f.src, g.tgt, g.mat @ f.mat)


def unit_map(a: Algebra) -> AlgebraMap:
    """The unique algebra map k -> A."""
    k = alg_k(a.field)
    return AlgebraMap(k, a, Matrix.from_columns([a.unit], a.dim, a.field))


def is_isomorphism(f: AlgebraMap) -> "AlgebraMap | None":
    """The inverse algebra map if f is bijective (and a valid algebra map),
    else None."""
    if validate_algebra_map(f):
        return None
    inv = inverse(f.mat)
    if inv is None:
        return None
    g = AlgebraMap(f.tgt, f.src, inv)
    if validate_algebra_map(g):
        raise ValueError("the inverse of an algebra map is not an algebra map")
    return g


def image_central_in(f: AlgebraMap) -> bool:
    """True iff the image of f commutes with everything in the target."""
    t = f.tgt
    for i in range(f.src.dim):
        u = f.apply(f.src.basis_vector(i))
        if (t.left_mult(u) - t.right_mult(u)).is_zero():
            continue
        return False
    return True


def subalgebra_map(sub_src: Subalgebra, sub_tgt: Subalgebra, parent_map: Matrix) -> AlgebraMap:
    """Restrict a parent-level linear map to subalgebras (in their canonical
    bases).  Raises if the image does not land in the target subalgebra."""
    X = sub_tgt.subspace.coords_matrix(parent_map @ sub_src.incl)
    if X is None:
        raise ValueError("image does not land in the target subalgebra")
    return AlgebraMap(sub_src.algebra, sub_tgt.algebra, X)
