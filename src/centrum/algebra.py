"""Finite-dimensional associative unital algebras via structure constants.

An algebra is (dim, sc, unit) with e_i * e_j = sum_k sc[i][j][k] e_k and unit
a coordinate vector.  Centers and centralizers come out of exact kernel
computations and are returned as subalgebras with closed induced structure
constants (closure failure is a hard error, not a warning).
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
    """Structure-constant algebra.  sc[i][j][k] is the e_k-coefficient of
    e_i * e_j; unit is the coordinate vector of 1."""

    __slots__ = ("field", "dim", "sc", "unit", "name")

    def __init__(self, dim, sc, unit, field, name=""):
        self.dim = dim
        self.sc = sc
        self.unit = list(unit)
        self.field = field
        self.name = name
        assert len(sc) == dim and all(len(row) == dim for row in sc)
        assert all(len(sc[i][j]) == dim for i in range(dim) for j in range(dim))
        assert len(self.unit) == dim

    def __repr__(self):
        tag = f" {self.name}" if self.name else ""
        return f"Algebra(dim {self.dim}{tag})"

    def multiply(self, x, y):
        """Product of two coordinate vectors."""
        zero = self.field.zero
        out = [zero] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            sci = self.sc[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                coef = xi * yj
                for k, c in enumerate(sci[j]):
                    if c:
                        out[k] = out[k] + coef * c
        return out

    def left_mult(self, x) -> Matrix:
        """Matrix of y -> x*y."""
        cols = []
        zero = self.field.zero
        for j in range(self.dim):
            col = [zero] * self.dim
            for i, xi in enumerate(x):
                if not xi:
                    continue
                for k, c in enumerate(self.sc[i][j]):
                    if c:
                        col[k] = col[k] + xi * c
            cols.append(col)
        return Matrix.from_columns(cols, self.dim, self.field)

    def right_mult(self, x) -> Matrix:
        """Matrix of y -> y*x."""
        cols = []
        zero = self.field.zero
        for j in range(self.dim):
            col = [zero] * self.dim
            for i, xi in enumerate(x):
                if not xi:
                    continue
                for k, c in enumerate(self.sc[j][i]):
                    if c:
                        col[k] = col[k] + xi * c
            cols.append(col)
        return Matrix.from_columns(cols, self.dim, self.field)

    def basis_vector(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

    def equal_on_the_nose(self, other: "Algebra") -> bool:
        return (
            self.dim == other.dim
            and self.unit == other.unit
            and self.sc == other.sc
            and self.field == other.field
        )


def validate_algebra(a: Algebra) -> list[str]:
    """All violations of associativity/unitality, as human-readable strings.
    Empty list == valid.  Cost is O(dim^5); do not run casually on dim > ~12."""
    out = []
    n = a.dim
    f = a.field
    # unit
    for i in range(n):
        e = a.basis_vector(i)
        if a.multiply(a.unit, e) != e:
            out.append(f"unit fails on the left at basis {i}")
        if a.multiply(e, a.unit) != e:
            out.append(f"unit fails on the right at basis {i}")
    # associativity: sum_m sc[i][j][m] sc[m][k][l] == sum_m sc[j][k][m] sc[i][m][l]
    zero = f.zero
    for i in range(n):
        for j in range(n):
            scij = a.sc[i][j]
            for k in range(n):
                scjk = a.sc[j][k]
                for l in range(n):
                    lhs = zero
                    rhs = zero
                    for m in range(n):
                        c1 = scij[m]
                        if c1:
                            lhs = lhs + c1 * a.sc[m][k][l]
                        c2 = scjk[m]
                        if c2:
                            rhs = rhs + c2 * a.sc[i][m][l]
                    if lhs != rhs:
                        out.append(
                            f"associativity fails at (e{i}*e{j})*e{k} vs "
                            f"e{i}*(e{j}*e{k}), coefficient of e{l}"
                        )
    return out


def is_commutative(a: Algebra) -> bool:
    return all(
        a.sc[i][j] == a.sc[j][i] for i in range(a.dim) for j in range(a.dim)
    )


# ---------------------------------------------------------------------------
# subalgebras, centers, centralizers


class Subalgebra:
    """A subalgebra of `parent` spanned by the columns of `incl` (canonical
    column echelon), together with the induced structure constants."""

    __slots__ = ("parent", "subspace", "algebra")

    def __init__(self, parent: Algebra, subspace: Subspace):
        self.parent = parent
        self.subspace = subspace
        d = subspace.dim
        f = parent.field
        # closure + induced structure constants: each product of basis columns
        # must be a combination of basis columns.
        cols = self.incl.columns()
        prods = [parent.multiply(cols[i], cols[j]) for i in range(d) for j in range(d)]
        X = subspace.coords_matrix(Matrix.from_columns(prods, parent.dim, f))
        if X is None:
            raise ValueError("subspace is not closed under multiplication")
        sc = [[X.col_list(i * d + j) for j in range(d)] for i in range(d)]
        unit = subspace.coords(parent.unit)
        if unit is None:
            raise ValueError("subspace does not contain the unit")
        self.algebra = Algebra(d, sc, unit, f)

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
    major) and componentwise product."""
    assert a.field == b.field
    f = a.field
    n, m = a.dim, b.dim
    dim = n * m
    zero = f.zero
    sc = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for p in range(n):
            scip = a.sc[i][p]
            for j in range(m):
                for q in range(m):
                    scjq = b.sc[j][q]
                    row = sc[i * m + j][p * m + q]
                    for r in range(n):
                        c1 = scip[r]
                        if not c1:
                            continue
                        for s in range(m):
                            c2 = scjq[s]
                            if c2:
                                row[r * m + s] = row[r * m + s] + c1 * c2
    unit = [zero] * dim
    for i in range(n):
        if not a.unit[i]:
            continue
        for j in range(m):
            if b.unit[j]:
                unit[i * m + j] = a.unit[i] * b.unit[j]
    name = ""
    if a.name and b.name:
        name = f"{a.name}(x){b.name}"
    return Algebra(dim, sc, unit, f, name)


def opposite_algebra(a: Algebra) -> Algebra:
    sc = [[a.sc[j][i] for j in range(a.dim)] for i in range(a.dim)]
    name = f"{a.name}^op" if a.name else ""
    return Algebra(a.dim, sc, a.unit, a.field, name)


def matrix_algebra(base: Algebra, n: int) -> Algebra:
    """M_n(base): basis E_{ij} (x) e_k at index (i*n + j)*base.dim + k."""
    f = base.field
    d = base.dim
    dim = n * n * d
    zero = f.zero
    sc = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(d):
                row_idx = (i * n + j) * d + k
                for q in range(n):
                    for l in range(d):
                        # (E_ij (x) e_k)(E_jq (x) e_l) = E_iq (x) e_k e_l
                        col_idx = (j * n + q) * d + l
                        row = sc[row_idx][col_idx]
                        for r, c in enumerate(base.sc[k][l]):
                            if c:
                                row[(i * n + q) * d + r] = row[
                                    (i * n + q) * d + r
                                ] + c
    unit = [zero] * dim
    for i in range(n):
        for k in range(d):
            if base.unit[k]:
                unit[(i * n + i) * d + k] = base.unit[k]
    name = f"M{n}({base.name})" if base.name else f"M{n}"
    return Algebra(dim, sc, unit, f, name)


def product_algebra(parts) -> Algebra:
    """Direct product of algebras (componentwise operations)."""
    f = parts[0].field
    assert all(p.field == f for p in parts)
    dim = sum(p.dim for p in parts)
    zero = f.zero
    offs = []
    o = 0
    for p in parts:
        offs.append(o)
        o += p.dim
    sc = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    unit = [zero] * dim
    for p, off in zip(parts, offs):
        for i in range(p.dim):
            unit[off + i] = p.unit[i]
            for j in range(p.dim):
                for k, c in enumerate(p.sc[i][j]):
                    if c:
                        sc[off + i][off + j][off + k] = c
    name = " x ".join(p.name for p in parts) if all(p.name for p in parts) else ""
    return Algebra(dim, sc, unit, f, name)


# -- named constructors ------------------------------------------------------


def alg_k(field=QQ) -> Algebra:
    one = field.one
    return Algebra(1, [[[one]]], [one], field, "k")


def alg_matrix(n: int, field=QQ) -> Algebra:
    return matrix_algebra(alg_k(field), n)


def alg_product_k(m: int, field=QQ) -> Algebra:
    a = product_algebra([alg_k(field) for _ in range(m)])
    a.name = f"k^{m}"
    return a


def alg_dual_numbers(field=QQ) -> Algebra:
    """k[x]/(x^2): basis (1, x)."""
    z, o = field.zero, field.one
    sc = [
        [[o, z], [z, o]],
        [[z, o], [z, z]],
    ]
    return Algebra(2, sc, [o, z], field, "dual_numbers")


def alg_group_c2(field=QQ) -> Algebra:
    """Group algebra of C2: basis (1, g) with g^2 = 1."""
    z, o = field.zero, field.one
    sc = [
        [[o, z], [z, o]],
        [[z, o], [o, z]],
    ]
    return Algebra(2, sc, [o, z], field, "group:C2")


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
        assert mat.rows == tgt.dim and mat.cols == src.dim
        assert src.field == tgt.field
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
    """Violations of unitality/multiplicativity; empty == algebra map."""
    out = []
    if f.apply(f.src.unit) != f.tgt.unit:
        out.append("unit is not preserved")
    for i in range(f.src.dim):
        fi = f.apply(f.src.basis_vector(i))
        for j in range(f.src.dim):
            fj = f.apply(f.src.basis_vector(j))
            lhs = f.apply(f.src.multiply(f.src.basis_vector(i), f.src.basis_vector(j)))
            rhs = f.tgt.multiply(fi, fj)
            if lhs != rhs:
                out.append(f"multiplicativity fails at (e{i}, e{j})")
    return out


def identity_map(a: Algebra) -> AlgebraMap:
    return AlgebraMap(a, a, Matrix.identity(a.dim, a.field))


def compose_maps(g: AlgebraMap, f: AlgebraMap) -> AlgebraMap:
    """g after f."""
    assert f.tgt.equal_on_the_nose(g.src), "composition type mismatch"
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
    assert not validate_algebra_map(g)
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
