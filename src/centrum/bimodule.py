"""Bimodules over pairs of algebras, their hom spaces, and fibered tensor
products M (x)_B N realized as explicit quotients with projection/section
witnesses.

Conventions:
  * actions are matrices acting on column vectors from the left;
  * lact[i] is the action of the i-th basis vector of the left algebra and is
    multiplicative (lact[e_i e_j] = lact[i] lact[j]);
  * ract[j] is the action of the j-th basis vector of the right algebra and is
    anti-multiplicative as a matrix family (ract[e_i e_j] = ract[j] ract[i]),
    which is what "right action" means once maps act from the left;
  * tensor products index the left factor major: (i, j) -> i * dimN + j.

Every descended map (induced maps, tensor actions, descended composition)
verifies the coequalizer property exactly at construction; failure raises.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, AlgebraMap
from .exactla import (
    FlatWitness,
    Matrix,
    Subspace,
    cokernel,
    inverse,
    kernel,
    quotient_induced,
)


class Bimodule:
    """An (A, B)-bimodule: left action of A, right action of B, commuting."""

    __slots__ = ("left", "right", "dim", "lact", "ract", "name")

    def __init__(self, left: Algebra, right: Algebra, dim: int, lact, ract, name=""):
        assert left.field == right.field
        assert len(lact) == left.dim and len(ract) == right.dim
        for m in list(lact) + list(ract):
            assert m.shape == (dim, dim)
        self.left = left
        self.right = right
        self.dim = dim
        self.lact = list(lact)
        self.ract = list(ract)
        self.name = name

    @property
    def field(self):
        return self.left.field

    def lact_of(self, x) -> Matrix:
        """Action matrix of an element x of the left algebra."""
        out = Matrix.zeros(self.dim, self.dim, self.field)
        for i, xi in enumerate(x):
            if xi:
                out = out + self.lact[i].scale(xi)
        return out

    def ract_of(self, y) -> Matrix:
        """Action matrix of an element y of the right algebra."""
        out = Matrix.zeros(self.dim, self.dim, self.field)
        for j, yj in enumerate(y):
            if yj:
                out = out + self.ract[j].scale(yj)
        return out

    def __repr__(self):
        tag = f" {self.name}" if self.name else ""
        return f"Bimodule(dim {self.dim}{tag})"


def validate_bimodule(m: Bimodule) -> list[str]:
    """Violations of the bimodule axioms; empty == valid."""
    out = []
    A, B = m.left, m.right
    I = Matrix.identity(m.dim, m.field)
    if m.lact_of(A.unit) != I:
        out.append("left action is not unital")
    if m.ract_of(B.unit) != I:
        out.append("right action is not unital")
    for i in range(A.dim):
        for j in range(A.dim):
            prod = m.lact_of(A.multiply(A.basis_vector(i), A.basis_vector(j)))
            if prod != m.lact[i] @ m.lact[j]:
                out.append(f"left action not multiplicative at (e{i}, e{j})")
    for i in range(B.dim):
        for j in range(B.dim):
            prod = m.ract_of(B.multiply(B.basis_vector(i), B.basis_vector(j)))
            if prod != m.ract[j] @ m.ract[i]:
                out.append(f"right action not anti-multiplicative at (e{i}, e{j})")
    for i in range(A.dim):
        for j in range(B.dim):
            if m.lact[i] @ m.ract[j] != m.ract[j] @ m.lact[i]:
                out.append(f"actions do not commute at (left e{i}, right e{j})")
    return out


# ---------------------------------------------------------------------------
# standard bimodules


def regular_bimodule(a: Algebra) -> Bimodule:
    """A as an (A, A)-bimodule by multiplication."""
    lact = [a.left_mult(a.basis_vector(i)) for i in range(a.dim)]
    ract = [a.right_mult(a.basis_vector(i)) for i in range(a.dim)]
    return Bimodule(a, a, a.dim, lact, ract, name=f"reg({a.name})" if a.name else "")


def restriction_bimodule(f: AlgebraMap) -> Bimodule:
    """The target of f as a (src, tgt)-bimodule: the source acts through f."""
    b = f.tgt
    lact = [b.left_mult(f.apply(f.src.basis_vector(i))) for i in range(f.src.dim)]
    ract = [b.right_mult(b.basis_vector(j)) for j in range(b.dim)]
    return Bimodule(f.src, b, b.dim, lact, ract)


def free_bimodule(a: Algebra, b: Algebra, d: int) -> Bimodule:
    """A (x) k^d (x) B with outer multiplication actions."""
    Ib = Matrix.identity(b.dim, a.field)
    Id = Matrix.identity(d, a.field)
    Ia = Matrix.identity(a.dim, a.field)
    lact = [a.left_mult(a.basis_vector(i)).kron(Id).kron(Ib) for i in range(a.dim)]
    ract = [Ia.kron(Id).kron(b.right_mult(b.basis_vector(j))) for j in range(b.dim)]
    return Bimodule(a, b, a.dim * d * b.dim, lact, ract)


def direct_sum_bimodules(parts) -> Bimodule:
    """Direct sum of bimodules over the same pair of algebras."""
    a, b = parts[0].left, parts[0].right
    f = parts[0].field
    assert all(
        (p.left is a or p.left.equal_on_the_nose(a))
        and (p.right is b or p.right.equal_on_the_nose(b))
        for p in parts
    )
    dim = sum(p.dim for p in parts)

    def block_diag(mats):
        out = Matrix.zeros(dim, dim, f)
        off = 0
        for m in mats:
            for i in range(m.rows):
                for j in range(m.cols):
                    out.data[off + i][off + j] = m.data[i][j]
            off += m.rows
        return out

    lact = [block_diag([p.lact[i] for p in parts]) for i in range(a.dim)]
    ract = [block_diag([p.ract[j] for p in parts]) for j in range(b.dim)]
    return Bimodule(a, b, dim, lact, ract)


def twist_bimodule(m: Bimodule, P: Matrix) -> Bimodule:
    """Transport the actions along an invertible change of basis P."""
    Pinv = inverse(P)
    assert Pinv is not None, "change of basis must be invertible"
    lact = [P @ L @ Pinv for L in m.lact]
    ract = [P @ R @ Pinv for R in m.ract]
    return Bimodule(m.left, m.right, m.dim, lact, ract)


# ---------------------------------------------------------------------------
# bimodule maps and hom spaces


class BimoduleMap:
    """A linear map of bimodules over the same pair, as a matrix."""

    __slots__ = ("src", "tgt", "mat")

    def __init__(self, src: Bimodule, tgt: Bimodule, mat: Matrix):
        for a, b in ((src.left, tgt.left), (src.right, tgt.right)):
            if not (a is b or a.equal_on_the_nose(b)):
                raise ValueError("bimodule map: source and target pairs do not match")
        assert mat.rows == tgt.dim and mat.cols == src.dim
        self.src = src
        self.tgt = tgt
        self.mat = mat

    def apply(self, vec):
        return self.mat.apply(vec)

    def __repr__(self):
        return f"BimoduleMap({self.src.dim} -> {self.tgt.dim})"


def identity_bimodule_map(m: Bimodule) -> BimoduleMap:
    return BimoduleMap(m, m, Matrix.identity(m.dim, m.field))


def validate_bimodule_map(f: BimoduleMap) -> list[str]:
    """Violations of equivariance for both actions; empty == valid."""
    out = []
    for i in range(f.src.left.dim):
        if f.mat @ f.src.lact[i] != f.tgt.lact[i] @ f.mat:
            out.append(f"does not intertwine left action of e{i}")
    for j in range(f.src.right.dim):
        if f.mat @ f.src.ract[j] != f.tgt.ract[j] @ f.mat:
            out.append(f"does not intertwine right action of e{j}")
    return out


def hom_space(src: Bimodule, tgt: Bimodule):
    """Basis of the space of bimodule maps src -> tgt over the common pair.

    Returns a list of (tgt.dim x src.dim) matrices.  The basis is canonical:
    the row-major vectorizations form a reduced column echelon basis, so the
    same pair of bimodules always yields the same list.
    """
    f = src.field
    nt, ns = tgt.dim, src.dim
    # X S = T X for every action pair (S of src, T of tgt): its rows on
    # vec(X) are the columns of T^T (x) I - I (x) S
    rel = middle_relations(nt, ns, [T.transpose() for T in tgt.lact + tgt.ract],
                           src.lact + src.ract, f)
    return [Matrix([v[r * ns:(r + 1) * ns] for r in range(nt)], f, ncols=ns)
            for v in kernel(rel.transpose()).basis.columns()]


def hom_coords_matrix(basis, mats, field, message) -> Matrix:
    """Coordinates of the maps mats in a hom-space basis, one column per map;
    raises ValueError(message) if a map lies outside the span.  The basis
    vectorizes to a canonical subspace, so no system is solved."""
    some = basis or mats
    n = some[0].rows * some[0].cols if some else 0

    def vec(X):
        return [a for row in X.data for a in row]

    span = Subspace(n, Matrix.from_columns(map(vec, basis), n, field), field,
                    canonical=True)
    X = span.coords_matrix(Matrix.from_columns(map(vec, mats), n, field))
    if X is None:
        raise ValueError(message)
    return X


def hom_coords(basis, X: Matrix):
    """Coordinates of the map X in a hom-space basis (or None)."""
    outside = "the map lies outside the hom space"
    try:
        return hom_coords_matrix(basis, [X], X.field, outside).col_list(0)
    except ValueError as exc:
        if str(exc) != outside:
            raise
        return None


class EndAlgebra:
    """The endomorphism algebra of a bimodule, with its acting basis.

    Multiplication is composition: e_i * e_j acts as basis[i] o basis[j]."""

    __slots__ = ("bimodule", "basis", "algebra")

    def __init__(self, m: Bimodule):
        self.bimodule = m
        self.basis = hom_space(m, m)
        f = m.field
        mult = hom_coords_matrix(
            self.basis, [x @ y for x in self.basis for y in self.basis], f,
            "endomorphisms must close under composition")
        unit = hom_coords_matrix(self.basis, [Matrix.identity(m.dim, f)], f,
                                 "the identity must lie in the endomorphism space")
        self.algebra = Algebra(mult, unit.col_list(0))

    @property
    def dim(self):
        return self.algebra.dim

    def matrix_of(self, coords) -> Matrix:
        """The endomorphism with the given coordinates, as a matrix."""
        out = Matrix.zeros(self.bimodule.dim, self.bimodule.dim, self.bimodule.field)
        for c, b in zip(coords, self.basis):
            if c:
                out = out + b.scale(c)
        return out

    def __repr__(self):
        return f"EndAlgebra(dim {self.dim})"


def end_algebra(m: Bimodule) -> EndAlgebra:
    return EndAlgebra(m)


def hom_bimodule(src: Bimodule, tgt: Bimodule, end_tgt: EndAlgebra, end_src: EndAlgebra):
    """[src, tgt] as an (End(tgt), End(src))-bimodule by post-/pre-composition.

    Returns (bimodule over (end_tgt.algebra, end_src.algebra), hom basis)."""
    assert end_tgt.bimodule is tgt and end_src.bimodule is src
    basis = hom_space(src, tgt)
    f = src.field
    lact = [hom_operator(basis, basis, lambda b, E=end_tgt.basis[i]: E @ b, f)
            for i in range(end_tgt.dim)]
    ract = [hom_operator(basis, basis, lambda b, E=end_src.basis[j]: b @ E, f)
            for j in range(end_src.dim)]
    return Bimodule(end_tgt.algebra, end_src.algebra, len(basis), lact, ract), basis


def hom_operator(basis_out, basis_in, transform, field) -> Matrix:
    """Matrix, in the coordinates of the hom basis basis_out, of the linear
    map that sends each element of basis_in to transform(element)."""
    return hom_coords_matrix(basis_out, [transform(e) for e in basis_in], field,
                             "operator leaves the hom space")


# ---------------------------------------------------------------------------
# the fibered tensor product


def middle_relations(dim_m: int, dim_n: int, ract_mid, lact_mid, field) -> Matrix:
    """Relation matrix for M (x)_B N: columns span
    { m.b (x) n  -  m (x) b.n } over all middle basis elements b.

    Block b is R_b (x) I - I (x) L_b, written entry by entry: the entry at
    row (i, k), column (j, l) is R_b[i][j] [k == l] - [i == j] L_b[k][l]."""
    n = dim_m * dim_n
    data = [[field.zero] * (n * len(ract_mid)) for _ in range(n)]
    for b, (Rb, Lb) in enumerate(zip(ract_mid, lact_mid)):
        base = b * n
        for i, Ri in enumerate(Rb.data):
            for j, a in enumerate(Ri):
                if a:
                    for k in range(dim_n):
                        data[i * dim_n + k][base + j * dim_n + k] = a
        for i in range(dim_m):
            col = base + i * dim_n
            for k, Lk in enumerate(Lb.data):
                row = data[i * dim_n + k]
                for l, a in enumerate(Lk):
                    if a:
                        row[col + l] = row[col + l] - a
    return Matrix(data, field, ncols=n * len(ract_mid))


class TensorResult:
    """M (x)_B N: the quotient with witnesses plus the induced outer
    bimodule structure over (left of M, right of N); every induced action is
    verified to descend through the quotient."""

    __slots__ = ("left_factor", "right_factor", "quot", "product")

    def __init__(self, m: Bimodule, n: Bimodule):
        assert m.right is n.left or m.right.equal_on_the_nose(n.left), (
            "middle algebras must agree"
        )
        f = m.field
        rel = middle_relations(m.dim, n.dim, m.ract, n.lact, f)
        quot = cokernel(rel)
        In = Matrix.identity(n.dim, f)
        Im = Matrix.identity(m.dim, f)
        lact = [
            quotient_induced(quot, m.lact[i].kron(In), quot) for i in range(m.left.dim)
        ]
        ract = [
            quotient_induced(quot, Im.kron(n.ract[j]), quot) for j in range(n.right.dim)
        ]
        self.left_factor = m
        self.right_factor = n
        self.quot = quot
        self.product = Bimodule(m.left, n.right, quot.dim, lact, ract)

    @property
    def dim(self):
        return self.quot.dim

    def pure(self, mvec, nvec):
        """Class of the pure tensor m (x) n, in quotient coordinates."""
        f = self.left_factor.field
        return self.quot.project(Matrix([mvec], f).kron(Matrix([nvec], f)).data[0])

    def __repr__(self):
        return f"TensorResult(dim {self.dim})"


def tensor_over(m: Bimodule, n: Bimodule) -> TensorResult:
    """The fibered tensor product M (x)_B N over the shared middle algebra."""
    return TensorResult(m, n)


def induced_map(
    phi: BimoduleMap, psi: BimoduleMap, t_src: TensorResult, t_tgt: TensorResult
) -> BimoduleMap:
    """phi (x) psi on the quotients; raises if it does not descend."""
    assert t_src.left_factor is phi.src and t_src.right_factor is psi.src
    assert t_tgt.left_factor is phi.tgt and t_tgt.right_factor is psi.tgt
    mat = quotient_induced(t_tgt.quot, phi.mat.kron(psi.mat), t_src.quot)
    return BimoduleMap(t_src.product, t_tgt.product, mat)


# ---------------------------------------------------------------------------
# bracketings of iterated tensor products and the canonical rebracketing maps


def _bracketing(tree):
    """The tensor product of a bracketing given as nested pairs of
    bimodules, with its witness over the flat tensor of all leaves:
    (bimodule, FlatWitness)."""
    if isinstance(tree, Bimodule):
        return tree, FlatWitness.leaf(tree.dim, tree.field)
    left, wl = _bracketing(tree[0])
    right, wr = _bracketing(tree[1])
    t = tensor_over(left, right)
    return t.product, wl.tensor(wr, t.quot)


_TOWER_DESCENT = "flat map does not descend through the towers"


def _rebracket(src, tgt) -> Matrix:
    """The canonical iso between two bracketings of one leaf sequence."""
    return src.rebracket(tgt, _TOWER_DESCENT)


def assoc_iso(m: Bimodule, n: Bimodule, p: Bimodule):
    """Both bracketings of M (x) N (x) P and the canonical iso between them.

    Returns ((M N) P, M (N P), iso, inverse iso); the iso is checked to be a
    two-sided inverse and an equivariant map.
    """
    bl, wl = _bracketing(((m, n), p))
    br, wr = _bracketing((m, (n, p)))
    fwd = _rebracket(wl, wr)
    bwd = _rebracket(wr, wl)
    f = m.field
    assert (bwd @ fwd) == Matrix.identity(bl.dim, f)
    assert (fwd @ bwd) == Matrix.identity(br.dim, f)
    iso = BimoduleMap(bl, br, fwd)
    bad = validate_bimodule_map(iso)
    assert not bad, f"associator is not equivariant: {bad}"
    return bl, br, iso, BimoduleMap(br, bl, bwd)


def _left_action_collapse(m: Bimodule) -> Matrix:
    """Flat map A (x) M -> M, e_i (x) e_j -> lact[i] e_j (A = left algebra)."""
    cols = []
    for i in range(m.left.dim):
        for j in range(m.dim):
            cols.append(m.lact[i].col_list(j))
    return Matrix.from_columns(cols, m.dim, m.field)


def _right_action_collapse(m: Bimodule) -> Matrix:
    """Flat map M (x) B -> M, e_i (x) e_j -> ract[j] e_i (B = right algebra)."""
    cols = []
    for i in range(m.dim):
        for j in range(m.right.dim):
            cols.append(m.ract[j].col_list(i))
    return Matrix.from_columns(cols, m.dim, m.field)


def unit_iso_left(t: TensorResult) -> BimoduleMap:
    """A (x)_A M -> M, a (x) m -> a.m, with a two-sided inverse checked.

    The left factor must be the regular bimodule of the left algebra."""
    m = t.right_factor
    a = t.left_factor
    f = m.field
    assert a.dim == m.left.dim
    mat = t.quot.descend(_left_action_collapse(m), "action does not descend")
    unit_col = Matrix.from_columns([a.left.unit], a.dim, f)
    back = t.quot.proj @ unit_col.kron(Matrix.identity(m.dim, f))
    assert (mat @ back) == Matrix.identity(m.dim, f)
    assert (back @ mat) == Matrix.identity(t.dim, f)
    return BimoduleMap(t.product, m, mat)


def unit_iso_right(t: TensorResult) -> BimoduleMap:
    """M (x)_B B -> M, m (x) b -> m.b, with a two-sided inverse checked.

    The right factor must be the regular bimodule of the right algebra."""
    m = t.left_factor
    b = t.right_factor
    f = m.field
    assert b.dim == m.right.dim
    mat = t.quot.descend(_right_action_collapse(m), "action does not descend")
    unit_col = Matrix.from_columns([b.left.unit], b.dim, f)
    back = t.quot.proj @ Matrix.identity(m.dim, f).kron(unit_col)
    assert (mat @ back) == Matrix.identity(m.dim, f)
    assert (back @ mat) == Matrix.identity(t.dim, f)
    return BimoduleMap(t.product, m, mat)


def pentagon_check(b1: Bimodule, b2: Bimodule, b3: Bimodule, b4: Bimodule) -> bool:
    """The rebracketing isos of a 4-fold product commute around the pentagon."""
    w1, w2, w3, w4, w5 = (_bracketing(tree)[1] for tree in (
        (((b1, b2), b3), b4),
        ((b1, (b2, b3)), b4),
        ((b1, b2), (b3, b4)),
        (b1, ((b2, b3), b4)),
        (b1, (b2, (b3, b4))),
    ))
    two_step = _rebracket(w3, w5) @ _rebracket(w1, w3)
    three_step = _rebracket(w4, w5) @ _rebracket(w2, w4) @ _rebracket(w1, w2)
    return two_step == three_step


def triangle_check(m: Bimodule, n: Bimodule) -> bool:
    """(M (x) B) (x) N -> M (x) (B (x) N) is compatible with the unit isos:
    (1 (x) collapse) o rebracket == (collapse (x) 1)."""
    B = regular_bimodule(m.right)
    _, wl = _bracketing(((m, B), n))
    _, wr = _bracketing((m, (B, n)))
    _, target = _bracketing((m, n))
    alpha = _rebracket(wl, wr)
    f = m.field
    left_map = wl.descend(
        target.proj @ _right_action_collapse(m).kron(Matrix.identity(n.dim, f)),
        _TOWER_DESCENT)
    right_map = wr.descend(
        target.proj @ Matrix.identity(m.dim, f).kron(_left_action_collapse(n)),
        _TOWER_DESCENT)
    return (right_map @ alpha) == left_map


def interchange_check(xi: BimoduleMap, zeta: BimoduleMap) -> bool:
    """(xi (x) 1') o (1 (x) zeta) == (1' (x) zeta) o (xi (x) 1) == xi (x) zeta
    as maps M (x)_B N -> M' (x)_B N'."""
    M, Mp = xi.src, xi.tgt
    N, Np = zeta.src, zeta.tgt
    t_m_n = tensor_over(M, N)
    t_mp_n = tensor_over(Mp, N)
    t_m_np = tensor_over(M, Np)
    t_mp_np = tensor_over(Mp, Np)
    first = (
        induced_map(xi, identity_bimodule_map(Np), t_m_np, t_mp_np).mat
        @ induced_map(identity_bimodule_map(M), zeta, t_m_n, t_m_np).mat
    )
    second = (
        induced_map(identity_bimodule_map(Mp), zeta, t_mp_n, t_mp_np).mat
        @ induced_map(xi, identity_bimodule_map(N), t_m_n, t_mp_n).mat
    )
    both = induced_map(xi, zeta, t_m_n, t_mp_np).mat
    return first == second == both


# ---------------------------------------------------------------------------
# composition of hom spaces and its descent to the fibered tensor product


@dataclass(slots=True, eq=False)
class CompBarResult:
    """Composition descended to [N,P] (x)_{[N,N]} [M,N] -> [M,P]: the unique
    map whose composite with the quotient map is plain composition.

    Fields: tensor (the fibered product of hom bimodules), mat (matrix in the
    canonical hom bases), map (as an equivariant map over ([P,P], [M,M])),
    is_iso, and the three hom bases."""

    tensor: TensorResult
    mat: Matrix
    map: BimoduleMap
    is_iso: bool
    basis_np: list
    basis_mn: list
    basis_mp: list


def comp_bar(m: Bimodule, n: Bimodule, p: Bimodule) -> CompBarResult:
    """Descend composition [N,P] x [M,N] -> [M,P] through the fibered tensor
    product over [N,N]; the coequalizer property is verified exactly."""
    f = m.field
    end_m = end_algebra(m)
    end_n = end_algebra(n)
    end_p = end_algebra(p)
    hom_np, basis_np = hom_bimodule(n, p, end_p, end_n)
    hom_mn, basis_mn = hom_bimodule(m, n, end_n, end_m)
    hom_mp, basis_mp = hom_bimodule(m, p, end_p, end_m)
    tensor = tensor_over(hom_np, hom_mn)
    comp = hom_coords_matrix(basis_mp, [x @ y for x in basis_np for y in basis_mn], f,
                             "composite leaves the hom space")
    mat = tensor.quot.descend(
        comp, "composition does not factor through the middle tensor")
    map_ = BimoduleMap(tensor.product, hom_mp, mat)
    bad = validate_bimodule_map(map_)
    assert not bad, f"descended composition is not equivariant: {bad}"
    is_iso = inverse(mat) is not None
    return CompBarResult(tensor, mat, map_, is_iso, basis_np, basis_mn, basis_mp)
