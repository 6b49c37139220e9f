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
  * the action of an element is the combination of the basis actions with
    its coordinates;
  * tensor products index the left factor major: (i, j) -> i * dimN + j.

The actions are also structure maps L: A (x) M -> M (the lact side by side)
and R: M (x) B -> M, and the bimodule axioms say that they are associative
with the algebras' multiplications mu and with each other:
L (mu_A (x) 1) = L (1 (x) L), R (1 (x) mu_B) = R (R (x) 1) and
R (L (x) 1) = L (1 (x) R).  validate_bimodule checks each as two
kron_products whose flat column indices line up, once per bimodule content
(memoised).

The hom space [M, N] is an exactla.HomSpace, built once per pair of
bimodules (memoised) from the presentation of M, built once per bimodule
(memoised): generators whose orbits under the operators L_a R_b span M,
and the relations among the orbit columns.  A bimodule map is fixed by the
images of the generators, so hom_space solves only for the images that the
relations allow (nothing to solve when the orbit matrix is square), g dim N
unknowns for g generators, and brings the maps to the canonical (reduced
column echelon) basis of their vectorisations.  Both bimodules must
satisfy the axioms (validate_bimodule), as those of every caller do.
Composites of basis maps, in End, the hom bimodules and comp_bar, are read
in it with HomSpace.product_coords: one slot product each, and no Subspace;
cospanbicat.solve_3cell_family solves for 3-cells inside it.

Every descended map (induced maps, tensor actions, descended composition)
verifies the coequalizer property exactly at construction; failure raises.
Maps of tensor products go through exactla.tensor_induced alone (on bare
quotients in interchange_check), every unit collapse through unit_collapse,
every tensor quotient (the cokernel of middle_relations) through
tensor_quotient, every action through an algebra map (restriction of
scalars) through restrict, and every equivariance test through unequivariant.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from operator import mul

from .algebra import Algebra, AlgebraMap, unit_column
from .exactla import (
    HomSpace,
    Keyed,
    Matrix,
    Quotient,
    Subspace,
    _over_lcm,
    _row_echelon_basis,
    block_diagonal,
    check_cells,
    cokernel,
    combination,
    inverse,
    kernel,
    kron_product,
    memoised,
    mutually_inverse,
    refuse,
    rref,
    same_content,
    slot_products,
    stack_columns,
    stack_rows,
    tensor_induced,
    tensor_permutation_index,
)


class Bimodule(Keyed):
    """An (A, B)-bimodule: left action of A, right action of B, commuting."""

    __slots__ = ("left", "right", "dim", "lact", "ract", "name")

    def __init__(self, left: Algebra, right: Algebra, dim: int, lact, ract, name=""):
        if left.field != right.field:
            raise ValueError("bimodule: the two algebras have different fields")
        if len(lact) != left.dim or len(ract) != right.dim:
            raise ValueError("bimodule: one action matrix per basis vector")
        if any(m.shape != (dim, dim) for m in list(lact) + list(ract)):
            raise ValueError("bimodule: action matrices must be dim x dim")
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
        return combination(x, self.lact, Matrix.zeros(self.dim, self.dim, self.field))

    def ract_of(self, y) -> Matrix:
        """Action matrix of an element y of the right algebra."""
        return combination(y, self.ract, Matrix.zeros(self.dim, self.dim, self.field))

    def __repr__(self):
        tag = f" {self.name}" if self.name else ""
        return f"Bimodule(dim {self.dim}{tag})"


def _differing_columns(lhs: Matrix, rhs: Matrix) -> set:
    """The indices of the columns at which lhs and rhs differ."""
    if lhs == rhs:
        return set()
    return {c for row in (lhs - rhs).num for c, x in enumerate(row) if x}


@memoised
def validate_bimodule(m: Bimodule) -> list[str]:
    """Violations of the bimodule axioms; empty == valid.  Each
    associativity axiom compares two composites of the structure maps (see
    the module docstring), and a differing column names the pair of basis
    elements that acts in it."""
    out = []
    A, B, d = m.left, m.right, m.dim
    a, b = A.dim, B.dim
    I = Matrix.identity(d, m.field)
    if m.lact_of(A.unit) != I:
        out.append("left action is not unital")
    if m.ract_of(B.unit) != I:
        out.append("right action is not unital")
    L, R = left_action_collapse(m), right_action_collapse(m)
    # column ((i, j), k): e_i e_j acting on e_k
    left = {c // d for c in _differing_columns(kron_product(L, [A.mult, d]),
                                               kron_product(L, [a, L]))}
    # column (k, (i, j)): e_i e_j acting on e_k
    right = {c % (b * b) for c in _differing_columns(kron_product(R, [d, B.mult]),
                                                     kron_product(R, [R, b]))}
    # column ((i, k), j): e_i of A and e_j of B acting on e_k
    both = {(c // (d * b), c % b) for c in _differing_columns(
        kron_product(R, [L, b]), kron_product(L, [a, R]))}
    out.extend(f"left action not multiplicative at (e{i}, e{j})"
               for i in range(a) for j in range(a) if i * a + j in left)
    out.extend(f"right action not anti-multiplicative at (e{i}, e{j})"
               for i in range(b) for j in range(b) if i * b + j in right)
    out.extend(f"actions do not commute at (left e{i}, right e{j})"
               for i in range(a) for j in range(b) if (i, j) in both)
    return out


# ---------------------------------------------------------------------------
# standard bimodules


def regular_bimodule(a: Algebra) -> Bimodule:
    """A as an (A, A)-bimodule by multiplication."""
    lact = [a.left_mult(a.basis_vector(i)) for i in range(a.dim)]
    ract = [a.right_mult(a.basis_vector(i)) for i in range(a.dim)]
    return Bimodule(a, a, a.dim, lact, ract, name=f"reg({a.name})" if a.name else "")


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
    if not all(same_content(p.left, a) and same_content(p.right, b)
               for p in parts):
        raise ValueError("direct sum: the parts are over different algebras")
    lact = [block_diagonal([p.lact[i] for p in parts]) for i in range(a.dim)]
    ract = [block_diagonal([p.ract[j] for p in parts]) for j in range(b.dim)]
    return Bimodule(a, b, sum(p.dim for p in parts), lact, ract)


def restrict(m: Bimodule, left: AlgebraMap = None, right: AlgebraMap = None) -> Bimodule:
    """Restriction of scalars: m with its left action pulled back along the
    algebra map left (x acts as left(x) acts on m) and its right action
    along right; a side given no map keeps its action.  Refuses a map
    whose target is not the algebra acting on its side."""
    if any(f and not same_content(f.tgt, acting)
           for f, acting in ((left, m.left), (right, m.right))):
        raise ValueError("restrict: the map does not land in the acting algebra")
    lact = [m.lact_of(x) for x in left.mat.columns()] if left else m.lact
    ract = [m.ract_of(y) for y in right.mat.columns()] if right else m.ract
    return Bimodule(left.src if left else m.left, right.src if right else m.right,
                    m.dim, lact, ract)


def twist_bimodule(m: Bimodule, P: Matrix) -> Bimodule:
    """Transport the actions along an invertible change of basis P."""
    Pinv = inverse(P)
    if Pinv is None:
        raise ValueError("change of basis must be invertible")
    lact = [P @ L @ Pinv for L in m.lact]
    ract = [P @ R @ Pinv for R in m.ract]
    return Bimodule(m.left, m.right, m.dim, lact, ract)


# ---------------------------------------------------------------------------
# bimodule maps and hom spaces


class BimoduleMap(Keyed):
    """A linear map of bimodules over the same pair, as a matrix."""

    __slots__ = ("src", "tgt", "mat")

    def __init__(self, src: Bimodule, tgt: Bimodule, mat: Matrix):
        for a, b in ((src.left, tgt.left), (src.right, tgt.right)):
            if not same_content(a, b):
                raise ValueError("bimodule map: source and target pairs do not match")
        if mat.shape != (tgt.dim, src.dim):
            raise ValueError("bimodule map: matrix shape does not match")
        self.src = src
        self.tgt = tgt
        self.mat = mat

    def __repr__(self):
        return f"BimoduleMap({self.src.dim} -> {self.tgt.dim})"


def identity_bimodule_map(m: Bimodule) -> BimoduleMap:
    return BimoduleMap(m, m, Matrix.identity(m.dim, m.field))


def unequivariant(X: Matrix, src_ops, tgt_ops) -> list:
    """The indices i at which X does not intertwine the operator families:
    X src_ops[i] != tgt_ops[i] X."""
    return [i for i, (S, T) in enumerate(zip(src_ops, tgt_ops)) if X @ S != T @ X]


def validate_bimodule_map(f: BimoduleMap) -> list[str]:
    """Violations of equivariance for both actions; empty == valid."""
    return ([f"does not intertwine left action of e{i}"
             for i in unequivariant(f.mat, f.src.lact, f.tgt.lact)]
            + [f"does not intertwine right action of e{j}"
               for j in unequivariant(f.mat, f.src.ract, f.tgt.ract)])


@dataclass(slots=True, eq=False)
class Presentation:
    """A bimodule m with the generators v_1..v_g whose orbits span it.

    ops holds the operator L_a R_b of m at a * right.dim + b as int rows,
    all over one common denominator that is dropped (a scale changes no
    span).  The orbit matrix Phi, of rank m.dim, has the column ops[q] v_i
    at i * len(ops) + q.  gens is g, pivots the columns at which Phi is
    invertible, inv Phi at pivots inverted, and relations one per other
    column of Phi: the (column, coefficient) pairs of a combination of it
    and the pivot columns that vanishes."""

    ops: list
    gens: int
    pivots: list
    inv: Matrix
    relations: list


@memoised
def presentation(m: Bimodule) -> Presentation:
    """The generators of m: a fixed generic vector, then the standard basis
    vectors that each grow the span of its orbit and of those before them,
    found in one elimination of the orbit beside the identity (they are the
    pivots of the identity block).  Their orbits then span m, and Phi
    beside the identity, eliminated, reads Phi at its pivots inverted (the
    identity block) and each other column of Phi in the pivot columns.
    Refuses (ValueError) a source that the orbits of its vectors do not
    span: its actions are not unital."""
    d, f, p = m.dim, m.field, m.field.p
    lact = stack_rows([Matrix.zeros(0, d, f)] + m.lact)
    # the b-th product holds L_a R_b at rows a * d ...
    prods, _ = _over_lcm(slot_products(lact, m.ract, 1, 1))
    ops = [prod[a * d:(a + 1) * d] for a in range(m.left.dim) for prod in prods]

    def eliminate(gens):
        c = len(gens) * len(ops)
        check_cells(d * (c + d), "the orbit matrix")
        rows = []
        for t in range(d):
            row = [sum(map(mul, O[t], v)) for v in gens for O in ops]
            rows.append(([x % p for x in row] if p else row)
                        + [int(t == u) for u in range(d)])
        return (*rref(Matrix._fresh(rows, f, c + d)), c)

    # entries 1..12 with no pattern: laid out row by row as an n x n matrix
    # the vector is invertible over QQ and GF(1000003) for every n up to
    # 10, so its orbit alone spans M_n(k) as a left module over itself
    gens = [[i * i % 11 + i % 3 + 1 for i in range(d)]] if d else []
    R, beside, c = eliminate(gens)
    if beside[bisect_left(beside, c):]:
        gens += [[int(c + s == j) for s in range(d)] for j in beside if j >= c]
        R, beside, c = eliminate(gens)
    pivots = beside[:bisect_left(beside, c)]
    if len(pivots) < d:
        raise ValueError("hom space: the orbits of the source's vectors do"
                         " not span it; its actions are not unital")
    L = R.den or 1
    minus_L = -L % p if p else -L
    relations = [[(col, minus_L)] + [(pc, R.num[r][col])
                                     for r, pc in enumerate(pivots) if R.num[r][col]]
                 for col in sorted(set(range(c)) - set(pivots))]
    return Presentation(ops, len(gens), pivots, R.select_columns(slice(c, None)),
                        relations)


@memoised
def hom_space(src: Bimodule, tgt: Bimodule) -> HomSpace:
    """The space of bimodule maps src -> tgt over the common pair, as
    (tgt.dim x src.dim) matrices.  Its span is canonical (reduced column
    echelon), so the same pair of bimodules always yields the same basis.

    Precondition: both satisfy the bimodule axioms (validate_bimodule), as
    the inputs of every caller do.  A map X is then fixed by the images w_i
    = X v_i of the generators of src's presentation.  The w allowed are
    those whose orbit columns O_q w_i (O_q the operators of tgt, read off
    its presentation) satisfy each relation among the columns of Phi, and
    X = [O_q w_i]_pivots Phi_pivots^-1, with no system to solve when Phi
    is square.  As rows, w -> vec(X) is Q Phi_pivots^-1 read row by row
    (reshape), Q holding O_q at the pivots."""
    if not (same_content(src.left, tgt.left) and same_content(src.right, tgt.right)):
        raise ValueError("hom space: the bimodules are over different pairs")
    pres, ops = presentation(src), presentation(tgt).ops
    f, p, n, d, g = tgt.field, tgt.field.p, tgt.dim, src.dim, pres.gens
    ab = len(ops)
    check_cells(len(pres.relations) * n * g * n, "the hom space's relations")
    rows = []
    for rel in pres.relations:
        block = [[0] * (g * n) for _ in range(n)]
        for c, coeff in rel:
            off = c // ab * n
            for row, O_t in zip(block, ops[c % ab]):
                for s in compress(range(n), O_t):
                    row[off + s] += coeff * O_t[s]
        rows += [[x % p for x in row] for row in block] if p else block
    check_cells(g * n * n * d, "the hom space's basis maps")
    # Q: row (i, s, t), column j holds O_q[t][s] for the j-th pivot (i, q)
    Q = [[0] * d for _ in range(g * n * n)]
    for j, c in enumerate(pres.pivots):
        off = c // ab * n
        for t, O_t in enumerate(ops[c % ab]):
            for s in compress(range(n), O_t):
                Q[(off + s) * n + t][j] = O_t[s]
    T = (Matrix._fresh(Q, f, d) @ pres.inv).reshape(g * n, n * d)
    if rows:
        T = kernel(Matrix._fresh(rows, f, g * n)).basis.transpose() @ T
    return HomSpace(n, d, Subspace(n * d, _row_echelon_basis(T), f))


# the refusal of a map that a hom-space operator sends out of the space
LEAVES_HOM = "operator leaves the hom space"


@memoised
def end_algebra(m: Bimodule) -> Algebra:
    """The endomorphism algebra of a bimodule on the basis of hom_space(m,
    m): e_i * e_j is basis[i] o basis[j]."""
    H = hom_space(m, m)
    mult = H.product_coords(H, H, "endomorphisms must close under composition")
    unit = H.coords([Matrix.identity(m.dim, m.field)],
                    "the identity must lie in the endomorphism space")
    return Algebra(mult, unit.col_list(0))


def hom_bimodule(src: Bimodule, tgt: Bimodule):
    """[src, tgt] as an (End(tgt), End(src))-bimodule by post-/pre-composition.

    Returns (bimodule over the two endomorphism algebras, HomSpace)."""
    end_tgt, end_src = end_algebra(tgt), end_algebra(src)
    H = hom_space(src, tgt)
    post = H.product_coords(hom_space(tgt, tgt), H, LEAVES_HOM)  # column (E, b): E b
    pre = H.product_coords(H, hom_space(src, src), LEAVES_HOM)  # column (b, E): b E
    d, e = H.dim, end_src.dim
    lact = [post.select_columns(slice(k * d, (k + 1) * d)) for k in range(end_tgt.dim)]
    ract = [pre.select_columns(slice(k, None, e)) for k in range(e)]
    return Bimodule(end_tgt, end_src, H.dim, lact, ract), H


# ---------------------------------------------------------------------------
# the fibered tensor product


def middle_relations(ract_mid, lact_mid) -> Matrix:
    """Relation matrix for M (x)_B N, one relation per row: row (b, j, l)
    is m_j.b (x) n_l  -  m_j (x) b.n_l, for every middle basis element b,
    acting by R_b on M and L_b on N.  The sizes and the field are read off
    the first pair, so a zero-dimensional middle algebra is refused.

    Block b is (R_b (x) I - I (x) L_b)^T, written entry by entry: the entry
    at row (j, l), column (i, k) is R_b[i][j] [k == l] - [i == j] L_b[k][l].
    Over QQ every block is built over the lcm of the denominators of all
    the R_b and L_b (see exactla._over_lcm)."""
    if not ract_mid:
        raise ValueError("middle relations need a middle algebra with a basis")
    dim_m, dim_n, field = ract_mid[0].rows, lact_mid[0].rows, ract_mid[0].field
    n, p = dim_m * dim_n, field.p
    check_cells(len(ract_mid) * n * n, "the middle relations")
    nums, D = _over_lcm(ract_mid + lact_mid)
    data = []
    for Rb, Lb in zip(nums, nums[len(ract_mid):]):
        block = [[0] * n for _ in range(n)]
        for i, Ri in enumerate(Rb):
            for j, a in enumerate(Ri):
                if a:
                    for k in range(dim_n):
                        block[j * dim_n + k][i * dim_n + k] = a
        for k, Lk in enumerate(Lb):
            for l, a in enumerate(Lk):
                if a:
                    for i in range(dim_m):
                        row = block[i * dim_n + l]
                        x = row[i * dim_n + k] - a
                        row[i * dim_n + k] = x % p if p else x
        data += block
    return Matrix.cleared(data, D, field, n)


def tensor_quotient(m: Bimodule, n: Bimodule) -> Quotient:
    """The quotient of M (x) N by the relations over the middle algebra B.
    Over the zero algebra there are none, and M and N are 0."""
    if not same_content(m.right, n.left):
        raise ValueError("middle algebras must agree")
    if not m.ract:
        return cokernel(Matrix.zeros(0, m.dim * n.dim, m.field))
    return cokernel(middle_relations(m.ract, n.lact))


class TensorResult:
    """M (x)_B N: the quotient with witnesses plus the induced outer
    bimodule structure over (left of M, right of N); every induced action is
    verified to descend through the quotient."""

    __slots__ = ("left_factor", "right_factor", "quot", "product")

    def __init__(self, m: Bimodule, n: Bimodule):
        quot = tensor_quotient(m, n)
        # proj @ (L (x) I) for all L in one slot product, proj @ (I (x) R) in another
        lact, ract = ([quot.descend(T, "map does not descend to the quotient")
                       for T in slot_products(quot.proj, ops, left, right)]
                      for ops, left, right in ((m.lact, 1, n.dim), (n.ract, m.dim, 1)))
        self.left_factor = m
        self.right_factor = n
        self.quot = quot
        self.product = Bimodule(m.left, n.right, quot.dim, lact, ract)

    @property
    def dim(self):
        return self.quot.dim

    def __repr__(self):
        return f"TensorResult(dim {self.dim})"


def tensor_over(m: Bimodule, n: Bimodule) -> TensorResult:
    """The fibered tensor product M (x)_B N over the shared middle algebra."""
    return TensorResult(m, n)


def induced_map(
    phi: BimoduleMap, psi: BimoduleMap, t_src: TensorResult, t_tgt: TensorResult
) -> BimoduleMap:
    """phi (x) psi on the quotients; raises if it does not descend."""
    ends = ((t_src.left_factor, phi.src), (t_src.right_factor, psi.src),
            (t_tgt.left_factor, phi.tgt), (t_tgt.right_factor, psi.tgt))
    if not all(same_content(t, m) for t, m in ends):
        raise ValueError("induced_map: the tensor products are not those of"
                         " the maps' sources and targets")
    mat = tensor_induced(t_tgt.quot, [phi.mat, psi.mat], t_src.quot)
    return BimoduleMap(t_src.product, t_tgt.product, mat)


# ---------------------------------------------------------------------------
# bracketings of iterated tensor products and the canonical rebracketing maps


def _bracketing(tree):
    """The tensor product of a bracketing given as nested pairs of
    bimodules, with its quotient of the flat tensor of all leaves:
    (bimodule, Quotient).  A subtree may be given built, as such a pair."""
    if isinstance(tree, Bimodule):
        return tree, Quotient.leaf(tree.dim, tree.field)
    if isinstance(tree[1], Quotient):
        return tree
    (left, wl), (right, wr) = map(_bracketing, tree)
    t = tensor_over(left, right)
    return t.product, wl.tensor(wr, t.quot)


def _root_quotient(tree) -> Quotient:
    """The quotient of a bracketing (a pair) of the flat tensor of all its
    leaves, with no outer action built at the root."""
    (left, wl), (right, wr) = map(_bracketing, tree)
    return wl.tensor(wr, tensor_quotient(left, right))


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
    if not mutually_inverse(fwd, bwd):
        raise ValueError("the associator and its inverse are not mutually inverse")
    iso = BimoduleMap(bl, br, fwd)
    refuse(validate_bimodule_map(iso), "associator is not equivariant")
    return bl, br, iso, BimoduleMap(br, bl, bwd)


def left_action_collapse(m: Bimodule) -> Matrix:
    """Flat map A (x) M -> M, e_i (x) e_j -> lact[i] e_j (A = left algebra):
    the lact side by side."""
    return stack_columns([Matrix.zeros(m.dim, 0, m.field), *m.lact])


def right_action_collapse(m: Bimodule) -> Matrix:
    """Flat map M (x) B -> M, e_i (x) e_j -> ract[j] e_i (B = right algebra):
    the ract side by side, with the columns (j, i) moved to (i, j)."""
    b = m.right.dim
    return stack_columns([Matrix.zeros(m.dim, 0, m.field), *m.ract]).select_columns(
        tensor_permutation_index((m.dim, b), (1, 0)))


def unit_collapse(quot, collapse: Matrix, back_factors, name: str):
    """A unit collapse and its inverse: (collapse descended through quot,
    quot.proj @ (back_factors) as a kron_product, which puts the unit
    back), checked to be two-sided inverses; name names the collapse in
    the refusals."""
    mat = quot.descend(collapse, f"{name} does not descend")
    back = kron_product(quot.proj, back_factors)
    if not mutually_inverse(mat, back):
        raise ValueError(f"{name} is not invertible")
    return mat, back


def unit_iso_left(t: TensorResult) -> BimoduleMap:
    """A (x)_A M -> M, a (x) m -> a.m, with a two-sided inverse checked.

    The left factor must be the regular bimodule of the left algebra."""
    m = t.right_factor
    if t.left_factor.dim != m.left.dim:
        raise ValueError("the left factor is not the left algebra")
    mat, _ = unit_collapse(t.quot, left_action_collapse(m), [unit_column(m.left), m.dim],
                           "the left unit collapse")
    return BimoduleMap(t.product, m, mat)


def unit_iso_right(t: TensorResult) -> BimoduleMap:
    """M (x)_B B -> M, m (x) b -> m.b, with a two-sided inverse checked.

    The right factor must be the regular bimodule of the right algebra."""
    m = t.left_factor
    if t.right_factor.dim != m.right.dim:
        raise ValueError("the right factor is not the right algebra")
    mat, _ = unit_collapse(t.quot, right_action_collapse(m), [m.dim, unit_column(m.right)],
                           "the right unit collapse")
    return BimoduleMap(t.product, m, mat)


def pentagon_commutes(tower, root, rebracket, a, b, c, d) -> bool:
    """The five bracketings of a four-fold product, built from nested pairs
    by root over subtrees built by tower, commute around the pentagon of
    rebracket's comparisons.  The products ab, bc and cd are built once
    each and handed to both bracketings that contain them."""
    ab, bc, cd = tower((a, b)), tower((b, c)), tower((c, d))
    w1, w2, w3, w4, w5 = (root(tree) for tree in (
        ((ab, c), d),
        ((a, bc), d),
        (ab, cd),
        (a, (bc, d)),
        (a, (b, cd)),
    ))
    two_step = rebracket(w3, w5) @ rebracket(w1, w3)
    three_step = rebracket(w4, w5) @ rebracket(w2, w4) @ rebracket(w1, w2)
    return two_step == three_step


def pentagon_check(b1: Bimodule, b2: Bimodule, b3: Bimodule, b4: Bimodule) -> bool:
    """The rebracketing isos of a 4-fold product commute around the pentagon."""
    return pentagon_commutes(_bracketing, _root_quotient, _rebracket,
                             b1, b2, b3, b4)


def triangle_check(m: Bimodule, n: Bimodule) -> bool:
    """(M (x) B) (x) N -> M (x) (B (x) N) is compatible with the unit isos:
    (1 (x) collapse) o rebracket == (collapse (x) 1)."""
    B = regular_bimodule(m.right)
    wl, wr, target = map(_root_quotient, (((m, B), n), (m, (B, n)), (m, n)))
    alpha = _rebracket(wl, wr)
    left_map = tensor_induced(target, [right_action_collapse(m), n.dim], wl,
                              _TOWER_DESCENT)
    right_map = tensor_induced(target, [m.dim, left_action_collapse(n)], wr,
                               _TOWER_DESCENT)
    return (right_map @ alpha) == left_map


def interchange_check(xi: BimoduleMap, zeta: BimoduleMap) -> bool:
    """(xi (x) 1') o (1 (x) zeta) == (1' (x) zeta) o (xi (x) 1) == xi (x) zeta
    as maps M (x)_B N -> M' (x)_B N', each induced on the bare quotients with
    its identity factor as an int."""
    M, Mp, N, Np = xi.src, xi.tgt, zeta.src, zeta.tgt
    q_m_n, q_mp_n, q_m_np, q_mp_np = (tensor_quotient(m, n) for m, n in (
        (M, N), (Mp, N), (M, Np), (Mp, Np)))
    first = (tensor_induced(q_mp_np, [xi.mat, Np.dim], q_m_np)
             @ tensor_induced(q_m_np, [M.dim, zeta.mat], q_m_n))
    second = (tensor_induced(q_mp_np, [Mp.dim, zeta.mat], q_mp_n)
              @ tensor_induced(q_mp_n, [xi.mat, N.dim], q_m_n))
    both = tensor_induced(q_mp_np, [xi.mat, zeta.mat], q_m_n)
    return first == second == both


# ---------------------------------------------------------------------------
# composition of hom spaces and its descent to the fibered tensor product


@dataclass(slots=True, eq=False)
class CompBarResult:
    """Composition descended to [N,P] (x)_{[N,N]} [M,N] -> [M,P]: the unique
    map whose composite with the quotient map is plain composition.

    Fields: tensor (the fibered product of hom bimodules) and mat (matrix in
    the canonical hom bases of hom_space(n, p), hom_space(m, n) and
    hom_space(m, p)), checked equivariant over ([P,P], [M,M])."""

    tensor: TensorResult
    mat: Matrix


def comp_bar(m: Bimodule, n: Bimodule, p: Bimodule) -> CompBarResult:
    """Descend composition [N,P] x [M,N] -> [M,P] through the fibered tensor
    product over [N,N]; the coequalizer property is verified exactly."""
    bim_np, hom_np = hom_bimodule(n, p)
    bim_mn, hom_mn = hom_bimodule(m, n)
    bim_mp, hom_mp = hom_bimodule(m, p)
    tensor = tensor_over(bim_np, bim_mn)
    comp = hom_mp.product_coords(hom_np, hom_mn, "composite leaves the hom space")
    mat = tensor.quot.descend(
        comp, "composition does not factor through the middle tensor")
    refuse(validate_bimodule_map(BimoduleMap(tensor.product, bim_mp, mat)),
           "descended composition is not equivariant")
    return CompBarResult(tensor, mat)
