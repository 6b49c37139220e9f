"""Reusable corpus builders and seeded random generators: commutative
algebras, cospans with central legs, 2-diagram grids, bimodules, and
composable chains of algebra maps.

Everything is deterministic given the caller's random.Random instance.
"""

from __future__ import annotations

from .algebra import (
    Algebra,
    AlgebraMap,
    alg_dual_numbers,
    alg_group_c2,
    alg_k,
    alg_matrix,
    alg_product_k,
    compose_maps,
    identity_map,
    tensor_algebra,
    unit_column,
    unit_map,
)
from .bimodule import (
    Bimodule,
    BimoduleMap,
    direct_sum_bimodules,
    free_bimodule,
    hom_space,
    regular_bimodule,
    twist_bimodule,
)
from .cospanbicat import (
    Cospan,
    TwoDiagram,
    cospan_morphism_2diagram,
    identity_2diagram,
)
from .exactla import (
    QQ,
    Matrix,
    combination,
    inverse,
    is_invertible,
    memoised,
    random_matrix,
    same_content,
)


# ---------------------------------------------------------------------------
# commutative algebras


def commutative_pool(field=QQ):
    """Small commutative algebras: a field line and split and non-split
    two-dimensional algebras."""
    return [
        alg_k(field),
        alg_product_k(2, field),
        alg_dual_numbers(field),
        alg_group_c2(field),
    ]


# ---------------------------------------------------------------------------
# cospans


def tensor_product_cospan(a: Algebra, b: Algebra) -> Cospan:
    """A -> A (x) B <- B with the outer inclusions; legs are central because
    the tensor factors commute and A, B are commutative."""
    apex = tensor_algebra(a, b)
    f = a.field
    # x -> x (x) 1 and y -> 1 (x) y
    leg_a = Matrix.identity(a.dim, f).kron(unit_column(b))
    leg_b = unit_column(a).kron(Matrix.identity(b.dim, f))
    return Cospan(AlgebraMap(a, apex, leg_a), AlgebraMap(b, apex, leg_b))


def extend_cospan(c: Cospan, ext: Algebra):
    """Tensor the apex with a commutative algebra; returns the extended
    cospan and the induced 2-diagram from c to it."""
    # x -> x (x) 1 on the apex
    embed = Matrix.identity(c.apex.dim, ext.field).kron(unit_column(ext))
    h = AlgebraMap(c.apex, tensor_algebra(c.apex, ext), embed)
    new = Cospan(compose_maps(h, c.leg_a), compose_maps(h, c.leg_b))
    return new, cospan_morphism_2diagram(c, new, h)


# ---------------------------------------------------------------------------
# 2-diagrams


def twist_2diagram(d: TwoDiagram, P: Matrix) -> TwoDiagram:
    """Transport a 2-diagram along an invertible change of basis of M."""
    return TwoDiagram(d.src, d.tgt, twist_bimodule(d.M, P), P @ d.f, P @ d.g)


def random_invertible(dim: int, rng, field=QQ, bound=2) -> Matrix:
    while True:
        P = random_matrix(dim, dim, bound, rng, field)
        if is_invertible(P):
            return P


def random_signed_permutation(dim: int, rng, field=QQ) -> Matrix:
    """A uniformly random monomial matrix with entries in {1, -1}: invertible
    by construction and sparse, so twists by it stay cheap exactly."""
    perm = list(range(dim))
    rng.shuffle(perm)
    rows = [[0] * dim for _ in range(dim)]
    for i, j in enumerate(perm):
        rows[i][j] = 1 if rng.random() < 0.5 else -1
    return Matrix.from_int_rows(rows, field)


def random_interchanger_grid(rng, field=QQ):
    """A 2x2 grid (d1p, d1, d2p, d2) sized for interchanger construction:
    left column over (k, B), right column over (B, k), with B of dimension
    at most 2 and at most one proper extension per column.  Five draws, in
    this order: rng.randrange(4) picks B in commutative_pool, two
    rng.randrange(3) pick the left and then the right extension among its
    two-dimensional algebras, and one rng.random() < 0.5 per column, left
    then right, puts the extension in the column's lower 2-diagram."""
    b, ext_l, ext_r = rng.randrange(4), rng.randrange(3), rng.randrange(3)
    low_l, low_r = rng.random() < 0.5, rng.random() < 0.5
    return (*_grid_column(field, b, ext_l, low_l, True),
            *_grid_column(field, b, ext_r, low_r, False))


@memoised
def _grid_column(field, b, ext, low, left):
    """The column (upper, lower) of an interchanger grid: over k (x) B when
    left and B (x) k otherwise, B the b-th algebra of commutative_pool,
    extended by its ext-th two-dimensional algebra in the lower 2-diagram
    when low and in the upper one otherwise; the other is an identity.
    Built once per field: a grid has 48 possible columns per field."""
    pool = commutative_pool(field)
    k, b = alg_k(field), pool[b]
    base = tensor_product_cospan(k, b) if left else tensor_product_cospan(b, k)
    _, d = extend_cospan(base, [a for a in pool if a.dim == 2][ext])
    return (identity_2diagram(d.tgt), d) if low else (d, identity_2diagram(base))


# ---------------------------------------------------------------------------
# bimodules


def random_bimodule(a: Algebra, b: Algebra, rng, max_rank=2) -> Bimodule:
    """A randomly twisted direct sum of free pieces (and the regular piece
    when the two algebras coincide on the nose)."""
    parts = []
    for _ in range(rng.randrange(1, max_rank + 1)):
        if same_content(a, b) and rng.random() < 0.4:
            parts.append(regular_bimodule(a))
        else:
            parts.append(free_bimodule(a, b, 1))
    m = parts[0] if len(parts) == 1 else direct_sum_bimodules(parts)
    return twist_bimodule(m, random_invertible(m.dim, rng, a.field))


def _elementary(n, i, j, field):
    rows = [[1 if (r == i and c == j) else 0 for c in range(n)] for r in range(n)]
    return Matrix.from_int_rows(rows, field)


def col_bimodule(n: int, field=QQ) -> Bimodule:
    """Column vectors as the simple (M_n, k)-bimodule."""
    mn = alg_matrix(n, field)
    k = alg_k(field)
    lact = [_elementary(n, i, j, field) for i in range(n) for j in range(n)]
    return Bimodule(mn, k, n, lact, [Matrix.identity(n, field)], name=f"col{n}")


def row_bimodule(n: int, field=QQ) -> Bimodule:
    """Row vectors as the simple (k, M_n)-bimodule."""
    mn = alg_matrix(n, field)
    k = alg_k(field)
    ract = [_elementary(n, j, i, field) for i in range(n) for j in range(n)]
    return Bimodule(k, mn, n, [Matrix.identity(n, field)], ract, name=f"row{n}")


def random_hom_element(src: Bimodule, tgt: Bimodule, rng):
    """A random equivariant map src -> tgt with coefficients in [-2, 2] on
    the hom basis (zero if the hom space is zero)."""
    basis = hom_space(src, tgt).basis
    f = src.field
    coeffs = [f.from_int(rng.randint(-2, 2)) for _ in basis]
    return BimoduleMap(src, tgt, combination(coeffs, basis,
                                             Matrix.zeros(tgt.dim, src.dim, f)))


# ---------------------------------------------------------------------------
# algebra maps and chains


def conjugation_automorphism(a: Algebra, P: Matrix) -> AlgebraMap:
    """x -> P x P^{-1} on a matrix algebra presented on matrix units."""
    Pinv = inverse(P)
    if Pinv is None:
        raise ValueError("conjugation needs an invertible matrix")
    mat = P.kron(Pinv.transpose())
    return AlgebraMap(a, a, mat)


def diagonal_inclusion(n: int, field=QQ) -> AlgebraMap:
    """k^n -> M_n onto the diagonal matrix units."""
    kn = alg_product_k(n, field)
    mn = alg_matrix(n, field)
    cols = []
    for p in range(n):
        col = [field.zero] * mn.dim
        col[p * n + p] = field.one
        cols.append(col)
    return AlgebraMap(kn, mn, Matrix.from_columns(cols, mn.dim, field))


def algebra_map_pool(field=QQ):
    """Composable algebra maps over a shared family of small algebras."""
    k = alg_k(field)
    k2 = alg_product_k(2, field)
    m2 = alg_matrix(2, field)
    dual = alg_dual_numbers(field)
    c2 = alg_group_c2(field)
    maps = [
        unit_map(m2),
        unit_map(dual),
        unit_map(c2),
        unit_map(k2),
        # split idempotents into diagonal matrix units
        AlgebraMap(k2, m2, Matrix.from_columns(
            [[field.one, field.zero, field.zero, field.zero],
             [field.zero, field.zero, field.zero, field.one]], 4, field)),
        # group generator to the swap matrix
        AlgebraMap(c2, m2, Matrix.from_columns(
            [[field.one, field.zero, field.zero, field.one],
             [field.zero, field.one, field.one, field.zero]], 4, field)),
        # nilpotent to a strictly upper triangular matrix
        AlgebraMap(dual, m2, Matrix.from_columns(
            [[field.one, field.zero, field.zero, field.one],
             [field.zero, field.one, field.zero, field.zero]], 4, field)),
        # swap the two points
        AlgebraMap(k2, k2, Matrix.from_int_rows([[0, 1], [1, 0]], field)),
        # sign of the group generator
        AlgebraMap(c2, c2, Matrix.from_int_rows([[1, 0], [0, -1]], field)),
        # rescale the nilpotent
        AlgebraMap(dual, dual, Matrix.from_int_rows([[1, 0], [0, 2]], field)),
        conjugation_automorphism(m2, Matrix.from_int_rows([[1, 1], [0, 1]], field)),
        identity_map(m2),
        identity_map(dual),
    ]
    return maps


def random_map_chain(rng, length=2, field=QQ, pool=None):
    """A composable chain [f1, f2, ...] with f_{i+1}.src is f_i.tgt."""
    maps = pool if pool is not None else algebra_map_pool(field)
    chain = [maps[rng.randrange(len(maps))]]
    while len(chain) < length:
        nxt = [m for m in maps if m.src is chain[-1].tgt]
        if not nxt:
            chain = [maps[rng.randrange(len(maps))]]
            continue
        chain.append(nxt[rng.randrange(len(nxt))])
    return chain
