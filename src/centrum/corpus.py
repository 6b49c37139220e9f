"""Seeded verification batteries over fixed fixture corpora.

Each battery draws deterministic instances from the fixtures, runs one family
of exact checks, and returns a CoherenceReport with per-instance verdicts.
`run_all` drives the full set; `scale` shrinks instance counts for quick
smoke runs (1.0 = the full battery sizes).

All arithmetic is exact; every comparison in every battery is equality on
the nose, never a tolerance.
"""

from __future__ import annotations

import math
import random as _random
from fractions import Fraction

from .algebra import (
    AlgebraMap,
    alg_dual_numbers,
    alg_group_c2,
    alg_k,
    alg_matrix,
    alg_product_k,
    center,
    centralizer,
    identity_map,
    unit_map,
    validate_algebra_map,
)
from .bimodule import (
    Bimodule,
    assoc_iso,
    direct_sum_bimodules,
    free_bimodule,
    interchange_check,
    pentagon_check,
    regular_bimodule,
    tensor_over,
    triangle_check,
    twist_bimodule,
    unit_iso_left,
    unit_iso_right,
    validate_bimodule,
)
from .cospanbicat import (
    CoherenceReport,
    Cospan,
    TwoDiagram,
    beta_cell,
    check_beta_naturality,
    find_invertible_3cell,
    identity_2diagram,
    identity_cospan,
    is_invertible_2diagram,
    is_invertible_cospan,
    validate_2diagram,
    validate_3cell,
)
from .exactla import Matrix, QQ, inverse, kernel, rank, stack_rows
from .fixtures import (
    algebra_map_pool,
    col_bimodule,
    diagonal_inclusion,
    random_bimodule,
    random_hom_element,
    random_interchanger_grid,
    random_invertible,
    random_map_chain,
    random_signed_permutation,
    row_bimodule,
    tensor_product_cospan,
    twist_2diagram,
)
from .fullcenter import (
    Z_hom,
    check_theorem58_hypotheses,
    morita_center_check,
    mult_transform,
    verify_lax_functor,
)


def _count(base: int, scale: float) -> int:
    return max(1, math.ceil(base * scale))


# ---------------------------------------------------------------------------
# centers and centralizers against brute-force commutators


def _commutator_kernel_dim(alg, elements) -> int:
    """Dimension of the joint kernel of x -> xe - ex over the given
    elements, assembled directly from the multiplication operators."""
    blocks = [alg.left_mult(e) - alg.right_mult(e) for e in elements]
    return kernel(stack_rows(blocks)).dim


def center_battery(rng, scale=1.0, field=QQ) -> CoherenceReport:
    """Centers of matrix algebras and the centralizer of the diagonal
    inclusion, cross-checked by brute-force commutators on all basis pairs."""
    rep = CoherenceReport()
    for n in (2, 3):
        a = alg_matrix(n, field)
        z = center(a)
        rep.add(f"center of matrix:{n} is the scalars", z.dim == 1,
                f"dim {z.dim}")
        basis = [z.embed(z.algebra.basis_vector(i)) for i in range(z.dim)]
        sound = all(
            a.multiply(v, a.basis_vector(i)) == a.multiply(a.basis_vector(i), v)
            for v in basis for i in range(a.dim))
        rep.add(f"center of matrix:{n} commutes on all basis pairs", sound)
        full = _commutator_kernel_dim(a, [a.basis_vector(i) for i in range(a.dim)])
        rep.add(f"center of matrix:{n} is the whole commutator kernel",
                full == z.dim, f"kernel dim {full}")
    f = diagonal_inclusion(2, field)
    c = centralizer(f)
    rep.add("diagonal centralizer has dimension 2", c.dim == 2, f"dim {c.dim}")
    expected = Matrix.from_int_rows(
        [[1, 0], [0, 0], [0, 0], [0, 1]], field)
    rep.add("diagonal centralizer equals the diagonal subalgebra",
            c.incl == expected)
    image = [f.mat.apply(f.src.basis_vector(i)) for i in range(f.src.dim)]
    basis = [c.embed(c.algebra.basis_vector(i)) for i in range(c.dim)]
    sound = all(
        f.tgt.multiply(v, w) == f.tgt.multiply(w, v)
        for v in basis for w in image)
    rep.add("centralizer commutes with the image on all basis pairs", sound)
    full = _commutator_kernel_dim(f.tgt, image)
    rep.add("centralizer is the whole commutator kernel", full == c.dim,
            f"kernel dim {full}")
    return rep


# ---------------------------------------------------------------------------
# fibered tensor products: quotient witnesses, unit/associator isos, coherence


def _small_algebra_pool(field):
    return [
        alg_k(field),
        alg_product_k(2, field),
        alg_dual_numbers(field),
        alg_group_c2(field),
        alg_matrix(2, field),
    ]


def _random_small_bimodule(a, b, rng, field):
    max_rank = 2 if a.dim * b.dim <= 2 else 1
    return random_bimodule(a, b, rng, max_rank=max_rank)


def random_pentagon_chain(rng, field=QQ):
    """Four composable random bimodules over small algebras, resampled so the
    four-fold flat tensor stays small enough for exact bulk arithmetic."""
    small = _small_algebra_pool(field)[:4]
    while True:
        algs = [small[rng.randrange(len(small))] for _ in range(5)]
        flat = 1
        for i in range(4):
            flat *= algs[i].dim * algs[i + 1].dim
        if flat <= 64:
            break
    return [random_bimodule(algs[i], algs[i + 1], rng, max_rank=1)
            for i in range(4)]


def coequalizer_battery(rng, scale=1.0, field=QQ) -> CoherenceReport:
    """Quotient witnesses of the fibered tensor product on random pairs,
    invertibility of the unit and associator isos, and the pentagon and
    triangle identities on random composable instances."""
    rep = CoherenceReport()
    pool = _small_algebra_pool(field)
    middles = pool[:4]
    pairs_ok = 0
    n_pairs = _count(200, scale)
    for _ in range(n_pairs):
        a, c = (pool[rng.randrange(len(pool))] for _ in range(2))
        # keep the flat tensor small enough for exact arithmetic in bulk
        if a.dim > 2 or c.dim > 2:
            b = alg_k(field)
        else:
            b = middles[rng.randrange(len(middles))]
        m = _random_small_bimodule(a, b, rng, field)
        n = _random_small_bimodule(b, c, rng, field)
        t = tensor_over(m, n)
        q = t.quot
        ok = (q.proj @ q.sect) == Matrix.identity(t.dim, field)
        ok = ok and (q.proj @ q.relations).is_zero()
        ok = ok and validate_bimodule(t.product) == []
        ok = ok and t.dim == q.ambient - rank(q.relations)
        pairs_ok += ok
    rep.add("tensor quotient witnesses on random pairs",
            pairs_ok == n_pairs, f"{pairs_ok}/{n_pairs}")
    units_ok = 0
    n_units = _count(50, scale)
    for _ in range(n_units):
        a, b = (pool[rng.randrange(len(pool))] for _ in range(2))
        m = _random_small_bimodule(a, b, rng, field)
        lu = unit_iso_left(tensor_over(regular_bimodule(a), m))
        ru = unit_iso_right(tensor_over(m, regular_bimodule(b)))
        ok = True
        for u in (lu, ru):
            inv = inverse(u.mat)
            ok = ok and inv is not None
            ok = ok and (u.mat @ inv) == Matrix.identity(u.mat.rows, field)
            ok = ok and (inv @ u.mat) == Matrix.identity(u.mat.cols, field)
        units_ok += ok
    rep.add("unit isos two-sided invertible", units_ok == n_units,
            f"{units_ok}/{n_units}")
    assoc_ok = 0
    n_assoc = _count(50, scale)
    small = pool[:4]
    for _ in range(n_assoc):
        a, b, c, d = (small[rng.randrange(len(small))] for _ in range(4))
        m = random_bimodule(a, b, rng, max_rank=1)
        n = random_bimodule(b, c, rng, max_rank=1)
        p = random_bimodule(c, d, rng, max_rank=1)
        _, _, iso, inv = assoc_iso(m, n, p)
        ok = (inv.mat @ iso.mat) == Matrix.identity(iso.mat.cols, field)
        ok = ok and (iso.mat @ inv.mat) == Matrix.identity(iso.mat.rows, field)
        assoc_ok += ok
    rep.add("associator isos two-sided invertible", assoc_ok == n_assoc,
            f"{assoc_ok}/{n_assoc}")
    pent_ok = tri_ok = 0
    n_coh = _count(50, scale)
    for _ in range(n_coh):
        chain = random_pentagon_chain(rng, field)
        pent_ok += pentagon_check(*chain)
        tri_ok += triangle_check(chain[0], chain[1])
    rep.add("pentagon identity on random chains", pent_ok == n_coh,
            f"{pent_ok}/{n_coh}")
    rep.add("triangle identity on random chains", tri_ok == n_coh,
            f"{tri_ok}/{n_coh}")
    return rep


# ---------------------------------------------------------------------------
# the interchanger of horizontal composition


def interchanger_battery(rng, scale=1.0, field=QQ) -> CoherenceReport:
    """On random 2x2 grids: the interchanger is a two-sided invertible
    verified 3-cell and is natural under componentwise twists."""
    rep = CoherenceReport()
    n_inst = _count(100, scale)
    n_ok = 0
    detail = ""
    for i in range(n_inst):
        grid = random_interchanger_grid(rng, field)
        bd = beta_cell(*grid)
        ok = (bd.cell.mat @ bd.inverse_cell.mat) == Matrix.identity(
            bd.tgt_diagram.M.dim, field)
        ok = ok and (bd.inverse_cell.mat @ bd.cell.mat) == Matrix.identity(
            bd.src_diagram.M.dim, field)
        ok = ok and validate_3cell(bd.cell) == []
        ok = ok and validate_3cell(bd.inverse_cell) == []
        # sparse twists on the large coordinates keep exact arithmetic cheap
        ps = [random_signed_permutation(x.M.dim, rng, field) if x.M.dim >= 4
              else random_invertible(x.M.dim, rng, field, bound=1)
              for x in grid]
        twisted = tuple(twist_2diagram(x, P) for x, P in zip(grid, ps))
        be = beta_cell(*twisted)
        ok = ok and check_beta_naturality(bd, be, *ps)
        n_ok += ok
        if not ok and not detail:
            detail = f"first failure at instance {i}"
    rep.add("interchanger two-sided, verified, natural",
            n_ok == n_inst, detail or f"{n_ok}/{n_inst}")
    return rep


# ---------------------------------------------------------------------------
# the lax structure on composable algebra maps


def lax_functor_battery(rng, scale=1.0, field=QQ) -> CoherenceReport:
    """Multiplication comparison maps on random composable chains: algebra
    homomorphism property, associativity, unit collapses; plus the
    documented rank-drop witness showing the comparison is not invertible."""
    rep = CoherenceReport()
    pool = algebra_map_pool(field)
    n_inst = _count(100, scale)
    n_ok = 0
    detail = ""
    for i in range(n_inst):
        chain = random_map_chain(rng, length=3, field=field, pool=pool)
        sub = verify_lax_functor(chain)
        n_ok += sub.ok
        if not sub.ok and not detail:
            bad = [e["name"] for e in sub.entries if not e["ok"]]
            detail = f"instance {i} failed: {bad}"
    rep.add("lax structure on random chains", n_ok == n_inst,
            detail or f"{n_ok}/{n_inst}")
    mt = mult_transform(unit_map(alg_product_k(2, field)),
                        diagonal_inclusion(2, field))
    rep.add("rank-drop witness on scalars -> diagonal -> matrices",
            mt.rank == 2 and mt.codomain_dim == 4 and not mt.is_iso,
            f"rank {mt.rank} < codomain dim {mt.codomain_dim}")
    rep.add("witness multiplication map is still an algebra map",
            validate_algebra_map(mt.m) == [])
    return rep


# ---------------------------------------------------------------------------
# Morita invariance of the center


def morita_battery(rng, scale=1.0, field=QQ) -> CoherenceReport:
    """z -> z . identity is an algebra isomorphism onto the center of every
    matrix amplification in the pool."""
    rep = CoherenceReport()
    pool = [
        alg_k(field),
        alg_product_k(2, field),
        alg_dual_numbers(field),
        alg_group_c2(field),
        alg_matrix(2, field),
    ]
    for a in pool:
        for n in (2, 3):
            res = morita_center_check(a, n)
            rep.add(f"center preserved under {n}x{n} amplification of "
                    f"{a.name or 'algebra'}",
                    res.ok and res.z_small.dim == res.z_big.dim,
                    f"dim {res.z_small.dim} == {res.z_big.dim}")
    return rep


# ---------------------------------------------------------------------------
# invertible cospans and 2-diagrams


def _automorphism_pool(field):
    k2 = alg_product_k(2, field)
    c2 = alg_group_c2(field)
    du = alg_dual_numbers(field)
    swap = AlgebraMap(k2, k2, Matrix.from_int_rows([[0, 1], [1, 0]], field))
    sign = AlgebraMap(c2, c2, Matrix.from_int_rows([[1, 0], [0, -1]], field))
    # 3 is zero in characteristic 3, so take the first of 3, 2, 1 that is not
    c = next(c for c in (3, 2, 1) if field.from_int(c))
    rescale = AlgebraMap(du, du, Matrix.from_int_rows([[1, 0], [0, c]], field))
    out = []
    for a, autos in ((k2, [swap]), (c2, [sign]), (du, [rescale])):
        for f in autos:
            assert validate_algebra_map(f) == []
        out.append((a, [identity_map(a)] + autos))
    return out


def invertibility_battery(rng, scale=1.0, field=QQ) -> CoherenceReport:
    """Cospans with isomorphism legs invert with certified identity
    comparisons; twisted identity 2-diagrams are certified invertible by the
    seeded determinant search; the diagonal-inclusion cospan of centers is
    reported not invertible; all probabilistic bounds stay below 2^-20."""
    rep = CoherenceReport()
    bounds = []
    pool = _automorphism_pool(field)
    n_cospans = _count(12, scale)
    cos_ok = 0
    for _ in range(n_cospans):
        a, autos = pool[rng.randrange(len(pool))]
        leg_a = autos[rng.randrange(len(autos))]
        leg_b = autos[rng.randrange(len(autos))]
        res = is_invertible_cospan(Cospan(leg_a, leg_b))
        ok = res.invertible
        ok = ok and validate_2diagram(res.witness_left) == []
        ok = ok and validate_2diagram(res.witness_right) == []
        cos_ok += ok
    rep.add("isomorphism-leg cospans invert with identity witnesses",
            cos_ok == n_cospans, f"{cos_ok}/{n_cospans}")
    n_diag = _count(12, scale)
    diag_ok = 0
    small = [alg_k(field), alg_product_k(2, field), alg_group_c2(field)]
    for _ in range(n_diag):
        a = small[rng.randrange(len(small))]
        b = small[rng.randrange(len(small))]
        c = tensor_product_cospan(a, b)
        ident = identity_2diagram(c)
        d = twist_2diagram(ident, random_invertible(ident.M.dim, rng, field))
        ok = is_invertible_2diagram(d)
        search = find_invertible_3cell(d, ident, rng=rng)
        ok = ok and search.found
        if search.found:
            ok = ok and validate_3cell(search.cell) == []
            ok = ok and inverse(search.cell.mat) is not None
        if search.failure_bound is not None:
            bounds.append(search.failure_bound)
        diag_ok += ok
    rep.add("invertible-leg 2-diagrams certified invertible",
            diag_ok == n_diag, f"{diag_ok}/{n_diag}")
    zc = Z_hom(diagonal_inclusion(2, field)).cospan
    res = is_invertible_cospan(zc)
    rep.add("diagonal-inclusion center cospan is not invertible",
            not res.invertible, "; ".join(res.reasons))
    triv = identity_cospan(alg_k(field))
    dim = 4
    fcol = Matrix.from_int_rows([[1], [0], [0], [0]], field)
    gcol = Matrix.from_int_rows([[0], [1], [0], [0]], field)
    d_sing = TwoDiagram(triv, triv, _plain_bimodule(dim, field), fcol, gcol)
    e_sing = TwoDiagram(triv, triv, _plain_bimodule(dim, field),
                        Matrix.zeros(dim, 1, field), Matrix.zeros(dim, 1, field))
    search = find_invertible_3cell(d_sing, e_sing, rng=rng)
    ok = (not search.found) and (not search.certified)
    if search.failure_bound is not None:
        bounds.append(search.failure_bound)
    rep.add("probabilistic negative verdict on a singular family",
            ok, search.detail)
    threshold = Fraction(1, 2 ** 20)
    max_txt = f"{float(max(bounds)):.3e}" if bounds else "none"
    rep.add("all reported failure bounds below 2^-20",
            all(b < threshold for b in bounds),
            f"{len(bounds)} probabilistic searches, max bound {max_txt}")
    return rep


def _plain_bimodule(dim, field):
    k = alg_k(field)
    ident = Matrix.identity(dim, field)
    return Bimodule(k, k, dim, [ident], [ident])


# ---------------------------------------------------------------------------
# the comparison maps on a semisimple corpus


def semisimple_corpus(rng, scale=1.0, field=QQ):
    """Randomly twisted chains and squares of bimodules over matrix algebras
    with single-block middles; returns (chains, squares) ready for
    check_theorem58_hypotheses."""

    def tw(m):
        return twist_bimodule(m, random_invertible(m.dim, rng, field))

    def one_twist(m):
        q = random_invertible(2, rng, field)
        rows = []
        for r in range(m.dim):
            row = []
            for c in range(m.dim):
                if r < 2 and c < 2:
                    row.append(q.data[r][c])
                else:
                    row.append(field.one if r == c else field.zero)
            rows.append(row)
        return twist_bimodule(m, Matrix(rows, field, ncols=m.dim))

    k = alg_k(field)
    k2 = alg_product_k(2, field)
    m2 = alg_matrix(2, field)
    m3 = alg_matrix(3, field)
    chains = [
        (tw(free_bimodule(m2, k, 1)), tw(free_bimodule(m2, k, 1)),
         tw(free_bimodule(m2, k, 1))),
        (tw(free_bimodule(k2, k2, 1)), tw(free_bimodule(k2, k2, 1)),
         tw(free_bimodule(k2, k2, 1))),
        (tw(col_bimodule(3, field)), tw(col_bimodule(3, field)),
         tw(col_bimodule(3, field))),
    ]
    if scale >= 1.0:
        chains.append((one_twist(free_bimodule(m3, k, 1)),
                       one_twist(free_bimodule(m3, k, 1)),
                       one_twist(free_bimodule(m3, k, 1))))
    r2, c2 = row_bimodule(2, field), col_bimodule(2, field)
    r3, c3 = row_bimodule(3, field), col_bimodule(3, field)
    squares = [
        (tw(r2), tw(r2), tw(c2), tw(c2)),
        (tw(r3), tw(r3), tw(c3), tw(c3)),
        (tw(direct_sum_bimodules([r2, r2])), tw(direct_sum_bimodules([r2, r2])),
         tw(c2), tw(c2)),
    ]
    return chains, squares


def semisimple_battery(rng, scale=1.0, field=QQ) -> CoherenceReport:
    """On matrix-algebra corpora with single-block middles, the composition
    collapse, the descended tensor-of-homs, the square 3-cell, and the
    multiplication 2-cells are all isomorphisms."""
    rep = CoherenceReport()
    chains, squares = semisimple_corpus(rng, scale, field)
    res = check_theorem58_hypotheses(chains=chains, squares=squares)
    for name, ok, detail in res.entries:
        rep.add(name, ok, detail)
    rep.add("aggregate verdict", res.verdict == "non-lax on this corpus",
            res.verdict)
    return rep


# ---------------------------------------------------------------------------
# interchange of induced maps on tensor products


def interchange_battery(rng, scale=1.0, field=QQ) -> CoherenceReport:
    """The two one-sided-then-other-side composites of induced maps agree
    with the joint induced map on random instances."""
    rep = CoherenceReport()
    pool = _small_algebra_pool(field)[:4]
    n_inst = _count(200, scale)
    n_ok = 0
    detail = ""
    for i in range(n_inst):
        a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
        m = random_bimodule(a, b, rng, max_rank=1)
        mp = random_bimodule(a, b, rng, max_rank=1)
        n = random_bimodule(b, c, rng, max_rank=1)
        np_ = random_bimodule(b, c, rng, max_rank=1)
        xi = random_hom_element(m, mp, rng)
        zeta = random_hom_element(n, np_, rng)
        ok = interchange_check(xi, zeta)
        n_ok += ok
        if not ok and not detail:
            detail = f"first failure at instance {i}"
    rep.add("interchange of induced maps on random instances",
            n_ok == n_inst, detail or f"{n_ok}/{n_inst}")
    return rep


# ---------------------------------------------------------------------------
# driver


BATTERIES = [
    ("center and centralizer oracles", center_battery),
    ("fibered tensor coequalizers", coequalizer_battery),
    ("horizontal interchanger", interchanger_battery),
    ("lax multiplication on algebra maps", lax_functor_battery),
    ("Morita invariance of centers", morita_battery),
    ("invertibility certificates", invertibility_battery),
    ("semisimple comparison isomorphisms", semisimple_battery),
    ("interchange of induced maps", interchange_battery),
]


def run_all(seed=0, scale=1.0, field=QQ):
    """Run every battery with its own deterministic stream; returns a list
    of (name, CoherenceReport)."""
    out = []
    for i, (name, fn) in enumerate(BATTERIES):
        rng = _random.Random(seed * 1000003 + i)
        out.append((name, fn(rng, scale=scale, field=field)))
    return out
