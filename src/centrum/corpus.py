"""Seeded verification batteries over fixed fixture corpora.

Each battery draws deterministic instances from the fixtures, runs one family
of exact checks, and returns a CoherenceReport.  Random instances are counted
by `_tally`, one check per family: "n/n" when all n pass, else how many did
and the first instance that failed.  A construction's refusal of a broken
certificate (ValueError) is the one check of its invariant: `_tally` counts
it as its instance's failure, and `run_all` as the failed check "battery
ran to completion".  `run_all` drives the full set; `scale` shrinks
instance counts for quick smoke runs (1.0 = the full battery sizes).

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
    commutes,
    identity_map,
    unit_map,
    validate_algebra_map,
)
from .bimodule import (
    assoc_iso,
    direct_sum_bimodules,
    free_bimodule,
    interchange_check,
    middle_relations,
    pentagon_check,
    regular_bimodule,
    tensor_over,
    triangle_check,
    twist_bimodule,
    unit_iso_left,
    unit_iso_right,
    validate_bimodule,
    validate_bimodule_map,
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
from .exactla import (
    Matrix,
    QQ,
    block_diagonal,
    kernel,
    rank,
    refuse,
    stack_rows,
)
from .fixtures import (
    algebra_map_pool,
    col_bimodule,
    commutative_pool,
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


# The most instances one family runs.  The largest families (coequalizer
# pairs, interchange trials) have 200 at scale 1, so a scale above
# MAX_SCALE would pass MAX_INSTANCES; the CLI refuses one.
MAX_INSTANCES = 10**6
MAX_SCALE = MAX_INSTANCES / 200


def _count(base: int, scale: float) -> int:
    return max(1, math.ceil(base * scale))


def _tally(rep, name, n, trial):
    """Run trial(i) for every instance i < n, in order, and add one check
    to rep: "{n}/{n}" when all pass, else how many passed and the first
    instance that failed, with its message if it raised ValueError.  After
    a refusal, later instances draw from a shifted stream."""
    passed, failure = 0, ""
    for i in range(n):
        try:
            ok, why = trial(i), ""
        except ValueError as exc:
            ok, why = False, f": {exc}"
        passed += bool(ok)
        if not (ok or failure):
            failure = f", first failure at instance {i}{why}"
    rep.add(name, passed == n, f"{passed}/{n}{failure}")


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
        units = [a.basis_vector(i) for i in range(a.dim)]
        rep.add(f"center of matrix:{n} commutes on all basis pairs",
                commutes(a, z.incl.columns(), units))
        full = _commutator_kernel_dim(a, units)
        rep.add(f"center of matrix:{n} is the whole commutator kernel",
                full == z.dim, f"kernel dim {full}")
    f = diagonal_inclusion(2, field)
    c = centralizer(f)
    rep.add("diagonal centralizer has dimension 2", c.dim == 2, f"dim {c.dim}")
    expected = Matrix.from_int_rows(
        [[1, 0], [0, 0], [0, 0], [0, 1]], field)
    rep.add("diagonal centralizer equals the diagonal subalgebra",
            c.incl == expected)
    image = f.mat.columns()
    rep.add("centralizer commutes with the image on all basis pairs",
            commutes(f.tgt, c.incl.columns(), image))
    full = _commutator_kernel_dim(f.tgt, image)
    rep.add("centralizer is the whole commutator kernel", full == c.dim,
            f"kernel dim {full}")
    return rep


# ---------------------------------------------------------------------------
# fibered tensor products: quotient witnesses, unit/associator isos, coherence


def _small_algebra_pool(field):
    return commutative_pool(field) + [alg_matrix(2, field)]


def _random_small_bimodule(a, b, rng, field):
    max_rank = 2 if a.dim * b.dim <= 2 else 1
    return random_bimodule(a, b, rng, max_rank=max_rank)


def random_pentagon_chain(rng, field=QQ):
    """Four composable random bimodules over small algebras, resampled so the
    four-fold flat tensor stays small enough for exact bulk arithmetic."""
    small = commutative_pool(field)
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
    small = commutative_pool(field)

    def pair(_):
        a, c = (pool[rng.randrange(len(pool))] for _ in range(2))
        # keep the flat tensor small enough for exact arithmetic in bulk
        b = (alg_k(field) if a.dim > 2 or c.dim > 2
             else small[rng.randrange(len(small))])
        m = _random_small_bimodule(a, b, rng, field)
        n = _random_small_bimodule(b, c, rng, field)
        t = tensor_over(m, n)
        # against the rank of every relation row, not the canonical basis
        return (validate_bimodule(t.product) == []
                and t.dim == t.quot.ambient - rank(middle_relations(m.ract, n.lact)))

    def units(_):
        a, b = (pool[rng.randrange(len(pool))] for _ in range(2))
        m = _random_small_bimodule(a, b, rng, field)
        return all(validate_bimodule_map(u) == [] for u in (
            unit_iso_left(tensor_over(regular_bimodule(a), m)),
            unit_iso_right(tensor_over(m, regular_bimodule(b)))))

    def associator(_):
        a, b, c, d = (small[rng.randrange(len(small))] for _ in range(4))
        assoc_iso(*[random_bimodule(x, y, rng, max_rank=1)
                    for x, y in ((a, b), (b, c), (c, d))])
        return True

    _tally(rep, "tensor quotient witnesses on random pairs",
           _count(200, scale), pair)
    _tally(rep, "unit isos two-sided invertible", _count(50, scale), units)
    _tally(rep, "associator isos two-sided invertible", _count(50, scale),
           associator)
    n_coh = _count(50, scale)
    chains = [random_pentagon_chain(rng, field) for _ in range(n_coh)]
    _tally(rep, "pentagon identity on random chains", n_coh,
           lambda i: pentagon_check(*chains[i]))
    _tally(rep, "triangle identity on random chains", n_coh,
           lambda i: triangle_check(*chains[i][:2]))
    return rep


# ---------------------------------------------------------------------------
# the interchanger of horizontal composition


def interchanger_battery(rng, scale=1.0, field=QQ) -> CoherenceReport:
    """On random 2x2 grids: the interchanger, which beta_cell certifies, is
    natural under componentwise twists."""
    rep = CoherenceReport()

    def trial(_):
        grid = random_interchanger_grid(rng, field)
        bd = beta_cell(*grid)
        # sparse twists on the large coordinates keep exact arithmetic cheap
        ps = [random_signed_permutation(x.M.dim, rng, field) if x.M.dim >= 4
              else random_invertible(x.M.dim, rng, field, bound=1)
              for x in grid]
        twisted = tuple(twist_2diagram(x, P) for x, P in zip(grid, ps))
        return check_beta_naturality(bd, beta_cell(*twisted), *ps)

    _tally(rep, "interchanger two-sided, verified, natural",
           _count(100, scale), trial)
    return rep


# ---------------------------------------------------------------------------
# the lax structure on composable algebra maps


def lax_functor_battery(rng, scale=1.0, field=QQ) -> CoherenceReport:
    """Multiplication comparison maps on random composable chains: algebra
    homomorphism property, associativity, unit collapses; plus the
    documented rank-drop witness showing the comparison is not invertible."""
    rep = CoherenceReport()
    pool = algebra_map_pool(field)
    _tally(rep, "lax structure on random chains", _count(100, scale),
           lambda _: verify_lax_functor(random_map_chain(
               rng, length=3, field=field, pool=pool)).ok)
    mt = mult_transform(unit_map(alg_product_k(2, field)),
                        diagonal_inclusion(2, field))
    r, dim = rank(mt.m.mat), mt.zgf.apex.dim
    rep.add("rank-drop witness on scalars -> diagonal -> matrices",
            r == 2 and dim == 4, f"rank {r} < codomain dim {dim}")
    rep.add("witness multiplication map is still an algebra map",
            validate_algebra_map(mt.m) == [])
    return rep


# ---------------------------------------------------------------------------
# Morita invariance of the center


def morita_battery(rng, scale=1.0, field=QQ) -> CoherenceReport:
    """z -> z . identity is an algebra isomorphism onto the center of every
    matrix amplification in the pool."""
    rep = CoherenceReport()
    for a in _small_algebra_pool(field):
        for n in (2, 3):
            res = morita_center_check(a, n)
            rep.add(f"center preserved under {n}x{n} amplification of "
                    f"{a.name or 'algebra'}", res.ok,
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
        refuse([v for f in autos for v in validate_algebra_map(f)],
               f"an automorphism of {a.name} is not an algebra map")
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
    small = [alg_k(field), alg_product_k(2, field), alg_group_c2(field)]

    def cospan(_):
        _, autos = pool[rng.randrange(len(pool))]
        leg_a = autos[rng.randrange(len(autos))]
        leg_b = autos[rng.randrange(len(autos))]
        res = is_invertible_cospan(Cospan(leg_a, leg_b))
        return (res.invertible
                and validate_2diagram(res.witness_left) == []
                and validate_2diagram(res.witness_right) == [])

    def diagram(_):
        a = small[rng.randrange(len(small))]
        b = small[rng.randrange(len(small))]
        ident = identity_2diagram(tensor_product_cospan(a, b))
        d = twist_2diagram(ident, random_invertible(ident.M.dim, rng, field))
        ok = is_invertible_2diagram(d)
        search = find_invertible_3cell(d, ident, rng=rng)
        if search.failure_bound is not None:
            bounds.append(search.failure_bound)
        return ok and search.found and validate_3cell(search.cell) == []

    _tally(rep, "isomorphism-leg cospans invert with identity witnesses",
           _count(12, scale), cospan)
    _tally(rep, "invertible-leg 2-diagrams certified invertible",
           _count(12, scale), diagram)
    zc = Z_hom(diagonal_inclusion(2, field)).cospan
    res = is_invertible_cospan(zc)
    rep.add("diagonal-inclusion center cospan is not invertible",
            not res.invertible, "; ".join(res.reasons))
    triv = identity_cospan(alg_k(field))
    dim = 4
    fcol = Matrix.from_int_rows([[1], [0], [0], [0]], field)
    gcol = Matrix.from_int_rows([[0], [1], [0], [0]], field)
    plain = free_bimodule(alg_k(field), alg_k(field), dim)
    d_sing = TwoDiagram(triv, triv, plain, fcol, gcol)
    e_sing = TwoDiagram(triv, triv, plain,
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


# ---------------------------------------------------------------------------
# the comparison maps on a semisimple corpus


def semisimple_corpus(rng, scale=1.0, field=QQ):
    """Randomly twisted chains and squares of bimodules over matrix algebras
    with single-block middles; returns (chains, squares) ready for
    check_theorem58_hypotheses."""

    def tw(m):
        return twist_bimodule(m, random_invertible(m.dim, rng, field))

    def one_twist(m):
        return twist_bimodule(m, block_diagonal(
            [random_invertible(2, rng, field), Matrix.identity(m.dim - 2, field)]))

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
    rep.extend(res)
    rep.add("aggregate verdict", res.verdict == "non-lax on this corpus",
            res.verdict)
    return rep


# ---------------------------------------------------------------------------
# interchange of induced maps on tensor products


def interchange_battery(rng, scale=1.0, field=QQ) -> CoherenceReport:
    """The two one-sided-then-other-side composites of induced maps agree
    with the joint induced map on random instances."""
    rep = CoherenceReport()
    pool = commutative_pool(field)

    def trial(_):
        a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
        m = random_bimodule(a, b, rng, max_rank=1)
        mp = random_bimodule(a, b, rng, max_rank=1)
        n = random_bimodule(b, c, rng, max_rank=1)
        np_ = random_bimodule(b, c, rng, max_rank=1)
        xi = random_hom_element(m, mp, rng)
        zeta = random_hom_element(n, np_, rng)
        return interchange_check(xi, zeta)

    _tally(rep, "interchange of induced maps on random instances",
           _count(200, scale), trial)
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
        try:
            rep = fn(rng, scale=scale, field=field)
        except ValueError as exc:
            rep = CoherenceReport()
            rep.add("battery ran to completion", False, str(exc))
        out.append((name, rep))
    return out
