"""Seeded verification batteries over fixed fixture corpora.

`BATTERIES` is one table: battery name -> (families, checks run once).  A
family is (check name, instances at scale 1, trial): trial(rng, field)
draws one instance from rng and returns its verdict, and `_tally` counts
the family as one check, "n/n" when all n pass, else how many did and the
first instance that failed.  A check run once, fixed(rep, rng, scale,
field), adds its checks to rep after the families.

`run_battery` draws instance i of each family from its own stream,
random.Random(f"{seed}/{battery}/{family}/{i}"), and the checks run once
from random.Random(f"{seed}/{battery}").  A string seed is hashed by
SHA-512, so the streams are the same on every platform, and no instance
depends on another.  A construction's refusal of a broken certificate
(ValueError) is the one check of its invariant: `_tally` counts it as its
instance's failure, and `run_battery`, outside any family, as the one
failed check "battery ran to completion".  `run_all` runs every battery;
`scale` shrinks instance counts for quick smoke runs (1.0 = the full
battery sizes).

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


def _count(base: int, scale: float) -> int:
    return max(1, math.ceil(base * scale))


def _tally(rep, name, n, trial):
    """Run trial(i) for every instance i < n, in order, and add one check
    to rep: "{n}/{n}" when all pass, else how many passed and the first
    instance that failed, with its message if it raised ValueError."""
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


def _center_checks(rep, rng, scale, field):
    """Centers of matrix algebras and the centralizer of the diagonal
    inclusion, cross-checked by brute-force commutators on all basis pairs."""
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


def random_naturality_squares(rng, field=QQ):
    """Two random squares of composable bimodule maps over algebras drawn
    from k, k^2 and the dual numbers, as (phi, psi, phip, psip) for
    verify_m_naturality: phip follows phi and psip follows psi."""
    pool = [alg_k(field), alg_product_k(2, field), alg_dual_numbers(field)]
    a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
    m, mp, mpp = (random_bimodule(a, b, rng, max_rank=1) for _ in range(3))
    n, np_, npp = (random_bimodule(b, c, rng, max_rank=1) for _ in range(3))
    phi = random_hom_element(m, mp, rng)
    phip = random_hom_element(mp, mpp, rng)
    psi = random_hom_element(n, np_, rng)
    psip = random_hom_element(np_, npp, rng)
    return phi, psi, phip, psip


def _tensor_pair(rng, field):
    """The fibered tensor product of a random pair is a bimodule of the
    dimension its relations leave."""
    pool = _small_algebra_pool(field)
    a, c = rng.choice(pool), rng.choice(pool)
    # keep the flat tensor small enough for exact arithmetic in bulk
    b = (alg_k(field) if a.dim > 2 or c.dim > 2
         else rng.choice(commutative_pool(field)))
    m = _random_small_bimodule(a, b, rng, field)
    n = _random_small_bimodule(b, c, rng, field)
    t = tensor_over(m, n)
    # against the rank of every relation row, not the canonical basis
    return (validate_bimodule(t.product) == []
            and t.dim == t.quot.ambient - rank(middle_relations(m.ract, n.lact)))


def _unit_isos(rng, field):
    """The unit isos of a random bimodule are bimodule maps."""
    pool = _small_algebra_pool(field)
    a, b = rng.choice(pool), rng.choice(pool)
    m = _random_small_bimodule(a, b, rng, field)
    return all(validate_bimodule_map(u) == [] for u in (
        unit_iso_left(tensor_over(regular_bimodule(a), m)),
        unit_iso_right(tensor_over(m, regular_bimodule(b)))))


def _associator(rng, field):
    """assoc_iso builds the associator of a random triple; it refuses one
    that is not an equivariant iso."""
    small = commutative_pool(field)
    a, b, c, d = (rng.choice(small) for _ in range(4))
    assoc_iso(*[random_bimodule(x, y, rng, max_rank=1)
                for x, y in ((a, b), (b, c), (c, d))])
    return True


# ---------------------------------------------------------------------------
# the interchanger of horizontal composition


def _interchanger(rng, field):
    """On a random 2x2 grid the interchanger, which beta_cell certifies, is
    natural under componentwise twists."""
    grid = random_interchanger_grid(rng, field)
    bd = beta_cell(*grid)
    # sparse twists on the large coordinates keep exact arithmetic cheap
    ps = [random_signed_permutation(x.M.dim, rng, field) if x.M.dim >= 4
          else random_invertible(x.M.dim, rng, field, bound=1)
          for x in grid]
    twisted = tuple(twist_2diagram(x, P) for x, P in zip(grid, ps))
    return check_beta_naturality(bd, beta_cell(*twisted), *ps)


# ---------------------------------------------------------------------------
# the lax structure on composable algebra maps


def _rank_drop(rep, rng, scale, field):
    """The documented rank-drop witness: the multiplication comparison of
    scalars -> diagonal -> matrices is an algebra map but not invertible."""
    mt = mult_transform(unit_map(alg_product_k(2, field)),
                        diagonal_inclusion(2, field))
    r, dim = rank(mt.mult.mat), mt.mult.tgt.dim
    rep.add("rank-drop witness on scalars -> diagonal -> matrices",
            r == 2 and dim == 4, f"rank {r} < codomain dim {dim}")
    rep.add("witness multiplication map is still an algebra map",
            validate_algebra_map(mt.mult) == [])


# ---------------------------------------------------------------------------
# Morita invariance of the center


def _morita_checks(rep, rng, scale, field):
    """z -> z . identity is an algebra isomorphism onto the center of every
    matrix amplification in the pool."""
    for a in _small_algebra_pool(field):
        for n in (2, 3):
            res = morita_center_check(a, n)
            rep.add(f"center preserved under {n}x{n} amplification of "
                    f"{a.name or 'algebra'}", res.ok,
                    f"dim {res.z_small.dim} == {res.z_big.dim}")


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


def _iso_leg_cospan(rng, field):
    """A cospan with automorphism legs inverts with certified identity
    comparisons."""
    _, autos = rng.choice(_automorphism_pool(field))
    res = is_invertible_cospan(Cospan(rng.choice(autos), rng.choice(autos)))
    return (res.invertible
            and validate_2diagram(res.witness_left) == []
            and validate_2diagram(res.witness_right) == [])


def _twisted_identity(rng, field):
    """A twisted identity 2-diagram is invertible, and the seeded search
    finds a verified invertible 3-cell to the identity."""
    small = [alg_k(field), alg_product_k(2, field), alg_group_c2(field)]
    ident = identity_2diagram(
        tensor_product_cospan(rng.choice(small), rng.choice(small)))
    d = twist_2diagram(ident, random_invertible(ident.M.dim, rng, field))
    search = find_invertible_3cell(d, ident, rng=rng)
    return (is_invertible_2diagram(d) and search.found
            and validate_3cell(search.cell) == [])


def _invertibility_checks(rep, rng, scale, field):
    """The diagonal-inclusion cospan of centers is reported not invertible,
    and the seeded search on a singular family gives a negative verdict
    whose failure bound stays below 2^-20.  That search is the only one
    with a bound: a found cell has none."""
    res = is_invertible_cospan(Z_hom(diagonal_inclusion(2, field)).cospan)
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
    rep.add("probabilistic negative verdict on a singular family",
            not (search.found or search.certified), search.detail)
    bounds = [] if search.failure_bound is None else [search.failure_bound]
    max_txt = f"{float(max(bounds)):.3e}" if bounds else "none"
    rep.add("all reported failure bounds below 2^-20",
            all(b < Fraction(1, 2 ** 20) for b in bounds),
            f"{len(bounds)} probabilistic searches, max bound {max_txt}")


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


def _semisimple_checks(rep, rng, scale, field):
    """On matrix-algebra corpora with single-block middles, the composition
    collapse, the descended tensor-of-homs, the square 3-cell, and the
    multiplication 2-cells are all isomorphisms."""
    res = check_theorem58_hypotheses(*semisimple_corpus(rng, scale, field))
    rep.extend(res)
    rep.add("aggregate verdict", res.verdict == "non-lax on this corpus",
            res.verdict)


# ---------------------------------------------------------------------------
# interchange of induced maps on tensor products


def _interchange(rng, field):
    """The two one-sided-then-other-side composites of induced maps agree
    with the joint induced map on a random instance."""
    small = commutative_pool(field)
    a, b, c = (rng.choice(small) for _ in range(3))
    m = random_bimodule(a, b, rng, max_rank=1)
    mp = random_bimodule(a, b, rng, max_rank=1)
    n = random_bimodule(b, c, rng, max_rank=1)
    np_ = random_bimodule(b, c, rng, max_rank=1)
    return interchange_check(random_hom_element(m, mp, rng),
                             random_hom_element(n, np_, rng))


# ---------------------------------------------------------------------------
# the table and its driver


BATTERIES = {
    "center and centralizer oracles": ([], [_center_checks]),
    "fibered tensor coequalizers": ([
        ("tensor quotient witnesses on random pairs", 200, _tensor_pair),
        ("unit isos two-sided invertible", 50, _unit_isos),
        ("associator isos two-sided invertible", 50, _associator),
        ("pentagon identity on random chains", 50,
         lambda rng, field: pentagon_check(*random_pentagon_chain(rng, field))),
        ("triangle identity on random chains", 50,
         lambda rng, field: triangle_check(*random_pentagon_chain(rng, field)[:2])),
    ], []),
    "horizontal interchanger": (
        [("interchanger two-sided, verified, natural", 100, _interchanger)], []),
    "lax multiplication on algebra maps": (
        [("lax structure on random chains", 100,
          lambda rng, field: verify_lax_functor(
              random_map_chain(rng, length=3, field=field)).ok)],
        [_rank_drop]),
    "Morita invariance of centers": ([], [_morita_checks]),
    "invertibility certificates": ([
        ("isomorphism-leg cospans invert with identity witnesses", 12,
         _iso_leg_cospan),
        ("invertible-leg 2-diagrams certified invertible", 12, _twisted_identity),
    ], [_invertibility_checks]),
    "semisimple comparison isomorphisms": ([], [_semisimple_checks]),
    "interchange of induced maps": (
        [("interchange of induced maps on random instances", 200, _interchange)],
        []),
}

# The most instances one family runs: the CLI refuses a scale above
# MAX_SCALE, at which the largest family would run more.
MAX_INSTANCES = 10**6
MAX_SCALE = MAX_INSTANCES / max(base for families, _ in BATTERIES.values()
                                for _, base, _ in families)


def run_battery(name, seed, scale, field=QQ) -> CoherenceReport:
    """The report of the battery BATTERIES[name]: its families, each
    instance drawn from its own stream, then its checks run once."""
    families, fixed = BATTERIES[name]
    rep = CoherenceReport()
    try:
        for family, base, trial in families:
            _tally(rep, family, _count(base, scale), lambda i: trial(
                _random.Random(f"{seed}/{name}/{family}/{i}"), field))
        rng = _random.Random(f"{seed}/{name}")
        for check in fixed:
            check(rep, rng, scale, field)
    except ValueError as exc:
        rep = CoherenceReport()
        rep.add("battery ran to completion", False, str(exc))
    return rep


def run_all(seed=0, scale=1.0, field=QQ):
    """Every battery's report, as a list of (name, CoherenceReport)."""
    return [(name, run_battery(name, seed, scale, field)) for name in BATTERIES]
