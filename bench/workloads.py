"""The benchmark's four workloads: seeded instance pools and their verdicts.

A workload builds, from the seed, a pool of items during set-up; each item
is one verdict.  ``run`` is the timed part and does every check the
verdict needs; ``check`` runs untimed and turns the result into
``(answer, evidence)``.  The answer is compared with ``expected``; the
evidence is fingerprinted so that a traced and an untraced pass can be
compared exactly.

Pools are stratified.  The discrete choices that set a verdict's cost
(which algebras, which grid shape) are a systematic sample of everything
the matching battery draws from, sorted by a cost key, so every seed times
nearly the same mix; the seed draws the rest and the order.  In grid,
tensor and cli a verdict's cost moves by tens of percent with the random
matrices its instance is twisted by, so there the instances come from one
fixed stream, the same in every run, and the seed only orders them (see
``build_grid``).  A pool is split into segments
with equal shares of every kind and cost stratum, timed one after the
other, so that a run cut short by its deadline still times an even mix.

The library is reached only through module attributes looked up at call
time (``C.cospanbicat.beta_cell``), so the tracer's rebinding sees every
call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from functools import partial
from itertools import product

GFP = "gfp:1000003"


@dataclass(slots=True)
class Item:
    kind: str
    run: object
    expected: object
    check: object = None


@dataclass(slots=True)
class Pool:
    field: str
    segments: list  # lists of items, timed in this order

    @property
    def items(self):
        return [item for segment in self.segments for item in segment]

    def mix(self):
        counts = {}
        for item in self.items:
            counts[item.kind] = counts.get(item.kind, 0) + 1
        return counts


def systematic(rng, population, n, key):
    """n members of population, stratified along key: sorted by key, every
    len/n-th one from a random offset, returned in key order."""
    population = sorted(population, key=key)
    step = len(population) / n
    start = rng.random() * step
    return [population[int(start + i * step)] for i in range(n)]


def deal(rng, groups, k):
    """Deal the items of each group, in order, round-robin into k segments,
    so that each segment gets an equal share of every group and stratum;
    shuffle each segment and their order."""
    segments = [[] for _ in range(k)]
    turn = 0
    for group in groups:
        for item in group:
            segments[turn % k].append(item)
            turn += 1
    segments = [s for s in segments if s]
    for segment in segments:
        rng.shuffle(segment)
    rng.shuffle(segments)
    return segments


def _scaled(base, scale):
    return max(1, round(base * scale))


# ---------------------------------------------------------------------------
# grid: the horizontal interchanger on 2x2 grids over QQ

def _grid_shape(grid):
    dims = tuple((d.M.dim, d.src.apex.dim, d.tgt.apex.dim) for d in grid)
    names = tuple((d.src.apex.name, d.tgt.apex.name) for d in grid)
    return dims, names


def _grid_verdict(C, grid, twisted, ps):
    cb, Matrix, F = C.cospanbicat, C.exactla.Matrix, C.exactla.QQ
    bd = cb.beta_cell(*grid)
    ok = (bd.cell.mat @ bd.inverse_cell.mat
          == Matrix.identity(bd.tgt_diagram.M.dim, F))
    ok = ok and (bd.inverse_cell.mat @ bd.cell.mat
                 == Matrix.identity(bd.src_diagram.M.dim, F))
    ok = ok and cb.validate_3cell(bd.cell) == []
    ok = ok and cb.validate_3cell(bd.inverse_cell) == []
    be = cb.beta_cell(*twisted)
    ok = ok and cb.check_beta_naturality(bd, be, *ps)
    return ok, (bd.cell.mat, be.cell.mat)


def build_grid(C, rng, scale):
    """Every other one of the fixture's 144 grid shapes, in shape order.

    random_interchanger_grid draws from 144 equally likely shapes whose
    verdict costs differ by 50x, and a grid's shape fixes its entries.  The
    signed-permutation twists of one grid move its verdict cost by up to
    70%, so with 72 verdicts a run the twists, not the program, would set
    the run-to-run spread (measured: p50 11% and tail 30% apart between
    seeds on one grid set).  Grids and twists therefore come from one fixed
    stream, the same in every run; the seed draws the order."""
    fx, F = C.fixtures, C.exactla.QQ
    corpus = random.Random("grid corpus")
    shapes = {}
    for _ in range(1500):
        grid = fx.random_interchanger_grid(corpus, F)
        shapes.setdefault(_grid_shape(grid), grid)
    keys = sorted(shapes)
    n = min(len(keys), _scaled(72, scale))
    items = []
    for grid in (shapes[keys[i * len(keys) // n]] for i in range(n)):
        # sparse twists on the large coordinates, as in the battery
        ps = [fx.random_signed_permutation(d.M.dim, corpus, F)
              if d.M.dim >= 4
              else fx.random_invertible(d.M.dim, corpus, F, bound=1)
              for d in grid]
        twisted = tuple(fx.twist_2diagram(d, P) for d, P in zip(grid, ps))
        items.append(Item("interchanger",
                          partial(_grid_verdict, C, grid, twisted, ps), True))
    return Pool("rational", deal(rng, [items], 8))


# ---------------------------------------------------------------------------
# tensor: fibered tensor coequalizers and interchange of induced maps, QQ

def _small_algebras(C, F):
    al = C.algebra
    return [al.alg_k(F), al.alg_product_k(2, F), al.alg_dual_numbers(F),
            al.alg_group_c2(F), al.alg_matrix(2, F)]


def _flat_dim(algs):
    flat = 1
    for a, b in zip(algs, algs[1:]):
        flat *= a.dim * b.dim
    return flat


def _plan_key(plan):
    return _flat_dim(plan), tuple(a.name for a in plan)


def _small_bimodule(C, a, b, rng):
    max_rank = 2 if a.dim * b.dim <= 2 else 1
    return C.fixtures.random_bimodule(a, b, rng, max_rank=max_rank)


def _quotient_verdict(C, m, n):
    bm, Matrix = C.bimodule, C.exactla.Matrix
    t = bm.tensor_over(m, n)
    q = t.quot
    ok = (q.proj @ q.sect) == Matrix.identity(t.dim, m.field)
    ok = ok and (q.proj @ q.relations).is_zero()
    ok = ok and bm.validate_bimodule(t.product) == []
    ok = ok and t.dim == q.ambient - C.exactla.rank(q.relations)
    return ok, q.proj


def _unit_verdict(C, a, b, m):
    bm, la = C.bimodule, C.exactla
    lu = bm.unit_iso_left(bm.tensor_over(bm.regular_bimodule(a), m))
    ru = bm.unit_iso_right(bm.tensor_over(m, bm.regular_bimodule(b)))
    ok = True
    for u in (lu, ru):
        inv = la.inverse(u.mat)
        ok = ok and inv is not None
        ok = ok and (u.mat @ inv) == la.Matrix.identity(u.mat.rows, m.field)
        ok = ok and (inv @ u.mat) == la.Matrix.identity(u.mat.cols, m.field)
    return ok, (lu.mat, ru.mat)


def _assoc_verdict(C, m, n, p):
    Matrix = C.exactla.Matrix
    _, _, iso, inv = C.bimodule.assoc_iso(m, n, p)
    ok = (inv.mat @ iso.mat) == Matrix.identity(iso.mat.cols, m.field)
    ok = ok and (iso.mat @ inv.mat) == Matrix.identity(iso.mat.rows, m.field)
    return ok, iso.mat


def _coherence_verdict(C, chain):
    pent = C.bimodule.pentagon_check(*chain)
    tri = C.bimodule.triangle_check(chain[0], chain[1])
    return pent and tri, (pent, tri)


def _interchange_verdict(C, xi, zeta):
    ok = C.bimodule.interchange_check(xi, zeta)
    return ok, ok


def build_tensor(C, rng, scale):
    """Per round 4:1:1:1:4 quotient pairs, unit isos, associators,
    pentagon+triangle chains and interchange instances: the 200:50:50:50:200
    ratio of the two batteries.  Each kind's algebra choices are a
    systematic sample of all the choices its battery draws from, equally
    weighted as there.

    The bimodules are twisted by random invertible matrices, and with
    instances drawn from the seed the pools of five seeds, timed in one
    process, differed by 22% in verdicts per second and 23% in tail time
    (quartile distance over median).  So the instances come from a fixed
    stream and the seed only orders them, as in grid."""
    fx, F = C.fixtures, C.exactla.QQ
    order, rng = rng, random.Random("tensor corpus")
    algs = _small_algebras(C, F)
    small = algs[:4]
    rounds = _scaled(30, scale)
    # the quotient battery keeps the flat tensor small enough for exact
    # arithmetic in bulk: a matrix algebra on either side forces B = k
    pairs = [(a, b, c) for a in algs for c in algs
             for b in (small if a.dim <= 2 and c.dim <= 2 else [algs[0]] * 4)]
    chains = [p for p in product(small, repeat=5) if _flat_dim(p) <= 64]

    def plans(population, n):
        return systematic(rng, population, n, _plan_key)

    quotients = []
    for a, b, c in plans(pairs, 4 * rounds):
        m, n = _small_bimodule(C, a, b, rng), _small_bimodule(C, b, c, rng)
        quotients.append(Item("tensor quotient",
                              partial(_quotient_verdict, C, m, n), True))
    units = []
    for a, b in plans(product(algs, repeat=2), rounds):
        m = _small_bimodule(C, a, b, rng)
        units.append(Item("unit isos", partial(_unit_verdict, C, a, b, m),
                          True))
    assocs = []
    for a, b, c, d in plans(product(small, repeat=4), rounds):
        bims = [fx.random_bimodule(x, y, rng, max_rank=1)
                for x, y in ((a, b), (b, c), (c, d))]
        assocs.append(Item("associator", partial(_assoc_verdict, C, *bims),
                           True))
    coherence = []
    for plan in plans(chains, rounds):
        chain = tuple(fx.random_bimodule(x, y, rng, max_rank=1)
                      for x, y in zip(plan, plan[1:]))
        coherence.append(Item("pentagon+triangle",
                              partial(_coherence_verdict, C, chain), True))
    interchanges = []
    for a, b, c in plans(product(small, repeat=3), 4 * rounds):
        m, mp = (fx.random_bimodule(a, b, rng, max_rank=1) for _ in range(2))
        n, np_ = (fx.random_bimodule(b, c, rng, max_rank=1) for _ in range(2))
        xi = fx.random_hom_element(m, mp, rng)
        zeta = fx.random_hom_element(n, np_, rng)
        interchanges.append(Item("interchange",
                                 partial(_interchange_verdict, C, xi, zeta),
                                 True))
    groups = [quotients, units, assocs, coherence, interchanges]
    return Pool("rational", deal(order, groups, 8))


# ---------------------------------------------------------------------------
# center-gfp: lax structure and comparison maps over GF(1000003)

def _entries_evidence(entries):
    return [tuple(e.values()) if isinstance(e, dict) else tuple(e)
            for e in entries]


def _lax_verdict(C, chain):
    rep = C.fullcenter.verify_lax_functor(chain)
    return rep.ok, _entries_evidence(rep.entries)


def _thm58_verdict(C, chains=(), squares=()):
    rep = C.fullcenter.check_theorem58_hypotheses(chains=chains,
                                                  squares=squares)
    return rep.all_iso, _entries_evidence(rep.entries)


def build_center_gfp(C, rng, scale):
    """Per round, and per segment, one semisimple_corpus draw (four chains,
    three squares, each its own verdict) and twelve 3-chains of algebra
    maps.  At --seconds 20 its eleven rounds put eleven 9-dimensional
    chains at the top, so the tail sits inside one kind of verdict; at 15
    there are eight rounds."""
    fx = C.fixtures
    F = C.exactla.field_from_name(GFP)
    maps = fx.algebra_map_pool(F)
    index = {id(f): i for i, f in enumerate(maps)}
    rounds = _scaled(11, scale)
    n_lax = 12 * rounds
    candidates = [fx.random_map_chain(rng, length=3, field=F, pool=maps)
                  for _ in range(8 * n_lax)]
    lax = [Item("lax chain", partial(_lax_verdict, C, chain), True)
           for chain in systematic(rng, candidates, n_lax,
                                   lambda ch: [index[id(f)] for f in ch])]
    segments = []
    for r in range(rounds):
        chains, squares = C.corpus.semisimple_corpus(rng, 1.0, F)
        segment = lax[r::rounds]
        segment += [Item("semisimple chain",
                         partial(_thm58_verdict, C, chains=[c]), True)
                    for c in chains]
        segment += [Item("semisimple square",
                         partial(_thm58_verdict, C, squares=[s]), True)
                    for s in squares]
        rng.shuffle(segment)
        segments.append(segment)
    return Pool(GFP, segments)


# ---------------------------------------------------------------------------
# cli: single-object queries through centrum.cli.main, stdout captured

# (argv, known exit code); "{seed}" is filled from the workload seed
CLI_QUERIES = (
    (("center", "--algebra", "matrix:3"), 0),
    (("centralizer", "--map", "diag:3"), 0),
    (("z-hom", "--map", "diag:2"), 0),
    (("z-bimodule", "--bimodule", "regular:matrix:2"), 0),
    (("z-2cell", "--bimodule-map", "id:regular:matrix:2"), 0),
    (("tensor-over", "--left", "col:3", "--right", "row:3"), 0),
    (("compose-cospans", "--first", "identity:group:C2",
      "--second", "identity:group:C2"), 0),
    (("compose-2diagrams", "vertical", "--first",
      "identity:identity:product:k^2",
      "--second", "identity:identity:product:k^2"), 0),
    (("compose-2diagrams", "horizontal", "--first",
      "identity:identity:product:k^2",
      "--second", "identity:identity:product:k^2"), 0),
    (("invertible", "cospan", "--map", "diag:2"), 1),
    (("invertible", "2cell", "--diagram", "identity:identity:group:C2"), 0),
    (("validate", "bimodule", "regular:matrix:2"), 0),
    (("validate", "2diagram", "identity:identity:group:C2"), 0),
    (("verify", "morita", "--algebra", "matrix:2", "--n", "2"), 0),
    (("verify", "triangle", "--seed", "{seed}"), 0),
    (("verify", "lax", "--seed", "{seed}"), 0),
    (("beta-check", "--seed", "{seed}"), 0),
)


def _cli_call(C, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = C.cli.main(list(argv))
    return code, out.getvalue()


def _cli_check(C, argv, result):
    """The answer is the exit code and whether a repeat of the same argv
    gives a byte-identical report."""
    code, text = result
    again = _cli_call(C, argv)
    return (code, again == (code, text)), text


def build_cli(C, rng, scale):
    """Per round, and per segment, every query of CLI_QUERIES once, in
    seeded order.  The seeds of beta-check and verify lax are stratified by
    what the command draws from them (a grid, three map chains); they come
    from a fixed stream, as grid's instances do, because the grid that
    beta-check draws moves its cost as a twist does."""
    fx, F = C.fixtures, C.exactla.QQ
    order, rng = rng, random.Random("cli corpus")
    maps = fx.algebra_map_pool(F)
    index = {id(f): i for i, f in enumerate(maps)}
    rounds = _scaled(16, scale)

    def grid_of(s):
        return _grid_shape(fx.random_interchanger_grid(random.Random(s), F))

    def chains_of(s):
        r = random.Random(s)
        return [[index[id(f)] for f in
                 fx.random_map_chain(r, length=3, field=F, pool=maps)]
                for _ in range(3)]

    def seeds(key):
        picked = systematic(rng, [rng.randrange(1 << 30)
                                  for _ in range(8 * rounds)], rounds, key)
        rng.shuffle(picked)
        return picked

    seeded = {"beta-check": seeds(grid_of), "lax": seeds(chains_of),
              "triangle": [rng.randrange(1 << 30) for _ in range(rounds)]}
    segments = []
    for r in range(rounds):
        segment = []
        for argv, code in CLI_QUERIES:
            if "{seed}" in argv:
                which = argv[0] if argv[0] == "beta-check" else argv[1]
                argv = tuple(str(seeded[which][r]) if x == "{seed}" else x
                             for x in argv)
            kind = " ".join(x for x in argv[:2] if not x.startswith("-"))
            segment.append(Item(kind, partial(_cli_call, C, argv),
                                (code, True), partial(_cli_check, C, argv)))
        order.shuffle(segment)
        segments.append(segment)
    order.shuffle(segments)
    return Pool("rational", segments)


WORKLOADS = {
    "grid": build_grid,
    "tensor": build_tensor,
    "center-gfp": build_center_gfp,
    "cli": build_cli,
}
