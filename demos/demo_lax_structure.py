"""The headline phenomenon: assigning centers to algebras and centralizer
cospans to maps is functorial only up to a comparison map.  On random chains
the comparison satisfies every lax law exactly; on the scalars -> diagonal ->
matrices chain it drops rank, so it is genuinely not invertible; and on a
semisimple corpus with single-block middles every comparison map becomes an
isomorphism, flipping the aggregate verdict.

Deterministic (fixed seed), exact arithmetic; exits 0 iff every check
holds."""

import random
import sys

from centrum.algebra import (
    alg_product_k,
    unit_map,
    validate_algebra_map,
)
from centrum.corpus import semisimple_corpus
from centrum.exactla import rank
from centrum.fixtures import diagonal_inclusion, random_map_chain
from centrum.fullcenter import (
    Z_hom,
    check_theorem58_hypotheses,
    mult_transform,
    verify_lax_functor,
)

WIDTH = 72


def section(title):
    print()
    print("=" * WIDTH)
    print(f"  {title}")
    print("=" * WIDTH)


def kv(key, value, pad=52):
    print(f"  {key:<{pad}} {value}")


def mark(flag):
    return "ok" if flag else "FAIL"


def main():
    rng = random.Random(7)
    all_ok = True

    section("lax laws on random composable chains")
    for i in range(3):
        chain = random_map_chain(rng, length=3)
        rep = verify_lax_functor(chain)
        all_ok &= rep.ok
        dims = [f.src.dim for f in chain] + [chain[-1].tgt.dim]
        kv(f"chain {i + 1}  algebra dims {dims}",
           f"{sum(e['ok'] for e in rep.entries)}/{len(rep.entries)} laws"
           f"  {mark(rep.ok)}")

    section("the rank-drop witness  k -> k^2 -> M_2")
    f = unit_map(alg_product_k(2))
    g = diagonal_inclusion(2)
    mt = mult_transform(f, g)
    kv("Z(f) apex dim", mt.comp.first.apex.dim)
    kv("Z(g) apex dim", mt.comp.second.apex.dim)
    r, dim = rank(mt.mult.mat), mt.mult.tgt.dim
    kv("Z(g o f) apex dim", dim)
    kv("comparison map rank", r)
    witness = r == 2 and dim == 4 and validate_algebra_map(mt.mult) == []
    all_ok &= witness
    kv("rank 2 < dim 4: comparison is not invertible", mark(witness))
    kv("  yet it is still a verified algebra map",
       mark(validate_algebra_map(mt.mult) == []))

    section("semisimple corpus: every comparison map inverts")
    chains, squares = semisimple_corpus(rng, scale=0.5)
    res = check_theorem58_hypotheses(chains=chains, squares=squares)
    by_kind = {}
    for e in res.entries:
        good, total = by_kind.get(e["name"], (0, 0))
        by_kind[e["name"]] = (good + e["ok"], total + 1)
    for name, (good, total) in sorted(by_kind.items()):
        all_ok &= good == total
        kv(name, f"{good}/{total} invertible  {mark(good == total)}")
    all_ok &= res.verdict == "non-lax on this corpus"
    kv("aggregate verdict", res.verdict)

    section("how the two regimes differ")
    kv("generic middle algebras", "comparison maps can drop rank (lax)")
    kv("single-block middles", "comparison maps all invert (non-lax)")
    all_ok &= Z_hom(diagonal_inclusion(2)).apex.dim == 2

    section("summary")
    kv("all checks", mark(all_ok))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
