"""Acceptance suite: one test per verification battery, run at full scale
with the same deterministic streams as `centrum corpus --seed 0`.

Each test prints a single pass/fail line for its battery and then asserts
that every entry of the battery's report holds.  All comparisons inside the
batteries are exact (rational or prime-field arithmetic, no tolerances); the
only probabilistic statement is the explicitly reported failure bound of the
invertible-cell search, which is required to stay below 2**-20."""

import random

import pytest

from centrum import corpus
from centrum.exactla import QQ, content_key

SEED = 0


def _run_battery(name, scale=1.0):
    assert name in corpus.BATTERIES, f"unknown battery {name!r}"
    rep = corpus.run_battery(name, SEED, scale)
    print(f"{name}: {'PASS' if rep.ok else 'FAIL'}")
    bad = [e for e in rep.entries if not e["ok"]]
    assert rep.ok, f"{name}: FAIL; failing entries: {bad}"
    return rep


def test_center_and_centralizer_oracles():
    """Matrix-algebra centers have dimension one, the diagonal-inclusion
    centralizer is the diagonal subalgebra, and both agree with brute-force
    commutator evaluation on all basis pairs."""
    rep = _run_battery("center and centralizer oracles")
    assert len(rep.entries) >= 6


def test_fibered_tensor_coequalizers():
    """On 200 random bimodule pairs the fibered tensor product is a
    bimodule of the dimension its relations leave; on 50 random instances
    each, the unit isos are bimodule maps, assoc_iso builds the associator,
    and the pentagon and triangle identities hold."""
    rep = _run_battery("fibered tensor coequalizers")
    names = [e["name"] for e in rep.entries]
    assert "tensor quotient witnesses on random pairs" in names
    assert "pentagon identity on random chains" in names
    assert "triangle identity on random chains" in names


def test_horizontal_interchanger():
    """On 100 random 2x2 grids the interchanger, which beta_cell refuses
    unless it and its independently descended inverse are mutually inverse
    3-cells, is natural under random twists."""
    rep = _run_battery("horizontal interchanger")
    assert rep.entries[0]["detail"].endswith("100/100")


def test_lax_multiplication_on_algebra_maps():
    """On 100 random composable chains the multiplication comparison maps
    are algebra maps satisfying associativity and unit collapses;
    the scalars -> diagonal -> matrices witness has rank 2 against a
    4-dimensional codomain, so the comparison is genuinely not invertible."""
    rep = _run_battery("lax multiplication on algebra maps")
    witness = [e for e in rep.entries
               if e["name"].startswith("rank-drop witness")]
    assert witness and witness[0]["detail"] == "rank 2 < codomain dim 4"


def test_morita_invariance_of_centers():
    """z -> z . identity is an exact algebra isomorphism onto the center of
    the n x n amplification for five base algebras and n in {2, 3}."""
    rep = _run_battery("Morita invariance of centers")
    assert len(rep.entries) == 10


def test_invertibility_certificates():
    """Iso-leg cospans invert with identity-comparison witnesses; twisted
    identity 2-diagrams admit certified invertible 3-cells to the identity;
    the diagonal-inclusion center cospan is reported not invertible; the
    failure bound of the search on a singular family stays below 2**-20."""
    rep = _run_battery("invertibility certificates")
    names = [e["name"] for e in rep.entries]
    assert any("not invertible" in n for n in names)
    assert any("failure bounds" in n for n in names)


def test_semisimple_comparison_isomorphisms():
    """Over the matrix-algebra corpus with single-block middles, the
    composition collapse, the descended tensor of maps, the square 3-cells
    and the multiplication 2-cells are all isomorphisms, and the aggregate
    verdict is non-lax on this corpus."""
    rep = _run_battery("semisimple comparison isomorphisms")
    verdict = [e for e in rep.entries if e["name"] == "aggregate verdict"]
    assert verdict and verdict[0]["detail"] == "non-lax on this corpus"


def test_interchange_of_induced_maps():
    """On 200 random instances, inducing one side then the other equals the
    jointly induced map on the fibered tensor product."""
    rep = _run_battery("interchange of induced maps")
    assert rep.entries[0]["detail"].endswith("200/200")


def _fail_third_call(monkeypatch, name, failure):
    """Make corpus.name return failure on its third call only."""
    real = getattr(corpus, name)
    calls = []

    def patched(*args):
        calls.append(args)
        return failure if len(calls) == 3 else real(*args)

    monkeypatch.setattr(corpus, name, patched)


def test_a_failing_instance_is_counted_and_located(monkeypatch):
    """A battery counts every instance and names the first that failed; the
    streams of the instances and their count stay those of a passing run."""
    _fail_third_call(monkeypatch, "interchange_check", False)
    rep = corpus.run_battery("interchange of induced maps", 7, 0.05)
    assert rep.ok is False
    assert rep.entries == [{
        "name": "interchange of induced maps on random instances",
        "ok": False, "detail": "9/10, first failure at instance 2"}]


def test_a_refused_instance_is_counted_and_named():
    """An instance whose trial raises ValueError fails; the first failure
    carries its message when it refused, and none when it returned false."""
    def trials(*outcomes):
        def trial(i):
            if outcomes[i] is None:
                raise ValueError("broken")
            return outcomes[i]
        return trial

    rep = corpus.CoherenceReport()
    corpus._tally(rep, "refused first", 3, trials(True, None, False))
    corpus._tally(rep, "false first", 2, trials(False, None))
    assert rep.entries == [
        {"name": "refused first", "ok": False,
         "detail": "1/3, first failure at instance 1: broken"},
        {"name": "false first", "ok": False,
         "detail": "0/2, first failure at instance 0"}]


def test_a_failing_lax_chain_is_counted_and_located(monkeypatch):
    broken = corpus.CoherenceReport()
    broken.add("associativity", False)
    _fail_third_call(monkeypatch, "verify_lax_functor", broken)
    rep = corpus.run_battery("lax multiplication on algebra maps", 7, 0.05)
    assert rep.ok is False
    assert rep.entries[0] == {
        "name": "lax structure on random chains",
        "ok": False, "detail": "4/5, first failure at instance 2"}
    assert all(e["ok"] for e in rep.entries[1:])


PAIRS = ("fibered tensor coequalizers", "tensor quotient witnesses on random pairs")


def pair_keys(monkeypatch, refuse_in=None):
    """Patch the pair family so that each of its instances records the
    content keys of the bimodules tensor_over receives, into the list this
    returns; with refuse_in, random_bimodule refuses its first call in that
    instance, before the instance has drawn a bimodule."""
    battery, family = PAIRS
    families, fixed = corpus.BATTERIES[battery]
    row = next(r for r in families if r[0] == family)
    keys, inside = [], []
    real_tensor, real_bimodule = corpus.tensor_over, corpus.random_bimodule

    def trial(rng, field):
        keys.append([])
        inside.append(len(keys) - 1)
        try:
            return row[2](rng, field)
        finally:
            inside.pop()

    def tensor_over(m, n):
        if inside:
            keys[-1].append((content_key(m), content_key(n)))
        return real_tensor(m, n)

    def random_bimodule(*args, **kwargs):
        if inside == [refuse_in] and not keys[-1]:
            raise ValueError("refused")
        return real_bimodule(*args, **kwargs)

    rows = [(family, row[1], trial) if r is row else r for r in families]
    monkeypatch.setitem(corpus.BATTERIES, battery, (rows, fixed))
    monkeypatch.setattr(corpus, "tensor_over", tensor_over)
    monkeypatch.setattr(corpus, "random_bimodule", random_bimodule)
    return keys


def test_an_instance_draws_the_same_alone_and_in_a_full_run(monkeypatch):
    """Instance 3 of the pair family, drawn alone from its own stream, gets
    the bimodules it gets inside a full run; and a refusal in instance 1
    before any bimodule is drawn leaves instance 2's bimodules as they are
    in a passing run."""
    battery, family = PAIRS
    keys = pair_keys(monkeypatch)
    corpus.run_all(seed=0, scale=0.05)
    full = list(keys)
    assert len(full) == 10 and all(len(k) == 1 for k in full)
    keys.clear()
    trial = {f: t for f, _, t in corpus.BATTERIES[battery][0]}[family]
    assert trial(random.Random(f"0/{battery}/{family}/3"), QQ)
    assert keys == [full[3]]

    monkeypatch.undo()
    keys = pair_keys(monkeypatch, refuse_in=1)
    rep = corpus.run_battery(battery, 0, 0.05)
    assert rep.entries[0]["detail"] == "9/10, first failure at instance 1: refused"
    assert keys[1] == [] and keys[2] == full[2]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
