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

SEED = 0


def _run_battery(name, scale=1.0):
    index = {bname: i for i, (bname, _) in enumerate(corpus.BATTERIES)}
    assert name in index, f"unknown battery {name!r}"
    i = index[name]
    rng = random.Random(SEED * 1000003 + i)
    rep = corpus.BATTERIES[i][1](rng, scale=scale)
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
    """200 random bimodule pairs satisfy the quotient witnesses exactly;
    unit and associator isos have exact two-sided inverses; pentagon and
    triangle identities hold on 50 random composable instances."""
    rep = _run_battery("fibered tensor coequalizers")
    names = [e["name"] for e in rep.entries]
    assert "tensor quotient witnesses on random pairs" in names
    assert "pentagon identity on random chains" in names
    assert "triangle identity on random chains" in names


def test_horizontal_interchanger():
    """On 100 random 2x2 grids the interchanger and its independently
    descended inverse compose to the identity both ways, both are verified
    3-cells, and the interchanger is natural under random twists."""
    rep = _run_battery("horizontal interchanger")
    assert rep.entries[0]["detail"].endswith("100/100")


def test_lax_multiplication_on_algebra_maps():
    """On 100 random composable chains the multiplication comparison maps
    are verified algebra maps satisfying associativity and unit collapses;
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
    """Iso-leg cospans invert with identity-comparison witnesses; invertible
    2-diagrams admit certified invertible 3-cells to the identity; the
    diagonal-inclusion centralizer cospan is reported not invertible; every
    reported failure bound stays below 2**-20."""
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
    rng stream and the instance count stay those of a passing run."""
    _fail_third_call(monkeypatch, "interchange_check", False)
    rep = corpus.interchange_battery(random.Random(7), scale=0.05)
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
    rep = corpus.lax_functor_battery(random.Random(7), scale=0.05)
    assert rep.ok is False
    assert rep.entries[0] == {
        "name": "lax structure on random chains",
        "ok": False, "detail": "4/5, first failure at instance 2"}
    assert all(e["ok"] for e in rep.entries[1:])


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
