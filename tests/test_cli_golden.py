"""Golden reports of the command line: each case runs ``centrum.cli.main``
in-process and compares its exit code and stdout byte for byte with the
committed expectation under ``tests/data/cli/expected``; one more test
replays every case in a ``python -O`` process, which strips ``assert``, and
another replays them all in this process, forward and then in reverse, with
the memoised constructions warm.

The cases are the benchmark's single-object queries (at fixed seeds),
``validate`` of a good presentation of each object kind, an unknown
constructor of each kind, QQ file inputs whose reports print non-integral
rationals, and the error reports for bad input.  Reports
embed the spec strings, so the cases run from ``tests/data/cli`` and name
their input files by relative path.

To rewrite the expectations after an intended change of the reports:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from centrum.cli import COMMANDS, main

TESTS = Path(__file__).parent
DATA = TESTS / "data" / "cli"
EXPECTED = DATA / "expected"
KINDS = ("algebra", "map", "bimodule", "bimodule-map", "cospan", "2diagram")

# (case name, argv, exit code)
CASES = [
    # the benchmark's cli workload
    ("center-matrix3", ["center", "--algebra", "matrix:3"], 0),
    ("centralizer-diag3", ["centralizer", "--map", "diag:3"], 0),
    ("z-hom-diag2", ["z-hom", "--map", "diag:2"], 0),
    ("z-bimodule-regular-matrix2",
     ["z-bimodule", "--bimodule", "regular:matrix:2"], 0),
    ("z-2cell-id-regular-matrix2",
     ["z-2cell", "--bimodule-map", "id:regular:matrix:2"], 0),
    ("tensor-over-col3-row3",
     ["tensor-over", "--left", "col:3", "--right", "row:3"], 0),
    ("compose-cospans-c2",
     ["compose-cospans", "--first", "identity:group:C2",
      "--second", "identity:group:C2"], 0),
    ("compose-2diagrams-vertical",
     ["compose-2diagrams", "vertical",
      "--first", "identity:identity:product:k^2",
      "--second", "identity:identity:product:k^2"], 0),
    ("compose-2diagrams-horizontal",
     ["compose-2diagrams", "horizontal",
      "--first", "identity:identity:product:k^2",
      "--second", "identity:identity:product:k^2"], 0),
    ("invertible-cospan-diag2", ["invertible", "cospan", "--map", "diag:2"],
     1),
    ("invertible-2cell-c2",
     ["invertible", "2cell", "--diagram", "identity:identity:group:C2"], 0),
    ("validate-bimodule-regular-matrix2",
     ["validate", "bimodule", "regular:matrix:2"], 0),
    ("validate-2diagram-identity-c2",
     ["validate", "2diagram", "identity:identity:group:C2"], 0),
    ("verify-morita-matrix2",
     ["verify", "morita", "--algebra", "matrix:2", "--n", "2"], 0),
    ("verify-triangle-seed1", ["verify", "triangle", "--seed", "1"], 0),
    ("verify-lax-seed2", ["verify", "lax", "--seed", "2"], 0),
    ("beta-check-seed3", ["beta-check", "--seed", "3"], 0),
    # the other verify variants, seeded and named, and the whole corpus
    ("verify-pentagon-seed1", ["verify", "pentagon", "--seed", "1"], 0),
    ("verify-naturality-seed1", ["verify", "naturality", "--seed", "1"], 0),
    ("verify-thm58-seed1", ["verify", "thm58", "--seed", "1"], 0),
    ("verify-lax-id-k",
     ["verify", "lax", "--f", "id:k", "--g", "id:k", "--h", "id:k"], 0),
    ("verify-pentagon-regular-k",
     ["verify", "pentagon", "--b1", "regular:k", "--b2", "regular:k",
      "--b3", "regular:k", "--b4", "regular:k"], 0),
    ("verify-naturality-id-regular-k",
     ["verify", "naturality", "--phi", "id:regular:k",
      "--psi", "id:regular:k"], 0),
    ("corpus-scale0.05", ["corpus", "--scale", "0.05"], 0),
    # named inputs where a seeded instance is the default
    ("beta-check-named-grid",
     ["beta-check", "--d1p", "identity:identity:k", "--d1", "identity:identity:k",
      "--d2p", "identity:identity:k", "--d2", "identity:identity:k"], 0),
    ("verify-naturality-two-squares-regular-k",
     ["verify", "naturality", "--phi", "id:regular:k", "--psi", "id:regular:k",
      "--phip", "id:regular:k", "--psip", "id:regular:k"], 0),
    # the zero bimodule: its End is the 0-dimensional algebra, over which
    # the square's tensor products have no relations
    ("verify-naturality-zero-bimodule-map",
     ["verify", "naturality", "--phi", "@bimodule_map_zero.json",
      "--psi", "id:regular:k"], 0),
    # an invertible cospan's report carries its inverse legs
    ("invertible-cospan-identity-product",
     ["invertible", "cospan", "--cospan", "identity:product:k^2"], 0),
    # a 2-diagram between different cospans gets the leg verdict only
    ("invertible-2cell-cospans-differ",
     ["invertible", "2cell", "--diagram", "@2diagram_cospans_differ.json"], 1),
    # a 2-diagram from a file, whose 3-cell to the identity is its leg 3/2
    ("invertible-2cell-file",
     ["invertible", "2cell", "--diagram", "@2diagram.json"], 0),
    # the 0-dimensional 2-diagram: its hom space comes from a presentation
    # with no generators, and no 3-cell meets the identity's legs
    ("invertible-2cell-zero-dimensional",
     ["invertible", "2cell", "--diagram", "@2diagram_zero.json"], 1),
    # the remaining constructors
    ("validate-algebra-product", ["validate", "algebra", "product:k^3"], 0),
    ("validate-map-unit", ["validate", "map", "unit:product:k^2"], 0),
    ("validate-bimodule-free",
     ["validate", "bimodule", "free:matrix:2,k"], 0),
    ("validate-cospan-identity", ["validate", "cospan", "identity:k"], 0),
    ("center-gfp5", ["center", "--algebra", "group:C2", "--field", "gfp:5"],
     0),
    # GF(p) file input: group:C2 written with unreduced scalars, and with a
    # fraction, which GF(p) does not parse
    ("center-gfp5-unreduced-file",
     ["center", "--algebra", "@algebra_c2_gfp5_unreduced.json",
      "--field", "gfp:5"], 0),
    ("center-gfp5-fraction-file",
     ["center", "--algebra", "@algebra_c2_gfp5_half.json", "--field", "gfp:5"],
     2),
    # small primes, where a missed reduction shows first, and a large one
    ("center-matrix3-gfp2",
     ["center", "--algebra", "matrix:3", "--field", "gfp:2"], 0),
    ("verify-lax-seed3-gfp3",
     ["verify", "lax", "--seed", "3", "--field", "gfp:3"], 0),
    ("beta-check-seed2-gfp1000003",
     ["beta-check", "--seed", "2", "--field", "gfp:1000003"], 0),
    ("tensor-over-col3-row3-gfp2",
     ["tensor-over", "--left", "col:3", "--right", "row:3",
      "--field", "gfp:2"], 0),
    ("invertible-cospan-diag2-gfp3",
     ["invertible", "cospan", "--map", "diag:2", "--field", "gfp:3"], 1),
    ("invertible-2cell-c2-gfp2",
     ["invertible", "2cell", "--diagram", "identity:identity:group:C2",
      "--field", "gfp:2"], 0),
    # QQ inputs and reports with non-integral entries
    ("validate-map-rational-file",
     ["validate", "map", "@map_rational.json"], 0),
    ("centralizer-map-rational-file",
     ["centralizer", "--map", "@map_rational.json"], 0),
    ("z-hom-map-rational-file", ["z-hom", "--map", "@map_rational.json"], 0),
    ("validate-bimodule-rational-file",
     ["validate", "bimodule", "@bimodule_rational.json"], 0),
    ("tensor-over-bimodule-rational-file",
     ["tensor-over", "--left", "@bimodule_rational.json",
      "--right", "@bimodule_rational.json"], 0),
    ("z-bimodule-bimodule-rational-file",
     ["z-bimodule", "--bimodule", "@bimodule_rational.json"], 0),
    # a good file presentation of each kind, and an unknown constructor
    *((f"validate-{kind}-file", ["validate", kind, f"@{kind}.json"], 0)
      for kind in KINDS),
    *((f"validate-{kind}-unknown", ["validate", kind, "nonesuch:2"], 2)
      for kind in KINDS),
    # bad input
    ("malformed-json", ["validate", "algebra", "@malformed.json"], 2),
    ("missing-file", ["center", "--algebra", "@missing.json"], 2),
    ("wrong-kind", ["validate", "map", "@algebra.json"], 2),
    ("null-file", ["validate", "map", "@null.json"], 2),
    ("algebra-fails-validator",
     ["validate", "algebra", "@algebra_broken.json"], 2),
    ("map-source-fails-validator",
     ["validate", "map", "@map_broken_source.json"], 2),
    ("map-fails-validator",
     ["centralizer", "--map", "@map_not_multiplicative.json"], 2),
    ("float-scalar", ["validate", "map", "@map_float.json"], 2),
    # an exponent, which Fraction reads past Python's int digit limit
    ("exponent-scalar", ["validate", "algebra", "@algebra_exponent_unit.json"],
     2),
    # underscores and non-ASCII digits, which int reads
    ("underscore-scalar-gfp5",
     ["validate", "algebra", "@algebra_underscore_unit.json", "--field", "gfp:5"],
     2),
    ("field-non-ascii-digit",
     ["center", "--algebra", "k", "--field", "gfp:\u0665"], 2),
    # p as typed is the field's name: no sign and no leading zero
    ("field-signed-prime", ["center", "--algebra", "k", "--field", "gfp:+5"],
     2),
    ("field-leading-zero", ["center", "--algebra", "k", "--field", "gfp:05"],
     2),
    ("algebra-dim-bool", ["validate", "algebra", "@algebra_dim_bool.json"], 2),
    ("bimodule-dim-bool",
     ["validate", "bimodule", "@bimodule_dim_bool.json"], 2),
    ("cospan-apex-mismatch",
     ["validate", "cospan", "@cospan_apex_mismatch.json"], 2),
    ("2diagram-pair-mismatch",
     ["validate", "2diagram", "@2diagram_pair_mismatch.json"], 2),
    ("2diagram-bimodule-fails-validator",
     ["validate", "2diagram", "@2diagram_broken_bimodule.json"], 2),
    # cospans over outer algebras of different dimensions: one violation,
    # and no action compared
    ("2diagram-outer-dims",
     ["validate", "2diagram", "@2diagram_outer_dims.json"], 2),
    ("bimodule-fails-right-action",
     ["validate", "bimodule", "@bimodule_broken_right.json"], 2),
    ("bimodule-fails-commutation",
     ["validate", "bimodule", "@bimodule_broken_commute.json"], 2),
    ("algebra-size-not-integer", ["center", "--algebra", "matrix:x"], 2),
    ("diag-size-zero", ["validate", "map", "diag:0"], 2),
    # a size is written as str(n) writes it: int also reads these
    ("algebra-size-non-ascii-digit",
     ["validate", "algebra", "matrix:\u0662"], 2),
    ("product-size-underscore", ["validate", "algebra", "product:k^1_0"], 2),
    ("diag-size-signed", ["validate", "map", "diag:+2"], 2),
    ("col-size-leading-zero", ["validate", "bimodule", "col:02"], 2),
    # sizes past algebra.MAX_DIM, refused before anything is allocated
    ("algebra-size-huge", ["center", "--algebra", "matrix:11"], 2),
    ("product-size-huge", ["validate", "algebra", "product:k^101"], 2),
    ("diag-size-huge", ["validate", "map", "diag:11"], 2),
    ("row-size-huge", ["validate", "bimodule", "row:11"], 2),
    ("col-size-huge", ["validate", "bimodule", "col:11"], 2),
    ("morita-n-huge",
     ["verify", "morita", "--algebra", "matrix:2", "--n", "100000"], 2),
    ("free-one-algebra", ["validate", "bimodule", "free:k"], 2),
    ("unknown-field", ["center", "--algebra", "k", "--field", "gfp:4"], 2),
    ("tensor-over-mismatch",
     ["tensor-over", "--left", "col:2", "--right", "col:2"], 2),
    # named inputs that do not compose
    ("compose-cospans-mismatch",
     ["compose-cospans", "--first", "identity:k",
      "--second", "identity:product:k^2"], 2),
    ("compose-2diagrams-vertical-mismatch",
     ["compose-2diagrams", "vertical", "--first", "identity:identity:k",
      "--second", "identity:identity:product:k^2"], 2),
    ("compose-2diagrams-horizontal-mismatch",
     ["compose-2diagrams", "horizontal", "--first", "identity:identity:k",
      "--second", "identity:identity:product:k^2"], 2),
    ("pentagon-chain-mismatch",
     ["verify", "pentagon", "--b1", "regular:k", "--b2", "regular:product:k^2",
      "--b3", "regular:k", "--b4", "regular:k"], 2),
    ("lax-chain-mismatch",
     ["verify", "lax", "--f", "id:k", "--g", "id:product:k^2"], 2),
    ("naturality-middle-mismatch",
     ["verify", "naturality", "--phi", "id:regular:k",
      "--psi", "id:regular:product:k^2"], 2),
    # a right action list of the wrong length
    ("bimodule-ract-count",
     ["validate", "bimodule", "@bimodule_ract_count.json"], 2),
    ("corpus-scale-inf", ["corpus", "--scale", "inf"], 2),
    ("corpus-scale-zero", ["corpus", "--scale", "0"], 2),
    ("corpus-scale-huge", ["corpus", "--scale", "1e300"], 2),
    # an operation that refuses valid input: the generic bad-input report.
    # k^85 over (k, k) needs 85 generators, so the basis maps of its
    # endomorphisms would hold 85^4 cells
    ("z-bimodule-trivial85-too-large",
     ["z-bimodule", "--bimodule", "@bimodule_trivial85.json"], 2),
    # M_6 regular: cyclic, one generator, computed in about a second
    ("z-bimodule-regular-matrix6",
     ["z-bimodule", "--bimodule", "regular:matrix:6"], 0),
    # a report that cannot be written to --out: one error report, on stdout
    ("out-unwritable",
     ["center", "--algebra", "k", "--out", "no-such-dir/report.json"], 2),
    # flags that go together
    ("beta-check-partial-grid",
     ["beta-check", "--d1", "identity:identity:k"], 2),
    ("pentagon-partial-chain", ["verify", "pentagon", "--b1", "regular:k"],
     2),
    ("triangle-left-only", ["verify", "triangle", "--left", "regular:k"], 2),
    ("lax-h-without-g",
     ["verify", "lax", "--f", "id:k", "--h", "id:k"], 2),
    ("lax-f-only", ["verify", "lax", "--f", "id:k"], 2),
    ("naturality-phi-only",
     ["verify", "naturality", "--phi", "id:regular:k"], 2),
    ("naturality-phip-only",
     ["verify", "naturality", "--phi", "id:regular:k",
      "--psi", "id:regular:k", "--phip", "id:regular:k"], 2),
    ("naturality-second-square-only",
     ["verify", "naturality", "--phip", "id:regular:k",
      "--psip", "id:regular:k"], 2),
    ("morita-without-algebra", ["verify", "morita"], 2),
    ("invertible-cospan-neither", ["invertible", "cospan"], 2),
    ("invertible-cospan-both",
     ["invertible", "cospan", "--cospan", "identity:k", "--map", "diag:2"],
     2),
    ("invertible-2cell-without-diagram", ["invertible", "2cell"], 2),
    # a missing input: a JSON refusal, as for verify morita
    ("center-without-algebra", ["center"], 2),
    ("centralizer-without-map", ["centralizer"], 2),
    ("z-hom-without-map", ["z-hom"], 2),
    ("z-bimodule-without-bimodule", ["z-bimodule"], 2),
    ("z-2cell-without-bimodule-map", ["z-2cell"], 2),
    ("tensor-over-without-right", ["tensor-over", "--left", "col:2"], 2),
    ("compose-cospans-without-either", ["compose-cospans"], 2),
    ("compose-2diagrams-without-second",
     ["compose-2diagrams", "vertical", "--first", "@2diagram.json"], 2),
]


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_report(name, argv, code, monkeypatch):
    monkeypatch.chdir(DATA)
    got_code, got = run_case(argv)
    assert got_code == code
    assert got == (EXPECTED / f"{name}.json").read_text(encoding="utf-8")


def test_unreduced_gfp_file_hashes_as_its_canonical_form():
    """The content hash reads the reduced entries, so group:C2 over GF(5)
    written with unreduced scalars hashes as the named constructor does."""
    def algebra_hash(name):
        report = json.loads((EXPECTED / f"{name}.json").read_text(encoding="utf-8"))
        return report["inputs"]["algebra"]["hash"]

    assert algebra_hash("center-gfp5-unreduced-file") == algebra_hash("center-gfp5")


def test_golden_reports_under_optimize():
    """Every case again in one ``python -O`` process, which strips assert
    statements: no report may depend on them."""
    script = ("import json, sys\n"
              "import test_cli_golden as g\n"
              "print(json.dumps([sys.flags.optimize]"
              " + [g.run_case(argv) for _, argv, _ in g.CASES]))\n")
    path = [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=DATA,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    optimize, *results = json.loads(proc.stdout)
    assert optimize == 1
    differ = [name for (name, _, code), (got_code, got) in zip(CASES, results)
              if got_code != code
              or got != (EXPECTED / f"{name}.json").read_text(encoding="utf-8")]
    assert differ == []


def test_golden_reports_replay_with_warm_caches(monkeypatch):
    """Every case twice more in this process, the second time in reverse
    order, so each report is made after the memoised constructions have
    seen other commands' objects: no report may depend on what was computed
    before it."""
    monkeypatch.chdir(DATA)
    differ = []
    for name, argv, code in CASES + CASES[::-1]:
        got = run_case(argv)
        if got != (code, (EXPECTED / f"{name}.json").read_text(encoding="utf-8")):
            differ.append(name)
    assert differ == []


def command_leaves():
    """Each subcommand of the COMMANDS table, variants spelled out."""
    for name, (_, handler, _) in COMMANDS.items():
        if isinstance(handler, dict):
            yield from ((name, variant) for variant in handler)
        else:
            yield (name,)


def test_every_command_leaf_has_a_golden_case():
    unreached = [leaf for leaf in command_leaves()
                 if not any(tuple(argv[:len(leaf)]) == leaf
                            for _, argv, _ in CASES)]
    assert unreached == []


@pytest.mark.parametrize("leaf", list(command_leaves()), ids=" ".join)
def test_every_command_leaf_has_help(leaf, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*leaf, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: centrum {' '.join(leaf)}")


@pytest.mark.parametrize("argv", [
    ["verify", "triangle", "--b1", "regular:k"],
    ["invertible", "cospan", "--map", "diag:2",
     "--diagram", "identity:identity:k"],
    ["verify", "morita", "--algebra", "k", "--phi", "id:regular:k"],
    ["verify", "--seed", "3", "lax"],
], ids=" ".join)
def test_flag_of_another_variant_is_refused(argv, capsys):
    """Each variant takes only its own flags, and the common ones after it."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_shared_parser_keeps_no_state_between_calls(monkeypatch):
    """The parser is built once per process: a call with other flags before
    a report leaves that report as it is."""
    monkeypatch.chdir(DATA)
    named = ["verify", "triangle", "--left", "regular:k",
             "--right", "regular:k", "--field", "gfp:3", "--seed", "5"]
    seeded = ["verify", "triangle", "--seed", "1"]
    first = [run_case(named), run_case(seeded)]
    assert [run_case(named), run_case(seeded)] == first
    assert first[1] == (0, (EXPECTED / "verify-triangle-seed1.json")
                        .read_text(encoding="utf-8"))


def test_corpus_report_repeats_with_warm_caches():
    assert run_case(["corpus", "--scale", "0.05"]) == \
        run_case(["corpus", "--scale", "0.05"])


def regenerate():
    EXPECTED.mkdir(exist_ok=True)
    os.chdir(DATA)
    for name, argv, code in CASES:
        got_code, got = run_case(argv)
        if got_code != code:
            raise SystemExit(f"{name}: exit {got_code}, expected {code}")
        (EXPECTED / f"{name}.json").write_text(got, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
