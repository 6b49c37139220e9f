"""End-to-end tests of the command line front end: exit codes, report
envelopes, content hashes, determinism, and the error path for inputs that
fail their validators."""

import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_golden import CASES, DATA, TESTS, command_leaves, run_case

from centrum import cli, corpus, cospanbicat
from centrum.algebra import (
    alg_dual_numbers,
    alg_group_c2,
    alg_matrix,
    alg_product_k,
    validate_algebra,
)
from centrum.cli import (
    CODECS,
    COMMANDS,
    PARSER,
    InputError,
    Report,
    algebra_dict,
    content_hash,
    fmt_matrix,
    fmt_vector,
    main,
)
from centrum.exactla import (
    QQ,
    Keyed,
    Matrix,
    PrimeField,
    Quotient,
    content_key,
)
from centrum.cospanbicat import validate_2diagram
from centrum.fixtures import random_bimodule, random_hom_element
from centrum.fullcenter import Z_2cell, Z_bimodule


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "centrum", *argv],
        capture_output=True,
        text=True,
    )
    payload = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, payload


def test_center_of_matrix_algebra():
    code, r = run_cli("center", "--algebra", "matrix:2")
    assert code == 0
    assert r["schema"] == "centrum/1"
    assert r["command"] == "center"
    assert r["result"]["dim"] == 1
    assert r["ok"] is True
    assert all(c["ok"] for c in r["checks"])
    assert r["inputs"]["algebra"]["hash"].startswith("sha256:")


def test_centralizer_of_diagonal_inclusion():
    code, r = run_cli("centralizer", "--map", "diag:2")
    assert code == 0
    assert r["result"]["dim"] == 2
    grid = [[int(x) for x in row] for row in r["result"]["basis"]]
    # the two columns span the diagonal matrices
    assert grid == [[1, 0], [0, 0], [0, 0], [0, 1]]


def test_morita_example_passes():
    code, r = run_cli("verify", "morita", "--algebra", "matrix:1", "--n", "2")
    assert code == 0
    assert r["result"]["z_dim"] == r["result"]["z_amplified_dim"] == 1


def test_validator_failure_exits_two_with_violations(tmp_path):
    bad = {
        "kind": "algebra",
        "dim": 3,
        "unit": ["1", "0", "0"],
        "sc": [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]],
            [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]],
        ],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(bad))
    code, r = run_cli("validate", "algebra", f"@{path}")
    assert code == 2
    assert r["ok"] is False
    assert any("associativity fails at" in v
               for v in r["error"]["violations"])


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, r = run_cli("validate", "algebra", f"@{path}")
    assert code == 2
    assert "malformed JSON" in r["error"]["message"]
    # nesting past the recursion limit, and an int past the digit limit
    for name, text in [("deep.json", "[" * 3000 + "]" * 3000),
                       ("digits.json", '{"kind": "algebra", "dim": 1%s}'
                        % ("0" * 5000))]:
        path = tmp_path / name
        path.write_text(text)
        code, r = run_main(["validate", "map", f"@{path}"], capsys)
        assert code == 2
        assert r["error"]["message"].startswith(f"malformed JSON in {path}: ")


def test_unknown_constructor_exits_two():
    code, r = run_cli("center", "--algebra", "quaternions")
    assert code == 2
    assert "unknown algebra constructor" in r["error"]["message"]


def test_non_invertible_centralizer_cospan_exits_one():
    code, r = run_cli("invertible", "cospan", "--map", "diag:2")
    assert code == 1
    assert r["result"]["invertible"] is False
    assert r["result"]["reasons"]
    assert r["ok"] is False


def test_invertible_identity_cospan_exits_zero():
    code, r = run_cli("invertible", "cospan", "--cospan",
                      "identity:product:k^2")
    assert code == 0
    assert r["result"]["invertible"] is True
    assert "inverse" in r["result"]


def test_reports_byte_identical_across_runs():
    proc1 = subprocess.run(
        [sys.executable, "-m", "centrum", "beta-check", "--seed", "11"],
        capture_output=True, text=True)
    proc2 = subprocess.run(
        [sys.executable, "-m", "centrum", "beta-check", "--seed", "11"],
        capture_output=True, text=True)
    assert proc1.returncode == proc2.returncode == 0
    assert proc1.stdout == proc2.stdout
    assert proc1.stdout.strip()


def test_constructor_and_file_presentations_hash_identically(tmp_path):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(algebra_dict(alg_group_c2())))
    _, from_file = run_cli("center", "--algebra", f"@{path}")
    _, from_name = run_cli("center", "--algebra", "group:C2")
    assert (from_file["inputs"]["algebra"]["hash"]
            == from_name["inputs"]["algebra"]["hash"])
    assert from_file["result"] == from_name["result"]


def test_out_flag_writes_byte_identical_copy(tmp_path):
    path = tmp_path / "copy.json"
    proc = subprocess.run(
        [sys.executable, "-m", "centrum", "center", "--algebra", "k",
         "--out", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert path.read_text() == proc.stdout


def test_out_flag_writes_what_goes_to_stdout(tmp_path, capsys):
    """In this process: a written --out copy is exactly the report on
    stdout."""
    path = tmp_path / "report.json"
    assert main(["verify", "lax", "--seed", "2", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["command"] == "verify lax"
    assert path.read_text(encoding="utf-8") == out


def test_tensor_over_column_and_row_modules():
    code, r = run_cli("tensor-over", "--left", "col:2", "--right", "row:2")
    assert code == 0
    assert r["result"]["dim"] == 4
    assert r["result"]["ambient_dim"] == 4
    assert r["result"]["relation_rank"] == 0


def test_tensor_over_middle_mismatch_exits_two():
    code, r = run_cli("tensor-over", "--left", "col:2", "--right", "col:2")
    assert code == 2
    assert "right algebra" in r["error"]["message"]


def test_prime_field_center():
    code, r = run_cli("center", "--algebra", "matrix:2", "--field", "gfp:5")
    assert code == 0
    assert r["field"] == "gfp:5"
    assert r["result"]["dim"] == 1


def test_compose_2diagrams_both_directions():
    for how in ("vertical", "horizontal"):
        code, r = run_cli("compose-2diagrams", how,
                          "--first", "identity:identity:k",
                          "--second", "identity:identity:k")
        assert code == 0, how
        assert r["command"] == f"compose-2diagrams {how}"


def test_generated_beta_grid_reports_all_four_inputs():
    code, r = run_cli("beta-check", "--seed", "4")
    assert code == 0
    assert set(r["inputs"]) == {"d1p", "d1", "d2p", "d2"}
    assert all(v["source"] == "generated:seed=4"
               for v in r["inputs"].values())
    assert len(r["checks"]) == 4


def test_a_second_input_under_one_label_is_refused():
    rep = Report(PARSER.parse_args(["validate", "algebra", "k"]))
    rep.field = QQ
    first = rep.resolve("algebra", "k", "a")
    with pytest.raises(InputError, match="^duplicate input label 'a'$"):
        rep.record("a", "matrix:2", "algebra", alg_matrix(2))
    assert rep.inputs == {"a": {"source": "k", "hash": content_hash(
        algebra_dict(first))}}


def test_z_hom_of_diagonal_inclusion():
    code, r = run_cli("z-hom", "--map", "diag:2")
    assert code == 0
    assert r["result"]["object"]["apex_dim"] == 2
    assert r["result"]["cospan"]["z_src_dim"] == 2
    assert r["result"]["cospan"]["z_tgt_dim"] == 1


def test_main_callable_in_process(capsys):
    code = main(["center", "--algebra", "dual_numbers"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["result"]["dim"] == 2


def test_verify_lax_seeded_deterministic():
    code1, r1 = run_cli("verify", "lax", "--seed", "2")
    code2, r2 = run_cli("verify", "lax", "--seed", "2")
    assert code1 == code2 == 0
    assert r1 == r2
    assert r1["result"]["chains"] == 3


def test_content_hash_is_stable():
    d = algebra_dict(alg_group_c2())
    assert content_hash(d) == content_hash(json.loads(json.dumps(d)))


@pytest.mark.parametrize("argv", [
    ["center", "--algebra", "matrix:3"],
    ["invertible", "2cell", "--diagram", "identity:identity:group:C2"],
    ["z-2cell", "--bimodule-map", "id:regular:matrix:2"],
], ids=" ".join)
def test_a_repeated_report_checks_encodes_and_hashes_nothing_again(
        argv, monkeypatch, capsys, fresh_memos):
    """Run twice in-process, a report comes out byte-identical the second
    time with no miss of input_hash, validate_algebra or validate_2diagram
    and no algebra encoded: every input is validated, encoded and hashed
    once per content.  Work is counted, not timed."""
    encoded, real = [], cli.algebra_dict

    def spy(a):
        encoded.append(a)
        return real(a)

    # the codec table holds algebra_dict itself; bimodule_dict calls it by
    # its module name
    monkeypatch.setitem(CODECS, "algebra",
                        dataclasses.replace(CODECS["algebra"], encode=spy))
    monkeypatch.setattr(cli, "algebra_dict", spy)
    memos = (cli.input_hash, validate_algebra, validate_2diagram)
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert encoded
    misses = [fn.misses for fn in memos]
    encoded.clear()
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert [fn.misses for fn in memos] == misses
    assert encoded == []


def test_scalars_are_written_exactly():
    """A scalar is written as str writes it: an integral Fraction as an
    integer, a GF(p) element as its int in [0, p)."""
    m = Matrix([[Fraction(6, 3), Fraction(-3, 4)], [0, 1]], QQ)
    assert fmt_matrix(m) == [["2", "-3/4"], ["0", "1"]]
    gf = PrimeField(7)
    assert fmt_vector([gf.from_int(-1), gf.parse("9"), gf.zero]) == \
        ["6", "2", "0"]


def codec_fixtures(field, rng):
    """One object of every kind in CODECS, around a twisted bimodule M:
    End(M), its cospan and that cospan's left leg, M, a map M -> N and
    the 2-diagram it induces.  Over QQ each holds non-integral entries."""
    a, b = alg_product_k(2, field), alg_dual_numbers(field)
    m, n = (random_bimodule(a, b, rng, max_rank=1) for _ in range(2))
    phi = random_hom_element(m, n, rng)
    z = Z_bimodule(m)
    return {"algebra": z.apex, "map": z.cospan.leg_a, "bimodule": m,
            "bimodule-map": phi, "cospan": z.cospan, "2diagram": Z_2cell(phi)}


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(1000003)],
                         ids=repr)
def test_every_codec_decodes_what_it_encodes(field):
    objects = codec_fixtures(field, random.Random(5))
    assert list(objects) == list(CODECS)
    for kind, obj in objects.items():
        text = json.dumps(CODECS[kind].encode(obj))
        assert field.p or "/" in text, kind
        back = CODECS[kind].decode(json.loads(text), field)
        assert content_key(back) == content_key(obj), kind


def run_main(argv, capsys):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


# A nested part given as something other than a constructor string, an
# @file spec or a JSON object; algebras are covered as the parts of maps
# and bimodules, since an algebra nests no part itself.
NON_STRING_PARTS = [
    ("map", {"kind": "map"}, "map source"),
    ("map", {"kind": "map", "src": "k", "tgt": 1.5, "matrix": [[1]]},
     "map target"),
    ("bimodule", {"kind": "bimodule", "left": True, "right": "k", "dim": 1,
                  "lact": [[[1]]], "ract": [[[1]]]}, "bimodule left algebra"),
    ("bimodule-map", {"kind": "bimodule-map", "src": [1],
                      "tgt": "regular:k", "matrix": [[1]]},
     "bimodule map source"),
    ("cospan", {"kind": "cospan", "leg_a": None, "leg_b": "id:k"},
     "cospan leg_a"),
    ("2diagram", {"kind": "2diagram", "src": 0, "tgt": "identity:k",
                  "bimodule": "regular:k", "f": [[1]], "g": [[1]]},
     "2-diagram source cospan"),
    ("2diagram", {"kind": "2diagram", "src": "identity:k",
                  "tgt": "identity:k", "bimodule": False, "f": [[1]],
                  "g": [[1]]}, "2-diagram bimodule"),
]


@pytest.mark.parametrize("kind,payload,what", NON_STRING_PARTS)
def test_non_string_nested_spec_exits_two(kind, payload, what, tmp_path,
                                          capsys):
    path = tmp_path / "part.json"
    path.write_text(json.dumps(payload))
    code, r = run_main(["validate", kind, f"@{path}"], capsys)
    assert code == 2
    assert r["ok"] is False
    assert r["error"]["message"].startswith(
        f"{what}: expected a constructor string")


@pytest.mark.parametrize("spec", ["matrix:0", "product:k^0", "matrix:-1"])
def test_center_of_empty_algebra_exits_two(spec, capsys):
    code, r = run_main(["center", "--algebra", spec], capsys)
    assert code == 2
    assert "size must be at least 1" in r["error"]["message"]


@pytest.mark.parametrize("kind,prefix", [
    ("algebra", "matrix:"), ("algebra", "product:k^"), ("map", "diag:"),
    ("bimodule", "row:"), ("bimodule", "col:")])
def test_every_sized_constructor_reads_its_size_one_way(kind, prefix, capsys):
    """One size reader: text that is no integer, and an integer written
    another way or below 1, get the same message shape from every sized
    constructor."""
    name = prefix.split(":")[0]
    for text, message in (
            ("x", f"{name}: expected an integer, got 'x'"),
            ("\u0662", f"{name}: expected an integer, got '\u0662'"),
            ("1_0", f"{name}: expected an integer, got '1_0'"),
            *((t, f"{name}: the size must be at least 1, in ASCII digits with"
                  f" no sign or leading zero; got '{t}'")
              for t in ("0", "-1", "+2", "02"))):
        code, r = run_main(["validate", kind, prefix + text], capsys)
        assert code == 2
        assert r["error"]["message"].startswith(message)


@pytest.mark.parametrize("n", ["0", "-2"])
def test_morita_with_nonpositive_size_exits_two(n, capsys):
    code, r = run_main(["verify", "morita", "--algebra", "k", "--n", n],
                       capsys)
    assert code == 2
    assert r["error"]["message"] == (
        f"verify morita: --n must be at least 1, got {n}")


# validate bimodule-map with source and target over different algebra
# pairs, in both directions
MISMATCHED_PAIRS = [
    ("regular:k", "regular:dual_numbers", [["1"], ["0"]]),
    ("regular:dual_numbers", "regular:k", [["1", "0"]]),
]


@pytest.mark.parametrize("src,tgt,matrix", MISMATCHED_PAIRS)
def test_bimodule_map_between_different_pairs_exits_two(src, tgt, matrix,
                                                        tmp_path, capsys):
    path = tmp_path / "bimodule-map.json"
    path.write_text(json.dumps({"kind": "bimodule-map", "src": src,
                                "tgt": tgt, "matrix": matrix}))
    code, r = run_main(["validate", "bimodule-map", f"@{path}"], capsys)
    assert code == 2
    assert r["error"]["message"] == (
        "bimodule map: source and target pairs do not match")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))


def test_field_beyond_certified_primality_exits_two(capsys):
    code, r = run_main(["center", "--algebra", "k", "--field",
                        f"gfp:{2 ** 89 - 1}"], capsys)
    assert code == 2
    assert "too large" in r["error"]["message"]


# regular:matrix:10 passes every size check, but validating it would build
# the slot product L (mu_A (x) 1) of 100 x 10^6 cells
OVERSIZED = ["validate", "bimodule", "regular:matrix:10"]


def test_an_oversized_product_exits_two(capsys):
    code, r = run_main(OVERSIZED, capsys)
    assert code == 2
    assert "100000000 cells" in r["error"]["message"]


def test_an_oversized_product_exits_two_under_optimize():
    proc = subprocess.run([sys.executable, "-O", "-m", "centrum", *OVERSIZED],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "100000000 cells" in json.loads(proc.stdout)["error"]["message"]


def watch_matrices(monkeypatch, bad_entries):
    """Wrap both ways a Matrix is made, the checked constructor and the
    trusted _fresh, so that bad_entries(matrix) sees every matrix built."""
    init, fresh = Matrix.__init__, Matrix._fresh

    def checked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        bad_entries(self)

    def checked_fresh(*args):
        m = fresh(*args)
        bad_entries(m)
        return m

    monkeypatch.setattr(Matrix, "__init__", checked_init)
    monkeypatch.setattr(Matrix, "_fresh", staticmethod(checked_fresh))


def test_corpus_builds_no_matrix_with_a_float(monkeypatch, capsys):
    """QQ keeps integral values as ints, and int / int is a float: every
    division must go through the field, so no float may reach a Matrix."""
    floats = []
    watch_matrices(monkeypatch, lambda m: floats.extend(
        x for row in m.data for x in row if type(x) is float))
    assert main(["corpus", "--scale", "0.05"]) == 0
    assert floats == [], f"float entries in a matrix: {floats[:3]}"
    assert json.loads(capsys.readouterr().out)["ok"] is True


@pytest.mark.parametrize("p", [2, 3])
def test_gfp_entries_are_reduced_ints(p, monkeypatch, capsys):
    """A GF(p) element is a plain int in [0, p), and the kernels reduce what
    they compute: no other value may reach a Matrix over GF(p)."""
    bad = []
    watch_matrices(monkeypatch, lambda m: m.field.p and bad.extend(
        x for row in m.data for x in row
        if type(x) is not int or not 0 <= x < m.field.p))
    assert main(["corpus", "--scale", "0.05", "--field", f"gfp:{p}"]) in (0, 1)
    assert bad == [], f"unreduced entries over GF({p}): {bad[:3]}"
    capsys.readouterr()


@pytest.mark.parametrize("field", ["rational", "gfp:3"])
def test_corpus_builds_every_matrix_in_canonical_form(field, monkeypatch, capsys):
    """A Matrix stores int rows over one denominator: over QQ den is None
    or an int > 1 whose gcd with all the entries is 1, and over GF(p) den
    is None.  ==, is_zero and content_key read that form, so no other may
    reach a Matrix."""
    bad = []

    def canonical(m):
        entries = list(chain.from_iterable(m.num))
        d = m.den
        if not (all(type(x) is int for x in entries) and (
                d is None or not m.field.p and type(d) is int and d > 1
                and gcd(d, *entries) == 1)):
            bad.append((m.shape, d))

    watch_matrices(monkeypatch, canonical)
    assert main(["corpus", "--scale", "0.05", "--field", field]) in (0, 1)
    assert bad == [], f"matrices not in canonical form: {bad[:3]}"
    capsys.readouterr()


# ROADMAP 3a: over GF(2) and GF(3) the invertible-3-cell search samples
# from too few residues, so its reported failure bound stays above 2^-20;
# GF(101) does not certify either at this scale.  Fixing 3a means updating
# this list.
SMALL_FIELD_FAILURE = "invertibility certificates: all reported failure bounds below 2^-20"


@pytest.mark.parametrize("p,failing", [
    (2, [SMALL_FIELD_FAILURE]),
    (3, [SMALL_FIELD_FAILURE]),
    (101, [SMALL_FIELD_FAILURE]),
    (1000003, []),
])
def test_corpus_over_four_primes(p, failing, capsys):
    code = main(["corpus", "--scale", "0.05", "--field", f"gfp:{p}"])
    r = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in r["checks"] if not c["ok"]] == failing
    assert code == (1 if failing else 0)


INTERCHANGER_REFUSED = (
    "horizontal interchanger: interchanger two-sided, verified, natural",
    "0/5, first failure at instance 0: the interchanger and its inverse"
    " are not mutually inverse")


def failing_corpus_checks():
    """The exit code of corpus at scale 0.05 and its failing checks, as
    (name, detail) pairs."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["corpus", "--scale", "0.05"])
    checks = json.loads(out.getvalue())["checks"]
    return code, [(c["name"], c["detail"]) for c in checks if not c["ok"]]


def corpus_with_interchanger_refused():
    """failing_corpus_checks() with beta_cell refusing every interchanger
    as not mutually inverse.  Written without assert, so it means the same
    under python -O."""
    real = cospanbicat.mutually_inverse
    cospanbicat.mutually_inverse = lambda a, b: False
    try:
        return failing_corpus_checks()
    finally:
        cospanbicat.mutually_inverse = real


def test_a_refusal_fails_its_instance():
    """A construction's refusal inside a battery instance fails that
    instance with its message, and corpus exits 1, not 2 as for bad input."""
    assert corpus_with_interchanger_refused() == (1, [INTERCHANGER_REFUSED])


def test_a_refusal_fails_its_instance_under_optimize():
    path = [str(TESTS), str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    script = ("import sys, test_cli as t\n"
              "print(sys.flags.optimize, t.corpus_with_interchanger_refused()"
              " == (1, [t.INTERCHANGER_REFUSED]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]


def test_a_refusal_outside_a_family_fails_its_battery(monkeypatch, fresh_memos):
    """With every quotient section refused, a battery that builds a
    quotient outside its families reports "battery ran to completion"
    failed, and the run goes on; every failing family names the refusal.
    The memoised caches are emptied first: a served result would skip the
    refusal."""
    message = "quotient section is not a section of the projection"

    def refuse(self, *args):
        raise ValueError(message)

    monkeypatch.setattr(Quotient, "__init__", refuse)
    code, failing = failing_corpus_checks()
    whole = [(name, detail) for name, detail in failing
             if name.endswith(": battery ran to completion")]
    assert code == 1
    assert whole == [
        ("lax multiplication on algebra maps: battery ran to completion", message),
        ("semisimple comparison isomorphisms: battery ran to completion", message)]
    families = [detail for name, detail in failing if (name, detail) not in whole]
    assert families and all(d.endswith(f": {message}") for d in families)


def test_corpus_scale_bound_covers_every_family():
    """MAX_SCALE keeps every family within MAX_INSTANCES: no family of
    corpus.BATTERIES runs more than MAX_INSTANCES / MAX_SCALE instances at
    scale 1."""
    bases = [base for families, _ in corpus.BATTERIES.values()
             for _, base, _ in families]
    assert max(bases) * corpus.MAX_SCALE <= corpus.MAX_INSTANCES
    assert corpus._count(max(bases), corpus.MAX_SCALE) == corpus.MAX_INSTANCES


def test_malformed_bimodule_action_exits_two(monkeypatch, tmp_path, capsys):
    """The Bimodule constructor's shape check reaches the report as an
    input error, also where parsing let a bad action through."""
    import centrum.cli as cli

    real = cli.parse_matrix

    def oversized(rows, shape, field, what):
        if what.startswith("bimodule lact"):
            return Matrix.zeros(shape[0] + 1, shape[1] + 1, field)
        return real(rows, shape, field, what)

    monkeypatch.setattr(cli, "parse_matrix", oversized)
    path = tmp_path / "bimodule.json"
    path.write_text(json.dumps({"kind": "bimodule", "left": "k", "right": "k",
                                "dim": 1, "lact": [[[1]]], "ract": [[[1]]]}))
    code, r = run_main(["validate", "bimodule", f"@{path}"], capsys)
    assert code == 2
    assert r["error"]["message"] == "bimodule: malformed action data"


def test_malformed_algebra_structure_exits_two(monkeypatch, capsys):
    """The Algebra constructor's shape check reaches the report as an input
    error, also where parsing let a bad unit through."""
    import centrum.cli as cli

    real = cli.parse_vector

    def oversized(v, n, field, what):
        if what == "algebra unit":
            return real(v, n, field, what) + [field.zero]
        return real(v, n, field, what)

    monkeypatch.setattr(cli, "parse_vector", oversized)
    monkeypatch.chdir(DATA)
    code, r = run_main(["validate", "algebra", "@algebra.json"], capsys)
    assert code == 2
    assert r["error"]["message"] == "algebra: malformed structure constants"


@pytest.mark.parametrize("kind,payload,message", [
    ("map", {"kind": "map", "src": "k", "tgt": "k", "matrix": [[1]]},
     "algebra map: the matrix must be tgt.dim x src.dim"),
    ("bimodule-map", {"kind": "bimodule-map", "src": "regular:k",
                      "tgt": "regular:k", "matrix": [[1]]},
     "bimodule map: matrix shape does not match"),
])
def test_composite_constructor_refusal_exits_two(kind, payload, message,
                                                 monkeypatch, tmp_path,
                                                 capsys):
    """A composite's constructor refuses with a ValueError, and its message
    is the report's, also where parsing let a bad matrix through."""
    import centrum.cli as cli

    real = cli.parse_matrix

    def oversized(rows, shape, field, what):
        if what.endswith("map matrix"):
            return Matrix.zeros(shape[0] + 1, shape[1], field)
        return real(rows, shape, field, what)

    monkeypatch.setattr(cli, "parse_matrix", oversized)
    path = tmp_path / "object.json"
    path.write_text(json.dumps(payload))
    code, r = run_main(["validate", kind, f"@{path}"], capsys)
    assert code == 2
    assert r["error"]["message"] == message


def test_every_type_keyed_more_than_once_is_keyed(monkeypatch, capsys):
    """content_key stores the key of a Keyed object on it and walks any
    other object with slots on every call: over the corpus and the golden
    cases, each type whose objects are keyed more than once is Keyed, so
    none of them is walked twice."""
    import centrum.exactla as exactla

    calls, real = {}, exactla.content_key

    def spy(x):
        if type(x) is not Matrix and hasattr(type(x), "__slots__"):
            calls.setdefault(id(x), [x, 0])[1] += 1
        return real(x)

    monkeypatch.setattr(exactla, "content_key", spy)
    for field in ("rational", "gfp:3"):
        assert main(["corpus", "--scale", "0.05", "--field", field]) in (0, 1)
    capsys.readouterr()
    monkeypatch.chdir(DATA)
    for _, argv, _ in CASES:
        run_case(argv)
    repeated = {type(x) for x, n in calls.values() if n > 1}
    assert [t.__name__ for t in repeated if not issubclass(t, Keyed)] == []
    assert sorted(t.__name__ for t in repeated) == [
        "Algebra", "AlgebraMap", "Bimodule", "BimoduleMap", "Cospan",
        "TwoDiagram"]


# -- fuzzed input: every run ends in one JSON report or argparse's usage ------

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=100)


def report_or_usage(argv):
    """main(argv) returns 0, 1 or 2 and prints one JSON report whose ok says
    whether it returned 0, or argparse exits 2 with its usage text; the
    caller fails on anything else raised.  Returns (exit code, report), or
    None after the usage text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert (exc.code, out.getvalue()) == (2, ""), argv
            assert err.getvalue().startswith("usage: centrum"), argv
            return None
    assert code in (0, 1, 2), argv
    report = json.loads(out.getvalue())
    assert report["ok"] is (code == 0), argv
    return code, report


def json_paths(doc, path=()):
    """The path of every value inside a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


FUZZ_FIELDS = {"rational": QQ, "gfp:3": PrimeField(3)}
# JSON texts that replace a value: a bool, a float, a string, a negative
# int, an int of many digits (past Python's int-digit limit too), a string
# with an exponent, a decimal point or an underscore, a list, null
REPLACEMENTS = ["true", "false", "1.5", "-0.0", '"x"', '"1/0"', "-1", "-7",
                "9" * 30, "9" * 5000, '"1e5000"', '"0.5"', '"1_0"', "[]",
                "[1, [2]]", "null"]
SLOT = "\x00slot\x00"


@st.composite
def mutated_files(draw):
    """(field, kind, JSON text): the file form of one object of each kind,
    with one value replaced, dropped or wrapped in nested lists."""
    field = draw(st.sampled_from(sorted(FUZZ_FIELDS)))
    objects = codec_fixtures(FUZZ_FIELDS[field], random.Random(5))
    kind = draw(st.sampled_from(list(objects)))
    doc = CODECS[kind].encode(objects[kind])
    *head, last = draw(st.sampled_from(list(json_paths(doc))))
    parent = doc
    for key in head:
        parent = parent[key]
    how = draw(st.sampled_from(["replace", "drop", "nest"]))
    if how == "drop":
        del parent[last]
        return field, kind, json.dumps(doc)
    if how == "replace":
        text = draw(st.sampled_from(REPLACEMENTS))
    else:
        depth = draw(st.sampled_from([3, 500, 3000]))
        text = "[" * depth + json.dumps(parent[last]) + "]" * depth
    parent[last] = SLOT
    return field, kind, json.dumps(doc).replace(json.dumps(SLOT), text)


def test_mutated_json_files_give_one_report(tmp_path):
    path = tmp_path / "mutated.json"

    @FUZZ
    @given(mutated_files())
    def check(case):
        field, kind, text = case
        path.write_text(text)
        code, report = report_or_usage(
            ["validate", kind, f"@{path}", "--field", field])
        # a bad file is refused while it is read or validated
        assert code != 2 or not report["error"]["message"].startswith(
            "operation failed on the given inputs"), text

    check()


def leaf_arguments(leaf):
    """The (flag, add_argument options) pairs of a COMMANDS leaf."""
    _, handler, arguments = COMMANDS[leaf[0]]
    return handler[leaf[1]][2] if isinstance(handler, dict) else arguments


ODD = ["-1", "0", "inf", "nan"]
SPECS = ["k", "matrix:2", "group:C2", "product:k^2", "dual_numbers", "diag:2",
         "id:k", "unit:product:k^2", "regular:k", "regular:group:C2",
         "row:2", "col:2", "free:matrix:2,k", "id:regular:k", "identity:k",
         "identity:group:C2", "identity:identity:k",
         "identity:identity:product:k^2", "@algebra.json",
         "@map.json", "@bimodule.json", "@2diagram.json", "@malformed.json",
         "matrix:\u0662", "product:k^1_0", "diag:+2", "col:02"]
# the values of a flag, sized within algebra.MAX_DIM and corpus at scale
# 0.05 at most; any other flag names an object and draws a spec
FLAG_VALUES = {
    "--field": ["rational", "gfp:2", "gfp:3", "gfp:4"],
    "--seed": ["1", "2"],
    "--bound": ["1", "33554432"],
    "--n": ["1", "2", "3"],
    "--scale": ["0.01", "0.05"],
}
COMMON = [("--field", {}), ("--seed", {}), ("--bound", {})]


@st.composite
def fuzzed_argv(draw):
    """A COMMANDS leaf with its positional arguments and some of its flags,
    --scale always (its default runs the whole corpus), each flag given a
    known value or -1, 0, inf or nan."""
    leaf = draw(st.sampled_from(list(command_leaves())))
    argv = list(leaf)
    for flag, options in [*leaf_arguments(leaf), *COMMON]:
        values = options.get("choices") or FLAG_VALUES.get(flag, SPECS)
        if flag.startswith("--"):
            if flag == "--scale" or draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(values + ODD))]
        else:
            argv.append(draw(st.sampled_from(values)))
    return argv


def test_fuzzed_argv_gives_one_report(monkeypatch):
    monkeypatch.chdir(DATA)

    @FUZZ
    @given(fuzzed_argv())
    def check(argv):
        report_or_usage(argv)

    check()
