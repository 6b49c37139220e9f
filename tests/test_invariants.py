"""src holds no assert: each internal invariant is an explicit ValueError, so
python -O, which strips assert statements, strips none of them.  Each
refusal is tested by making its invariant fail, in-process and again under
python -O."""

import ast
import contextlib
import os
import subprocess
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

from centrum import corpus, cospanbicat, fixtures
from centrum.algebra import alg_matrix, alg_product_k, unit_map
from centrum.exactla import QQ, Matrix

SRC = Path(__file__).resolve().parents[1] / "src" / "centrum"


def test_src_holds_no_assert():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _on_call(module, name, n, value):
    """Patch module.name so that its n-th call returns value and every other
    call goes through to the real function."""
    real = getattr(module, name)
    calls = []

    def patched(*args):
        calls.append(args)
        return value if len(calls) == n else real(*args)

    return mock.patch.object(module, name, patched)


def invariant_refusals():
    """Names of the invariant checks that did not raise ValueError when
    their invariant was made to fail.  Written without assert, so it means
    the same under python -O."""
    k2 = alg_product_k(2)
    c = cospanbicat.identity_cospan(k2)
    # a composite whose two legs differ: x (x) 1 and 1 (x) x
    unequal = SimpleNamespace(cospan=fixtures.tensor_product_cospan(k2, k2))
    invertible = partial(cospanbicat.is_invertible_cospan, c)
    none = contextlib.nullcontext()
    cases = {
        "left composite legs": (
            _on_call(cospanbicat, "compose_cospans", 1, unequal), invertible),
        "right composite legs": (
            _on_call(cospanbicat, "compose_cospans", 2, unequal), invertible),
        "left witness": (
            _on_call(cospanbicat, "is_invertible_2diagram", 1, False),
            invertible),
        "right witness": (
            _on_call(cospanbicat, "is_invertible_2diagram", 2, False),
            invertible),
        "functor_A_embed": (none, lambda: cospanbicat.functor_A_embed(
            unit_map(alg_matrix(2)))),
        "_automorphism_pool": (
            _on_call(corpus, "validate_algebra_map", 1, ["not multiplicative"]),
            lambda: corpus._automorphism_pool(QQ)),
        "conjugation_automorphism": (none, lambda: (
            fixtures.conjugation_automorphism(alg_matrix(2),
                                              Matrix.zeros(2, 2, QQ)))),
    }
    out = []
    for name, (patch, call) in cases.items():
        with patch:
            try:
                call()
            except ValueError:
                continue
        out.append(name)
    return out


def test_invariant_checks_refuse():
    assert cospanbicat.is_invertible_cospan(
        cospanbicat.identity_cospan(alg_product_k(2))).invertible
    assert len(corpus._automorphism_pool(QQ)) == 3
    assert invariant_refusals() == []


def test_invariant_checks_refuse_under_optimize():
    tests = Path(__file__).parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    script = ("import sys, test_invariants as t\n"
              "print(sys.flags.optimize, t.invariant_refusals())\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "[]"]
