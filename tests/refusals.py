"""Refusal tables for the tests that run under python -O.

Each table runs operations on input that breaks them and returns the names
of those that were not refused with a ValueError.  They are written without
assert, so they mean the same under python -O.  ``optimized`` runs one of
them in a ``python -O`` subprocess.  This module imports neither sympy nor
hypothesis, so that subprocess starts in well under a second.
"""

import os
import subprocess
import sys
from pathlib import Path

import centrum.bimodule as bimodule
from centrum.algebra import (
    AlgebraMap,
    alg_k,
    alg_matrix,
    alg_product_k,
    identity_map,
    product_algebra,
    tensor_algebra,
    unit_map,
)
from centrum.bimodule import (
    Bimodule,
    BimoduleMap,
    comp_bar,
    direct_sum_bimodules,
    hom_space,
    regular_bimodule,
    restrict,
    twist_bimodule,
)
from centrum.cospanbicat import (
    Cospan,
    CospanComposition,
    compose_cospans,
    identity_cospan,
    pushout_universal,
)
from centrum.exactla import (
    QQ,
    Matrix,
    PrimeField,
    cokernel,
    solve_matrix,
    stack_columns,
    stack_rows,
    tensor_induced,
)


def optimized(table: str) -> list:
    """The words that ``print(sys.flags.optimize, table())`` writes in a
    python -O subprocess that imports this module: ["1", "[]"] when every
    operation of the table was refused."""
    tests = Path(__file__).parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    script = ("import sys, refusals\n"
              f"print(sys.flags.optimize, refusals.{table}())\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        raise AssertionError(proc.stderr)
    return proc.stdout.split()


def refusal_failures():
    """The mixed-field and misshapen operations that were not refused with
    a ValueError, plus "==" if matrices over different fields compare
    equal.  Written without assert, so it means the same under python -O."""
    g7, g5 = Matrix.identity(2, PrimeField(7)), Matrix.identity(2, PrimeField(5))
    a, b = Matrix.identity(2, QQ), Matrix.zeros(2, 3, QQ)
    ops = {
        "GF(7) @ GF(5)": lambda: g7 @ g5,
        "GF(7) + GF(5)": lambda: g7 + g5,
        "GF(7) - GF(5)": lambda: g7 - g5,
        "GF(7) kron GF(5)": lambda: g7.kron(g5),
        "stack_columns GF(7), GF(5)": lambda: stack_columns([g7, g5]),
        "stack_rows GF(7), GF(5)": lambda: stack_rows([g7, g5]),
        "QQ @ GF(5)": lambda: a @ g5,
        "2x2 + 2x3": lambda: a + b,
        "2x2 - 2x3": lambda: a - b,
        "2x3 @ 2x3": lambda: b @ b,
        "2x2 apply 1": lambda: a.apply([1]),
        "stack_columns 2x2, 3x1": lambda: stack_columns([a, Matrix.zeros(3, 1, QQ)]),
        "stack_rows 2x2, 2x3": lambda: stack_rows([a, b]),
        "stack_rows GF(7), GF(7), GF(5)": lambda: stack_rows([g7, g7, g5]),
        "stack_rows 2x2, 2x2, 2x3": lambda: stack_rows([a, a, b]),
        "column of 1 in k^2": lambda: Matrix.from_columns([[1]], 2, QQ),
        "ragged": lambda: Matrix([[1, 2], [3]], QQ),
    }
    out = []
    for name, op in ops.items():
        try:
            op()
        except ValueError:
            continue
        out.append(name)
    if a == Matrix.identity(2, PrimeField(5)) or not a != g5:
        out.append("==")
    # equal fields built apart still combine
    if g7 @ Matrix.identity(2, PrimeField(7)) != g7:
        out.append("GF(7) @ GF(7)")
    return out


def shape_refusals():
    """The misshapen solve and descents that were not refused with a
    ValueError whose message names a shape mismatch.  Written without
    assert, so it means the same under python -O."""
    q = cokernel(Matrix.from_int_rows([[1], [-1]], QQ).transpose())
    ops = {
        "solve_matrix 2x2 with 3 rows": lambda: solve_matrix(
            Matrix.identity(2, QQ), Matrix.zeros(3, 1, QQ)),
        "tensor_induced 3x2 into k^2": lambda: tensor_induced(
            q, [Matrix.zeros(3, 2, QQ)], q),
        "tensor_induced 2x3 from k^2": lambda: tensor_induced(
            q, [Matrix.zeros(2, 3, QQ)], q),
        "tensor_induced 2x1 from k^2": lambda: tensor_induced(
            q, [Matrix.zeros(2, 1, QQ)], q),
    }
    out = []
    for name, op in ops.items():
        try:
            op()
        except ValueError as exc:
            if "shape mismatch" in str(exc):
                continue
        out.append(name)
    return out


def bimodule_refusals():
    """Names of the algebra, bimodule and cospan construction checks that
    did not raise a ValueError (with their message) on input that breaks
    them.  Written without assert, so it means the same under python -O."""
    k, k2, m2 = alg_k(), alg_product_k(2), alg_matrix(2)
    k5 = alg_k(PrimeField(5))
    one, zero = Matrix.identity(1, QQ), Matrix.zeros(1, 1, QQ)
    reg = regular_bimodule(k2)
    id_k2 = compose_cospans(identity_cospan(k2), identity_cospan(k2))
    swap = AlgebraMap(k2, k2, Matrix.from_int_rows([[0, 1], [1, 0]], QQ))
    scalars_m2 = Cospan(unit_map(m2), unit_map(m2))
    ops = {
        "fields": (lambda: Bimodule(k, alg_k(PrimeField(3)), 1, [one], [one]),
                   "different fields"),
        "action counts": (lambda: Bimodule(k, k, 1, [], [one]),
                          "one action matrix per basis vector"),
        "action shapes": (lambda: Bimodule(k, k, 2, [one], [one]),
                          "must be dim x dim"),
        "direct sum pairs": (
            lambda: direct_sum_bimodules([reg, regular_bimodule(k)]),
            "over different algebras"),
        "twist invertible": (
            lambda: twist_bimodule(reg, Matrix.zeros(2, 2, QQ)),
            "change of basis must be invertible"),
        "map shape": (lambda: BimoduleMap(reg, reg, Matrix.zeros(1, 2, QQ)),
                      "matrix shape does not match"),
        "comp_bar equivariance": (lambda: comp_bar(reg, reg, reg),
                                  "descended composition is not equivariant"),
        "hom_space unital": (
            lambda: hom_space(Bimodule(k, k, 1, [zero], [zero]),
                              regular_bimodule(k)),
            "its actions are not unital"),
        "hom_space pairs": (lambda: hom_space(regular_bimodule(k), reg),
                            "over different pairs"),
        # the identity of M_2 lands in M_2, not in the k^2 acting on reg
        "restrict target": (lambda: restrict(reg, left=identity_map(m2)),
                            "does not land in the acting algebra"),
        "cospan middles": (
            lambda: CospanComposition(identity_cospan(k2), identity_cospan(k)),
            "middle algebras must agree"),
        "pushout middle": (
            lambda: pushout_universal(id_k2, identity_map(k2), swap),
            "factor maps do not agree on the middle algebra"),
        "pushout commute": (
            lambda: pushout_universal(compose_cospans(scalars_m2, scalars_m2),
                                      identity_map(m2), identity_map(m2)),
            "factor map images do not commute"),
        "tensor_algebra fields": (lambda: tensor_algebra(k, k5),
                                  "different fields"),
        "product_algebra fields": (lambda: product_algebra([k, k5]),
                                   "different fields"),
        "algebra map fields": (lambda: AlgebraMap(k, k5, one),
                               "different fields"),
    }
    real = bimodule.validate_bimodule_map
    out = []
    for name, (op, message) in ops.items():
        if name == "comp_bar equivariance":
            bimodule.validate_bimodule_map = lambda f: ["broken"]
        try:
            op()
        except ValueError as exc:
            if message in str(exc):
                continue
        finally:
            bimodule.validate_bimodule_map = real
        out.append(name)
    return out
