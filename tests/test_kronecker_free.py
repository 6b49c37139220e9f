"""Tests for the Kronecker-free tensor calculus: slot products against
materialised Kronecker products, quotients read as column selections, a
guard that the tensor constructions form no Kronecker product, and the
explicit checks of the constructions built on them.

Oracles:
  * Matrix.kron followed by an ordinary product, in every supported field;
  * fieldref.kron_product_ref, the Kronecker product formed entry by entry;
  * the permutation matrix and the section matrix themselves;
  * python -O, which would strip any check still written as an assert.
"""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path
from types import SimpleNamespace

import pytest
from fieldref import kron_product_ref
from hypothesis import given, settings
from hypothesis import strategies as st

import centrum.bimodule as bimodule
import centrum.cospanbicat as cospanbicat
from centrum.algebra import (
    alg_dual_numbers,
    alg_group_c2,
    alg_k,
    alg_matrix,
    alg_product_k,
    unit_map,
)
from centrum.bimodule import (
    assoc_iso,
    direct_sum_bimodules,
    induced_map,
    interchange_check,
    pentagon_check,
    regular_bimodule,
    tensor_over,
    triangle_check,
    unit_iso_left,
    unit_iso_right,
)
from centrum.cospanbicat import (
    Cospan,
    CospanComposition,
    TwoDiagram,
    beta_cell,
    check_beta_naturality,
    compose_cospans,
    horizontal_compose,
    identity_2diagram,
    identity_cospan,
    vertical_compose,
)
from centrum.exactla import (
    QQ,
    Matrix,
    PrimeField,
    Quotient,
    cokernel,
    kron_product,
    mutually_inverse,
    slot_products,
    tensor_permutation_index,
)
from centrum.fixtures import (
    extend_cospan,
    random_bimodule,
    random_hom_element,
    random_interchanger_grid,
    random_invertible,
    tensor_product_cospan,
    twist_2diagram,
)
from centrum.fullcenter import verify_m_naturality

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(1000003)]
QQ_ENTRIES = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]


@st.composite
def matrices(draw, field, rows, cols):
    if field is QQ:
        vals = draw(st.lists(st.sampled_from(QQ_ENTRIES), min_size=rows * cols,
                             max_size=rows * cols))
    else:
        vals = [field.from_int(v) for v in draw(st.lists(
            st.integers(-5, 5), min_size=rows * cols, max_size=rows * cols))]
    return Matrix([vals[i * cols:(i + 1) * cols] for i in range(rows)], field,
                  ncols=cols)


@st.composite
def kron_cases(draw):
    """(P, factors, S) over one field: 1 to 4 factors of 1 to 3 rows and
    columns, some given as an int (an identity slot); P and S.T have 0 to
    3 rows."""
    field = draw(st.sampled_from(FIELDS))
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        factors.append(r if draw(st.booleans()) else draw(matrices(field, r, c)))
    rows = prod(F if type(F) is int else F.rows for F in factors)
    cols = prod(F if type(F) is int else F.cols for F in factors)
    P = draw(matrices(field, draw(st.integers(0, 3)), rows))
    S = draw(matrices(field, cols, draw(st.integers(1, 3))))
    return P, factors, S


def kron_of(factors, field):
    out = Matrix.identity(1, field)
    for F in factors:
        out = out.kron(Matrix.identity(F, field) if type(F) is int else F)
    return out


@settings(max_examples=150, deadline=None)
@given(kron_cases())
def test_kron_product_matches_the_kronecker_product(case):
    P, factors, _ = case
    assert kron_product(P, factors) == P @ kron_of(factors, P.field)


@settings(max_examples=150, deadline=None)
@given(kron_cases())
def test_kron_product_of_transposes_applies_the_kronecker_product(case):
    # (A (x) B) @ S == (S^T @ (A^T (x) B^T))^T
    _, factors, S = case
    transposed = [F if type(F) is int else F.transpose() for F in factors]
    assert (kron_product(S.transpose(), transposed).transpose()
            == kron_of(factors, S.field) @ S)


@st.composite
def sparse_matrices(draw, field, rows, cols, sparse):
    """rows x cols over field, some rows all zero.  When sparse, a row has
    at most max(1, cols // 5) nonzero positions.  Over QQ row i is drawn
    over its own denominator, distinct from every other row's."""
    dens = draw(st.permutations([1, 2, 3, 4, 5, 6, 7, 9]))
    data = []
    for i in range(rows):
        row = [0] * cols
        if cols and draw(st.integers(0, 3)):
            at = range(cols)
            if sparse:
                at = draw(st.lists(st.integers(0, cols - 1), unique=True,
                                   max_size=max(1, cols // 5)))
            for j in at:
                v = draw(st.integers(-6, 6))
                row[j] = QQ.div(v, dens[i]) if field is QQ else field.from_int(v)
        data.append(row)
    return Matrix(data, field, ncols=cols)


def guarded(fn, *args):
    """fn(*args) while Matrix.__matmul__ raises and Fraction.__new__ is
    counted: the result and the number of Fractions built."""
    made = []
    real = Fraction.__new__

    def counting(cls, *a, **k):
        made.append(a)
        return real(cls, *a, **k)

    def refused(self, other):
        raise AssertionError("a slot product went through Matrix.__matmul__")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", staticmethod(counting))
        mp.setattr(Matrix, "__matmul__", refused)
        got = fn(*args)
    return got, len(made)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_slot_products_match_one_product_per_factor(data):
    """Dense, mostly-zero and all-zero rows of P, X with zero rows or no
    columns, left and right up to 4, in every field; neither slot_products
    nor kron_product calls @ or builds a Fraction."""
    draw = data.draw
    field = draw(st.sampled_from(FIELDS))
    left, right = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    r, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    Xs = [draw(sparse_matrices(field, r, c, False))
          for _ in range(draw(st.integers(1, 3)))]
    P = draw(sparse_matrices(field, draw(st.integers(0, 4)), left * r * right,
                             draw(st.booleans())))
    got, made = guarded(slot_products, P, Xs, left, right)
    assert made == 0
    for X, out in zip(Xs, got):
        assert out == P @ kron_of([left, X, right], field)
        assert out == kron_product_ref(P, [left, X, right])
        assert out == kron_product(P, [left, X, right])
    A = draw(sparse_matrices(field, draw(st.integers(1, 3)), draw(st.integers(0, 3)), False))
    Q = draw(sparse_matrices(field, draw(st.integers(0, 4)), A.rows * r, True))
    got, made = guarded(kron_product, Q, [A, Xs[0]])
    assert made == 0
    assert got == Q @ A.kron(Xs[0]) == kron_product_ref(Q, [A, Xs[0]])


def test_slot_products_refuse_misshapen_factors():
    P = Matrix.zeros(2, 6, QQ)
    for Xs, left, right in (([Matrix.zeros(2, 2, QQ)], 2, 2),
                            ([Matrix.zeros(2, 2, QQ), Matrix.zeros(2, 1, QQ)], 3, 1)):
        try:
            slot_products(P, Xs, left, right)
        except ValueError:
            continue
        raise AssertionError(f"accepted {left} x {Xs} x {right}")
    try:
        kron_product(P, [2, 2])
    except ValueError:
        return
    raise AssertionError("accepted a tensor of 4 rows for 6 columns")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_descend_by_column_selection_equals_the_section_product(data):
    field = data.draw(st.sampled_from(FIELDS))
    n, k = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 6))
    q = cokernel(data.draw(matrices(field, n, k)).transpose())
    # a map that kills the relations: anything after the projection
    down = data.draw(matrices(field, data.draw(st.integers(0, 3)), q.dim)) @ q.proj
    assert q.proj @ q.sect == Matrix.identity(q.dim, field)
    assert q.descend(down, "no") == down @ q.sect


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4).flatmap(
    lambda dims: st.tuples(st.just(dims), st.permutations(range(len(dims))))))
def test_tensor_permutation_index_selects_the_permuted_columns(case):
    dims, perm = case
    n = prod(dims)
    idx = tensor_permutation_index(dims, perm)
    assert sorted(idx) == list(range(n))
    # source index (a_0, a_1, ...) goes to target index (a_perm[0], ...)
    tdims = [dims[q] for q in perm]
    expect = [sum(a[q] * prod(tdims[i + 1:]) for i, q in enumerate(perm))
              for a in itertools.product(*map(range, dims))]
    assert idx == expect


# ---------------------------------------------------------------------------
# a guard: the tensor constructions form no Kronecker product


def test_tensor_constructions_form_no_kronecker_product(monkeypatch):
    """Record the function that calls Matrix.kron while the tensor
    constructions run on fixtures, cospan composites included: none may
    call it."""
    rng = random.Random(11)
    A, B = alg_group_c2(), alg_dual_numbers()
    m, n, p = (random_bimodule(A, A, rng), random_bimodule(A, B, rng),
               random_bimodule(B, B, rng))
    n2 = random_bimodule(A, B, rng)
    phi, psi = random_hom_element(m, m, rng), random_hom_element(n, n2, rng)
    grid = random_interchanger_grid(random.Random(2))
    ps = [random_invertible(d.M.dim, rng) for d in grid]
    twisted = [twist_2diagram(d, P) for d, P in zip(grid, ps)]
    # a square small enough for verify_m_naturality
    k, k2 = alg_k(), alg_product_k(2)
    xi = random_hom_element(*(random_bimodule(k, k2, rng, 1) for _ in range(2)), rng)
    zeta = random_hom_element(*(random_bimodule(k2, k, rng, 1) for _ in range(2)), rng)
    callers = []
    real = Matrix.kron

    def recorded(self, other):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(self, other)

    monkeypatch.setattr(Matrix, "kron", recorded)
    compose_cospans.cache.clear()
    induced_map(phi, psi, tensor_over(m, n), tensor_over(m, n2))
    bd = beta_cell(*grid)
    assert check_beta_naturality(bd, beta_cell(*twisted), *ps)
    assoc_iso(m, n, p)
    assert pentagon_check(m, m, n, p)
    assert triangle_check(m, n)
    unit_iso_left(tensor_over(regular_bimodule(A), n))
    unit_iso_right(tensor_over(n, regular_bimodule(B)))
    assert interchange_check(phi, psi)
    assert verify_m_naturality(xi, zeta).ok
    assert callers == []


# ---------------------------------------------------------------------------
# the constructions' checks are explicit, so python -O keeps them


def check_refusals():
    """The construction checks that were not refused with a ValueError
    carrying the expected message.  Written without assert, so it means
    the same under python -O; checks that hold for every valid input are
    reached by patching one step to return a wrong matrix."""
    k, k2, c2 = alg_k(), alg_product_k(2), alg_group_c2()
    reg_k = regular_bimodule(k)
    t_left = tensor_over(regular_bimodule(c2), regular_bimodule(c2))
    c0 = tensor_product_cospan(k, c2)
    c1, d1 = extend_cospan(c0, alg_dual_numbers())
    rng = random.Random(8)
    d2 = twist_2diagram(identity_2diagram(c1), random_invertible(4, rng))
    w, ww = cospanbicat._vertical((d2, d1))
    off_f = TwoDiagram(w.src, w.tgt, w.M, w.f.scale(2), w.g, w.quot), ww
    off_g = TwoDiagram(w.src, w.tgt, w.M, w.f, w.g.scale(2), w.quot), ww
    other = identity_2diagram(tensor_product_cospan(k, k2))
    back = identity_2diagram(tensor_product_cospan(c2, k))
    q = cokernel(Matrix.from_int_rows([[1, -1]], QQ))
    # k -> M_2 <- k, composed with the identity of k: its apex M_2 (x) k has
    # the matrix units at 0..3 (E_ij at 2i + j), and the relations are
    # patched to span{E11}, not a right ideal, or to span{E11, E12} =
    # E11 M_2, a right ideal but not a left one
    scalars = Cospan(unit_map(alg_matrix(2)), unit_map(alg_matrix(2)))
    grid = random_interchanger_grid(random.Random(0))

    def doubled(fn):
        return lambda *args: fn(*args).scale(2)

    def relations(rows):
        return lambda *args: Matrix.from_int_rows(rows, QQ)

    def spoiled(*args):
        """The composite of the cospans args with every flat coordinate
        made a relation of its apex."""
        comp = compose_cospans(*args)
        q = comp.quot
        return SimpleNamespace(cospan=comp.cospan, quot=Quotient(
            q.dims, q.proj, q.free, Matrix.identity(q.ambient, q.field)))

    def after_first_call(fn, wrong):
        """fn on the first call and wrong on every later one."""
        first = iter([fn])
        return lambda *args: next(first, wrong)(*args)

    patches = {
        "associator inverse": (bimodule, "_rebracket", doubled(bimodule._rebracket)),
        "associator equivariance": (bimodule, "validate_bimodule_map",
                                    lambda f: ["left action"]),
        "left unit inverse": (bimodule, "kron_product", doubled(bimodule.kron_product)),
        "right unit inverse": (bimodule, "kron_product", doubled(bimodule.kron_product)),
        "composite product left": (bimodule, "middle_relations",
                                   relations([[1, 0, 0, 0]])),
        "composite product right": (bimodule, "middle_relations",
                                    relations([[1, 0, 0, 0], [0, 1, 0, 0]])),
        # the composite apexes spoiled on both sides, or on the source
        # side alone (horizontal_compose composes the sources first)
        "horizontal left action": (cospanbicat, "compose_cospans", spoiled),
        "horizontal right action": (cospanbicat, "compose_cospans",
                                    after_first_call(spoiled, compose_cospans)),
        "interchanger inverse": (cospanbicat, "mutually_inverse",
                                 lambda a, b: mutually_inverse(a.scale(2), b)),
    }
    ops = {
        "tensor middle algebras": (
            lambda: tensor_over(reg_k, regular_bimodule(k2)), "middle algebras must agree"),
        "associator inverse": (
            lambda: assoc_iso(reg_k, reg_k, reg_k), "not mutually inverse"),
        "associator equivariance": (
            lambda: assoc_iso(reg_k, reg_k, reg_k), "associator is not equivariant"),
        "left unit factor": (
            lambda: unit_iso_left(tensor_over(direct_sum_bimodules([reg_k, reg_k]), reg_k)),
            "the left factor is not the left algebra"),
        "left unit inverse": (
            lambda: unit_iso_left(t_left), "the left unit collapse is not invertible"),
        "right unit factor": (
            lambda: unit_iso_right(tensor_over(reg_k, direct_sum_bimodules([reg_k, reg_k]))),
            "the right factor is not the right algebra"),
        "right unit inverse": (
            lambda: unit_iso_right(t_left), "the right unit collapse is not invertible"),
        "vertical middle cospans": (
            lambda: vertical_compose(d2, other), "middle cospans must match"),
        "horizontal middle algebra": (
            lambda: horizontal_compose(d2, d2), "share their middle algebra"),
        "interchanger rows": (
            lambda: beta_cell(d2, other, d2, d2), "the grid's rows must compose"),
        "composite product left": (
            lambda: CospanComposition(identity_cospan(k), scalars),
            "multiplication does not descend (left side)"),
        "composite product right": (
            lambda: CospanComposition(identity_cospan(k), scalars),
            "map does not descend to the quotient"),
        "horizontal left action": (
            lambda: horizontal_compose(back, d2),
            "left action does not respect the apex relations"),
        "horizontal right action": (
            lambda: horizontal_compose(back, d2),
            "right action does not respect the apex relations"),
        "interchanger inverse": (
            lambda: beta_cell(*grid),
            "the interchanger and its inverse are not mutually inverse"),
        "rebracketing f legs": (
            lambda: cospanbicat._rebracket_3cell((w, ww), off_f), "intertwine f legs"),
        "rebracketing g legs": (
            lambda: cospanbicat._rebracket_3cell((w, ww), off_g), "intertwine g legs"),
        "quotient section": (
            lambda: Quotient(q.dims, q.proj.scale(2), q.free),
            "quotient section is not a section of the projection"),
        "rebracketing flat tensors": (
            lambda: Quotient.leaf(2, QQ).rebracket(Quotient.leaf(3, QQ), "no"),
            "bracketings of different flat tensors"),
    }
    out = []
    for name, (op, message) in ops.items():
        patch = patches.get(name)
        if patch:
            module, attr, value = patch
            real = getattr(module, attr)
            setattr(module, attr, value)
        try:
            op()
        except ValueError as exc:
            if message in str(exc):
                continue
        finally:
            if patch:
                setattr(module, attr, real)
        out.append(name)
    return out


def test_construction_checks_are_explicit(fresh_memos):
    assert check_refusals() == []


def test_construction_checks_survive_optimize():
    tests = Path(__file__).parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    script = ("import sys, test_kronecker_free as t\n"
              "print(sys.flags.optimize, t.check_refusals())\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "[]"]
