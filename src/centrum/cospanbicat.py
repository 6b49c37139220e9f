"""Cospans of algebras with central legs, bimodule 2-diagrams between
parallel cospans, and 3-cells between parallel 2-diagrams.

The three layers:
  * a cospan A -> T <- B: algebra maps whose images commute with all of T,
    between commutative outer algebras A and B;
  * a 2-diagram from cospan S to cospan T (over the same A, B): a T-S-bimodule
    M with a right-module map f: S -> M and a left-module map g: T -> M that
    agree after the legs, and on which the outer actions through either
    cospan coincide;
  * a 3-cell between parallel 2-diagrams: a bimodule map intertwining the f
    and g legs, which solve_3cell_family finds inside bimodule.hom_space.

Cospans compose by the fibered tensor product of apexes over the shared outer
algebra, which carries a well-defined algebra structure because leg images
are central; 2-diagrams compose vertically (over a shared middle cospan) and
horizontally (over the shared outer algebra), each composite keeping the
quotient its bimodule descends from, and the two orders of composing a 2x2
grid agree up to an explicit invertible interchanger 3-cell, built here
together with its inverse from the two independent descent presentations.
Both composites over a middle algebra B are bimodule.tensor_quotient of their
two factors restricted to B along the legs (bimodule.restrict).

compose_cospans is memoised by content (exactla.memoised), so each composite
is built once per pair of cospans and no construction takes prebuilt ones;
validate_cospan and validate_2diagram are memoised too, so a cospan's or
a 2-diagram's verdict is computed once.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Algebra,
    AlgebraMap,
    compose_maps,
    identity_map,
    image_central_in,
    is_commutative,
    is_isomorphism,
    unit_column,
    validate_algebra_map,
)
from .bimodule import (
    Bimodule,
    BimoduleMap,
    hom_space,
    pentagon_commutes,
    regular_bimodule,
    restrict,
    tensor_over,
    tensor_quotient,
    unequivariant,
    unit_iso_left,
    unit_iso_right,
    validate_bimodule,
    validate_bimodule_map,
)
from .exactla import (
    HomSpace,
    Keyed,
    Matrix,
    Quotient,
    combination,
    is_invertible,
    kernel,
    kron_product,
    memoised,
    mutually_inverse,
    refuse,
    same_content,
    slot_products,
    solve_matrix,
    stack_columns,
    stack_rows,
    tensor_induced,
    tensor_permutation_index,
)


# ---------------------------------------------------------------------------
# cospans


class Cospan(Keyed):
    """A -> apex <- B with both leg images central in the apex."""

    __slots__ = ("leg_a", "leg_b", "name")

    def __init__(self, leg_a: AlgebraMap, leg_b: AlgebraMap, name=""):
        if not same_content(leg_a.tgt, leg_b.tgt):
            raise ValueError("cospan: the two legs must share one apex algebra")
        self.leg_a = leg_a
        self.leg_b = leg_b
        self.name = name

    @property
    def apex(self) -> Algebra:
        return self.leg_a.tgt

    @property
    def a(self) -> Algebra:
        return self.leg_a.src

    @property
    def b(self) -> Algebra:
        return self.leg_b.src

    def __repr__(self):
        tag = f" {self.name}" if self.name else ""
        return f"Cospan({self.a.dim} -> {self.apex.dim} <- {self.b.dim}{tag})"


@memoised
def validate_cospan(c: Cospan) -> list[str]:
    """Violations of the cospan contract; empty == valid."""
    out = []
    if not is_commutative(c.a):
        out.append("left outer algebra is not commutative")
    if not is_commutative(c.b):
        out.append("right outer algebra is not commutative")
    out.extend("left leg: " + m for m in validate_algebra_map(c.leg_a))
    out.extend("right leg: " + m for m in validate_algebra_map(c.leg_b))
    if not image_central_in(c.leg_a):
        out.append("left leg image is not central in the apex")
    if not image_central_in(c.leg_b):
        out.append("right leg image is not central in the apex")
    return out


def identity_cospan(a: Algebra) -> Cospan:
    i = identity_map(a)
    return Cospan(i, i, name=f"id({a.name})" if a.name else "id")


class CospanComposition:
    """The composite of two cospans: apex (first apex) (x)_B (second apex),
    the quotient quot of the flat tensor of the two apexes, built as
    horizontal_compose builds its apex: tensor_quotient of the regular
    bimodules restricted to B, then e_i (x) e_j acting by the pair of left
    multiplications, descended by _composite_actions.  The product descends
    because leg images are central: the relations must form a two-sided ideal."""

    __slots__ = ("first", "second", "cospan", "quot")

    def __init__(self, second: Cospan, first: Cospan):
        B = first.b
        if not same_content(second.a, B):
            raise ValueError("middle algebras must agree")
        refuse(validate_cospan(first) + validate_cospan(second), "invalid cospan")
        T, S = first.apex, second.apex
        reg_t, reg_s = regular_bimodule(T), regular_bimodule(S)
        quot = tensor_quotient(restrict(reg_t, right=first.leg_b),
                               restrict(reg_s, left=second.leg_a))
        proj = quot.proj
        acts = _composite_actions(quot, quot, reg_t.lact, reg_s.lact,
                                  "multiplication does not descend (left side)")
        # column (a, b) of mult: e_free[a] acting on e_free[b]
        mult = stack_columns([Matrix.zeros(quot.dim, 0, T.field), *acts])
        unit = kron_product(proj, [unit_column(T), unit_column(S)])
        apex = Algebra(mult, unit.col_list(0))
        leg_a = AlgebraMap(first.a, apex,
                           kron_product(proj, [first.leg_a.mat, unit_column(S)]))
        leg_b = AlgebraMap(second.b, apex,
                           kron_product(proj, [unit_column(T), second.leg_b.mat]))
        self.first = first
        self.second = second
        self.quot = quot
        self.cospan = Cospan(leg_a, leg_b)
        refuse(validate_cospan(self.cospan), "composite is not a valid cospan")

    def __repr__(self):
        return f"CospanComposition({self.cospan!r})"


@memoised
def compose_cospans(second: Cospan, first: Cospan) -> CospanComposition:
    """Compose first (between A and B) with second (between B and C)."""
    return CospanComposition(second, first)


def pushout_universal(comp: CospanComposition, w: AlgebraMap, v: AlgebraMap) -> AlgebraMap:
    """The universal map out of a composite apex determined by maps w, v on
    the two factors that agree on the middle algebra and have commuting
    images: class of t (x) s  ->  w(t) v(s)."""
    T, S = comp.first.apex, comp.second.apex
    U = w.tgt
    if not same_content(v.tgt, U):
        raise ValueError("factor maps must share a target")
    if w.mat @ comp.first.leg_b.mat != v.mat @ comp.second.leg_a.mat:
        raise ValueError("factor maps do not agree on the middle algebra")
    cols = U.products(w.mat, v.mat)
    swap = tensor_permutation_index((T.dim, S.dim), (1, 0))
    if cols != U.products(v.mat, w.mat).select_columns(swap):
        raise ValueError("factor map images do not commute")
    mat = comp.quot.descend(cols, "universal map does not descend")
    out = AlgebraMap(comp.cospan.apex, U, mat)
    refuse(validate_algebra_map(out), "universal map is not an algebra map")
    return out


# ---------------------------------------------------------------------------
# 2-diagrams


class TwoDiagram(Keyed):
    """A 2-diagram from cospan src to cospan tgt over the same outer pair:
    a (tgt apex, src apex)-bimodule M with leg maps f: src apex -> M (right
    equivariant) and g: tgt apex -> M (left equivariant).

    A composite keeps quot, the Quotient of the flat tensor of its two
    factors' bimodules that M descends from; an elementary diagram has none."""

    __slots__ = ("src", "tgt", "M", "f", "g", "quot")

    def __init__(self, src: Cospan, tgt: Cospan, M: Bimodule, f: Matrix, g: Matrix,
                 quot=None):
        if not (same_content(M.left, tgt.apex)
                and same_content(M.right, src.apex)):
            raise ValueError("2-diagram: the bimodule pair must be (target apex,"
                             " source apex)")
        if f.shape != (M.dim, src.apex.dim):
            raise ValueError(f"2-diagram: leg f is {f.shape}, not"
                             f" {(M.dim, src.apex.dim)}")
        if g.shape != (M.dim, tgt.apex.dim):
            raise ValueError(f"2-diagram: leg g is {g.shape}, not"
                             f" {(M.dim, tgt.apex.dim)}")
        self.src = src
        self.tgt = tgt
        self.M = M
        self.f = f
        self.g = g
        self.quot = quot

    def __repr__(self):
        return f"TwoDiagram({self.src.apex.dim} => {self.tgt.apex.dim}; dim {self.M.dim})"


@memoised
def validate_2diagram(d: TwoDiagram) -> list[str]:
    """Violations of the 2-diagram axioms; empty == valid.  Over outer
    algebras that differ, no action or leg is compared."""
    out = ["bimodule: " + m for m in validate_bimodule(d.M)]
    if not (same_content(d.src.a, d.tgt.a) and same_content(d.src.b, d.tgt.b)):
        out.append("source and target cospans have different outer algebras")
        return out
    sides = (("A", d.src.leg_a, d.tgt.leg_a), ("B", d.src.leg_b, d.tgt.leg_b))
    # M restricted along the target leg on the left and the source leg on
    # the right: the two actions of the outer algebra must agree
    for side, src_leg, tgt_leg in sides:
        outer = restrict(d.M, left=tgt_leg, right=src_leg)
        out.extend(f"outer action through {side} disagrees at e{i}"
                   for i, (L, R) in enumerate(zip(outer.lact, outer.ract)) if L != R)
    out.extend(f"f is not a right module map at e{j}" for j in unequivariant(
        d.f, regular_bimodule(d.src.apex).ract, d.M.ract))
    out.extend(f"g is not a left module map at e{i}" for i in unequivariant(
        d.g, regular_bimodule(d.tgt.apex).lact, d.M.lact))
    out.extend(f"legs disagree after the {side} side" for side, src_leg, tgt_leg in sides
               if d.f @ src_leg.mat != d.g @ tgt_leg.mat)
    return out


def identity_2diagram(c: Cospan) -> TwoDiagram:
    M = regular_bimodule(c.apex)
    I = Matrix.identity(c.apex.dim, c.apex.field)
    return TwoDiagram(c, c, M, I, I)


def cospan_morphism_2diagram(src: Cospan, tgt: Cospan, h: AlgebraMap) -> TwoDiagram:
    """The 2-diagram induced by a map of cospans h: src apex -> tgt apex
    commuting with both legs: M is the target apex, f = h, g = identity."""
    refuse(validate_algebra_map(h), "not an algebra map")
    if h.mat @ src.leg_a.mat != tgt.leg_a.mat:
        raise ValueError("does not commute with A legs")
    if h.mat @ src.leg_b.mat != tgt.leg_b.mat:
        raise ValueError("does not commute with B legs")
    M = restrict(regular_bimodule(tgt.apex), right=h)
    return TwoDiagram(src, tgt, M, h.mat, Matrix.identity(M.dim, M.field))


def two_diagrams_equal(d: TwoDiagram, e: TwoDiagram) -> bool:
    """Strict equality: same cospans, same actions, same legs."""
    return (
        same_content(d.src, e.src)
        and same_content(d.tgt, e.tgt)
        and d.M.dim == e.M.dim
        and d.M.lact == e.M.lact
        and d.M.ract == e.M.ract
        and d.f == e.f
        and d.g == e.g
    )


def is_invertible_2diagram(d: TwoDiagram) -> bool:
    """A 2-diagram is invertible exactly when both leg maps are linear
    isomorphisms."""
    return is_invertible(d.f) and is_invertible(d.g)


def vertical_compose(upper: TwoDiagram, lower: TwoDiagram) -> TwoDiagram:
    """Compose lower: R => S with upper: S => T to R => T.

    The apex is (upper M) (x)_S (lower M); the legs send r to the class of
    f_up(1) (x) f_low(r) and t to the class of g_up(t) (x) g_low(1)."""
    if not same_content(upper.src, lower.tgt):
        raise ValueError("middle cospans must match")
    S = upper.src.apex
    tens = tensor_over(upper.M, lower.M)
    u = kron_product(tens.quot.proj, [upper.f @ unit_column(S), lower.f])
    v = kron_product(tens.quot.proj, [upper.g, lower.g @ unit_column(S)])
    return TwoDiagram(lower.src, upper.tgt, tens.product, u, v, tens.quot)


def horizontal_compose(right: TwoDiagram, left: TwoDiagram) -> TwoDiagram:
    """Compose left (between cospans over A, B) with right (over B, C) to a
    2-diagram between the composite cospans over A, C.

    The apex is (left M) (x)_B (right M), where B acts on the left factor
    through the source cospan's B leg and on the right factor through the
    target cospan's B leg; both choices agree with their counterparts by the
    2-diagram axioms.  The legs are the descended tensor products of the
    constituent legs."""
    B = left.src.b
    if not same_content(right.src.a, B):
        raise ValueError("the two columns must share their middle algebra")
    src_comp = compose_cospans(right.src, left.src)
    tgt_comp = compose_cospans(right.tgt, left.tgt)
    M1, M2 = left.M, right.M
    quot = tensor_quotient(restrict(M1, right=left.src.leg_b),
                           restrict(M2, left=right.tgt.leg_a))
    lact = _composite_actions(quot, tgt_comp.quot, M1.lact, M2.lact,
                              "left action does not respect the apex relations")
    ract = _composite_actions(quot, src_comp.quot, M1.ract, M2.ract,
                              "right action does not respect the apex relations")
    M = Bimodule(tgt_comp.cospan.apex, src_comp.cospan.apex, quot.dim, lact, ract)
    fmat = tensor_induced(quot, [left.f, right.f], src_comp.quot,
                          "f leg does not descend to the composite")
    gmat = tensor_induced(quot, [left.g, right.g], tgt_comp.quot,
                          "g leg does not descend to the composite")
    return TwoDiagram(src_comp.cospan, tgt_comp.cospan, M, fmat, gmat, quot)


def _composite_actions(tens_quot, apex_quot, left_ops, right_ops, message):
    """The actions on tens_quot of the basis of a composite apex, the
    quotient apex_quot of a flat tensor whose (a, b) acts by left_ops[a] (x)
    right_ops[b].  Each term proj @ (left_ops[a] (x) right_ops[b]) is built
    once: the relations must combine the terms to zero (else
    ValueError(message)), and e_free[q] acts by the term at free[q], which
    must descend through tens_quot.  A factor with no basis (no ops) gives
    no terms."""
    proj = tens_quot.proj
    m1, m2 = (ops[0].rows if ops else 0 for ops in (left_ops, right_ops))
    terms = [T for U in slot_products(proj, left_ops, 1, m2)
             for T in slot_products(U, right_ops, m1, 1)]
    # row t is the term at t, read as one vector
    flat = stack_rows([Matrix.zeros(0, proj.rows * proj.cols, proj.field)]
                      + [T.flatten() for T in terms])
    if not (apex_quot.relations.transpose() @ flat).is_zero():
        raise ValueError(message)
    return [tens_quot.descend(terms[t], "map does not descend to the quotient")
            for t in apex_quot.free]


# ---------------------------------------------------------------------------
# 3-cells


class ThreeCell:
    """A map between parallel 2-diagrams: equivariant and leg-compatible."""

    __slots__ = ("src", "tgt", "mat")

    def __init__(self, src: TwoDiagram, tgt: TwoDiagram, mat: Matrix):
        if mat.shape != (tgt.M.dim, src.M.dim):
            raise ValueError(f"3-cell: a {mat.shape} matrix between 2-diagrams"
                             f" of dims {src.M.dim} and {tgt.M.dim}")
        self.src = src
        self.tgt = tgt
        self.mat = mat

    def __repr__(self):
        return f"ThreeCell({self.src.M.dim} -> {self.tgt.M.dim})"


def validate_3cell(c: ThreeCell) -> list[str]:
    out = []
    if not same_content(c.src.src, c.tgt.src) or not same_content(c.src.tgt, c.tgt.tgt):
        out.append("2-diagrams are not parallel")
        return out
    out.extend(validate_bimodule_map(BimoduleMap(c.src.M, c.tgt.M, c.mat)))
    if c.mat @ c.src.f != c.tgt.f:
        out.append("does not intertwine the f legs")
    if c.mat @ c.src.g != c.tgt.g:
        out.append("does not intertwine the g legs")
    return out


def identity_3cell(d: TwoDiagram) -> ThreeCell:
    return ThreeCell(d, d, Matrix.identity(d.M.dim, d.M.field))


def compose_3cells(second: ThreeCell, first: ThreeCell) -> ThreeCell:
    if not two_diagrams_equal(first.tgt, second.src):
        raise ValueError("3-cells are not composable: the first target is"
                         " not the second source")
    return ThreeCell(first.src, second.tgt, second.mat @ first.mat)


def solve_3cell_family(d: TwoDiagram, e: TwoDiagram):
    """All 3-cells d -> e as an affine family: (particular solution or None,
    kernel basis of homogeneous directions), both as matrices.  vec(X) lies
    in hom_space(d.M, e.M), so both bimodules must satisfy the axioms."""
    if not (same_content(d.src, e.src) and same_content(d.tgt, e.tgt)):
        raise ValueError("3-cells join parallel 2-diagrams only")
    f = d.M.field
    m1, m2 = d.M.dim, e.M.dim
    # X S = T X for every action pair: rows spanning [d.M, e.M]'s annihilator
    eqs = kernel(hom_space(d.M, e.M).vecs).basis.transpose()
    # X F = G for both legs: vec(X F) = (I (x) F^T) vec(X)
    I = Matrix.identity(m2, f)
    A = stack_rows([eqs, I.kron(d.f.transpose()), I.kron(d.g.transpose())])
    b = stack_rows([Matrix.zeros(eqs.rows, 1, f), e.f.flatten().transpose(),
                    e.g.flatten().transpose()])
    x0 = solve_matrix(A, b)
    if x0 is None:
        return None, []
    return x0.reshape(m2, m1), HomSpace(m2, m1, kernel(A)).basis


def find_3cell(d: TwoDiagram, e: TwoDiagram) -> "ThreeCell | None":
    x0, _ = solve_3cell_family(d, e)
    return ThreeCell(d, e, x0) if x0 is not None else None


@dataclass(slots=True, eq=False)
class InvertibleCellSearch:
    """Outcome of searching the affine family of 3-cells for an invertible
    one.  failure_bound, None when the verdict is deterministic (certified),
    bounds the probability that an invertible cell exists but every sample
    missed it."""

    cell: ThreeCell | None
    failure_bound: Fraction | None
    detail: str

    @property
    def found(self):
        return self.cell is not None

    @property
    def certified(self):
        return self.failure_bound is None

    def __repr__(self):
        state = "found" if self.found else "none"
        return f"InvertibleCellSearch({state}, certified={self.certified})"


# find_invertible_3cell's sample count and largest exhaustive grid
_TRIES = 3
_GRID_LIMIT = 20000


def find_invertible_3cell(d: TwoDiagram, e: TwoDiagram, rng=None,
                          sample_range=1 << 25) -> InvertibleCellSearch:
    """Search the affine family of 3-cells d -> e for an invertible member.

    A found cell is always a certificate.  Negative answers are certified by
    exhausting a (dim+1)-per-axis grid when the family is small (the
    determinant has degree at most dim in each coefficient); otherwise they
    are probabilistic with an explicit failure bound: a sample misses with
    probability at most dim * q (Schwartz-Zippel), q the largest probability
    of one residue of randint(-sample_range, sample_range) in the field.
    """
    x0, ks = solve_3cell_family(d, e)
    if x0 is None:
        return InvertibleCellSearch(None, None, "no 3-cell exists at all")
    f = d.M.field
    dim = d.M.dim
    if e.M.dim != dim:
        return InvertibleCellSearch(None, None, "apex dimensions differ")

    if is_invertible(x0):
        return InvertibleCellSearch(ThreeCell(d, e, x0), None, "found directly")
    p = len(ks)
    if p == 0:
        return InvertibleCellSearch(None, None,
                                    "unique 3-cell and it is not invertible")
    rng = rng if rng is not None else random.Random(0)
    for _ in range(_TRIES):
        coeffs = [f.from_int(rng.randint(-sample_range, sample_range)) for _ in ks]
        X = combination(coeffs, ks, x0)
        if is_invertible(X):
            return InvertibleCellSearch(ThreeCell(d, e, X), None,
                                        "found by random sampling")
    grid_ok = (dim + 1) ** p <= _GRID_LIMIT and (f.p is None or f.p > dim)
    if grid_ok:
        for point in itertools.product(range(dim + 1), repeat=p):
            X = combination([f.from_int(c) for c in point], ks, x0)
            if is_invertible(X):
                return InvertibleCellSearch(ThreeCell(d, e, X), None,
                                            "found by grid search")
        return InvertibleCellSearch(
            None, None,
            f"certified by exhausting a degree grid of {(dim + 1) ** p} points")
    n = 2 * sample_range + 1
    hits = 1 if f.p is None else -(-n // f.p)
    bound = min(Fraction(1), Fraction(dim * hits, n)) ** _TRIES
    return InvertibleCellSearch(
        None, bound,
        f"no invertible cell found in {_TRIES} samples; "
        f"failure probability at most {bound}")


# ---------------------------------------------------------------------------
# the interchanger between the two orders of composing a 2x2 grid


@dataclass(slots=True)
class BetaResult:
    """The invertible interchanger between vertical-then-horizontal and
    horizontal-then-vertical composition of a 2x2 grid of 2-diagrams.

    src_diagram composes horizontally first; tgt_diagram vertically first.
    cell and inverse_cell are the two descended comparison maps, verified to
    be mutually inverse 3-cells.  src_witness and tgt_witness are the two
    apexes as Quotients of the four-fold flat tensor (flat order M' N' M N
    and M' M N' N), for naturality checks."""

    src_diagram: TwoDiagram
    tgt_diagram: TwoDiagram
    cell: ThreeCell
    inverse_cell: ThreeCell
    src_witness: Quotient
    tgt_witness: Quotient


def beta_cell(d1p: TwoDiagram, d1: TwoDiagram, d2p: TwoDiagram,
              d2: TwoDiagram) -> BetaResult:
    """Build the interchanger for the grid

        d1 : S1 => S2,  d1p : S2 => S3   (cospans over A, B)
        d2 : T1 => T2,  d2p : T2 => T3   (cospans over B, C)

    from horizontal-then-vertical (source) to vertical-then-horizontal
    (target), together with its independently descended inverse; both descent
    identities and both inverse laws are verified exactly."""
    if not (same_content(d1.tgt, d1p.src) and same_content(d2.tgt, d2p.src)):
        raise ValueError("the grid's rows must compose vertically")
    f = d1.M.field
    h_up = horizontal_compose(d2p, d1p)
    h_down = horizontal_compose(d2, d1)
    src_diag = vertical_compose(h_up, h_down)
    v_left = vertical_compose(d1p, d1)
    v_right = vertical_compose(d2p, d2)
    tgt_diag = horizontal_compose(v_right, v_left)
    mp, np_, m, n = (Quotient.leaf(d.M.dim, f) for d in (d1p, d2p, d1, d2))
    src_w = mp.tensor(np_, h_up.quot).tensor(m.tensor(n, h_down.quot),
                                             src_diag.quot)
    tgt_w = mp.tensor(m, v_left.quot).tensor(np_.tensor(n, v_right.quot),
                                            tgt_diag.quot)
    # swap the middle two slots (the permutation is an involution): a
    # product with its permutation matrix selects columns
    swap = [0, 2, 1, 3]
    beta = src_w.descend(
        tgt_w.proj.select_columns(tensor_permutation_index(src_w.dims, swap)),
        "interchanger does not descend from the source")
    beta_inv = tgt_w.descend(
        src_w.proj.select_columns(tensor_permutation_index(tgt_w.dims, swap)),
        "inverse interchanger does not descend from the target")
    if not mutually_inverse(beta, beta_inv):
        raise ValueError("the interchanger and its inverse are not mutually inverse")
    cell = ThreeCell(src_diag, tgt_diag, beta)
    inverse = ThreeCell(tgt_diag, src_diag, beta_inv)
    refuse(validate_3cell(cell) + validate_3cell(inverse),
           "interchanger is not a 3-cell")
    return BetaResult(src_diag, tgt_diag, cell, inverse, src_w, tgt_w)


def check_beta_naturality(bd: BetaResult, be: BetaResult,
                          delta1p: Matrix, delta1: Matrix,
                          delta2p: Matrix, delta2: Matrix) -> bool:
    """The interchanger commutes with the maps induced by componentwise
    3-cells between two grids (delta maps go from the bd grid to the be
    grid, matching the grid positions of beta_cell's arguments)."""
    try:
        ind_src = tensor_induced(be.src_witness, [delta1p, delta2p, delta1, delta2],
                                 bd.src_witness, "source map does not descend")
        ind_tgt = tensor_induced(be.tgt_witness, [delta1p, delta1, delta2p, delta2],
                                 bd.tgt_witness, "target map does not descend")
    except ValueError:
        return False
    return be.cell.mat @ ind_src == ind_tgt @ bd.cell.mat


# ---------------------------------------------------------------------------
# coherence of vertical composition (associativity and units)


def _vertical(tree):
    """The vertical composite of a bracketing given as nested pairs (upper,
    lower) of 2-diagrams, with its apex as a Quotient of the flat tensor of
    all leaves (upper factors major): (TwoDiagram, Quotient).  A subtree
    may be given built, as such a pair."""
    if isinstance(tree, TwoDiagram):
        return tree, Quotient.leaf(tree.M.dim, tree.M.field)
    if isinstance(tree[1], Quotient):
        return tree
    (upper, wu), (lower, wl) = map(_vertical, tree)
    d = vertical_compose(upper, lower)
    return d, wu.tensor(wl, d.quot)


def _rebracket_3cell(a, b) -> Matrix:
    """Canonical comparison between two bracketings of the same vertical
    chain, each a (TwoDiagram, Quotient) pair as _vertical returns;
    checked to descend and to intertwine the composite legs."""
    (da, wa), (db, wb) = a, b
    mat = wa.rebracket(wb, "rebracketing does not descend")
    if mat @ da.f != db.f:
        raise ValueError("rebracketing does not intertwine f legs")
    if mat @ da.g != db.g:
        raise ValueError("rebracketing does not intertwine g legs")
    return mat


def check_pentagon(d4: TwoDiagram, d3: TwoDiagram, d2: TwoDiagram,
                   d1: TwoDiagram) -> bool:
    """The five bracketings of a four-fold vertical composite commute around
    the pentagon of canonical comparison 3-cells."""
    return pentagon_commutes(_vertical, _vertical, _rebracket_3cell,
                             d4, d3, d2, d1)


def check_triangle(d2: TwoDiagram, d1: TwoDiagram) -> bool:
    """Compatibility of the associator with the unit 2-diagram in the middle:
    collapsing the unit on either side of the rebracketing agrees."""
    mid = identity_2diagram(d2.src)
    left_comp, wl = _vertical(((d2, mid), d1))
    right_comp, wr = _vertical((d2, (mid, d1)))
    plain = vertical_compose(d2, d1)
    alpha = _rebracket_3cell((left_comp, wl), (right_comp, wr))
    r_unit = unit_iso_right(tensor_over(d2.M, mid.M))
    l_unit = unit_iso_left(tensor_over(mid.M, d1.M))
    left_map = tensor_induced(plain.quot, [r_unit.mat, d1.M.dim], left_comp.quot)
    right_map = tensor_induced(plain.quot, [d2.M.dim, l_unit.mat], right_comp.quot)
    # the two collapses are 3-cells onto the plain composite, and agree
    return (not validate_3cell(ThreeCell(left_comp, plain, left_map))
            and not validate_3cell(ThreeCell(right_comp, plain, right_map))
            and right_map @ alpha == left_map)


# ---------------------------------------------------------------------------
# invertible cospans and the embedding of commutative algebra maps


@dataclass(slots=True, eq=False)
class InvertibleCospanResult:
    """Verdict with constructive witnesses: the inverse cospan and invertible
    2-diagrams comparing both composites with the identity cospans."""

    reasons: list
    inverse: Cospan | None
    witness_left: TwoDiagram | None
    witness_right: TwoDiagram | None

    @property
    def invertible(self):
        return not self.reasons

    def __repr__(self):
        return f"InvertibleCospanResult({self.invertible})"


def is_invertible_cospan(c: Cospan) -> InvertibleCospanResult:
    """A cospan is invertible exactly when both legs are algebra
    isomorphisms; the witnesses are built explicitly."""
    reasons = []
    if is_isomorphism(c.leg_a) is None:
        reasons.append("left leg is not an algebra isomorphism")
    if is_isomorphism(c.leg_b) is None:
        reasons.append("right leg is not an algebra isomorphism")
    if reasons:
        return InvertibleCospanResult(reasons, None, None, None)
    inverse = Cospan(c.leg_b, c.leg_a)
    witnesses = []
    for first, second, foot in ((inverse, c, c.a), (c, inverse, c.b)):
        comp = compose_cospans(first, second).cospan
        # a map of cospans out of the identity: refuses unequal composite legs
        w = cospan_morphism_2diagram(identity_cospan(foot), comp, comp.leg_a)
        if not is_invertible_2diagram(w):
            raise ValueError("identity comparison of an invertible cospan"
                             " is not invertible")
        witnesses.append(w)
    return InvertibleCospanResult([], inverse, *witnesses)


def functor_A_embed(f: AlgebraMap) -> Cospan:
    """Embed an algebra map between commutative algebras as the cospan
    A -> B <- B with legs f and the identity."""
    if not (is_commutative(f.src) and is_commutative(f.tgt)):
        raise ValueError("functor_A_embed needs commutative algebras")
    return Cospan(f, identity_map(f.tgt))


def check_functor_A_composition(g: AlgebraMap, f: AlgebraMap) -> bool:
    """The embedded composite of two commutative algebra maps agrees with the
    composite of the embedded cospans up to an invertible 2-diagram."""
    comp = compose_cospans(functor_A_embed(g), functor_A_embed(f))
    direct = functor_A_embed(compose_maps(g, f))
    h = comp.cospan.leg_b  # y -> class of 1 (x) y
    if h.mat @ direct.leg_a.mat != comp.cospan.leg_a.mat:
        return False
    if h.mat @ direct.leg_b.mat != comp.cospan.leg_b.mat:
        return False
    d = cospan_morphism_2diagram(direct, comp.cospan, h)
    return is_invertible_2diagram(d)


# ---------------------------------------------------------------------------
# reporting


class CoherenceReport:
    """A named list of boolean checks with optional detail strings."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.entries.append({"name": name, "ok": bool(ok), "detail": detail})

    def extend(self, other: "CoherenceReport", prefix: str = ""):
        """Append other's checks in order, each name behind prefix."""
        for e in other.entries:
            self.add(prefix + e["name"], e["ok"], e["detail"])

    @property
    def ok(self) -> bool:
        return all(e["ok"] for e in self.entries)

    def __repr__(self):
        done = sum(1 for e in self.entries if e["ok"])
        return f"CoherenceReport({done}/{len(self.entries)} ok)"
