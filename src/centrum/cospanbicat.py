"""Cospans of algebras with central legs, bimodule 2-diagrams between
parallel cospans, and 3-cells between parallel 2-diagrams.

The three layers:
  * a cospan A -> T <- B: algebra maps whose images commute with all of T,
    between commutative outer algebras A and B;
  * a 2-diagram from cospan S to cospan T (over the same A, B): a T-S-bimodule
    M with a right-module map f: S -> M and a left-module map g: T -> M that
    agree after the legs, and on which the outer actions through either
    cospan coincide;
  * a 3-cell between parallel 2-diagrams: an equivariant map intertwining the
    f and g legs.

Cospans compose by the fibered tensor product of apexes over the shared outer
algebra, which carries a well-defined algebra structure because leg images
are central; 2-diagrams compose vertically (over a shared middle cospan) and
horizontally (over the shared outer algebra), and the two orders of composing
a 2x2 grid agree up to an explicit invertible interchanger 3-cell, built here
together with its inverse from the two independent descent presentations.
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
    tensor_algebra,
    validate_algebra_map,
)
from .bimodule import (
    Bimodule,
    BimoduleMap,
    middle_relations,
    regular_bimodule,
    tensor_over,
    unit_iso_left,
    unit_iso_right,
    validate_bimodule,
    validate_bimodule_map,
)
from .exactla import (
    FlatWitness,
    Matrix,
    PrimeField,
    cokernel,
    is_invertible,
    kernel,
    quotient_induced,
    solve,
    tensor_permutation,
)


def unit_column(a: Algebra) -> Matrix:
    return Matrix.from_columns([a.unit], a.dim, a.field)


# ---------------------------------------------------------------------------
# cospans


class Cospan:
    """A -> apex <- B with both leg images central in the apex."""

    __slots__ = ("leg_a", "leg_b", "name")

    def __init__(self, leg_a: AlgebraMap, leg_b: AlgebraMap, name=""):
        if not (leg_a.tgt is leg_b.tgt or leg_a.tgt.equal_on_the_nose(leg_b.tgt)):
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


def cospans_match(c: Cospan, d: Cospan) -> bool:
    """Structural equality of cospans (apex and both legs on the nose)."""
    if c is d:
        return True
    return (
        c.apex.equal_on_the_nose(d.apex)
        and c.a.equal_on_the_nose(d.a)
        and c.b.equal_on_the_nose(d.b)
        and c.leg_a.mat == d.leg_a.mat
        and c.leg_b.mat == d.leg_b.mat
    )


def _flat_bilinear_op(u, left_ops, right_ops, field) -> Matrix:
    """Operator sum_{(a,b)} u[(a,b)] * (left_ops[a] (x) right_ops[b]),
    with (a, b) flattened left-major."""
    nr = len(right_ops)
    out = None
    for a, La in enumerate(left_ops):
        acc = None
        base = a * nr
        for b, Rb in enumerate(right_ops):
            c = u[base + b]
            if c:
                acc = Rb.scale(c) if acc is None else acc + Rb.scale(c)
        if acc is not None:
            term = La.kron(acc)
            out = term if out is None else out + term
    if out is None:
        n = left_ops[0].rows * right_ops[0].rows
        out = Matrix.zeros(n, n, field)
    return out


class CospanComposition:
    """The composite of two cospans: apex (first apex) (x)_B (second apex),
    a quotient algebra of tensor_algebra(first apex, second apex), plus the
    quotient witnesses.

    The product descends because leg images are central; both one-sided
    multiplication operators of every relation generator are checked to
    vanish on the quotient.
    """

    __slots__ = ("first", "second", "cospan", "quot")

    def __init__(self, second: Cospan, first: Cospan):
        B = first.b
        if not (second.a is B or second.a.equal_on_the_nose(B)):
            raise ValueError("middle algebras must agree")
        bad = validate_cospan(first) + validate_cospan(second)
        if bad:
            raise ValueError(f"invalid cospan: {bad}")
        T, S = first.apex, second.apex
        f = T.field
        U = tensor_algebra(T, S)
        ract_mid = [
            T.right_mult(first.leg_b.apply(B.basis_vector(j))) for j in range(B.dim)
        ]
        lact_mid = [
            S.left_mult(second.leg_a.apply(B.basis_vector(j))) for j in range(B.dim)
        ]
        rel = middle_relations(T.dim, S.dim, ract_mid, lact_mid, f)
        quot = cokernel(rel)
        proj, sect = quot.proj, quot.sect
        # linear in the relation, so checking a basis of the span suffices
        for r in quot.relations.columns():
            if not (proj @ U.left_mult(r)).is_zero():
                raise ValueError("multiplication does not descend (left side)")
            if not (proj @ U.right_mult(r)).is_zero():
                raise ValueError("multiplication does not descend (right side)")
        apex = Algebra(proj @ U.products(sect, sect), quot.project(U.unit))
        leg_a = AlgebraMap(first.a, apex, proj @ first.leg_a.mat.kron(unit_column(S)))
        leg_b = AlgebraMap(second.b, apex, proj @ unit_column(T).kron(second.leg_b.mat))
        self.first = first
        self.second = second
        self.quot = quot
        self.cospan = Cospan(leg_a, leg_b)
        bad = validate_cospan(self.cospan)
        if bad:
            raise ValueError(f"composite is not a valid cospan: {bad}")

    def __repr__(self):
        return f"CospanComposition({self.cospan!r})"


def compose_cospans(second: Cospan, first: Cospan) -> CospanComposition:
    """Compose first (between A and B) with second (between B and C)."""
    return CospanComposition(second, first)


def pushout_universal(comp: CospanComposition, w: AlgebraMap, v: AlgebraMap) -> AlgebraMap:
    """The universal map out of a composite apex determined by maps w, v on
    the two factors that agree on the middle algebra and have commuting
    images: class of t (x) s  ->  w(t) v(s)."""
    T, S = comp.first.apex, comp.second.apex
    U = w.tgt
    if not (v.tgt is U or v.tgt.equal_on_the_nose(U)):
        raise ValueError("factor maps must share a target")
    B = comp.first.b
    for j in range(B.dim):
        bj = B.basis_vector(j)
        if w.apply(comp.first.leg_b.apply(bj)) != v.apply(comp.second.leg_a.apply(bj)):
            raise ValueError("factor maps do not agree on the middle algebra")
    cols = U.products(w.mat, v.mat)
    swap = [j * T.dim + i for i in range(T.dim) for j in range(S.dim)]
    if cols != U.products(v.mat, w.mat).select_columns(swap):
        raise ValueError("factor map images do not commute")
    mat = comp.quot.descend(cols, "universal map does not descend")
    out = AlgebraMap(comp.cospan.apex, U, mat)
    bad = validate_algebra_map(out)
    if bad:
        raise ValueError(f"universal map is not an algebra map: {bad}")
    return out


# ---------------------------------------------------------------------------
# 2-diagrams


class TwoDiagram:
    """A 2-diagram from cospan src to cospan tgt over the same outer pair:
    a (tgt apex, src apex)-bimodule M with leg maps f: src apex -> M (right
    equivariant) and g: tgt apex -> M (left equivariant).

    Composites remember their construction: tensor is the fibered tensor
    product their apex descends from and parts the constituent diagrams."""

    __slots__ = ("src", "tgt", "M", "f", "g", "tensor", "parts")

    def __init__(self, src: Cospan, tgt: Cospan, M: Bimodule, f: Matrix, g: Matrix,
                 tensor=None, parts=None):
        if not ((M.left is tgt.apex or M.left.equal_on_the_nose(tgt.apex))
                and (M.right is src.apex or M.right.equal_on_the_nose(src.apex))):
            raise ValueError("2-diagram: the bimodule pair must be (target apex,"
                             " source apex)")
        assert f.shape == (M.dim, src.apex.dim)
        assert g.shape == (M.dim, tgt.apex.dim)
        self.src = src
        self.tgt = tgt
        self.M = M
        self.f = f
        self.g = g
        self.tensor = tensor
        self.parts = parts

    def __repr__(self):
        return f"TwoDiagram({self.src.apex.dim} => {self.tgt.apex.dim}; dim {self.M.dim})"


def validate_2diagram(d: TwoDiagram) -> list[str]:
    """Violations of the 2-diagram axioms; empty == valid."""
    out = ["bimodule: " + m for m in validate_bimodule(d.M)]
    A, B = d.src.a, d.src.b
    if not cospans_match_outer(d.src, d.tgt):
        out.append("source and target cospans have different outer algebras")
    for i in range(A.dim):
        x = A.basis_vector(i)
        if d.M.lact_of(d.tgt.leg_a.apply(x)) != d.M.ract_of(d.src.leg_a.apply(x)):
            out.append(f"outer action through A disagrees at e{i}")
    for i in range(B.dim):
        y = B.basis_vector(i)
        if d.M.lact_of(d.tgt.leg_b.apply(y)) != d.M.ract_of(d.src.leg_b.apply(y)):
            out.append(f"outer action through B disagrees at e{i}")
    S, T = d.src.apex, d.tgt.apex
    for j in range(S.dim):
        if d.f @ S.right_mult(S.basis_vector(j)) != d.M.ract[j] @ d.f:
            out.append(f"f is not a right module map at e{j}")
    for i in range(T.dim):
        if d.g @ T.left_mult(T.basis_vector(i)) != d.M.lact[i] @ d.g:
            out.append(f"g is not a left module map at e{i}")
    if d.f @ d.src.leg_a.mat != d.g @ d.tgt.leg_a.mat:
        out.append("legs disagree after the A side")
    if d.f @ d.src.leg_b.mat != d.g @ d.tgt.leg_b.mat:
        out.append("legs disagree after the B side")
    return out


def cospans_match_outer(c: Cospan, d: Cospan) -> bool:
    return c.a.equal_on_the_nose(d.a) and c.b.equal_on_the_nose(d.b)


def identity_2diagram(c: Cospan) -> TwoDiagram:
    M = regular_bimodule(c.apex)
    I = Matrix.identity(c.apex.dim, c.apex.field)
    return TwoDiagram(c, c, M, I, I)


def cospan_morphism_2diagram(src: Cospan, tgt: Cospan, h: AlgebraMap) -> TwoDiagram:
    """The 2-diagram induced by a map of cospans h: src apex -> tgt apex
    commuting with both legs: M is the target apex, f = h, g = identity."""
    bad = validate_algebra_map(h)
    if bad:
        raise ValueError(f"not an algebra map: {bad}")
    if h.mat @ src.leg_a.mat != tgt.leg_a.mat:
        raise ValueError("does not commute with A legs")
    if h.mat @ src.leg_b.mat != tgt.leg_b.mat:
        raise ValueError("does not commute with B legs")
    T = tgt.apex
    lact = [T.left_mult(T.basis_vector(i)) for i in range(T.dim)]
    ract = [T.right_mult(h.apply(src.apex.basis_vector(j))) for j in range(src.apex.dim)]
    M = Bimodule(T, src.apex, T.dim, lact, ract)
    return TwoDiagram(src, tgt, M, h.mat, Matrix.identity(T.dim, T.field))


def two_diagrams_equal(d: TwoDiagram, e: TwoDiagram) -> bool:
    """Strict equality: same cospans, same actions, same legs."""
    return (
        cospans_match(d.src, e.src)
        and cospans_match(d.tgt, e.tgt)
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
    assert cospans_match(upper.src, lower.tgt), "middle cospans must match"
    S = upper.src.apex
    tens = tensor_over(upper.M, lower.M)
    w = upper.f @ unit_column(S)
    u = tens.quot.proj @ w.kron(lower.f)
    z = lower.g @ unit_column(S)
    v = tens.quot.proj @ upper.g.kron(z)
    return TwoDiagram(lower.src, upper.tgt, tens.product, u, v,
                      tensor=tens, parts=("vertical", upper, lower))


def horizontal_compose(right: TwoDiagram, left: TwoDiagram) -> TwoDiagram:
    """Compose left (between cospans over A, B) with right (over B, C) to a
    2-diagram between the composite cospans over A, C.

    The apex is (left M) (x)_B (right M), where B acts on the left factor
    through the source cospan's B leg and on the right factor through the
    target cospan's B leg; both choices agree with their counterparts by the
    2-diagram axioms.  The legs are the descended tensor products of the
    constituent legs."""
    return _horizontal_compose(right, left)


def _horizontal_compose(right: TwoDiagram, left: TwoDiagram,
                        src_comp: "CospanComposition | None" = None,
                        tgt_comp: "CospanComposition | None" = None) -> TwoDiagram:
    """horizontal_compose, reusing the composite of the source cospans or of
    the target cospans when the caller has built it already."""
    B = left.src.b
    assert right.src.a is B or right.src.a.equal_on_the_nose(B)
    if src_comp is None:
        src_comp = compose_cospans(right.src, left.src)
    if tgt_comp is None:
        tgt_comp = compose_cospans(right.tgt, left.tgt)
    M1, M2 = left.M, right.M
    f = M1.field
    m1b = Bimodule(
        M1.left, B, M1.dim, M1.lact,
        [M1.ract_of(left.src.leg_b.mat.col_list(j)) for j in range(B.dim)],
    )
    m2b = Bimodule(
        B, M2.right, M2.dim,
        [M2.lact_of(right.tgt.leg_a.mat.col_list(j)) for j in range(B.dim)],
        M2.ract,
    )
    tens = tensor_over(m1b, m2b)
    # relation generators of either composite apex must act by zero
    for r in tgt_comp.quot.relations.columns():
        op = _flat_bilinear_op(r, M1.lact, M2.lact, f)
        if not (tens.quot.proj @ op).is_zero():
            raise ValueError("left action does not respect the apex relations")
    for r in src_comp.quot.relations.columns():
        op = _flat_bilinear_op(r, M1.ract, M2.ract, f)
        if not (tens.quot.proj @ op).is_zero():
            raise ValueError("right action does not respect the apex relations")
    lact = []
    for q in range(tgt_comp.cospan.apex.dim):
        op = _flat_bilinear_op(tgt_comp.quot.sect.col_list(q), M1.lact, M2.lact, f)
        lact.append(quotient_induced(tens.quot, op, tens.quot))
    ract = []
    for q in range(src_comp.cospan.apex.dim):
        op = _flat_bilinear_op(src_comp.quot.sect.col_list(q), M1.ract, M2.ract, f)
        ract.append(quotient_induced(tens.quot, op, tens.quot))
    M = Bimodule(tgt_comp.cospan.apex, src_comp.cospan.apex, tens.dim, lact, ract)
    fmat = src_comp.quot.descend(tens.quot.proj @ left.f.kron(right.f),
                                 "f leg does not descend to the composite")
    gmat = tgt_comp.quot.descend(tens.quot.proj @ left.g.kron(right.g),
                                 "g leg does not descend to the composite")
    return TwoDiagram(src_comp.cospan, tgt_comp.cospan, M, fmat, gmat,
                      tensor=tens, parts=("horizontal", right, left, src_comp, tgt_comp))


# ---------------------------------------------------------------------------
# 3-cells


class ThreeCell:
    """A map between parallel 2-diagrams: equivariant and leg-compatible."""

    __slots__ = ("src", "tgt", "mat")

    def __init__(self, src: TwoDiagram, tgt: TwoDiagram, mat: Matrix):
        assert mat.shape == (tgt.M.dim, src.M.dim)
        self.src = src
        self.tgt = tgt
        self.mat = mat

    def __repr__(self):
        return f"ThreeCell({self.src.M.dim} -> {self.tgt.M.dim})"


def validate_3cell(c: ThreeCell) -> list[str]:
    out = []
    if not cospans_match(c.src.src, c.tgt.src) or not cospans_match(c.src.tgt, c.tgt.tgt):
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
    assert two_diagrams_equal(first.tgt, second.src)
    return ThreeCell(first.src, second.tgt, second.mat @ first.mat)


def solve_3cell_family(d: TwoDiagram, e: TwoDiagram):
    """All 3-cells d -> e as an affine family: (particular solution or None,
    kernel basis of homogeneous directions), both as matrices."""
    assert cospans_match(d.src, e.src) and cospans_match(d.tgt, e.tgt)
    f = d.M.field
    m1, m2 = d.M.dim, e.M.dim
    # X S = T X for every action pair (S of d, T of e), as in hom_space
    eqs = middle_relations(m2, m1, [T.transpose() for T in e.M.lact + e.M.ract],
                           d.M.lact + d.M.ract, f).transpose().data
    rhs = [f.zero] * len(eqs)
    # X F = G for both legs: row (r, c) has F[k][c] at the entry of X[r][k]
    for F, G in ((d.f, e.f), (d.g, e.g)):
        for r in range(m2):
            for c in range(F.cols):
                row = [f.zero] * (m2 * m1)
                row[r * m1:(r + 1) * m1] = F.col_list(c)
                eqs.append(row)
                rhs.append(G.data[r][c])
    A = Matrix(eqs, f, ncols=m2 * m1)
    part = solve(A, rhs)
    if part is None:
        return None, []

    def unvec(v):
        return Matrix([v[r * m1:(r + 1) * m1] for r in range(m2)], f, ncols=m1)

    ker = [unvec(col) for col in kernel(A).basis.columns()]
    return unvec(part), ker


def find_3cell(d: TwoDiagram, e: TwoDiagram) -> "ThreeCell | None":
    x0, _ = solve_3cell_family(d, e)
    return ThreeCell(d, e, x0) if x0 is not None else None


@dataclass(slots=True, eq=False)
class InvertibleCellSearch:
    """Outcome of searching the affine family of 3-cells for an invertible
    one.  certified means the verdict is deterministic; otherwise
    failure_bound bounds the probability that an invertible cell exists but
    every sample missed it."""

    cell: ThreeCell | None
    certified: bool
    failure_bound: Fraction | None
    detail: str

    @property
    def found(self):
        return self.cell is not None

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
        return InvertibleCellSearch(None, True, None, "no 3-cell exists at all")
    f = d.M.field
    dim = d.M.dim
    if e.M.dim != dim:
        return InvertibleCellSearch(None, True, None, "apex dimensions differ")

    def build(coeffs):
        X = x0
        for c, K in zip(coeffs, ks):
            if c:
                X = X + K.scale(c)
        return X

    if is_invertible(x0):
        return InvertibleCellSearch(ThreeCell(d, e, x0), True, None, "found directly")
    p = len(ks)
    if p == 0:
        return InvertibleCellSearch(None, True, None,
                                    "unique 3-cell and it is not invertible")
    rng = rng if rng is not None else random.Random(0)
    for _ in range(_TRIES):
        coeffs = [f.from_int(rng.randint(-sample_range, sample_range)) for _ in ks]
        X = build(coeffs)
        if is_invertible(X):
            return InvertibleCellSearch(ThreeCell(d, e, X), True, None,
                                        "found by random sampling")
    field_size = f.p if isinstance(f, PrimeField) else None
    grid_ok = (dim + 1) ** p <= _GRID_LIMIT and (field_size is None or field_size > dim)
    if grid_ok:
        for point in itertools.product(range(dim + 1), repeat=p):
            X = build([f.from_int(c) for c in point])
            if is_invertible(X):
                return InvertibleCellSearch(ThreeCell(d, e, X), True, None,
                                            "found by grid search")
        return InvertibleCellSearch(
            None, True, None,
            f"certified by exhausting a degree grid of {(dim + 1) ** p} points")
    n = 2 * sample_range + 1
    hits = 1 if field_size is None else -(-n // field_size)
    bound = min(Fraction(1), Fraction(dim * hits, n)) ** _TRIES
    return InvertibleCellSearch(
        None, False, bound,
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
    be mutually inverse 3-cells.  src_witness and tgt_witness present the two
    apexes as nested quotients of the four-fold flat tensor (flat order
    M' N' M N and M' M N' N), for naturality checks."""

    src_diagram: TwoDiagram
    tgt_diagram: TwoDiagram
    cell: ThreeCell
    inverse_cell: ThreeCell
    src_witness: FlatWitness
    tgt_witness: FlatWitness


def beta_cell(d1p: TwoDiagram, d1: TwoDiagram, d2p: TwoDiagram,
              d2: TwoDiagram) -> BetaResult:
    """Build the interchanger for the grid

        d1 : S1 => S2,  d1p : S2 => S3   (cospans over A, B)
        d2 : T1 => T2,  d2p : T2 => T3   (cospans over B, C)

    from horizontal-then-vertical (source) to vertical-then-horizontal
    (target), together with its independently descended inverse; both descent
    identities and both inverse laws are verified exactly."""
    assert cospans_match(d1.tgt, d1p.src) and cospans_match(d2.tgt, d2p.src)
    f = d1.M.field
    # each composite cospan is built once: that of S2 and T2 is the source
    # of h_up and the target of h_down; those of S1 and T1 and of S3 and T3
    # are the source of h_down and the target of h_up, and again of tgt_diag
    h_up = _horizontal_compose(d2p, d1p)
    _, _, _, mid, top = h_up.parts
    h_down = _horizontal_compose(d2, d1, tgt_comp=mid)
    bottom = h_down.parts[3]
    src_diag = vertical_compose(h_up, h_down)
    v_left = vertical_compose(d1p, d1)
    v_right = vertical_compose(d2p, d2)
    tgt_diag = _horizontal_compose(v_right, v_left, bottom, top)
    mp, np_, m, n = (FlatWitness.leaf(d.M.dim, f) for d in (d1p, d2p, d1, d2))
    src_w = mp.tensor(np_, h_up.tensor.quot).tensor(
        m.tensor(n, h_down.tensor.quot), src_diag.tensor.quot)
    tgt_w = mp.tensor(m, v_left.tensor.quot).tensor(
        np_.tensor(n, v_right.tensor.quot), tgt_diag.tensor.quot)
    # swap the middle two slots (the permutation is an involution)
    P = tensor_permutation(src_w.dims, [0, 2, 1, 3], f)
    Pback = tensor_permutation(tgt_w.dims, [0, 2, 1, 3], f)
    beta = src_w.descend(tgt_w.proj @ P,
                         "interchanger does not descend from the source")
    beta_inv = tgt_w.descend(src_w.proj @ Pback,
                             "inverse interchanger does not descend from the target")
    if beta @ beta_inv != Matrix.identity(tgt_diag.M.dim, f):
        raise ValueError("interchanger after its inverse is not the identity")
    if beta_inv @ beta != Matrix.identity(src_diag.M.dim, f):
        raise ValueError("inverse after the interchanger is not the identity")
    cell = ThreeCell(src_diag, tgt_diag, beta)
    inverse = ThreeCell(tgt_diag, src_diag, beta_inv)
    bad = validate_3cell(cell) + validate_3cell(inverse)
    if bad:
        raise ValueError(f"interchanger is not a 3-cell: {bad}")
    return BetaResult(src_diag, tgt_diag, cell, inverse, src_w, tgt_w)


def check_beta_naturality(bd: BetaResult, be: BetaResult,
                          delta1p: Matrix, delta1: Matrix,
                          delta2p: Matrix, delta2: Matrix) -> bool:
    """The interchanger commutes with the maps induced by componentwise
    3-cells between two grids (delta maps go from the bd grid to the be
    grid, matching the grid positions of beta_cell's arguments)."""
    try:
        ind_src = bd.src_witness.descend(
            be.src_witness.proj @ delta1p.kron(delta2p).kron(delta1).kron(delta2),
            "source map does not descend")
        ind_tgt = bd.tgt_witness.descend(
            be.tgt_witness.proj @ delta1p.kron(delta1).kron(delta2p).kron(delta2),
            "target map does not descend")
    except ValueError:
        return False
    return be.cell.mat @ ind_src == ind_tgt @ bd.cell.mat


# ---------------------------------------------------------------------------
# coherence of vertical composition (associativity and units)


def _vertical_flat_witness(d: TwoDiagram) -> FlatWitness:
    """The apex of a nested vertical composite as a nested quotient of the
    flat tensor of its elementary apexes (upper factors major)."""
    if not (d.parts and d.parts[0] == "vertical"):
        return FlatWitness.leaf(d.M.dim, d.M.field)
    _, upper, lower = d.parts
    return _vertical_flat_witness(upper).tensor(_vertical_flat_witness(lower),
                                                d.tensor.quot)


def _rebracket_3cell(a: TwoDiagram, b: TwoDiagram) -> Matrix:
    """Canonical comparison between two bracketings of the same vertical
    chain; checked to descend and to intertwine the composite legs."""
    mat = _vertical_flat_witness(a).rebracket(_vertical_flat_witness(b),
                                              "rebracketing does not descend")
    assert mat @ a.f == b.f, "rebracketing does not intertwine f legs"
    assert mat @ a.g == b.g, "rebracketing does not intertwine g legs"
    return mat


def check_pentagon(d4: TwoDiagram, d3: TwoDiagram, d2: TwoDiagram,
                   d1: TwoDiagram) -> bool:
    """The five bracketings of a four-fold vertical composite commute around
    the pentagon of canonical comparison 3-cells."""
    vc = vertical_compose
    w1 = vc(vc(vc(d4, d3), d2), d1)
    w2 = vc(vc(d4, vc(d3, d2)), d1)
    w3 = vc(vc(d4, d3), vc(d2, d1))
    w4 = vc(d4, vc(vc(d3, d2), d1))
    w5 = vc(d4, vc(d3, vc(d2, d1)))
    two_step = _rebracket_3cell(w3, w5) @ _rebracket_3cell(w1, w3)
    three_step = (
        _rebracket_3cell(w4, w5) @ _rebracket_3cell(w2, w4) @ _rebracket_3cell(w1, w2)
    )
    return two_step == three_step


def check_triangle(d2: TwoDiagram, d1: TwoDiagram) -> bool:
    """Compatibility of the associator with the unit 2-diagram in the middle:
    collapsing the unit on either side of the rebracketing agrees."""
    mid = identity_2diagram(d2.src)
    left_comp = vertical_compose(vertical_compose(d2, mid), d1)
    right_comp = vertical_compose(d2, vertical_compose(mid, d1))
    plain = vertical_compose(d2, d1)
    alpha = _rebracket_3cell(left_comp, right_comp)
    r_unit = unit_iso_right(vertical_compose(d2, mid).tensor)
    l_unit = unit_iso_left(vertical_compose(mid, d1).tensor)
    f = d1.M.field
    left_map = quotient_induced(
        plain.tensor.quot,
        r_unit.mat.kron(Matrix.identity(d1.M.dim, f)),
        left_comp.tensor.quot,
    )
    right_map = quotient_induced(
        plain.tensor.quot,
        Matrix.identity(d2.M.dim, f).kron(l_unit.mat),
        right_comp.tensor.quot,
    )
    # the two collapses are 3-cells onto the plain composite
    if left_map @ left_comp.f != plain.f or left_map @ left_comp.g != plain.g:
        return False
    if right_map @ right_comp.f != plain.f or right_map @ right_comp.g != plain.g:
        return False
    return right_map @ alpha == left_map


# ---------------------------------------------------------------------------
# invertible cospans and the embedding of commutative algebra maps


@dataclass(slots=True, eq=False)
class InvertibleCospanResult:
    """Verdict with constructive witnesses: the inverse cospan and invertible
    2-diagrams comparing both composites with the identity cospans."""

    invertible: bool
    reasons: list
    inverse: Cospan | None
    witness_left: TwoDiagram | None
    witness_right: TwoDiagram | None

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
        return InvertibleCospanResult(False, reasons, None, None, None)
    inverse = Cospan(c.leg_b, c.leg_a)
    comp_left = compose_cospans(inverse, c)
    assert comp_left.cospan.leg_a.mat == comp_left.cospan.leg_b.mat, (
        "composite legs of an invertible cospan must coincide"
    )
    witness_left = cospan_morphism_2diagram(
        identity_cospan(c.a), comp_left.cospan, comp_left.cospan.leg_a
    )
    assert is_invertible_2diagram(witness_left)
    comp_right = compose_cospans(c, inverse)
    assert comp_right.cospan.leg_a.mat == comp_right.cospan.leg_b.mat
    witness_right = cospan_morphism_2diagram(
        identity_cospan(c.b), comp_right.cospan, comp_right.cospan.leg_a
    )
    assert is_invertible_2diagram(witness_right)
    return InvertibleCospanResult(True, [], inverse, witness_left, witness_right)


def functor_A_embed(f: AlgebraMap) -> Cospan:
    """Embed an algebra map between commutative algebras as the cospan
    A -> B <- B with legs f and the identity."""
    assert is_commutative(f.src) and is_commutative(f.tgt)
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

    @property
    def ok(self) -> bool:
        return all(e["ok"] for e in self.entries)

    def __repr__(self):
        done = sum(1 for e in self.entries if e["ok"])
        return f"CoherenceReport({done}/{len(self.entries)} ok)"
