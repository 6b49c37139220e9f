"""The full-center construction.

Objects (algebras) go to their centers; algebra maps and bimodules go to
cospans of commutative algebras whose apex is a centralizer respectively an
endomorphism algebra; bimodule maps go to 2-diagrams between those cospans.
On top of the assignment sit the comparison maps between the center of a
composite and the composite of centers -- the multiplication maps, one
Multiplication record for both kinds of 1-cell -- with executable checks:
the lax-functor laws (associativity and units), the naturality of the
multiplication (its 3-cell property, the two triangle identities, the
interchanger hexagon, and the unit reduction), the Morita invariance of
centers, and the invertibility criteria under which the whole assignment is
a genuine (non-lax) 2-functor.

The apex of a bimodule's cospan is End(M), and the 2-diagram of a bimodule
map M -> N (Z_2cell, which returns it) lives on the hom space [M, N]: each
is a bimodule.hom_space, an exactla.HomSpace, and every operator on one
has its matrix read off by HomSpace.product_coords when it composes with
the basis, and by HomSpace.coords otherwise.  m_square's composition tables
are the action collapses of Z_2cell(induced).M, its hom bimodule, and
verify_m_naturality reads equivariance off that bimodule's actions.

Z_hom, Z_bimodule, Z_2cell, mult_transform and mult_transform_bimodule, like
algebra.center, bimodule.hom_space, bimodule.end_algebra and
cospanbicat.compose_cospans, are memoised by content (exactla.memoised), so
each is computed once per input and none takes prebuilt pieces.  The
verdicts that recur on equal content are memoised too: verify_lax_functor's
_unit_checks per map and _pair_checks per composable pair, and the
validators algebra.validate_algebra, algebra.validate_algebra_map,
cospanbicat.validate_cospan, cospanbicat.validate_2diagram and
bimodule.validate_bimodule that the constructions and the CLI call.  A
verdict depends only on its arguments' content, so each is still checked
exactly, once per content; the associativity routes are checked on every
call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Algebra,
    AlgebraMap,
    Subalgebra,
    center,
    centralizer,
    compose_maps,
    identity_map,
    is_isomorphism,
    matrix_algebra,
    subalgebra_map,
    unit_column,
    validate_algebra_map,
)
from .bimodule import (
    Bimodule,
    BimoduleMap,
    LEAVES_HOM,
    TensorResult,
    comp_bar,
    end_algebra,
    hom_bimodule,
    hom_space,
    identity_bimodule_map,
    induced_map,
    left_action_collapse,
    regular_bimodule,
    restrict,
    right_action_collapse,
    tensor_over,
    unequivariant,
    unit_collapse,
)
from .cospanbicat import (
    CoherenceReport,
    Cospan,
    CospanComposition,
    ThreeCell,
    TwoDiagram,
    beta_cell,
    compose_cospans,
    cospan_morphism_2diagram,
    horizontal_compose,
    pushout_universal,
    validate_2diagram,
    validate_3cell,
    validate_cospan,
    vertical_compose,
)
from .exactla import (
    HomSpace,
    Matrix,
    Quotient,
    kron_product,
    memoised,
    rank,
    refuse,
    same_content,
    tensor_induced,
)


# ---------------------------------------------------------------------------
# the assignment on objects, 1-cells and 2-cells


@dataclass(slots=True, eq=False)
class ZMorphismResult:
    """The cospan assigned to a 1-cell (an algebra map or a bimodule).

    realization is the centralizer Subalgebra of an algebra map
    respectively hom_space(M, M) of a bimodule, on whose basis the apex
    End(M) is written; z_left / z_right are the centers of the outer
    algebras, in the coordinates used by the legs."""

    cospan: Cospan
    apex: Algebra
    realization: Subalgebra | HomSpace
    z_left: Subalgebra
    z_right: Subalgebra

    def __repr__(self):
        return f"ZMorphismResult(apex dim {self.apex.dim})"


@memoised
def Z_hom(f: AlgebraMap) -> ZMorphismResult:
    """The cospan Z(A) -> Z(f) <- Z(B) on the centralizer of the image of f.

    The first leg sends a central z to f(z); the second is the inclusion of
    Z(B) into the centralizer."""
    za, zb = center(f.src), center(f.tgt)
    cz = centralizer(f)
    leg_a = subalgebra_map(za, cz, f.mat)
    leg_b = subalgebra_map(zb, cz, Matrix.identity(f.tgt.dim, f.tgt.field))
    cospan = Cospan(leg_a, leg_b)
    refuse(validate_cospan(cospan), "centralizer cospan is invalid")
    return ZMorphismResult(cospan, cz.algebra, cz, za, zb)


@memoised
def Z_bimodule(m: Bimodule) -> ZMorphismResult:
    """The cospan Z(A) -> End(M) <- Z(B) with legs z -> (x -> z.x) and
    z' -> (x -> x.z')."""
    end, H = end_algebra(m), hom_space(m, m)
    zl, zr = center(m.left), center(m.right)
    central = restrict(m, left=AlgebraMap(zl.algebra, m.left, zl.incl),
                       right=AlgebraMap(zr.algebra, m.right, zr.incl))
    legs = [AlgebraMap(z, end, H.coords(ops, "central action is not a bimodule map"))
            for z, ops in ((zl.algebra, central.lact), (zr.algebra, central.ract))]
    cospan = Cospan(*legs)
    refuse(validate_cospan(cospan), "endomorphism cospan is invalid")
    return ZMorphismResult(cospan, end, H, zl, zr)


@memoised
def Z_2cell(phi: BimoduleMap) -> TwoDiagram:
    """The 2-diagram from the cospan of phi's source to that of its target:
    bimodule [M, N] over the two endomorphism algebras, legs xi -> phi o xi
    and eta -> eta o phi."""
    zs, zt = Z_bimodule(phi.src), Z_bimodule(phi.tgt)
    hom_bm, H = hom_bimodule(phi.src, phi.tgt)
    fmat = H.product_coords([phi.mat], zs.realization, LEAVES_HOM)
    gmat = H.product_coords(zt.realization, [phi.mat], LEAVES_HOM)
    d = TwoDiagram(zs.cospan, zt.cospan, hom_bm, fmat, gmat)
    refuse(validate_2diagram(d), "hom-space 2-diagram is invalid")
    return d


# ---------------------------------------------------------------------------
# the multiplication comparison maps


@dataclass(slots=True, eq=False)
class Multiplication:
    """The comparison map Z(X) (x)_{Z(B)} Z(Y) -> Z(X (x)_B Y) of a
    composable pair of 1-cells: composite is g o f for algebra maps and the
    TensorResult of M (x)_B N for bimodules; comp composes the factors'
    cospans (their apexes are comp.first.apex and comp.second.apex); mult is
    the algebra map from comp's apex to the apex of Z(composite), mult.tgt;
    diagram is the 2-diagram it defines."""

    composite: AlgebraMap | TensorResult
    comp: CospanComposition
    mult: AlgebraMap
    diagram: TwoDiagram


def _multiplication(composite, z_first, z_second, z_composite, w, v) -> Multiplication:
    """The universal map out of the composite of the factors' cospans given
    by the factor maps w and v into the apex of z_composite."""
    comp = compose_cospans(z_second.cospan, z_first.cospan)
    mult = pushout_universal(comp, w, v)
    diagram = cospan_morphism_2diagram(comp.cospan, z_composite.cospan, mult)
    return Multiplication(composite, comp, mult, diagram)


@memoised
def mult_transform(f: AlgebraMap, g: AlgebraMap) -> Multiplication:
    """The multiplication map z (x) z' -> g(z) z' for a composable pair of
    algebra maps (compose_maps refuses a pair that does not compose)."""
    gf = compose_maps(g, f)
    zf, zg, zgf = Z_hom(f), Z_hom(g), Z_hom(gf)
    w = subalgebra_map(zf.realization, zgf.realization, g.mat)
    v = subalgebra_map(zg.realization, zgf.realization,
                       Matrix.identity(g.tgt.dim, g.tgt.field))
    return _multiplication(gf, zf, zg, zgf, w, v)


@memoised
def mult_transform_bimodule(m_bim: Bimodule, n_bim: Bimodule) -> Multiplication:
    """The multiplication map xi (x) zeta -> xi (x) zeta, as endomorphisms,
    for a composable pair of bimodules."""
    zm, zn = Z_bimodule(m_bim), Z_bimodule(n_bim)
    tens = tensor_over(m_bim, n_bim)
    zmn = Z_bimodule(tens.product)

    def factor_map(src_z, factors_of):
        ops = [tensor_induced(tens.quot, factors_of(e), tens.quot)
               for e in src_z.realization.basis]
        return AlgebraMap(src_z.apex, zmn.apex, zmn.realization.coords(
            ops, "factor endomorphism leaves the hom space"))

    w = factor_map(zm, lambda e: [e, n_bim.dim])
    v = factor_map(zn, lambda e: [m_bim.dim, e])
    return _multiplication(tens, zm, zn, zmn, w, v)


def n_general(tens_src: TensorResult, tens_tgt: TensorResult,
              pair_quot: Quotient) -> Matrix:
    """Descend the tensor product of bimodule maps M -> M', N -> N' (from
    tens_src = M (x)_B N to tens_tgt = M' (x)_B N') through pair_quot, the
    quotient of [M,M'] (x) [N,N'] of their fibered product over Z(B): the
    matrix of [M,M'] (x)_{Z(B)} [N,N'] -> [M (x) N, M' (x) N'], xi (x) zeta
    -> xi (x) zeta, into the basis of hom_space(M (x) N, M' (x) N')."""
    m, n = tens_src.left_factor, tens_src.right_factor
    mp, np_ = tens_tgt.left_factor, tens_tgt.right_factor
    left, right = hom_space(m, mp), hom_space(n, np_)
    target = hom_space(tens_src.product, tens_tgt.product)
    ops = [tensor_induced(tens_tgt.quot, [xi, zeta], tens_src.quot)
           for xi in left.basis for zeta in right.basis]
    flat = target.coords(ops, "induced map leaves the hom space")
    return pair_quot.descend(
        flat, "tensor of maps does not respect the middle-center relations")


# ---------------------------------------------------------------------------
# the square 3-cell comparing the two composites around a pair of 2-cells


def zero_bimodule_map(src: Bimodule, tgt: Bimodule) -> BimoduleMap:
    return BimoduleMap(src, tgt, Matrix.zeros(tgt.dim, src.dim, src.field))


@dataclass(slots=True, eq=False)
class MSquareResult:
    """The 3-cell between the two composite 2-diagrams around a square of
    bimodule maps: one route multiplies first and then applies the induced
    map on the composite, the other applies the pair of maps first and then
    multiplies.  Its matrix is independent of the maps themselves."""

    hq: TwoDiagram  # the horizontal composite of Z_2cell(phi), Z_2cell(psi)
    mult_src: Multiplication  # the multiplication data of both rows
    mult_tgt: Multiplication
    induced: BimoduleMap  # the induced map on composites
    lhs: TwoDiagram  # the two composite 2-diagrams
    rhs: TwoDiagram
    n_res: Matrix  # the auxiliary descended map (n_general)
    r_inverse: Matrix  # the inverse unit collapse
    cell: ThreeCell


def m_square(phi: BimoduleMap, psi: BimoduleMap) -> MSquareResult:
    """Build the square 3-cell for a pair of bimodule maps; its 3-cell
    axioms are checked by validate_3cell where a verdict is read."""
    hq = horizontal_compose(Z_2cell(psi), Z_2cell(phi))
    mult_src = mult_transform_bimodule(phi.src, psi.src)
    mult_tgt = mult_transform_bimodule(phi.tgt, psi.tgt)
    induced = induced_map(phi, psi, mult_src.composite, mult_tgt.composite)
    z_induced = Z_2cell(induced)
    lhs = vertical_compose(mult_tgt.diagram, hq)
    rhs = vertical_compose(z_induced, mult_src.diagram)
    n_res = n_general(mult_src.composite, mult_tgt.composite, pair_quot=hq.quot)
    # [M (x) N, M' (x) N'] over (End(M' (x) N'), End(M (x) N))
    hom_bm = z_induced.M
    # pre-unit map: the class of x (x) q composes x after the descended map
    mprime = lhs.quot.descend(
        kron_product(left_action_collapse(hom_bm), [hom_bm.left.dim, n_res]),
        "pre-unit map does not respect the composite relations")
    # the unit collapse between the target hom space and its unit tensor
    _, r_inverse = unit_collapse(rhs.quot, right_action_collapse(hom_bm),
                                 [hom_bm.dim, unit_column(hom_bm.right)],
                                 "the unit collapse")
    cell = ThreeCell(lhs, rhs, r_inverse @ mprime)
    return MSquareResult(hq=hq, mult_src=mult_src, mult_tgt=mult_tgt,
                         induced=induced, lhs=lhs, rhs=rhs, n_res=n_res,
                         r_inverse=r_inverse, cell=cell)


# ---------------------------------------------------------------------------
# verification harnesses


def _center_change(zid: ZMorphismResult, sub) -> Matrix:
    """Coordinates of the identity-map centralizer in a center's basis."""
    return sub.subspace.coords_matrix(zid.realization.incl,
                                      "identity centralizer must equal the center")


def verify_lax_functor(chain) -> CoherenceReport:
    """Check the lax-functor laws on a composable chain of algebra maps:
    every multiplication map is a verified algebra map defining a valid
    2-diagram, the two association routes agree on flat triples, and the
    identity-factor multiplications equal the canonical unit collapses."""
    rep = CoherenceReport()
    for f in chain:
        for checks in _unit_checks(f):
            rep.add(*checks)
    for i in range(len(chain) - 1):
        is_map, is_diagram = _pair_checks(chain[i], chain[i + 1])
        rep.add(f"multiplication algebra map {i}", is_map)
        rep.add(f"multiplication 2-diagram {i}", is_diagram)
    for i in range(len(chain) - 2):
        f, g, h = chain[i], chain[i + 1], chain[i + 2]
        rep.add(f"associativity {i}", _associativity_square(f, g, h))
    return rep


@memoised
def _pair_checks(f: AlgebraMap, g: AlgebraMap) -> tuple:
    """Whether the multiplication map of a composable pair is an algebra
    map, and whether the 2-diagram it defines is valid."""
    mt = mult_transform(f, g)
    return (validate_algebra_map(mt.mult) == [],
            validate_2diagram(mt.diagram) == [])


@memoised
def _unit_checks(f: AlgebraMap) -> tuple:
    """The multiplications with an identity factor against the canonical
    collapses of their composites: z (x) z' -> leg_a(z) z' for the identity
    first and z (x) z' -> z leg_b(z') for the identity second, as (name,
    verdict) pairs."""
    ida, idb = identity_map(f.src), identity_map(f.tgt)
    zf, zida, zidb = Z_hom(f), Z_hom(ida), Z_hom(idb)
    mt_first, mt_second = mult_transform(ida, f), mult_transform(f, idb)
    one = identity_map(zf.apex)
    collapse_a = zf.cospan.leg_a.mat @ _center_change(zida, zf.z_left)
    collapse_b = zf.cospan.leg_b.mat @ _center_change(zidb, zf.z_right)
    u1 = pushout_universal(mt_first.comp, AlgebraMap(zida.apex, zf.apex, collapse_a), one)
    u2 = pushout_universal(mt_second.comp, one, AlgebraMap(zidb.apex, zf.apex, collapse_b))
    return (("identity cospan legs strict",
             zida.cospan.leg_a.mat == Matrix.identity(zida.apex.dim, f.src.field)
             and zidb.cospan.leg_b.mat == Matrix.identity(zidb.apex.dim, f.src.field)),
            ("unit first factor", mt_first.mult.mat == u1.mat),
            ("unit second factor", mt_second.mult.mat == u2.mat))


def _associativity_square(f, g, h) -> bool:
    """The two routes from flat triples Z(f) (x) Z(g) (x) Z(h) into
    Z(h o g o f) agree."""
    m1 = mult_transform(f, g)
    m2 = mult_transform(m1.composite, h)
    m1p = mult_transform(g, h)
    m2p = mult_transform(f, m1p.composite)
    route_a = m2.mult.mat @ kron_product(m2.comp.quot.proj, [
        m1.mult.mat @ m1.comp.quot.proj, m1p.comp.second.apex.dim])
    route_b = m2p.mult.mat @ kron_product(m2p.comp.quot.proj, [
        m1.comp.first.apex.dim, m1p.mult.mat @ m1p.comp.quot.proj])
    return route_a == route_b


def check_m_unit_axiom(b: Algebra) -> bool:
    """On the pair of regular bimodules over one algebra, the square 3-cell
    equals the unit collapse composed with the left-action collapse computed
    through the endomorphism algebra's own multiplication."""
    reg = regular_bimodule(b)
    sq = m_square(identity_bimodule_map(reg), identity_bimodule_map(reg))
    alg = sq.mult_src.mult.tgt
    lflat = kron_product(alg.mult, [alg.dim, sq.mult_src.mult.mat])
    try:
        l_desc = sq.lhs.quot.descend(lflat, "left collapse does not descend")
    except ValueError:
        return False
    return sq.cell.mat == sq.r_inverse @ l_desc


def check_m_hexagon(phi: BimoduleMap, phip: BimoduleMap,
                    psi: BimoduleMap, psip: BimoduleMap) -> bool:
    """The interchanger coherence of the square 3-cells: starting from flat
    triples (endomorphism of the doubly-primed composite, upper square class,
    lower square class), rebracketing with the interchanger and composing the
    two columns before multiplying agrees with multiplying row by row and
    composing afterwards."""
    if not (same_content(phip.src, phi.tgt) and same_content(psip.src, psi.tgt)):
        raise ValueError("the second pair of maps must start where the first ends")
    sq1 = m_square(phi, psi)
    sq2 = m_square(phip, psip)
    sq3 = m_square(BimoduleMap(phi.src, phip.tgt, phip.mat @ phi.mat),
                   BimoduleMap(psi.src, psip.tgt, psip.mat @ psi.mat))

    beta = beta_cell(Z_2cell(phip), Z_2cell(phi), Z_2cell(psip), Z_2cell(psi))
    cb_left = comp_bar(phi.src, phi.tgt, phip.tgt)
    cb_right = comp_bar(psi.src, psi.tgt, psip.tgt)
    cb_mid = comp_bar(sq1.mult_src.composite.product,
                      sq1.mult_tgt.composite.product,
                      sq2.mult_tgt.composite.product)

    q1dim = sq1.hq.M.dim
    xdim = sq2.mult_tgt.mult.tgt.dim
    xidim = sq2.n_res.rows
    vdim = sq1.mult_src.mult.tgt.dim

    # row-by-row side
    m2f = sq2.rhs.quot.sect @ sq2.cell.mat @ sq2.lhs.quot.proj
    m1f = sq1.rhs.quot.sect @ sq1.cell.mat @ sq1.lhs.quot.proj
    cbm = cb_mid.mat @ cb_mid.tensor.quot.proj
    side_rows = kron_product(kron_product(kron_product(
        sq3.rhs.quot.proj, [cbm, vdim]), [xidim, m1f]), [m2f, q1dim])

    # interchange-and-compose-columns side
    pb = beta.cell.mat @ beta.src_diagram.quot.proj
    cc = tensor_induced(sq3.hq.quot, [cb_left.mat, cb_right.mat],
                        beta.tgt_diagram.quot)
    fl3 = sq3.cell.mat @ sq3.lhs.quot.proj
    side_columns = kron_product(fl3, [xdim, cc @ pb])

    return side_rows == side_columns


def verify_m_naturality(phi: BimoduleMap, psi: BimoduleMap,
                        phip: BimoduleMap = None,
                        psip: BimoduleMap = None) -> CoherenceReport:
    """Check the naturality package of the square 3-cell: its 3-cell axioms,
    the two triangle identities factoring its legs through the descended
    tensor-of-maps, the equivariance making that map a morphism over the two
    composite apexes, the unit reduction over the middle algebra, and (when a
    second square is supplied) the interchanger hexagon."""
    rep = CoherenceReport()
    sq = m_square(phi, psi)
    bad = validate_3cell(sq.cell)
    rep.add("square is a 3-cell", bad == [], "; ".join(bad))
    # its legs compose phi (x) psi after and before
    z_induced = Z_2cell(sq.induced)
    n_mat = sq.n_res
    rep.add("upper triangle via n",
            sq.cell.mat @ sq.lhs.f == sq.r_inverse @ n_mat @ sq.hq.f)
    rep.add("upper triangle via multiplication",
            sq.rhs.f == sq.r_inverse @ z_induced.f @ sq.mult_src.mult.mat)
    rep.add("lower triangle", n_mat @ sq.hq.g == z_induced.g @ sq.mult_tgt.mult.mat)
    # each action on the composite against the action of its image on
    # z_induced.M, the hom bimodule on n_mat's target
    along = restrict(z_induced.M, left=sq.mult_tgt.mult, right=sq.mult_src.mult)
    rep.add("descended map right equivariant",
            not unequivariant(n_mat, sq.hq.M.ract, along.ract))
    rep.add("descended map left equivariant",
            not unequivariant(n_mat, sq.hq.M.lact, along.lact))
    rep.add("unit reduction", check_m_unit_axiom(phi.src.right))
    if phip is not None and psip is not None:
        rep.add("hexagon", check_m_hexagon(phi, phip, psi, psip))
    return rep


@dataclass(slots=True, eq=False)
class MoritaReport:
    """The diagonal-scalar embedding of a center into the center of the
    matrix amplification, with its verification."""

    algebra: Algebra
    n: int
    amplified: Algebra
    z_small: Subalgebra
    z_big: Subalgebra
    iso: AlgebraMap
    ok: bool

    def __repr__(self):
        return f"MoritaReport(n={self.n}, {'ok' if self.ok else 'FAILED'})"


def morita_center_check(a: Algebra, n: int) -> MoritaReport:
    """z -> z . identity is an algebra isomorphism from the center of A onto
    the center of the n x n matrix algebra over A."""
    big = matrix_algebra(a, n)
    za = center(a)
    zb = center(big)
    # z -> I_n (x) z, I_n as its vector of matrix units
    diagonal = Matrix.identity(n, a.field).flatten().transpose().kron(za.incl)
    iso_mat = zb.subspace.coords_matrix(diagonal, "diagonal image must be central")
    iso = AlgebraMap(za.algebra, zb.algebra, iso_mat)
    ok = (validate_algebra_map(iso) == [] and is_isomorphism(iso) is not None
          and za.dim == zb.dim)
    return MoritaReport(a, n, big, za, zb, iso, ok)


class Thm58Report(CoherenceReport):
    """Per-instance invertibility checks of the comparison maps; the
    aggregate verdict string follows from ok (all_iso is another name for
    ok, read by bench/workloads.py)."""

    __slots__ = ()

    all_iso = CoherenceReport.ok

    @property
    def verdict(self) -> str:
        return "non-lax on this corpus" if self.ok else "lax behaviour witnessed"

    def __repr__(self):
        return f"Thm58Report({self.verdict}, {len(self.entries)} entries)"


def check_theorem58_hypotheses(chains=(), squares=()) -> Thm58Report:
    """Evaluate the invertibility hypotheses on a corpus.

    chains: triples (M, N, P) of bimodules over one algebra pair; the
    composition map [N,P] (x)_{[N,N]} [M,N] -> [M,P] must be invertible.
    squares: quadruples (M, M', N, N') of composable bimodules; the
    descended tensor-of-maps, the square 3-cell, and the multiplication
    2-cells of both composable pairs must be invertible.
    If every entry is invertible the assignment restricts to a genuine
    2-functor on the corpus and the verdict says so."""
    rep = Thm58Report()

    def add_map(name, mat, ok=True):
        r = rank(mat)
        rep.add(name, ok and mat.rows == mat.cols == r,
                f"{mat.rows}x{mat.cols} rank {r}")

    for m, n, p in chains:
        add_map("composition collapse", comp_bar(m, n, p).mat)
    for m, mp, n, np_ in squares:
        sq = m_square(zero_bimodule_map(m, mp), zero_bimodule_map(n, np_))
        add_map("descended tensor of maps", sq.n_res)
        add_map("square 3-cell", sq.cell.mat, validate_3cell(sq.cell) == [])
        for mt in (sq.mult_src, sq.mult_tgt):
            add_map("multiplication 2-cell", mt.mult.mat)
    # the algebras of the corpus, once each by identity, in order of first use
    used = ([alg for m, _, _ in chains for alg in (m.left, m.right)]
            + [alg for m, _, n, _ in squares for alg in (m.left, m.right, n.right)])
    for alg in {id(alg): alg for alg in used}.values():
        ea = end_algebra(regular_bimodule(alg))
        rep.add("identity center strict", ea.dim == center(alg).dim,
                f"dim {ea.dim}")
    return rep
