"""Batch front end: parse presentations of algebras, maps, bimodules,
cospans and 2-diagrams, run the constructions and verifications, and emit
deterministic JSON reports.

Every report follows schema "centrum/1": a single JSON object with the
command, the field/seed/bound configuration, a manifest of the inputs (source
spec plus a content hash of the parsed object, so failures are replayable),
the result payload with audit matrices, and a list of named checks.  Exit
codes: 0 when every check passes, 1 when some check fails, 2 when an input
cannot be parsed or fails its validator at load.

Objects are given either by named constructors (`matrix:2`, `id:matrix:2`,
`regular:group:C2`, ...) or as `@file.json` presentations; the JSON shapes
accepted are exactly the shapes this module embeds in its own reports.
Scalars may be written as integers or exact strings ("3/2"); floats are
rejected.  Reports are byte-identical across runs given the same inputs and
`--seed`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from dataclasses import dataclass
from typing import Callable

from . import corpus
from .algebra import (
    Algebra,
    AlgebraMap,
    alg_dual_numbers,
    alg_k,
    alg_product_k,
    center,
    centralizer,
    identity_map,
    is_commutative,
    named_algebra,
    unit_map,
    validate_algebra,
    validate_algebra_map,
)
from .bimodule import (
    Bimodule,
    BimoduleMap,
    free_bimodule,
    hom_space,
    identity_bimodule_map,
    pentagon_check,
    regular_bimodule,
    tensor_over,
    triangle_check,
    validate_bimodule,
    validate_bimodule_map,
)
from .cospanbicat import (
    Cospan,
    TwoDiagram,
    beta_cell,
    compose_cospans,
    cospans_match,
    find_invertible_3cell,
    horizontal_compose,
    identity_2diagram,
    identity_cospan,
    is_invertible_2diagram,
    is_invertible_cospan,
    validate_2diagram,
    validate_3cell,
    validate_cospan,
    vertical_compose,
)
from .exactla import Matrix, field_from_name, rank
from .fixtures import (
    col_bimodule,
    diagonal_inclusion,
    random_bimodule,
    random_hom_element,
    random_interchanger_grid,
    random_map_chain,
    row_bimodule,
)
from .fullcenter import (
    Z_2cell,
    Z_bimodule,
    Z_hom,
    check_theorem58_hypotheses,
    morita_center_check,
    verify_lax_functor,
    verify_m_naturality,
)

SCHEMA = "centrum/1"


class InputError(Exception):
    """An input that cannot be parsed or fails its validator; carries the
    violation list for the error report."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations or [])


# ---------------------------------------------------------------------------
# canonical JSON forms (also the accepted file format) and content hashes


def fmt_vector(vec, field):
    return [field.fmt(x) for x in vec]


def fmt_matrix(mat: Matrix):
    f = mat.field
    return [[f.fmt(x) for x in row] for row in mat.data]


def algebra_dict(a: Algebra):
    return {
        "kind": "algebra",
        "dim": a.dim,
        "sc": [[fmt_vector(a.mult.col_list(i * a.dim + j), a.field)
                for j in range(a.dim)] for i in range(a.dim)],
        "unit": fmt_vector(a.unit, a.field),
    }


def map_dict(f: AlgebraMap):
    return {
        "kind": "map",
        "src": algebra_dict(f.src),
        "tgt": algebra_dict(f.tgt),
        "matrix": fmt_matrix(f.mat),
    }


def bimodule_dict(m: Bimodule):
    return {
        "kind": "bimodule",
        "left": algebra_dict(m.left),
        "right": algebra_dict(m.right),
        "dim": m.dim,
        "lact": [fmt_matrix(x) for x in m.lact],
        "ract": [fmt_matrix(x) for x in m.ract],
    }


def bimodule_map_dict(f: BimoduleMap):
    return {
        "kind": "bimodule-map",
        "src": bimodule_dict(f.src),
        "tgt": bimodule_dict(f.tgt),
        "matrix": fmt_matrix(f.mat),
    }


def cospan_dict(c: Cospan):
    return {
        "kind": "cospan",
        "leg_a": map_dict(c.leg_a),
        "leg_b": map_dict(c.leg_b),
    }


def diagram_dict(d: TwoDiagram):
    return {
        "kind": "2diagram",
        "src": cospan_dict(d.src),
        "tgt": cospan_dict(d.tgt),
        "bimodule": bimodule_dict(d.M),
        "f": fmt_matrix(d.f),
        "g": fmt_matrix(d.g),
    }


def content_hash(canonical: dict) -> str:
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# scalar/matrix parsing


def parse_scalar(x, field, what):
    if isinstance(x, bool) or isinstance(x, float):
        raise InputError(f"{what}: entries must be integers or exact strings"
                         f" like \"3/2\", got {x!r}")
    if isinstance(x, int):
        return field.from_int(x)
    if isinstance(x, str):
        try:
            return field.parse(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{what}: cannot parse scalar {x!r} over"
                             f" {field.name}: {exc}")
    raise InputError(f"{what}: bad scalar {x!r}")


def parse_vector(v, n, field, what):
    if not isinstance(v, list) or len(v) != n:
        raise InputError(f"{what}: expected a list of {n} entries")
    return [parse_scalar(x, field, what) for x in v]


def parse_matrix(rows, shape, field, what) -> Matrix:
    r, c = shape
    if not isinstance(rows, list) or len(rows) != r:
        raise InputError(f"{what}: expected a matrix with {r} rows")
    data = [parse_vector(row, c, field, what) for row in rows]
    return Matrix(data, field, ncols=c)


def _spec_int(text, what) -> int:
    try:
        n = int(text)
    except ValueError:
        raise InputError(f"{what}: expected an integer, got {text!r}")
    if n < 1:
        raise InputError(f"{what}: must be at least 1")
    return n


# ---------------------------------------------------------------------------
# the per-invocation session


class Session:
    """One invocation's input manifest plus its configuration.  Labels are
    unique and every recorded object passed its validator at insertion."""

    def __init__(self, field, seed: int, bound: int):
        self.field = field
        self.seed = seed
        self.bound = bound
        self.rng = random.Random(seed)
        self.objects = {}

    def insert(self, label, source, obj, violations, canonical):
        if label in self.objects:
            raise InputError(f"duplicate input label {label!r}")
        if violations:
            raise InputError(f"{label} ({source}) fails validation",
                             violations)
        self.objects[label] = {"source": source,
                               "hash": content_hash(canonical)}
        return obj

    def inputs_manifest(self):
        return {label: dict(entry) for label, entry in self.objects.items()}


# ---------------------------------------------------------------------------
# the codec table: spec string, @file.json or inline JSON -> object


def load_payload(spec):
    """The JSON payload of an @file spec, or an inline dict itself."""
    if isinstance(spec, dict):
        return spec
    path = spec[1:]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}")


def require_kind(payload, kind, what):
    if not isinstance(payload, dict):
        raise InputError(f"{what}: expected a JSON object")
    got = payload.get("kind")
    if got != kind:
        raise InputError(f"{what}: expected \"kind\": \"{kind}\","
                         f" got {got!r}")


def algebra_from_dict(payload, field):
    dim = payload.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise InputError("algebra: dim must be a positive integer")
    sc_raw = payload.get("sc")
    if not isinstance(sc_raw, list) or len(sc_raw) != dim:
        raise InputError(f"algebra: sc must be a {dim}-list of {dim}-lists"
                         " of product vectors")
    products = []
    for i, row in enumerate(sc_raw):
        if not isinstance(row, list) or len(row) != dim:
            raise InputError(f"algebra: sc[{i}] must be a list of {dim}"
                             " product vectors")
        products.extend(parse_vector(row[j], dim, field, f"algebra sc[{i}][{j}]")
                        for j in range(dim))
    unit = parse_vector(payload.get("unit"), dim, field, "algebra unit")
    try:
        return Algebra(Matrix.from_columns(products, dim, field), unit,
                       name=str(payload.get("name", "")))
    except ValueError:
        raise InputError("algebra: malformed structure constants")


def map_from_dict(payload, field):
    src = load("algebra", payload.get("src"), field, "map source")
    tgt = load("algebra", payload.get("tgt"), field, "map target")
    mat = parse_matrix(payload.get("matrix"), (tgt.dim, src.dim), field,
                       "map matrix")
    return AlgebraMap(src, tgt, mat)


def bimodule_from_dict(payload, field):
    left = load("algebra", payload.get("left"), field, "bimodule left algebra")
    right = load("algebra", payload.get("right"), field,
                 "bimodule right algebra")
    dim = payload.get("dim")
    if not isinstance(dim, int) or dim < 0:
        raise InputError("bimodule: dim must be a nonnegative integer")
    lact_raw = payload.get("lact")
    ract_raw = payload.get("ract")
    if not isinstance(lact_raw, list) or len(lact_raw) != left.dim:
        raise InputError(f"bimodule: lact must list {left.dim} action"
                         " matrices")
    if not isinstance(ract_raw, list) or len(ract_raw) != right.dim:
        raise InputError(f"bimodule: ract must list {right.dim} action"
                         " matrices")
    lact = [parse_matrix(x, (dim, dim), field, f"bimodule lact[{i}]")
            for i, x in enumerate(lact_raw)]
    ract = [parse_matrix(x, (dim, dim), field, f"bimodule ract[{j}]")
            for j, x in enumerate(ract_raw)]
    try:
        return Bimodule(left, right, dim, lact, ract,
                        name=str(payload.get("name", "")))
    except AssertionError:
        raise InputError("bimodule: malformed action data")


def bimodule_map_from_dict(payload, field):
    src = load("bimodule", payload.get("src"), field, "bimodule map source")
    tgt = load("bimodule", payload.get("tgt"), field, "bimodule map target")
    mat = parse_matrix(payload.get("matrix"), (tgt.dim, src.dim), field,
                       "bimodule map matrix")
    try:
        return BimoduleMap(src, tgt, mat)
    except ValueError as exc:
        raise InputError(str(exc))


def cospan_from_dict(payload, field):
    leg_a = build("map", payload.get("leg_a"), field, "cospan leg_a")
    leg_b = build("map", payload.get("leg_b"), field, "cospan leg_b")
    try:
        return Cospan(leg_a, leg_b)
    except ValueError as exc:
        raise InputError(str(exc))


def diagram_from_dict(payload, field):
    src = load("cospan", payload.get("src"), field, "2-diagram source cospan")
    tgt = load("cospan", payload.get("tgt"), field, "2-diagram target cospan")
    m = load("bimodule", payload.get("bimodule"), field, "2-diagram bimodule")
    f = parse_matrix(payload.get("f"), (m.dim, src.apex.dim), field,
                     "2-diagram f")
    g = parse_matrix(payload.get("g"), (m.dim, tgt.apex.dim), field,
                     "2-diagram g")
    try:
        return TwoDiagram(src, tgt, m, f, g)
    except ValueError as exc:
        raise InputError(str(exc))


def _named_algebra(spec, field) -> Algebra:
    try:
        return named_algebra(spec, field)
    except ValueError as exc:
        raise InputError(f"{exc}; known constructors: k, matrix:n,"
                         " product:k^m, dual_numbers, group:C2, @file.json")


def _free_bimodule(spec, field) -> Bimodule:
    parts = spec.split(",")
    if len(parts) != 2:
        raise InputError("free: expects two algebra specs separated by a"
                         " comma, e.g. free:matrix:2,k")
    return free_bimodule(load("algebra", parts[0], field, "free left algebra"),
                         load("algebra", parts[1], field,
                              "free right algebra"), 1)


@dataclass(frozen=True, slots=True)
class Codec:
    """How the CLI reads and writes one object kind.

    `decode` gets a JSON object whose "kind" tag `build` has checked.
    `constructors` pairs each named-constructor pattern with a function of
    (the spec after the pattern's prefix, field); the prefix is the pattern
    up to its first "<".  The validators are called through their module
    names, so that rebinding those names (as a tracer does) reaches them."""

    noun: str
    encode: Callable
    decode: Callable
    constructors: tuple
    validate: Callable
    summary: Callable


CODECS = {
    "algebra": Codec(
        "algebra", algebra_dict, algebra_from_dict,
        (("<name>", _named_algebra),),
        lambda a: validate_algebra(a),
        lambda a: {"dim": a.dim}),
    "map": Codec(
        "map", map_dict, map_from_dict,
        (("id:<algebra>",
          lambda rest, field: identity_map(load("algebra", rest, field))),
         ("unit:<algebra>",
          lambda rest, field: unit_map(load("algebra", rest, field))),
         ("diag:<n>", lambda rest, field: diagonal_inclusion(
             _spec_int(rest, "diag"), field))),
        lambda f: validate_algebra_map(f),
        lambda f: {"src_dim": f.src.dim, "tgt_dim": f.tgt.dim}),
    "bimodule": Codec(
        "bimodule", bimodule_dict, bimodule_from_dict,
        (("regular:<algebra>",
          lambda rest, field: regular_bimodule(load("algebra", rest, field))),
         ("free:<algebra>,<algebra>", _free_bimodule),
         ("row:<n>",
          lambda rest, field: row_bimodule(_spec_int(rest, "row"), field)),
         ("col:<n>",
          lambda rest, field: col_bimodule(_spec_int(rest, "col"), field))),
        lambda m: validate_bimodule(m),
        lambda m: {"dim": m.dim, "left_dim": m.left.dim,
                   "right_dim": m.right.dim}),
    "bimodule-map": Codec(
        "bimodule map", bimodule_map_dict, bimodule_map_from_dict,
        (("id:<bimodule>", lambda rest, field: identity_bimodule_map(
            load("bimodule", rest, field))),),
        lambda f: validate_bimodule_map(f),
        lambda f: {"src_dim": f.src.dim, "tgt_dim": f.tgt.dim}),
    "cospan": Codec(
        "cospan", cospan_dict, cospan_from_dict,
        (("identity:<algebra>",
          lambda rest, field: identity_cospan(load("algebra", rest, field))),),
        lambda c: validate_cospan(c),
        lambda c: {"apex_dim": c.apex.dim, "a_dim": c.a.dim,
                   "b_dim": c.b.dim}),
    "2diagram": Codec(
        "2-diagram", diagram_dict, diagram_from_dict,
        (("identity:<cospan>", lambda rest, field: identity_2diagram(
            load("cospan", rest, field))),),
        lambda d: validate_2diagram(d),
        lambda d: {"hom_dim": d.M.dim, "src_apex_dim": d.src.apex.dim,
                   "tgt_apex_dim": d.tgt.apex.dim}),
}


def build(kind, spec, field, what=None):
    """The object of this kind that a spec presents, not yet validated: an
    @file.json or inline JSON object through the kind's decoder, a string
    through its named constructors."""
    codec = CODECS[kind]
    if isinstance(spec, dict) or (isinstance(spec, str) and spec.startswith("@")):
        payload = load_payload(spec)
        require_kind(payload, kind, codec.noun)
        return codec.decode(payload, field)
    if not isinstance(spec, str):
        raise InputError(f"{what or codec.noun}: expected a constructor"
                         " string, @file.json or a JSON object, got"
                         f" {json.dumps(spec)}")
    for pattern, make in codec.constructors:
        prefix = pattern.partition("<")[0]
        if spec.startswith(prefix):
            return make(spec[len(prefix):], field)
    known = ", ".join(pattern for pattern, _ in codec.constructors)
    raise InputError(f"unknown {codec.noun} spec {spec!r}; known: {known},"
                     " @file.json")


def load(kind, spec, field, what=None):
    """build, then the kind's validator: a part nested in another object."""
    what = what or CODECS[kind].noun
    obj = build(kind, spec, field, what)
    bad = CODECS[kind].validate(obj)
    if bad:
        raise InputError(f"{what} ({describe(spec)}) fails validation", bad)
    return obj


def resolve(session, kind, spec, label=None):
    """build, then store the object in the session under label (the kind by
    default), which runs the validator and records the content hash."""
    codec = CODECS[kind]
    obj = build(kind, spec, session.field)
    return session.insert(label or kind, describe(spec), obj,
                          codec.validate(obj), codec.encode(obj))


def describe(spec) -> str:
    return spec if isinstance(spec, str) else "(inline)"


# ---------------------------------------------------------------------------
# report assembly


class Report:
    def __init__(self, command, session):
        self.command = command
        self.session = session
        self.result = {}
        self.checks = []

    def check(self, name, ok, detail=""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def ok(self):
        return all(c["ok"] for c in self.checks)

    def envelope(self):
        return {
            "schema": SCHEMA,
            "command": self.command,
            "field": self.session.field.name,
            "seed": self.session.seed,
            "bound": self.session.bound,
            "inputs": self.session.inputs_manifest(),
            "result": self.result,
            "checks": self.checks,
            "ok": self.ok,
        }


def emit(payload, out_path):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# command handlers


def _commute(alg: Algebra, xs, ys) -> bool:
    """Brute force: every x commutes with every y in alg."""
    return all(alg.multiply(x, y) == alg.multiply(y, x)
               for x in xs for y in ys)


def _basis_image(f: AlgebraMap):
    return [f.apply(f.src.basis_vector(i)) for i in range(f.src.dim)]


def cmd_validate(args, s, rep):
    obj = resolve(s, args.kind, args.spec)
    rep.result = {"kind": args.kind, **CODECS[args.kind].summary(obj)}
    rep.check("object passes its validator", True)


def cmd_center(args, s, rep):
    a = resolve(s, "algebra", args.algebra)
    z = center(a)
    rep.result = {"dim": z.dim, "basis": fmt_matrix(z.incl)}
    rep.check("center is a commutative subalgebra", is_commutative(z.algebra))
    rep.check("center basis commutes with every basis element (brute force)",
              _commute(a, z.incl.columns(),
                       [a.basis_vector(i) for i in range(a.dim)]))


def cmd_centralizer(args, s, rep):
    f = resolve(s, "map", args.map)
    c = centralizer(f)
    rep.result = {"dim": c.dim, "basis": fmt_matrix(c.incl)}
    rep.check("centralizer basis commutes with the image (brute force)",
              _commute(f.tgt, c.incl.columns(), _basis_image(f)))
    rep.check("centralizer is closed under multiplication and contains 1",
              True, "certified during subalgebra construction")


def cmd_z_hom(args, s, rep):
    f = resolve(s, "map", args.map)
    r = Z_hom(f)
    rep.result = {
        "object": {"apex_dim": r.apex.dim},
        "cospan": {
            "leg_a": fmt_matrix(r.cospan.leg_a.mat),
            "leg_b": fmt_matrix(r.cospan.leg_b.mat),
            "z_src_dim": r.z_left.dim,
            "z_tgt_dim": r.z_right.dim,
        },
    }
    rep.check("centralizer cospan passes its validator",
              validate_cospan(r.cospan) == [])
    rep.check("apex basis commutes with the image (brute force)",
              _commute(f.tgt, r.realization.incl.columns(), _basis_image(f)))


def cmd_z_bimodule(args, s, rep):
    m = resolve(s, "bimodule", args.bimodule)
    r = Z_bimodule(m)
    rep.result = {
        "object": {"apex_dim": r.apex.dim},
        "cospan": {
            "leg_a": fmt_matrix(r.cospan.leg_a.mat),
            "leg_b": fmt_matrix(r.cospan.leg_b.mat),
            "z_left_dim": r.z_left.dim,
            "z_right_dim": r.z_right.dim,
        },
    }
    rep.check("endomorphism cospan passes its validator",
              validate_cospan(r.cospan) == [])
    rep.check("apex dimension equals the equivariant endomorphism space",
              r.apex.dim == len(hom_space(m, m)))


def cmd_z_2cell(args, s, rep):
    phi = resolve(s, "bimodule-map", args.bimodule_map)
    r = Z_2cell(phi)
    d = r.diagram
    rep.result = {"diagram": {**CODECS["2diagram"].summary(d),
                              "f": fmt_matrix(d.f), "g": fmt_matrix(d.g)}}
    rep.check("induced 2-diagram passes its validator",
              validate_2diagram(d) == [])


def cmd_tensor_over(args, s, rep):
    m = resolve(s, "bimodule", args.left, "left")
    n = resolve(s, "bimodule", args.right, "right")
    if not m.right.equal_on_the_nose(n.left):
        raise InputError("the right algebra of --left must equal the left"
                         " algebra of --right")
    t = tensor_over(m, n)
    q = t.quot
    rel_rank = rank(q.relations)
    rep.result = {
        "dim": t.dim,
        "ambient_dim": q.ambient,
        "relation_rank": rel_rank,
        "projection": fmt_matrix(q.proj),
        "section": fmt_matrix(q.sect),
    }
    rep.check("projection splits the section",
              q.proj @ q.sect == Matrix.identity(q.dim, s.field))
    rep.check("relations vanish in the quotient",
              (q.proj @ q.relations).is_zero())
    rep.check("induced bimodule passes its validator",
              validate_bimodule(t.product) == [])
    rep.check("dimension equals ambient minus relation rank",
              t.dim == q.ambient - rel_rank,
              f"{t.dim} = {q.ambient} - {rel_rank}")


def cmd_compose_cospans(args, s, rep):
    first = resolve(s, "cospan", args.first, "first")
    second = resolve(s, "cospan", args.second, "second")
    if not first.b.equal_on_the_nose(second.a):
        raise InputError("the right foot of --first must equal the left foot"
                         " of --second")
    comp = compose_cospans(second, first)
    c = comp.cospan
    rel_rank = rank(comp.quot.relations)
    rep.result = {"cospan": {**CODECS["cospan"].summary(c),
                             "leg_a": fmt_matrix(c.leg_a.mat),
                             "leg_b": fmt_matrix(c.leg_b.mat)}}
    rep.check("composite cospan passes its validator",
              validate_cospan(c) == [])
    rep.check("apex dimension equals flat tensor minus relation rank",
              c.apex.dim == comp.quot.ambient - rel_rank,
              f"{c.apex.dim} = {comp.quot.ambient} - {rel_rank}")


def cmd_compose_2diagrams(args, s, rep):
    first = resolve(s, "2diagram", args.first, "first")
    second = resolve(s, "2diagram", args.second, "second")
    if args.how == "vertical":
        if not cospans_match(first.tgt, second.src):
            raise InputError("vertical composition needs the target cospan of"
                             " --first to equal the source cospan of"
                             " --second")
        out = vertical_compose(second, first)
    else:
        if not first.src.b.equal_on_the_nose(second.src.a):
            raise InputError("horizontal composition needs the right foot of"
                             " --first to equal the left foot of --second")
        out = horizontal_compose(second, first)
    rep.result = {"diagram": {**CODECS["2diagram"].summary(out),
                              "f": fmt_matrix(out.f),
                              "g": fmt_matrix(out.g)}}
    rep.check("composite 2-diagram passes its validator",
              validate_2diagram(out) == [])


def _all_or_none(values, message) -> bool:
    """Whether a group of flags that go together is given; an InputError
    with the message when only some of them are."""
    given = sum(v is not None for v in values)
    if 0 < given < len(values):
        raise InputError(message)
    return given > 0


def cmd_beta_check(args, s, rep):
    labels = ("d1p", "d1", "d2p", "d2")
    specs = (args.d1p, args.d1, args.d2p, args.d2)
    if _all_or_none(specs, "provide all four of --d1p --d1 --d2p --d2, or"
                    " none to generate a grid from the seed"):
        grid = tuple(resolve(s, "2diagram", sp, lbl)
                     for lbl, sp in zip(labels, specs))
    else:
        grid = random_interchanger_grid(s.rng, s.field)
        for lbl, d in zip(labels, grid):
            s.insert(lbl, f"generated:seed={s.seed}", d,
                     validate_2diagram(d), diagram_dict(d))
    b = beta_cell(*grid)
    f = s.field
    rep.result = {
        "src_dim": b.src_diagram.M.dim,
        "tgt_dim": b.tgt_diagram.M.dim,
        "cell": fmt_matrix(b.cell.mat),
        "inverse_cell": fmt_matrix(b.inverse_cell.mat),
    }
    rep.check("interchanger composed with its inverse is the identity",
              b.cell.mat @ b.inverse_cell.mat
              == Matrix.identity(b.tgt_diagram.M.dim, f))
    rep.check("inverse composed with the interchanger is the identity",
              b.inverse_cell.mat @ b.cell.mat
              == Matrix.identity(b.src_diagram.M.dim, f))
    rep.check("interchanger is a 3-cell", validate_3cell(b.cell) == [])
    rep.check("inverse is a 3-cell", validate_3cell(b.inverse_cell) == [])


def cmd_invertible(args, s, rep):
    if args.what == "cospan":
        if (args.cospan is None) == (args.map is None):
            raise InputError("give exactly one of --cospan or --map (the"
                             " latter takes the induced centralizer cospan)")
        if args.map is not None:
            f = resolve(s, "map", args.map)
            c = Z_hom(f).cospan
        else:
            c = resolve(s, "cospan", args.cospan)
        res = is_invertible_cospan(c)
        rep.result = {
            "invertible": res.invertible,
            "reasons": res.reasons,
        }
        if res.invertible:
            rep.result["inverse"] = {
                "leg_a": fmt_matrix(res.inverse.leg_a.mat),
                "leg_b": fmt_matrix(res.inverse.leg_b.mat),
            }
        rep.check("cospan is invertible with identity-comparison witnesses",
                  res.invertible, "; ".join(res.reasons))
        return
    if args.diagram is None:
        raise InputError("invertible 2cell needs --diagram")
    d = resolve(s, "2diagram", args.diagram, "diagram")
    legs_ok = is_invertible_2diagram(d)
    rep.result = {"legs_invertible": legs_ok}
    rep.check("both legs of the 2-diagram are invertible", legs_ok)
    if cospans_match(d.src, d.tgt):
        search = find_invertible_3cell(d, identity_2diagram(d.src),
                                       rng=s.rng, sample_range=s.bound)
        rep.result["identity_comparison"] = {
            "found": search.found,
            "certified": search.certified,
            "failure_bound": str(search.failure_bound),
            "detail": search.detail,
        }
        detail = search.detail
        if not search.certified:
            detail += (f"; failure bound"
                       f" {float(search.failure_bound):.3e}")
        rep.check("invertible 3-cell to the identity 2-diagram",
                  search.found and validate_3cell(search.cell) == [],
                  detail)
    else:
        rep.result["identity_comparison"] = {
            "found": False,
            "certified": False,
            "failure_bound": "",
            "detail": "source and target cospans differ; leg verdict only",
        }


def _copy_entries(rep, prefix, coherence):
    for e in coherence.entries:
        rep.check(prefix + e["name"], e["ok"], e["detail"])


def cmd_verify(args, s, rep):
    handler = {
        "pentagon": _verify_pentagon,
        "triangle": _verify_triangle,
        "lax": _verify_lax,
        "naturality": _verify_naturality,
        "morita": _verify_morita,
        "thm58": _verify_thm58,
    }[args.property]
    handler(args, s, rep)


def _check_composable(ms):
    for i in range(len(ms) - 1):
        if not ms[i].right.equal_on_the_nose(ms[i + 1].left):
            raise InputError(f"bimodules {i + 1} and {i + 2} do not compose:"
                             " right and left algebras differ")


def _verify_pentagon(args, s, rep):
    specs = (args.b1, args.b2, args.b3, args.b4)
    if _all_or_none(specs, "provide all four of --b1 --b2 --b3 --b4, or"
                    " none to generate seeded instances"):
        chains = [tuple(
            resolve(s, "bimodule", sp, f"b{i + 1}")
            for i, sp in enumerate(specs)
        )]
        _check_composable(chains[0])
    else:
        chains = [tuple(corpus.random_pentagon_chain(s.rng, s.field))
                  for _ in range(3)]
    dims = []
    for idx, chain in enumerate(chains):
        ok = pentagon_check(*chain)
        dims.append([m.dim for m in chain])
        rep.check("pentagon rebracketing tower commutes", ok,
                  f"bimodule dims {dims[-1]}")
    rep.result = {"instances": len(chains), "dims": dims}


def _verify_triangle(args, s, rep):
    if _all_or_none((args.left, args.right), "provide both --left and"
                    " --right, or neither to generate seeded instances"):
        pairs = [(resolve(s, "bimodule", args.left, "left"),
                  resolve(s, "bimodule", args.right, "right"))]
        _check_composable(pairs[0])
    else:
        pairs = [tuple(corpus.random_pentagon_chain(s.rng, s.field)[:2])
                 for _ in range(3)]
    dims = []
    for m, n in pairs:
        ok = triangle_check(m, n)
        dims.append([m.dim, n.dim])
        rep.check("triangle unit-collapse identity commutes", ok,
                  f"bimodule dims {dims[-1]}")
    rep.result = {"instances": len(pairs), "dims": dims}


def _verify_lax(args, s, rep):
    if args.h is not None and None in (args.f, args.g):
        raise InputError("--h needs --f and --g as well")
    if _all_or_none((args.f, args.g), "provide --f and --g (and optionally"
                    " --h), or none to generate seeded chains"):
        chain = [resolve(s, "map", args.f, "f"),
                 resolve(s, "map", args.g, "g")]
        if args.h is not None:
            chain.append(resolve(s, "map", args.h, "h"))
        for i in range(len(chain) - 1):
            if not chain[i].tgt.equal_on_the_nose(chain[i + 1].src):
                raise InputError(f"maps {i + 1} and {i + 2} do not compose")
        _copy_entries(rep, "", verify_lax_functor(chain))
        rep.result = {"chains": 1,
                      "dims": [[f.src.dim for f in chain]
                               + [chain[-1].tgt.dim]]}
    else:
        dims = []
        for i in range(3):
            chain = random_map_chain(s.rng, length=3, field=s.field)
            dims.append([f.src.dim for f in chain] + [chain[-1].tgt.dim])
            _copy_entries(rep, f"chain {i + 1}: ", verify_lax_functor(chain))
        rep.result = {"chains": 3, "dims": dims}


def _seeded_square_maps(rng, field):
    pool = [alg_k(field), alg_product_k(2, field), alg_dual_numbers(field)]
    a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
    m, mp, mpp = (random_bimodule(a, b, rng, max_rank=1) for _ in range(3))
    n, np_, npp = (random_bimodule(b, c, rng, max_rank=1) for _ in range(3))
    phi = random_hom_element(m, mp, rng)
    phip = random_hom_element(mp, mpp, rng)
    psi = random_hom_element(n, np_, rng)
    psip = random_hom_element(np_, npp, rng)
    return phi, psi, phip, psip


def _verify_naturality(args, s, rep):
    named = _all_or_none((args.phi, args.psi), "provide --phi and --psi"
                         " together (and optionally --phip and --psip), or"
                         " none to generate seeded instances")
    _all_or_none((args.phip, args.psip), "--phip and --psip go together")
    if named:
        phi = resolve(s, "bimodule-map", args.phi, "phi")
        psi = resolve(s, "bimodule-map", args.psi, "psi")
        if not phi.src.right.equal_on_the_nose(psi.src.left):
            raise InputError("--phi and --psi must share the middle algebra")
        phip = psip = None
        if args.phip is not None:
            phip = resolve(s, "bimodule-map", args.phip, "phip")
            psip = resolve(s, "bimodule-map", args.psip, "psip")
        _copy_entries(rep, "", verify_m_naturality(phi, psi, phip, psip))
        rep.result = {"instances": 1}
    else:
        for i in range(2):
            phi, psi, phip, psip = _seeded_square_maps(s.rng, s.field)
            _copy_entries(rep, f"instance {i + 1}: ",
                          verify_m_naturality(phi, psi, phip, psip))
        rep.result = {"instances": 2}


def _verify_morita(args, s, rep):
    if args.algebra is None:
        raise InputError("verify morita needs --algebra (and --n)")
    if args.n < 1:
        raise InputError(f"verify morita: --n must be at least 1, got"
                         f" {args.n}")
    a = resolve(s, "algebra", args.algebra)
    res = morita_center_check(a, args.n)
    rep.result = {
        "n": args.n,
        "algebra_dim": a.dim,
        "amplified_dim": res.amplified.dim,
        "z_dim": res.z_small.dim,
        "z_amplified_dim": res.z_big.dim,
        "iso": fmt_matrix(res.iso.mat),
    }
    rep.check("diagonal-scalar embedding is an algebra isomorphism of"
              " centers", res.ok,
              f"dim {res.z_small.dim} -> dim {res.z_big.dim}")


def _verify_thm58(args, s, rep):
    chains, squares = corpus.semisimple_corpus(s.rng, scale=1.0,
                                               field=s.field)
    res = check_theorem58_hypotheses(chains=chains, squares=squares)
    for name, ok, detail in res.entries:
        rep.check(name, ok, detail)
    rep.check("aggregate verdict is non-lax on this corpus",
              res.verdict == "non-lax on this corpus", res.verdict)
    rep.result = {
        "verdict": res.verdict,
        "chains": len(chains),
        "squares": len(squares),
    }


def cmd_corpus(args, s, rep):
    results = corpus.run_all(seed=s.seed, scale=args.scale, field=s.field)
    batteries = []
    for name, coherence in results:
        _copy_entries(rep, f"{name}: ", coherence)
        batteries.append({
            "name": name,
            "ok": coherence.ok,
            "checks": len(coherence.entries),
        })
    rep.result = {"batteries": batteries, "scale": args.scale}


# ---------------------------------------------------------------------------
# argument parsing and entry point


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default="rational",
                        help="rational (default) or gfp:<p>")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for every randomized step (default 0)")
    common.add_argument("--bound", type=int, default=1 << 25,
                        help="sampling range for probabilistic searches")
    common.add_argument("--out", default=None,
                        help="also write the report to this path")

    p = argparse.ArgumentParser(
        prog="centrum",
        description="Exact workbench for centers, centralizers, bimodule"
                    " tensor calculus and the cospan bicategory of"
                    " commutative algebras.")
    sub = p.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("validate", parents=[common],
                       help="load an object and run its validator")
    v.add_argument("kind", choices=list(CODECS))
    v.add_argument("spec", help="constructor spec or @file.json")
    v.set_defaults(handler=cmd_validate)

    c = sub.add_parser("center", parents=[common],
                       help="center of an algebra")
    c.add_argument("--algebra", required=True)
    c.set_defaults(handler=cmd_center)

    c = sub.add_parser("centralizer", parents=[common],
                       help="centralizer of the image of an algebra map")
    c.add_argument("--map", required=True)
    c.set_defaults(handler=cmd_centralizer)

    c = sub.add_parser("z-hom", parents=[common],
                       help="centralizer cospan of an algebra map")
    c.add_argument("--map", required=True)
    c.set_defaults(handler=cmd_z_hom)

    c = sub.add_parser("z-bimodule", parents=[common],
                       help="endomorphism cospan of a bimodule")
    c.add_argument("--bimodule", required=True)
    c.set_defaults(handler=cmd_z_bimodule)

    c = sub.add_parser("z-2cell", parents=[common],
                       help="2-diagram induced by a bimodule map")
    c.add_argument("--bimodule-map", required=True, dest="bimodule_map")
    c.set_defaults(handler=cmd_z_2cell)

    c = sub.add_parser("tensor-over", parents=[common],
                       help="fibered tensor product of two bimodules")
    c.add_argument("--left", required=True)
    c.add_argument("--right", required=True)
    c.set_defaults(handler=cmd_tensor_over)

    c = sub.add_parser("compose-cospans", parents=[common],
                       help="composite of two cospans over a shared foot")
    c.add_argument("--first", required=True)
    c.add_argument("--second", required=True)
    c.set_defaults(handler=cmd_compose_cospans)

    c = sub.add_parser("compose-2diagrams", parents=[common],
                       help="vertical or horizontal composition")
    c.add_argument("how", choices=["vertical", "horizontal"])
    c.add_argument("--first", required=True,
                   help="lower (vertical) respectively left (horizontal)")
    c.add_argument("--second", required=True,
                   help="upper (vertical) respectively right (horizontal)")
    c.set_defaults(handler=cmd_compose_2diagrams)

    c = sub.add_parser("beta-check", parents=[common],
                       help="two-sided interchanger on a 2x2 grid")
    for name in ("--d1p", "--d1", "--d2p", "--d2"):
        c.add_argument(name)
    c.set_defaults(handler=cmd_beta_check)

    c = sub.add_parser("invertible", parents=[common],
                       help="invertibility verdict with witnesses")
    c.add_argument("what", choices=["cospan", "2cell"])
    c.add_argument("--cospan", help="cospan spec (what = cospan)")
    c.add_argument("--map",
                   help="algebra map whose centralizer cospan to test")
    c.add_argument("--diagram", help="2-diagram spec (what = 2cell)")
    c.set_defaults(handler=cmd_invertible)

    c = sub.add_parser("verify", parents=[common],
                       help="coherence and comparison properties")
    c.add_argument("property", choices=["pentagon", "triangle", "lax",
                                        "naturality", "morita", "thm58"])
    c.add_argument("--b1")
    c.add_argument("--b2")
    c.add_argument("--b3")
    c.add_argument("--b4")
    c.add_argument("--left", help="first bimodule (triangle)")
    c.add_argument("--right", help="second bimodule (triangle)")
    c.add_argument("--n", type=int, default=2,
                   help="matrix amplification size (morita)")
    c.add_argument("--f")
    c.add_argument("--g")
    c.add_argument("--h")
    c.add_argument("--phi")
    c.add_argument("--psi")
    c.add_argument("--phip")
    c.add_argument("--psip")
    c.add_argument("--algebra", help="algebra spec (morita)")
    c.set_defaults(handler=cmd_verify)

    c = sub.add_parser("corpus", parents=[common],
                       help="run every verification battery")
    c.add_argument("--scale", type=float, default=1.0,
                   help="shrink factor for instance counts (default 1.0)")
    c.set_defaults(handler=cmd_corpus)
    return p


def command_name(args) -> str:
    parts = [args.cmd]
    for attr in ("kind", "how", "what", "property"):
        if getattr(args, attr, None):
            parts.append(getattr(args, attr))
    return " ".join(parts)


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    command = command_name(args)

    def error_payload(session, message, violations):
        return {
            "schema": SCHEMA,
            "command": command,
            "field": args.field,
            "seed": args.seed,
            "bound": args.bound,
            "inputs": session.inputs_manifest() if session else {},
            "error": {"message": message, "violations": violations},
            "ok": False,
        }

    try:
        field = field_from_name(args.field)
    except ValueError as exc:
        emit(error_payload(None, str(exc), []), args.out)
        return 2
    session = Session(field, args.seed, args.bound)
    rep = Report(command, session)
    try:
        args.handler(args, session, rep)
    except InputError as exc:
        emit(error_payload(session, str(exc), exc.violations), args.out)
        return 2
    except (AssertionError, ValueError) as exc:
        message = str(exc) or exc.__class__.__name__
        emit(error_payload(
            session, f"operation failed on the given inputs: {message}", []),
            args.out)
        return 2
    payload = rep.envelope()
    emit(payload, args.out)
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
