"""Batch front end: parse presentations of algebras, maps, bimodules,
cospans and 2-diagrams, run the constructions and verifications, and emit
deterministic JSON reports.

Every report follows schema "centrum/1": a single JSON object with the
command, the field/seed/bound configuration, a manifest of the inputs (source
spec plus a content hash of the parsed object, so failures are replayable),
the result payload with audit matrices, and a list of named checks.  A
refusal shares that envelope and carries an error in place of the result
and checks.  Exit codes: 0 when every check passes, 1 when some check fails,
2 when an input cannot be parsed or fails its validator at load.  argparse's
refusals (an unknown flag, or a flag of another variant) also exit 2, with
no report.

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
import math
import random
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import corpus
from .algebra import (
    Algebra,
    AlgebraMap,
    center,
    centralizer,
    check_dim,
    commutes,
    identity_map,
    is_commutative,
    named_algebra,
    read_size,
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
    CoherenceReport,
    Cospan,
    TwoDiagram,
    beta_cell,
    compose_cospans,
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
from .exactla import Matrix, field_from_name, memoised, rank, same_content
from .fixtures import (
    col_bimodule,
    diagonal_inclusion,
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


def fmt_vector(vec):
    return [str(x) for x in vec]


def fmt_matrix(mat: Matrix):
    return [[str(x) for x in row] for row in mat.data]


def algebra_dict(a: Algebra):
    """sc[i][j] is e_i * e_j, column i*dim + j of mult."""
    cols, n = a.mult.columns(), a.dim
    return {
        "kind": "algebra",
        "dim": n,
        "sc": [list(map(fmt_vector, cols[i * n:(i + 1) * n])) for i in range(n)],
        "unit": fmt_vector(a.unit),
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


def content_hash(canonical: dict) -> str:
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


@memoised
def input_hash(kind, obj) -> str:
    """The content hash of obj's canonical JSON form as an input of this
    kind: a function of its content, so computed once per content."""
    return content_hash(CODECS[kind].encode(obj))


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


def _matrix_size(text, what) -> int:
    """The n of a diag:<n>, row:<n> or col:<n> spec, each built on M_n(k)."""
    try:
        n = read_size(text, what)
        check_dim(n * n, f"{what}:{n}")
    except ValueError as exc:
        raise InputError(str(exc))
    return n


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
    except ValueError as exc:  # a decode error or an int past the digit limit
        raise InputError(f"malformed JSON in {path}: {exc}")
    except RecursionError:
        raise InputError(f"malformed JSON in {path}: nested too deeply")


def require_kind(payload, kind, what):
    if not isinstance(payload, dict):
        raise InputError(f"{what}: expected a JSON object")
    got = payload.get("kind")
    if got != kind:
        raise InputError(f"{what}: expected \"kind\": \"{kind}\","
                         f" got {got!r}")


def algebra_from_dict(payload, field):
    dim = payload.get("dim")
    if type(dim) is not int or dim < 1:  # bool is an int subclass
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


def bimodule_from_dict(payload, field):
    left = load("algebra", payload.get("left"), field, "bimodule left algebra")
    right = load("algebra", payload.get("right"), field,
                 "bimodule right algebra")
    dim = payload.get("dim")
    if type(dim) is not int or dim < 0:
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
    except ValueError:
        raise InputError("bimodule: malformed action data")


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


# kind -> (constructor, its parts in constructor order).  A part gives its
# JSON key, its attribute, the kind of a nested object or the shape of a
# matrix (a function of the parts before it), and the noun its refusals
# use.  A nested part is loaded, so validated on its own, unless it is only
# built: then the composite's validator reports on it.
Part = namedtuple("Part", "key attr of noun built", defaults=(False,))
COMPOSITES = {
    "map": (AlgebraMap, (
        Part("src", "src", "algebra", "map source"),
        Part("tgt", "tgt", "algebra", "map target"),
        Part("matrix", "mat", lambda s, t: (t.dim, s.dim), "map matrix"))),
    "bimodule-map": (BimoduleMap, (
        Part("src", "src", "bimodule", "bimodule map source"),
        Part("tgt", "tgt", "bimodule", "bimodule map target"),
        Part("matrix", "mat", lambda s, t: (t.dim, s.dim),
             "bimodule map matrix"))),
    "cospan": (Cospan, (
        Part("leg_a", "leg_a", "map", "cospan leg_a", built=True),
        Part("leg_b", "leg_b", "map", "cospan leg_b", built=True))),
    "2diagram": (TwoDiagram, (
        Part("src", "src", "cospan", "2-diagram source cospan"),
        Part("tgt", "tgt", "cospan", "2-diagram target cospan"),
        Part("bimodule", "M", "bimodule", "2-diagram bimodule"),
        Part("f", "f", lambda s, t, m: (m.dim, s.apex.dim), "2-diagram f"),
        Part("g", "g", lambda s, t, m, f: (m.dim, t.apex.dim),
             "2-diagram g"))),
}


def encode_parts(kind, obj):
    """The JSON form of a composite object: its kind tag and its parts."""
    out = {"kind": kind}
    for p in COMPOSITES[kind][1]:
        x = getattr(obj, p.attr)
        out[p.key] = (fmt_matrix if callable(p.of) else CODECS[p.of].encode)(x)
    return out


def decode_parts(kind, payload, field):
    """The composite object that a JSON form presents: its parts in order,
    each nested one loaded (or built) and each matrix parsed at its shape."""
    make, parts = COMPOSITES[kind]
    args = []
    for p in parts:
        raw = payload.get(p.key)
        if callable(p.of):
            args.append(parse_matrix(raw, p.of(*args), field, p.noun))
        else:
            args.append((build if p.built else load)(p.of, raw, field, p.noun))
    try:
        return make(*args)
    except ValueError as exc:
        raise InputError(str(exc))


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
        "map", partial(encode_parts, "map"), partial(decode_parts, "map"),
        (("id:<algebra>",
          lambda rest, field: identity_map(load("algebra", rest, field))),
         ("unit:<algebra>",
          lambda rest, field: unit_map(load("algebra", rest, field))),
         ("diag:<n>", lambda rest, field: diagonal_inclusion(
             _matrix_size(rest, "diag"), field))),
        lambda f: validate_algebra_map(f),
        lambda f: {"src_dim": f.src.dim, "tgt_dim": f.tgt.dim}),
    "bimodule": Codec(
        "bimodule", bimodule_dict, bimodule_from_dict,
        (("regular:<algebra>",
          lambda rest, field: regular_bimodule(load("algebra", rest, field))),
         ("free:<algebra>,<algebra>", _free_bimodule),
         ("row:<n>",
          lambda rest, field: row_bimodule(_matrix_size(rest, "row"), field)),
         ("col:<n>",
          lambda rest, field: col_bimodule(_matrix_size(rest, "col"), field))),
        lambda m: validate_bimodule(m),
        lambda m: {"dim": m.dim, "left_dim": m.left.dim,
                   "right_dim": m.right.dim}),
    "bimodule-map": Codec(
        "bimodule map", partial(encode_parts, "bimodule-map"),
        partial(decode_parts, "bimodule-map"),
        (("id:<bimodule>", lambda rest, field: identity_bimodule_map(
            load("bimodule", rest, field))),),
        lambda f: validate_bimodule_map(f),
        lambda f: {"src_dim": f.src.dim, "tgt_dim": f.tgt.dim}),
    "cospan": Codec(
        "cospan", partial(encode_parts, "cospan"),
        partial(decode_parts, "cospan"),
        (("identity:<algebra>",
          lambda rest, field: identity_cospan(load("algebra", rest, field))),),
        lambda c: validate_cospan(c),
        lambda c: {"apex_dim": c.apex.dim, "a_dim": c.a.dim,
                   "b_dim": c.b.dim}),
    "2diagram": Codec(
        "2-diagram", partial(encode_parts, "2diagram"),
        partial(decode_parts, "2diagram"),
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


def describe(spec) -> str:
    return spec if isinstance(spec, str) else "(inline)"


# ---------------------------------------------------------------------------
# report assembly


class Report(CoherenceReport):
    """One invocation: the command, its parsed args, the field, the seeded
    rng, the recorded inputs, the result and the checks.  Input labels are
    unique and every recorded object passed its validator."""

    __slots__ = ("command", "args", "field", "rng", "inputs", "result")

    def __init__(self, args):
        super().__init__()
        self.command = " ".join([args.cmd] + [
            getattr(args, attr) for attr in ("kind", "how", "what", "property")
            if getattr(args, attr, None)])
        self.args = args
        self.field = None
        self.rng = random.Random(args.seed)
        self.inputs = {}
        self.result = {}

    def record(self, label, source, kind, obj):
        """Run the kind's validator on obj, then enter it in the inputs under
        label with its source and content hash.  input_hash and the
        validators of every kind but bimodule maps are memoised, so each is
        computed once per content."""
        if label in self.inputs:
            raise InputError(f"duplicate input label {label!r}")
        codec = CODECS[kind]
        bad = codec.validate(obj)
        if bad:
            raise InputError(f"{label} ({source}) fails validation", bad)
        self.inputs[label] = {"source": source,
                              "hash": input_hash(kind, obj)}
        return obj

    def resolve(self, kind, spec, label=None):
        """build, then record under label (the kind by default)."""
        return self.record(label or kind, describe(spec), kind,
                           build(kind, spec, self.field))

    def envelope(self, **body):
        """The centrum/1 report around body: the result, checks and ok of a
        run, or the error of a refusal.  The field is echoed as given, which
        is the field's own name whenever it parses."""
        args = self.args
        return {"schema": SCHEMA, "command": self.command, "field": args.field,
                "seed": args.seed, "bound": args.bound, "inputs": self.inputs,
                **body}

    def refusal(self, message, violations=()):
        return self.envelope(error={"message": message,
                                    "violations": list(violations)}, ok=False)


def emit(payload, out_path):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:  # first, so an unwritable path is refused before any output
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write --out {out_path}: {exc.strerror}") from None
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# command handlers


def _legs(c: Cospan):
    return {"leg_a": fmt_matrix(c.leg_a.mat), "leg_b": fmt_matrix(c.leg_b.mat)}


def cmd_validate(args, rep):
    obj = rep.resolve(args.kind, args.spec)
    rep.result = {"kind": args.kind, **CODECS[args.kind].summary(obj)}
    rep.add("object passes its validator", True)


def cmd_center(args, rep):
    a = rep.resolve("algebra", args.algebra)
    z = center(a)
    rep.result = {"dim": z.dim, "basis": fmt_matrix(z.incl)}
    rep.add("center is a commutative subalgebra", is_commutative(z.algebra))
    rep.add("center basis commutes with every basis element (brute force)",
            commutes(a, z.incl.columns(),
                     [a.basis_vector(i) for i in range(a.dim)]))


def cmd_centralizer(args, rep):
    f = rep.resolve("map", args.map)
    c = centralizer(f)
    rep.result = {"dim": c.dim, "basis": fmt_matrix(c.incl)}
    rep.add("centralizer basis commutes with the image (brute force)",
            commutes(f.tgt, c.incl.columns(), f.mat.columns()))
    rep.add("centralizer is closed under multiplication and contains 1",
            True, "certified during subalgebra construction")


def cmd_z_hom(args, rep):
    f = rep.resolve("map", args.map)
    r = Z_hom(f)
    rep.result = {
        "object": {"apex_dim": r.apex.dim},
        "cospan": {**_legs(r.cospan), "z_src_dim": r.z_left.dim,
                   "z_tgt_dim": r.z_right.dim},
    }
    rep.add("centralizer cospan passes its validator",
            validate_cospan(r.cospan) == [])
    rep.add("apex basis commutes with the image (brute force)",
            commutes(f.tgt, r.realization.incl.columns(), f.mat.columns()))


def cmd_z_bimodule(args, rep):
    m = rep.resolve("bimodule", args.bimodule)
    r = Z_bimodule(m)
    rep.result = {
        "object": {"apex_dim": r.apex.dim},
        "cospan": {**_legs(r.cospan), "z_left_dim": r.z_left.dim,
                   "z_right_dim": r.z_right.dim},
    }
    rep.add("endomorphism cospan passes its validator",
            validate_cospan(r.cospan) == [])
    rep.add("apex dimension equals the equivariant endomorphism space",
            r.apex.dim == hom_space(m, m).dim)


def cmd_z_2cell(args, rep):
    phi = rep.resolve("bimodule-map", args.bimodule_map)
    d = Z_2cell(phi)
    rep.result = {"diagram": {**CODECS["2diagram"].summary(d),
                              "f": fmt_matrix(d.f), "g": fmt_matrix(d.g)}}
    rep.add("induced 2-diagram passes its validator",
            validate_2diagram(d) == [])


def cmd_tensor_over(args, rep):
    m = rep.resolve("bimodule", args.left, "left")
    n = rep.resolve("bimodule", args.right, "right")
    if not same_content(m.right, n.left):
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
    rep.add("projection splits the section",
            q.proj @ q.sect == Matrix.identity(q.dim, rep.field))
    rep.add("relations vanish in the quotient",
            (q.proj @ q.relations).is_zero())
    rep.add("induced bimodule passes its validator",
            validate_bimodule(t.product) == [])
    rep.add("dimension equals ambient minus relation rank",
            t.dim == q.ambient - rel_rank,
            f"{t.dim} = {q.ambient} - {rel_rank}")


def cmd_compose_cospans(args, rep):
    first = rep.resolve("cospan", args.first, "first")
    second = rep.resolve("cospan", args.second, "second")
    if not same_content(first.b, second.a):
        raise InputError("the right foot of --first must equal the left foot"
                         " of --second")
    comp = compose_cospans(second, first)
    c = comp.cospan
    rel_rank = rank(comp.quot.relations)
    rep.result = {"cospan": {**CODECS["cospan"].summary(c), **_legs(c)}}
    rep.add("composite cospan passes its validator", validate_cospan(c) == [])
    rep.add("apex dimension equals flat tensor minus relation rank",
            c.apex.dim == comp.quot.ambient - rel_rank,
            f"{c.apex.dim} = {comp.quot.ambient} - {rel_rank}")


def cmd_compose_2diagrams(args, rep):
    first = rep.resolve("2diagram", args.first, "first")
    second = rep.resolve("2diagram", args.second, "second")
    if args.how == "vertical":
        if not same_content(first.tgt, second.src):
            raise InputError("vertical composition needs the target cospan of"
                             " --first to equal the source cospan of"
                             " --second")
        out = vertical_compose(second, first)
    else:
        if not same_content(first.src.b, second.src.a):
            raise InputError("horizontal composition needs the right foot of"
                             " --first to equal the left foot of --second")
        out = horizontal_compose(second, first)
    rep.result = {"diagram": {**CODECS["2diagram"].summary(out),
                              "f": fmt_matrix(out.f),
                              "g": fmt_matrix(out.g)}}
    rep.add("composite 2-diagram passes its validator",
            validate_2diagram(out) == [])


def _all_or_none(values, message) -> bool:
    """Whether a group of flags that go together is given; an InputError
    with the message when only some of them are."""
    given = sum(v is not None for v in values)
    if 0 < given < len(values):
        raise InputError(message)
    return given > 0


_GRID = ("d1p", "d1", "d2p", "d2")


def cmd_beta_check(args, rep):
    specs = [getattr(args, label) for label in _GRID]
    if _all_or_none(specs, "provide all four of --d1p --d1 --d2p --d2, or"
                    " none to generate a grid from the seed"):
        grid = tuple(rep.resolve("2diagram", sp, lbl)
                     for lbl, sp in zip(_GRID, specs))
    else:
        grid = random_interchanger_grid(rep.rng, rep.field)
        for lbl, d in zip(_GRID, grid):
            rep.record(lbl, f"generated:seed={args.seed}", "2diagram", d)
    b = beta_cell(*grid)
    rep.result = {
        "src_dim": b.src_diagram.M.dim,
        "tgt_dim": b.tgt_diagram.M.dim,
        "cell": fmt_matrix(b.cell.mat),
        "inverse_cell": fmt_matrix(b.inverse_cell.mat),
    }
    rep.add("interchanger composed with its inverse is the identity",
            b.cell.mat @ b.inverse_cell.mat
            == Matrix.identity(b.tgt_diagram.M.dim, rep.field))
    rep.add("inverse composed with the interchanger is the identity",
            b.inverse_cell.mat @ b.cell.mat
            == Matrix.identity(b.src_diagram.M.dim, rep.field))
    rep.add("interchanger is a 3-cell", validate_3cell(b.cell) == [])
    rep.add("inverse is a 3-cell", validate_3cell(b.inverse_cell) == [])


def _invertible_cospan(args, rep):
    if (args.cospan is None) == (args.map is None):
        raise InputError("give exactly one of --cospan or --map (the"
                         " latter takes the induced centralizer cospan)")
    if args.map is not None:
        f = rep.resolve("map", args.map)
        c = Z_hom(f).cospan
    else:
        c = rep.resolve("cospan", args.cospan)
    res = is_invertible_cospan(c)
    rep.result = {"invertible": res.invertible, "reasons": res.reasons}
    if res.invertible:
        rep.result["inverse"] = _legs(res.inverse)
    rep.add("cospan is invertible with identity-comparison witnesses",
            res.invertible, "; ".join(res.reasons))


def _invertible_2cell(args, rep):
    d = rep.resolve("2diagram", args.diagram, "diagram")
    legs_ok = is_invertible_2diagram(d)
    rep.result = {"legs_invertible": legs_ok}
    rep.add("both legs of the 2-diagram are invertible", legs_ok)
    if same_content(d.src, d.tgt):
        search = find_invertible_3cell(d, identity_2diagram(d.src),
                                       rng=rep.rng, sample_range=args.bound)
        rep.result["identity_comparison"] = {
            "found": search.found,
            "certified": search.certified,
            "failure_bound": str(search.failure_bound),
            "detail": search.detail,
        }
        rep.add("invertible 3-cell to the identity 2-diagram",
                search.found and validate_3cell(search.cell) == [],
                search.detail)
    else:
        rep.result["identity_comparison"] = {
            "found": False,
            "certified": False,
            "failure_bound": "",
            "detail": "source and target cospans differ; leg verdict only",
        }


def _check_composable(ms):
    for i in range(len(ms) - 1):
        if not same_content(ms[i].right, ms[i + 1].left):
            raise InputError(f"bimodules {i + 1} and {i + 2} do not compose:"
                             " right and left algebras differ")


# property -> (bimodule flags, how to give them, check, check name)
_BIMODULE_CHAINS = {
    "pentagon": (("b1", "b2", "b3", "b4"),
                 "all four of --b1 --b2 --b3 --b4, or none", pentagon_check,
                 "pentagon rebracketing tower commutes"),
    "triangle": (("left", "right"), "both --left and --right, or neither",
                 triangle_check, "triangle unit-collapse identity commutes"),
}


def _verify_bimodule_chain(args, rep):
    """One named chain of bimodules, or three seeded ones, each checked."""
    flags, how, check, name = _BIMODULE_CHAINS[args.property]
    specs = [getattr(args, flag) for flag in flags]
    if _all_or_none(specs, f"provide {how} to generate seeded instances"):
        chains = [[rep.resolve("bimodule", spec, flag)
                   for spec, flag in zip(specs, flags)]]
        _check_composable(chains[0])
    else:
        chains = [corpus.random_pentagon_chain(rep.rng, rep.field)[:len(flags)]
                  for _ in range(3)]
    dims = [[m.dim for m in chain] for chain in chains]
    for chain, d in zip(chains, dims):
        rep.add(name, check(*chain), f"bimodule dims {d}")
    rep.result = {"instances": len(chains), "dims": dims}


def _verify_lax(args, rep):
    if args.h is not None and None in (args.f, args.g):
        raise InputError("--h needs --f and --g as well")
    if _all_or_none((args.f, args.g), "provide --f and --g (and optionally"
                    " --h), or none to generate seeded chains"):
        chain = [rep.resolve("map", args.f, "f"),
                 rep.resolve("map", args.g, "g")]
        if args.h is not None:
            chain.append(rep.resolve("map", args.h, "h"))
        for i in range(len(chain) - 1):
            if not same_content(chain[i].tgt, chain[i + 1].src):
                raise InputError(f"maps {i + 1} and {i + 2} do not compose")
        rep.extend(verify_lax_functor(chain))
        rep.result = {"chains": 1,
                      "dims": [[f.src.dim for f in chain]
                               + [chain[-1].tgt.dim]]}
    else:
        dims = []
        for i in range(3):
            chain = random_map_chain(rep.rng, length=3, field=rep.field)
            dims.append([f.src.dim for f in chain] + [chain[-1].tgt.dim])
            rep.extend(verify_lax_functor(chain), f"chain {i + 1}: ")
        rep.result = {"chains": 3, "dims": dims}


def _verify_naturality(args, rep):
    named = _all_or_none((args.phi, args.psi), "provide --phi and --psi"
                         " together (and optionally --phip and --psip), or"
                         " none to generate seeded instances")
    if not named and (args.phip, args.psip) != (None, None):
        raise InputError("--phip and --psip need --phi and --psi as well")
    _all_or_none((args.phip, args.psip), "--phip and --psip go together")
    if named:
        phi = rep.resolve("bimodule-map", args.phi, "phi")
        psi = rep.resolve("bimodule-map", args.psi, "psi")
        if not same_content(phi.src.right, psi.src.left):
            raise InputError("--phi and --psi must share the middle algebra")
        phip = psip = None
        if args.phip is not None:
            phip = rep.resolve("bimodule-map", args.phip, "phip")
            psip = rep.resolve("bimodule-map", args.psip, "psip")
        rep.extend(verify_m_naturality(phi, psi, phip, psip))
        rep.result = {"instances": 1}
    else:
        for i in range(2):
            squares = corpus.random_naturality_squares(rep.rng, rep.field)
            rep.extend(verify_m_naturality(*squares),
                       f"instance {i + 1}: ")
        rep.result = {"instances": 2}


def _verify_morita(args, rep):
    if args.algebra is None:
        raise InputError("verify morita needs --algebra (and --n)")
    if args.n < 1:
        raise InputError(f"verify morita: --n must be at least 1, got"
                         f" {args.n}")
    a = rep.resolve("algebra", args.algebra)
    try:
        check_dim(args.n * args.n * a.dim, f"verify morita: --n {args.n}")
    except ValueError as exc:
        raise InputError(str(exc))
    res = morita_center_check(a, args.n)
    rep.result = {
        "n": args.n,
        "algebra_dim": a.dim,
        "amplified_dim": res.amplified.dim,
        "z_dim": res.z_small.dim,
        "z_amplified_dim": res.z_big.dim,
        "iso": fmt_matrix(res.iso.mat),
    }
    rep.add("diagonal-scalar embedding is an algebra isomorphism of"
            " centers", res.ok,
            f"dim {res.z_small.dim} -> dim {res.z_big.dim}")


def _verify_thm58(args, rep):
    chains, squares = corpus.semisimple_corpus(rep.rng, scale=1.0,
                                               field=rep.field)
    res = check_theorem58_hypotheses(chains=chains, squares=squares)
    rep.extend(res)
    rep.add("aggregate verdict is non-lax on this corpus",
            res.verdict == "non-lax on this corpus", res.verdict)
    rep.result = {
        "verdict": res.verdict,
        "chains": len(chains),
        "squares": len(squares),
    }


def cmd_corpus(args, rep):
    if not 0 < args.scale < math.inf:
        raise InputError(f"corpus: --scale must be positive and finite, got {args.scale}")
    if args.scale > corpus.MAX_SCALE:
        raise InputError(f"corpus: --scale must be at most {corpus.MAX_SCALE:g},"
                         f" got {args.scale}")
    results = corpus.run_all(seed=args.seed, scale=args.scale, field=rep.field)
    batteries = []
    for name, coherence in results:
        rep.extend(coherence, f"{name}: ")
        batteries.append({
            "name": name,
            "ok": coherence.ok,
            "checks": len(coherence.entries),
        })
    rep.result = {"batteries": batteries, "scale": args.scale}


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _flags(*names, **options):
    """One option --name per name, each with the same add_argument options."""
    return tuple((f"--{name}", options) for name in names)


# command -> (help, handler, arguments), each argument a (name, options of
# add_argument) pair.  An option marked needed=True is optional to argparse:
# main refuses the command without it, with exit 2 and a JSON report.  A
# row whose handler is itself a table of such rows gets one subcommand per
# variant, and in place of its arguments names the attribute that holds
# the variant.
COMMANDS = {
    "validate": ("load an object and run its validator", cmd_validate,
                 (("kind", {"choices": list(CODECS)}),
                  ("spec", {"help": "constructor spec or @file.json"}))),
    "center": ("center of an algebra", cmd_center,
               _flags("algebra", needed=True)),
    "centralizer": ("centralizer of the image of an algebra map",
                    cmd_centralizer, _flags("map", needed=True)),
    "z-hom": ("centralizer cospan of an algebra map", cmd_z_hom,
              _flags("map", needed=True)),
    "z-bimodule": ("endomorphism cospan of a bimodule", cmd_z_bimodule,
                   _flags("bimodule", needed=True)),
    "z-2cell": ("2-diagram induced by a bimodule map", cmd_z_2cell,
                _flags("bimodule-map", needed=True)),
    "tensor-over": ("fibered tensor product of two bimodules",
                    cmd_tensor_over, _flags("left", "right", needed=True)),
    "compose-cospans": ("composite of two cospans over a shared foot",
                        cmd_compose_cospans,
                        _flags("first", "second", needed=True)),
    "compose-2diagrams": (
        "vertical or horizontal composition", cmd_compose_2diagrams,
        (("how", {"choices": ["vertical", "horizontal"]}),
         *_flags("first", needed=True,
                 help="lower (vertical) respectively left (horizontal)"),
         *_flags("second", needed=True,
                 help="upper (vertical) respectively right (horizontal)"))),
    "beta-check": ("two-sided interchanger on a 2x2 grid", cmd_beta_check,
                   _flags(*_GRID)),
    "invertible": ("invertibility verdict with witnesses", {
        "cospan": ("a cospan, or the centralizer cospan of a map",
                   _invertible_cospan,
                   _flags("cospan", help="cospan spec")
                   + _flags("map", help="algebra map whose centralizer"
                                        " cospan to test")),
        "2cell": ("a 2-diagram: its legs, and a 3-cell to the identity",
                  _invertible_2cell,
                  _flags("diagram", needed=True, help="2-diagram spec")),
    }, "what"),
    "verify": ("coherence and comparison properties", {
        **{prop: (f"{prop} of the fibered tensor", _verify_bimodule_chain,
                  _flags(*flags, help="bimodule spec"))
           for prop, (flags, *_) in _BIMODULE_CHAINS.items()},
        "lax": ("lax-functor laws of the center on a chain of maps",
                _verify_lax, _flags("f", "g", "h")),
        "naturality": ("naturality of the multiplication maps",
                       _verify_naturality, _flags("phi", "psi", "phip", "psip")),
        "morita": ("Morita invariance of the center", _verify_morita,
                   _flags("algebra", help="algebra spec")
                   + _flags("n", type=int, default=2,
                            help="matrix amplification size")),
        "thm58": ("Theorem 5.8 hypotheses on the semisimple corpus",
                  _verify_thm58, ()),
    }, "property"),
    "corpus": ("run every verification battery", cmd_corpus,
               _flags("scale", type=float, default=1.0,
                      help="shrink factor for instance counts (default 1.0)")),
}


def _add_commands(sub, table, common):
    for name, (text, handler, arguments) in table.items():
        if isinstance(handler, dict):
            variants = sub.add_parser(name, help=text).add_subparsers(
                dest=arguments, required=True)
            _add_commands(variants, handler, common)
            continue
        p = sub.add_parser(name, parents=[common], help=text)
        needs = []
        for flag, options in arguments:
            options = dict(options)
            if options.pop("needed", False):
                needs.append(flag)
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler, needs=needs)


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
    _add_commands(p.add_subparsers(dest="cmd", required=True), COMMANDS,
                  common)
    return p


PARSER = make_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    rep = Report(args)

    def finish(payload, code):
        try:
            emit(payload, args.out)
        except InputError as exc:
            emit(rep.refusal(str(exc)), None)
            return 2
        return code

    try:
        rep.field = field_from_name(args.field)
    except ValueError as exc:
        return finish(rep.refusal(str(exc)), 2)
    try:
        missing = [flag for flag in args.needs
                   if getattr(args, flag[2:].replace("-", "_")) is None]
        if missing:
            raise InputError(f"{rep.command} needs {' and '.join(missing)}")
        args.handler(args, rep)
    except InputError as exc:
        return finish(rep.refusal(str(exc), exc.violations), 2)
    except ValueError as exc:
        message = str(exc) or exc.__class__.__name__
        return finish(rep.refusal(
            f"operation failed on the given inputs: {message}"), 2)
    return finish(rep.envelope(result=rep.result, checks=rep.entries,
                               ok=rep.ok), 0 if rep.ok else 1)


if __name__ == "__main__":
    raise SystemExit(main())
