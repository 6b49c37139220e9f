"""src holds no assert: each internal invariant is an explicit ValueError, so
python -O, which strips assert statements, strips none of them.  Each
refusal is tested by making its invariant fail, in-process and again under
python -O.  A second scan pins the module-level functions and classes of
src that no src module calls, or that only such unreferenced code calls, so
that list can only shrink, and finds no method that no src module reads."""

import ast
import contextlib
import os
import re
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

from testfixtures import ALL_MEMOISED

from centrum import algebra, corpus, cospanbicat, fixtures
from centrum.algebra import alg_matrix, alg_product_k, unit_map
from centrum.exactla import QQ, Matrix

SRC = Path(__file__).resolve().parents[1] / "src" / "centrum"
DEMOS = Path(__file__).resolve().parents[1] / "demos"
README = Path(__file__).resolve().parents[1] / "README.md"


def test_src_holds_no_assert():
    """Neither src nor the demos check with assert, which python -O strips."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) + sorted(DEMOS.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def unreferenced_names(sources) -> list:
    """The module-level functions and classes of the module sources that
    no module names (as a name or an attribute) outside their own
    definition, or that only such unreferenced definitions name, sorted.
    An import or an __all__ string is not a use."""
    uses, used = {}, set()
    for source in sources:
        for top in ast.parse(source).body:
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(top)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names.discard(top.name)
                uses.setdefault(top.name, set()).update(names)
            else:
                used |= names
    # drop the unreferenced definitions until none is left to drop
    live = dict(uses)
    while dead := live.keys() - used.union(*live.values()):
        for name in dead:
            del live[name]
    return sorted(uses.keys() - live.keys())


def unreferenced_methods(sources) -> list:
    """The non-dunder methods of the module-level classes of the module
    sources whose name no module reads as an attribute (x.method) or as a
    getattr string outside their own definition, as Class.method, sorted.
    A bare name, such as a local variable, is not a use."""
    trees = [ast.parse(source) for source in sources]

    def uses(node) -> Counter:
        return Counter(
            [n.attr for n in ast.walk(node)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
            + [n.args[1].value for n in ast.walk(node)
               if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "getattr"
               and len(n.args) > 1 and isinstance(n.args[1], ast.Constant)])

    used = sum(map(uses, trees), Counter())
    return sorted(f"{cls.name}.{fn.name}"
                  for tree in trees for cls in tree.body
                  if isinstance(cls, ast.ClassDef)
                  for fn in cls.body
                  if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")
                  and used[fn.name] == uses(fn)[fn.name])


# what src holds that only tests call: the cospan-bicategory checks and
# their helpers, which the battery of the cospan bicategory is to call; the
# list may only shrink
UNREFERENCED = [
    "_rebracket_3cell", "_vertical", "check_functor_A_composition",
    "check_pentagon", "check_triangle", "compose_3cells", "find_3cell",
    "functor_A_embed", "identity_3cell", "two_diagrams_equal",
]


def test_src_defines_nothing_that_only_tests_call():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert unreferenced_names(sources) == UNREFERENCED
    assert unreferenced_methods(sources) == []


def test_unreferenced_names_are_found():
    src = """
def called():
    return 1

def recursive(n):
    return recursive(n - 1)

def exported():
    pass

def helper():
    return 2

def only_for_lonely():
    return helper()

def by_attribute():
    pass

class Lonely:
    value = only_for_lonely()

x = called() + obj.by_attribute

class Shape:
    def __init__(self):
        self.area()

    def area(self):
        return 1

    def lonely(self):
        return self.lonely()

    @property
    def sides(self):
        return 4

    def named(self):
        return 0

def corners(shape):
    lonely = shape.sides
    return lonely + getattr(shape, "named")()

n = corners(Shape())
__all__ = ["exported"]
"""
    assert unreferenced_names([src]) == ["Lonely", "exported", "helper",
                                         "only_for_lonely", "recursive"]
    assert unreferenced_methods([src]) == ["Shape.lonely"]


def hand_written_descents(source: str) -> list:
    """Line numbers of the calls X.descend(kron_product(Y.proj, ...)) in
    source: exactla.tensor_induced written out by hand."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "descend" and node.args):
            continue
        down = node.args[0]
        if (isinstance(down, ast.Call) and isinstance(down.func, ast.Name)
                and down.func.id == "kron_product" and down.args
                and isinstance(down.args[0], ast.Attribute)
                and down.args[0].attr == "proj"):
            out.append(node.lineno)
    return sorted(out)


def test_src_induces_maps_on_tensor_quotients_one_way():
    """Outside exactla no call descends kron_product(Y.proj, ...): each map
    induced on a quotient by a tensor product of maps goes through
    tensor_induced.  A descent of a product whose first factor is not a
    .proj, as m_square's pre-unit map and check_m_unit_axiom's left
    collapse are, is another construction and is not caught."""
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "exactla.py"
             for line in hand_written_descents(path.read_text(encoding="utf-8"))]
    assert found == []


def test_hand_written_descents_are_found():
    src = """
a = q.descend(kron_product(p.proj, [x, 2]), "no")
b = w.src_witness.descend(
    kron_product(t.quot.proj, [2, y]), "no")
c = q.descend(kron_product(mult, [x, 2]), "no")
d = tensor_induced(p, [x, 2], q, "no")
e = q.descend(p.proj, "no")
"""
    assert hand_written_descents(src) == [2, 3]


def action_reads(source: str) -> list:
    """Line numbers of the reads of an lact_of or ract_of attribute in
    source: the action of an algebra element taken by hand, where it acts
    through an algebra map, instead of through bimodule.restrict."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                   and node.attr in ("lact_of", "ract_of")})


def test_src_restricts_scalars_one_way():
    """Outside bimodule no src module reads Bimodule.lact_of or ract_of:
    every action through an algebra map goes through bimodule.restrict."""
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "bimodule.py"
             for line in action_reads(path.read_text(encoding="utf-8"))]
    assert found == []


def test_action_reads_are_found():
    src = """
a = m.lact_of(x)
b = [M.ract_of(c) for c in cols]
legs = leg(zl, m.lact_of), leg(zr, m.ract_of)
c = m.lact[0] @ m.ract[1]
d = restrict(m, left=f, right=g).lact
lact_of = ract_of
"""
    assert action_reads(src) == [2, 3, 4]


def middle_cokernels(source: str) -> list:
    """The module-level functions and classes of source that call
    cokernel(middle_relations(...)), by name or as attributes, once per
    call and in order; None for a call outside any.  A cokernel of a name
    bound to the relations, or another use of them, is not caught."""

    def named(node, name):
        return (isinstance(node, ast.Call)
                and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                == name)

    return [getattr(top, "name", None) for top in ast.parse(source).body
            for n in ast.walk(top)
            if named(n, "cokernel") and n.args and named(n.args[0], "middle_relations")]


def test_src_builds_tensor_quotients_one_way():
    """cokernel(middle_relations(...)) is written once in src, in
    bimodule.tensor_quotient, which builds every fibered tensor quotient.
    corpus._tensor_pair's rank of the relations is an independent check,
    not a quotient, and is not caught."""
    found = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in middle_cokernels(path.read_text(encoding="utf-8"))]
    assert found == ["bimodule.tensor_quotient"]


def test_middle_cokernels_are_found():
    src = """
q = cokernel(middle_relations(a, b))

def tensor_quotient(m, n):
    return cokernel(middle_relations(m.ract, n.lact))

def _middle_quotient(left, right):
    rel = middle_relations(left, right)
    return exactla.cokernel(bimodule.middle_relations([x for x in left], right))

class Composite:
    def __init__(self, m, n):
        self.quot = cokernel(middle_relations(m.ract, n.lact))

def oracle(m, n):
    return rank(middle_relations(m.ract, n.lact)) + cokernel(rel).dim
"""
    assert middle_cokernels(src) == [None, "tensor_quotient", "_middle_quotient",
                                     "Composite"]


def scope_nodes(tree) -> list:
    """The nodes of each scope of tree, the module and every function or
    lambda, as one list per scope: a nested function is a scope of its
    own."""
    out = []
    for scope in [tree] + [n for n in ast.walk(tree)
                           if isinstance(n, (ast.FunctionDef, ast.Lambda))]:
        nodes, todo = [], list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            nodes.append(node)
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                todo.extend(ast.iter_child_nodes(node))
        out.append(nodes)
    return out


def hand_written_refusals(source: str) -> list:
    """Line numbers in source of the two refusals that have one home each:
    an if that raises ValueError on a validate_*(...) call, in its test
    (any(...) of one included) or through a name bound from one
    (exactla.refuse), and a coords_matrix(...) result, in the call or
    through a name bound to one in the same function, tested `is None` or
    `is not None` (Subspace.coords_matrix raises with its caller's
    message)."""

    def calls(node, prefix):
        return any(isinstance(n, ast.Call)
                   and (getattr(n.func, "id", None) or getattr(n.func, "attr", "")
                        ).startswith(prefix)
                   for n in ast.walk(node))

    out = []
    for nodes in scope_nodes(ast.parse(source)):

        def bound(prefix):
            return {t.id for node in nodes
                    if isinstance(node, ast.Assign) and calls(node.value, prefix)
                    for t in node.targets if isinstance(t, ast.Name)}

        validated, coords = bound("validate_"), bound("coords_matrix")
        out += [node.lineno for node in nodes
                if isinstance(node, ast.If)
                and (calls(node.test, "validate_")
                     or any(isinstance(n, ast.Name) and n.id in validated
                            for n in ast.walk(node.test)))
                and any(isinstance(n, ast.Raise) and n.exc is not None
                        and calls(n.exc, "ValueError")
                        for stmt in node.body for n in ast.walk(stmt))]
        out += [node.lineno for node in nodes
                if isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(isinstance(c, ast.Constant) and c.value is None
                        for c in node.comparators)
                and (calls(node.left, "coords_matrix")
                     or isinstance(node.left, ast.Name) and node.left.id in coords)]
    return sorted(out)


def test_src_refuses_one_way():
    """A failed validator refuses through exactla.refuse, and a coordinate
    read refuses inside Subspace.coords_matrix: no if in src raises
    ValueError on a validator's result, and no coords_matrix result is
    tested against None."""
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in hand_written_refusals(path.read_text(encoding="utf-8"))]
    assert found == []


def test_hand_written_refusals_are_found():
    src = """
bad = validate_cospan(c)
if bad:
    raise ValueError(f"invalid cospan: {bad}")
both = validate_3cell(a) + validate_3cell(b)
if both:
    raise ValueError(f"not a 3-cell: {both}")
X = s.coords_matrix(M)
if X is None:
    raise ValueError("outside")
ok = s.coords_matrix(M) is not None
bad = CODECS[kind].validate(obj)
if bad:
    raise InputError("fails validation", bad)
flaw = validate_algebra(a)
if flaw:
    raise InputError("fails validation", flaw)
refuse(validate_cospan(c), "invalid cospan")
Y = s.coords_matrix(M, "outside")

def restrict(sub, M):
    Z = sub.coords_matrix(M)
    if Z is None:
        raise ValueError("outside")
    return Z

def inverse(m):
    X = solve_matrix(m, m)
    return None if X is None else X

if validate_algebra_map(g):
    raise ValueError("not an algebra map")
if any(validate_algebra_map(f) for f in autos):
    raise ValueError("an automorphism is not an algebra map")
if validate_algebra_map(f):
    return None
"""
    assert hand_written_refusals(src) == [3, 6, 9, 11, 23, 31, 33]


def hand_written_slot_permutations(source: str) -> list:
    """Line numbers of the select_columns and _rows_at calls in source with
    an argument that is a comprehension over two or more generators, in the
    call or through a name that source binds to one: a reordering of tensor
    slots written out by hand instead of exactla.tensor_permutation_index."""
    tree = ast.parse(source)

    def multi(node):
        return (isinstance(node, (ast.ListComp, ast.GeneratorExp))
                and len(node.generators) > 1)

    bound = {t.id for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and multi(node.value)
             for t in node.targets if isinstance(t, ast.Name)}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) == "select_columns"
             or getattr(node.func, "id", None) == "_rows_at")
        and any(multi(a) or isinstance(a, ast.Name) and a.id in bound
                for a in node.args))


def random_builders(source: str) -> list:
    """The module-level functions of source that name Random (as a name or
    an attribute, called or not), in order; None for a use outside any
    function."""
    return [top.name if isinstance(top, ast.FunctionDef) else None
            for top in ast.parse(source).body for n in ast.walk(top)
            if getattr(n, "id", None) == "Random"
            or isinstance(n, ast.Attribute) and n.attr == "Random"]


def test_corpus_draws_each_instance_from_its_own_stream():
    """corpus builds a Random only in run_battery, whose stream seeds
    f"{seed}/{battery}/{family}/{i}" name one instance each: no battery or
    family name holds "/", and family names are unique in their battery."""
    source = (SRC / "corpus.py").read_text(encoding="utf-8")
    assert set(random_builders(source)) == {"run_battery"}
    for battery, (families, _) in corpus.BATTERIES.items():
        names = [family for family, _, _ in families]
        assert "/" not in battery and not any("/" in n for n in names)
        assert len(set(names)) == len(names), battery


DRAWS = {"randrange", "random", "randint", "choice", "shuffle", "sample"}


def rng_draws(source: str) -> list:
    """The lines of source that call a draw method on an rng: a name or an
    attribute ending in "rng", or the random module itself."""
    def receiver(node):
        return getattr(node, "id", None) or getattr(node, "attr", "")

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr in DRAWS
            and (receiver(node.func.value).endswith("rng")
                 or receiver(node.func.value) in ("random", "_random"))]


def test_cli_draws_nothing_itself():
    """cli seeds rep.rng and hands it to corpus and fixtures, which draw
    every seeded instance, so a report's draws live beside the batteries'."""
    assert rng_draws((SRC / "cli.py").read_text(encoding="utf-8")) == []


def test_rng_draws_are_found():
    src = """
import random
def seeded(rep, rng, pool):
    a = rng.randrange(3)
    b = rep.rng.choice(pool)
    random.shuffle(pool)
    pool.sample(2)
    random.Random(1)
    return draw_from(rep.rng), a, b, rng.sample(pool, 1)
"""
    assert rng_draws(src) == [4, 5, 6, 9]


def test_random_builders_are_found():
    src = """
import random as _random
RNG = _random.Random(0)

def battery(rng=None):
    rng = rng or random.Random(1)
    return [lambda i: Random(i)]

def run_battery(name, seed):
    return _random.Random(f"{seed}/{name}")

def draw(rng):
    return rng.random()
"""
    assert random_builders(src) == [None, "battery", "battery", "run_battery"]


def backticked_names(text: str) -> set:
    """The names that the backtick spans of text begin with: the dotted
    name at the start of a span and its last part, so `hom_space(src,
    tgt)` and `bimodule.hom_space` both name hom_space."""
    out = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        if dotted := re.match(r"[A-Za-z_][\w.]*", span):
            out |= {dotted[0], dotted[0].rsplit(".", 1)[-1]}
    return out


def test_readme_names_every_memo():
    """Each memoised function of src is named in backticks in README.md,
    so the list of what is computed once per content stays true."""
    named = backticked_names(README.read_text(encoding="utf-8"))
    assert sorted(fn.__name__ for fn in ALL_MEMOISED
                  if fn.__name__ not in named) == []


def test_backticked_names_are_found():
    text = """`hom_space(src, tgt)`, `fullcenter._unit_checks` and Z_hom
bare; `MEMO_BOUND` (64) and `a + b`, but not `3 x` or `_grid
column`."""
    assert backticked_names(text) == {
        "hom_space", "fullcenter._unit_checks", "_unit_checks", "MEMO_BOUND",
        "a"}


def test_src_permutes_tensor_slots_one_way():
    """Every column or row selection that reorders the slots of a flat
    tensor goes through tensor_permutation_index."""
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in hand_written_slot_permutations(path.read_text(encoding="utf-8"))]
    assert found == []


def test_hand_written_slot_permutations_are_found():
    src = """
a = m.select_columns([j * d + i for i in range(d) for j in range(d)])
swap = [j * n + i for i in range(n) for j in range(k)]
b = m.select_columns(swap)
c = _rows_at(V, (k * n + i for i in range(n) for k in range(2)))
d = m.select_columns([i * 2 for i in range(n)])
e = m.select_columns(tensor_permutation_index((n, k), (1, 0)))
f = _rows_at(V, free)
g = other(swap)
"""
    assert hand_written_slot_permutations(src) == [2, 4, 5]


def quotient_shapes(source: str):
    """(the Class.descend methods, the classes with both a proj and a free
    attribute) of the module-level classes of source, each sorted.  A
    class's attributes are the names its body binds (methods, properties,
    fields and class variables), the strings of its __slots__ and the
    self.X its methods assign."""
    descends, shaped = [], []
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        attrs = {n.attr for n in ast.walk(cls)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                 and isinstance(n.value, ast.Name) and n.value.id == "self"}
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                attrs.add(node.name)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for t in targets:
                if isinstance(t, ast.Name):
                    attrs.add(t.id)
                    if t.id == "__slots__":
                        attrs |= {e.value for e in ast.walk(node.value)
                                  if isinstance(e, ast.Constant)}
        if "descend" in {fn.name for fn in cls.body if isinstance(fn, ast.FunctionDef)}:
            descends.append(f"{cls.name}.descend")
        if {"proj", "free"} <= attrs:
            shaped.append(cls.name)
    return sorted(descends), sorted(shaped)


def test_src_has_one_quotient_type_and_one_descent():
    """Every quotient of a flat tensor, nested or not, is an
    exactla.Quotient: src defines one descend method, and no other class
    holds both a projection and a list of free coordinates."""
    descends, shaped = [], []
    for path in sorted(SRC.glob("*.py")):
        d, q = quotient_shapes(path.read_text(encoding="utf-8"))
        descends += [f"{path.stem}.{x}" for x in d]
        shaped += [f"{path.stem}.{x}" for x in q]
    assert descends == ["exactla.Quotient.descend"]
    assert shaped == ["exactla.Quotient"]


def test_quotient_shapes_are_found():
    src = """
class Witness:
    __slots__ = ("proj", "sect", "free")

    def descend(self, down):
        return down

@dataclass
class Tower:
    proj: object
    free: list

class Lazy:
    def __init__(self, p):
        self.proj = p

    @property
    def free(self):
        return []

class Shared:
    proj = None

    def free(self):
        return self.descend

class Plain:
    proj = None

    def sect(self, free):
        self.free_cols = free
        return self.descend(free)

def descend(x):
    return x
"""
    assert quotient_shapes(src) == (["Witness.descend"],
                                    ["Lazy", "Shared", "Tower", "Witness"])


ROW_ATTRS = {"data", "num", "den"}
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort",
            "reverse"}


def _is_rows(node, names) -> bool:
    """Whether node is X.data, X.num or X.den, an item or slice of one, or
    a name bound to one of those."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return ((isinstance(node, ast.Attribute) and node.attr in ROW_ATTRS)
            or (isinstance(node, ast.Name) and node.id in names))


def _bound_rows(target, value, names):
    """Add to names the names target binds to rows: target = value, or a
    loop over value, enumerate(value) or zip(..., value, ...)."""
    if isinstance(target, ast.Name) and _is_rows(value, names):
        names.add(target.id)
    elif (isinstance(target, ast.Tuple) and isinstance(value, ast.Call)
          and isinstance(value.func, ast.Name)):
        args = value.args
        if value.func.id == "enumerate" and len(target.elts) == 2 and args:
            _bound_rows(target.elts[1], args[0], names)
        elif value.func.id == "zip" and len(target.elts) == len(args):
            for t, a in zip(target.elts, args):
                _bound_rows(t, a, names)


def row_writes(source: str) -> list:
    """Line numbers of the statements in source that write into a
    matrix's rows: an assignment to X.data (X.num, X.den) or to an item or
    slice of it, directly or through a name bound to it in the same
    function, and a list-mutating method called on one of those."""
    out = []
    for nodes in scope_nodes(ast.parse(source)):
        names = set()
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                _bound_rows(node.targets[0], node.value, names)
            elif isinstance(node, (ast.For, ast.comprehension)):
                _bound_rows(node.target, node.iter, names)
        for node in nodes:
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS and _is_rows(node.func.value, names)):
                out.append(node.lineno)
            out.extend(node.lineno for t in targets
                       if isinstance(t, (ast.Subscript, ast.Attribute))
                       and _is_rows(t, names))
    return sorted(set(out))


def test_src_writes_into_no_matrix_rows():
    """A Matrix stores its rows in one canonical form, and its data may be
    those very rows: only exactla, which keeps the form, writes into them."""
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "exactla.py"
             for line in row_writes(path.read_text(encoding="utf-8"))]
    assert found == []


def test_row_writes_are_found():
    src = """
def f(m, mult, a):
    mult.data[1][2] = 1
    out = mult.data[0]
    out[0:2] = [1, 1]
    for i, row in enumerate(a.num):
        row[i] += 1
    m.data.append([0])
    for x, r in zip(range(3), m.data):
        r.extend([x])
    m.den = None
    fresh = [row[:] for row in m.data]
    fresh[0][0] = 1
"""
    assert row_writes(src) == [3, 5, 7, 8, 10, 11]


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
        "is_isomorphism": (
            _on_call(algebra, "validate_algebra_map", 2, ["not multiplicative"]),
            lambda: algebra.is_isomorphism(unit_map(alg_matrix(1)))),
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


def test_invariant_checks_refuse(fresh_memos):
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
