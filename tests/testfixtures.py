"""Fixtures and reference builders that the tests use and that no centrum
command, battery or benchmark runs, so they live with the tests and not in
src."""

import importlib
import pkgutil
import sys

import centrum
import centrum.exactla as exactla
from centrum.algebra import AlgebraMap, alg_k
from centrum.bimodule import Bimodule
from centrum.cospanbicat import identity_2diagram
from centrum.exactla import QQ, memoised
from centrum.fixtures import commutative_pool, extend_cospan, tensor_product_cospan


def memoised_in_src():
    """Every memoised function of the centrum modules, constructions and
    verdicts alike, found by scanning them, so that a new memo is cleared,
    bounded and checked by the tests without being listed."""
    found = {}
    for info in pkgutil.iter_modules(centrum.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"centrum.{info.name}")
            for fn in vars(module).values():
                if isinstance(fn, memoised):
                    found.setdefault(id(fn), fn)
    return tuple(found.values())


ALL_MEMOISED = memoised_in_src()


def clear_memos():
    """Empty every memo."""
    for fn in ALL_MEMOISED:
        fn.cache.clear()


def exactla_calls(monkeypatch, name, build):
    """The first argument of each call of the exactla kernel name (rref,
    rank, kernel, ...) that build() makes, with every memo emptied first:
    the kernel is rebound in exactla and in every centrum module that
    imports it, so the calls of every module are seen, and put back on
    return.  build() must return a true verdict."""
    real, seen = getattr(exactla, name), []

    def spy(*args):
        seen.append(args[0])
        return real(*args)

    with monkeypatch.context() as patch:
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("centrum") and getattr(module, name, None) is real:
                patch.setattr(module, name, spy)
        clear_memos()
        assert build()
    return seen


def restriction_bimodule(f: AlgebraMap) -> Bimodule:
    """The target of f as a (src, tgt)-bimodule: the source acts through f."""
    b = f.tgt
    lact = [b.left_mult(f.apply(f.src.basis_vector(i))) for i in range(f.src.dim)]
    ract = [b.right_mult(b.basis_vector(j)) for j in range(b.dim)]
    return Bimodule(f.src, b, b.dim, lact, ract)


def reference_interchanger_grid(rng, field=QQ):
    """fixtures.random_interchanger_grid as it was before its columns were
    memoised: every 2-diagram built afresh from the same five draws."""
    k = alg_k(field)
    pool = commutative_pool(field)
    b = pool[rng.randrange(len(pool))]
    s1 = tensor_product_cospan(k, b)
    t1 = tensor_product_cospan(b, k)
    exts = [a for a in commutative_pool(field) if a.dim == 2]
    ext_l = exts[rng.randrange(len(exts))]
    ext_r = exts[rng.randrange(len(exts))]
    if rng.random() < 0.5:
        _, d1 = extend_cospan(s1, ext_l)
        d1p = identity_2diagram(d1.tgt)
    else:
        d1 = identity_2diagram(s1)
        _, d1p = extend_cospan(s1, ext_l)
    if rng.random() < 0.5:
        _, d2 = extend_cospan(t1, ext_r)
        d2p = identity_2diagram(d2.tgt)
    else:
        d2 = identity_2diagram(t1)
        _, d2p = extend_cospan(t1, ext_r)
    return d1p, d1, d2p, d2
