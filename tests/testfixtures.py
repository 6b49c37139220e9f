"""Fixtures that more than one test module builds and that no centrum
command, battery or benchmark runs, so they live with the tests and not in
src."""

from centrum.algebra import AlgebraMap
from centrum.bimodule import Bimodule


def restriction_bimodule(f: AlgebraMap) -> Bimodule:
    """The target of f as a (src, tgt)-bimodule: the source acts through f."""
    b = f.tgt
    lact = [b.left_mult(f.apply(f.src.basis_vector(i))) for i in range(f.src.dim)]
    ract = [b.right_mult(b.basis_vector(j)) for j in range(b.dim)]
    return Bimodule(f.src, b, b.dim, lact, ract)
