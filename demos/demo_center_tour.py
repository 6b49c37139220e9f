"""A guided tour of the object layer: centers of a zoo of small algebras,
the centralizer of the diagonal inclusion, the centralizer cospan it induces,
and the invariance of centers under matrix amplification.

Everything is exact rational arithmetic; the script is deterministic and
exits 0 exactly when every reported check holds."""

import sys

from centrum.algebra import (
    center,
    centralizer,
    commutes,
    is_commutative,
    named_algebra,
    validate_algebra,
)
from centrum.cospanbicat import validate_cospan
from centrum.fixtures import diagonal_inclusion
from centrum.fullcenter import Z_hom, morita_center_check

WIDTH = 72


def section(title):
    print()
    print("=" * WIDTH)
    print(f"  {title}")
    print("=" * WIDTH)


def kv(key, value, pad=52):
    print(f"  {key:<{pad}} {value}")


def mark(flag):
    return "ok" if flag else "FAIL"


def main():
    all_ok = True

    section("centers of the small zoo")
    for spec in ("k", "product:k^2", "dual_numbers", "group:C2",
                 "matrix:2", "matrix:3"):
        a = named_algebra(spec)
        z = center(a)
        basis = [a.basis_vector(i) for i in range(a.dim)]
        good = (validate_algebra(a) == [] and is_commutative(z.algebra)
                and commutes(a, z.incl.columns(), basis))
        all_ok &= good
        kv(f"{spec}  (dim {a.dim})",
           f"center dim {z.dim}  commutative+brute-force {mark(good)}")

    section("the diagonal inclusion  k^2 -> M_2")
    f = diagonal_inclusion(2)
    c = centralizer(f)
    kv("centralizer of the image", f"dim {c.dim}")
    diag = c.incl.data == [[1, 0], [0, 0], [0, 0], [0, 1]]
    all_ok &= diag and c.dim == 2
    kv("basis columns span the diagonal matrices", mark(diag))

    z = Z_hom(f)
    kv("cospan apex", f"dim {z.apex.dim}")
    kv("left leg  Z(k^2) -> apex",
       f"{z.cospan.leg_a.mat.rows}x{z.cospan.leg_a.mat.cols}")
    kv("right leg Z(M_2) -> apex",
       f"{z.cospan.leg_b.mat.rows}x{z.cospan.leg_b.mat.cols}")
    valid = validate_cospan(z.cospan) == []
    all_ok &= valid
    kv("legs are central algebra maps", mark(valid))

    section("Morita invariance of the center")
    for spec in ("k", "dual_numbers", "group:C2"):
        a = named_algebra(spec)
        for n in (2, 3):
            res = morita_center_check(a, n)
            all_ok &= res.ok
            kv(f"Z({spec}) -> Z(M_{n}({spec}))",
               f"dim {res.z_small.dim} -> dim {res.z_big.dim}  {mark(res.ok)}")

    section("summary")
    kv("all checks", mark(all_ok))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
