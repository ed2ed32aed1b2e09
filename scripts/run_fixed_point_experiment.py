#!/usr/bin/env python3
"""Nearness fixed-point experiment: solve a certified nonlinear system and
print the contraction history."""

import argparse

import numpy as np

from diffusepde.grids import Domain, GridFunction
from diffusepde.solver import campanato_solve, fibre_norms, make_nonlinearity
from diffusepde.tensors import Decomposition, ranges_and_subspaces


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolution", type=int, default=64)
    ap.add_argument("--gamma", type=float, default=0.2)
    ap.add_argument("--lip-frac", type=float, default=0.3)
    ap.add_argument("--max-iter", type=int, default=40)
    args = ap.parse_args()

    dom = Domain.unit_square(args.resolution)
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    data = ranges_and_subspaces(dec)
    lip = args.lip_frac * data.nu
    a_of_x = GridFunction.from_callable(
        dom, lambda x: (1.0 + 0.3 * np.sin(np.pi * x[..., 0])
                        * np.cos(np.pi * x[..., 1]))[..., None])
    F, cert = make_nonlinearity(
        dec, a_of_x, gamma=args.gamma,
        g=lambda Y: lip * np.sin(Y.reshape(-1, 2, 2, 2)[:, :, 0, 0]),
        lipschitz_g=lip)
    x = dom.node_coords()
    f = GridFunction(dom, np.stack(
        [np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
         np.sin(2 * np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])], axis=-1))
    fd, log = campanato_solve(F, cert, f, [1e-1, 1e-2, 1e-3, 1e-4],
                              max_iter=args.max_iter)
    print(f"certificate: B={cert.B} C={cert.C} kappa={cert.kappa}")
    print("iteration,increment,ratio,residual")
    for row in log.to_rows():
        print(f"{row['iteration']},{row['increment']!r},{row['ratio']!r},"
              f"{row['residual']!r}")
    norms = fibre_norms(fd)
    print(f"\nfibre norms: values {norms[0]:.4e}, gradient {norms[1]:.4e}, "
          f"hessian {norms[2]:.4e}")


if __name__ == "__main__":
    main()
