#!/usr/bin/env python3
"""Convergence experiments for the linear solver.

Prints an error table for the manufactured smooth solve on the square and
for the one-directional degenerate solve on the disc against its explicit
chordwise solution.
"""

import argparse

import numpy as np

from diffusepde.grids import Domain, GridFunction
from diffusepde.reference import disc_explicit_solution
from diffusepde.solver import assemble_and_solve_eps, solve_linear
from diffusepde.tensors import Decomposition, Tensor4


def manufactured_table(resolutions):
    eta = np.array([1.0, 0.5])
    eta /= np.linalg.norm(eta)
    print("# manufactured smooth solve, componentwise trace tensor")
    print("resolution,h,l2_error,rate")
    prev = None
    for res in resolutions:
        dom = Domain.unit_square(res)
        x = dom.node_coords()
        base = np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
        ustar = GridFunction(dom, base[..., None] * eta)
        f = GridFunction(dom, -2 * np.pi**2 * ustar.values)
        u = assemble_and_solve_eps(Tensor4.laplacian(2, 2), f, dom)
        err = (u - ustar).l2_norm()
        rate = "" if prev is None else f"{np.log2(prev / err):.3f}"
        print(f"{res},{dom.spacing!r},{err!r},{rate}")
        prev = err


def disc_table(resolutions, eps_seq):
    dec = Decomposition((np.array([[1.0]]),), (np.diag([0.0, 1.0]),))
    print("# degenerate one-directional solve on the disc vs explicit solution")
    print("resolution,f,rel_l2_error,final_residual")
    for res in resolutions:
        dom = Domain.unit_disc(res)
        for name, fc in (("1", lambda x1, x2: np.ones_like(x1)),
                         ("x2", lambda x1, x2: x2)):
            f = GridFunction.from_callable(
                dom, lambda x: fc(x[..., 0], x[..., 1])[..., None])
            fd, rep = solve_linear(dec, f, eps_seq)
            ref = disc_explicit_solution(
                lambda x1, x2: float(fc(np.asarray(x1), np.asarray(x2))),
                res).grids["solution"]
            rel = (fd.sigma_u - ref).l2_norm() / ref.l2_norm()
            print(f"{res},{name},{rel!r},{rep.final_residual!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolutions", default="32,64,128")
    ap.add_argument("--eps-seq", default="0.1,0.01,0.001,0.0001")
    args = ap.parse_args()
    res = [int(r) for r in args.resolutions.split(",")]
    eps = [float(e) for e in args.eps_seq.split(",")]
    manufactured_table(res)
    print()
    disc_table(res, eps)


if __name__ == "__main__":
    main()
