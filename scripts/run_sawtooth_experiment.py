#!/usr/bin/env python3
"""Sawtooth experiment: constant-gradient-norm identities and the residual
cascade of the supremal-energy system checker under window refinement."""

import argparse

import numpy as np

from diffusepde.checker import check_dsolution, infinity_laplace_system
from diffusepde.frames import build_frame, difference_quotient_1, window_cascade
from diffusepde.reference import fold_distance_mask, sawtooth_map


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--amplitude", type=float, default=1.0)
    ap.add_argument("--folds", type=int, default=2)
    ap.add_argument("--resolution", type=int, default=256)
    ap.add_argument("--levels", type=int, default=3)
    args = ap.parse_args()

    case = sawtooth_map(args.amplitude, args.folds, args.resolution)
    u = case.grids["map"]
    dom = u.domain
    h = dom.spacing
    M = args.amplitude

    fr = build_frame("standard", N=2, n=2)
    q = difference_quotient_1(u, fr, h)
    keep = fold_distance_mask(dom, args.folds, 2 * h) & dom.interior_mask(2 * h)
    P = q.values.reshape(dom.shape + (2, 2))[keep]
    norms = np.einsum("cai,cai->c", P, P)
    dets = np.abs(np.linalg.det(P))
    print(f"off-fold cells: {keep.sum()}")
    print(f"|Du|^2 residual (target {2 * M**2}): {np.abs(norms - 2 * M**2).max():.3e}")
    print(f"|det Du| residual (target {M**2}): {np.abs(dets - M**2).max():.3e}")

    F = infinity_laplace_system(2)
    # steps below the lattice spacing are dropped, and so is a level left empty
    windows = window_cascade(16 * h, args.levels, 3, 0.5, 2, h)
    rep = check_dsolution(u, F, fr, windows)
    print("\nlevel,h_level,pairing_residual")
    for lvl, val in enumerate(rep.residuals["pairing"]):
        print(f"{lvl},{rep.levels[lvl]!r},{val!r}")
    print(f"\nfinest pairing residual vs 1e-3*M^3: "
          f"{rep.residuals['pairing'][-1]:.3e} vs {1e-3 * M**3:.3e}")


if __name__ == "__main__":
    main()
