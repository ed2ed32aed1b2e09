#!/usr/bin/env python3
"""Factorization scaling of the solver's operator: factor time and stored
factor entries of the regularized operator factored whole (the reference:
one coupled SuperLU LU, minimum degree on A + A^T) against the solver's
split factorization (one factor per distinct decoupled component group),
for the coupled random tensor and the diagonal tensor of the benchmark's
``solve`` workload at seed 7 and the scalar Laplacian, on the
``--dim``-dimensional unit box.

Each row names its paths: ``lu`` (the reference's SuperLU factor),
``torus`` (capacitance-matrix factors on the torus, the 2-D groups that
are not spectral where it costs less than the band), ``band`` (band
Cholesky factors: off 2-D lattices, and the other 2-D groups) and
``spectral`` (sine transform factors, which store no entries), joined by
``+`` when the split factors take several.  ``entries`` counts the L+U
nonzeros of an ``lu`` factor, the stored LU entries of a ``torus``
factor's bordered capacitance system and the stored band entries of a
``band`` factor.

Run as ``PYTHONPATH=src python scripts/run_lu_scaling.py --resolution 128``
(or ``--dim 3 --resolution 24``).  Times are the best of ``--repeat``
factorizations, in one thread.
"""

import argparse
import time

import numpy as np
import scipy.sparse.linalg as spla

from diffusepde.grids import Domain
from diffusepde.solver import BandCholesky, DiscreteOperator, SineFactor, TorusFactor
from diffusepde.tensors import (Decomposition, canonicalize_decomposition,
                                random_decomposition, regularize)


def tensors(seed, dim):
    """The coupled random decomposition drawn first from ``seed``, the
    diagonal decomposition of acceptance criterion 6 (each component's
    second derivative along the first axis) and the scalar Laplacian."""
    first = np.diag([1.0] + [0.0] * (dim - 1))
    return {"coupled": random_decomposition(np.random.default_rng(seed), 2, dim),
            "diagonal": Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                                      (first, first)),
            "laplacian": Decomposition((np.eye(1),), (np.eye(dim),))}


def best(setup, factor, repeat):
    """Best wall time of ``factor(setup())`` over ``repeat`` calls, timing
    only ``factor``, and the last factorization (one alive at a time)."""
    times = []
    for _ in range(repeat):
        lu = None
        arg = setup()
        start = time.perf_counter()
        lu = factor(arg)
        times.append(time.perf_counter() - start)
    return min(times), lu


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolution", type=int, default=128)
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--eps", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    dom = Domain(shape=(args.resolution + 1,) * args.dim, spacing=1.0 / args.resolution,
                 origin=(0.0,) * args.dim)
    print("tensor,factorization,path,unknowns,factors,factor_s,entries")
    for name, dec in tensors(args.seed, args.dim).items():
        tensor = regularize(canonicalize_decomposition(dec), args.eps)
        op = DiscreteOperator(tensor, dom)
        whole_s, whole = best(lambda: op.matrix,
                              lambda A: spla.splu(A, permc_spec="MMD_AT_PLUS_A",
                                                  options={"SymmetricMode": True}),
                              args.repeat)
        whole_nnz = whole.nnz
        del whole
        split_s, split = best(lambda: DiscreteOperator(tensor, dom),
                              DiscreteOperator.factorize, args.repeat)
        names = {SineFactor: "spectral", TorusFactor: "torus", BandCholesky: "band"}
        path = "+".join(sorted({names[type(f)] for f, _ in split.factors}))
        size = op.matrix.shape[0]
        print(f"{name},whole,lu,{size},1,{whole_s:.3f},{whole_nnz}")
        print(f"{name},split,{path},{size},{len(split.factors)},{split_s:.3f},"
              f"{split.L.nnz + split.U.nnz}")


if __name__ == "__main__":
    main()
