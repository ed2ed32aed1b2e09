#!/usr/bin/env python3
"""LU scaling of the solver's operator: factor time and L+U nonzeros of the
regularized operator factored whole (one coupled LU, minimum degree on
A + A^T) against the solver's split factorization (one LU per distinct
decoupled component group), for the coupled and the diagonal tensor of the
benchmark's ``solve`` workload at seed 7.

Run as ``PYTHONPATH=src python scripts/run_lu_scaling.py --resolution 128``.
Times are the best of ``--repeat`` factorizations, in one thread.
"""

import argparse
import time

import numpy as np
import scipy.sparse.linalg as spla

from diffusepde.grids import Domain
from diffusepde.solver import DiscreteOperator, lattice_patterns
from diffusepde.tensors import (Decomposition, canonicalize_decomposition,
                                random_decomposition, regularize)


def tensors(seed):
    """The coupled random decomposition drawn first from ``seed`` and the
    diagonal decomposition of acceptance criterion 6."""
    return {"coupled": random_decomposition(np.random.default_rng(seed), 2, 2),
            "diagonal": Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                                      (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))}


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
    ap.add_argument("--eps", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    dom = Domain.unit_square(args.resolution)
    patterns = lattice_patterns(dom)
    print("tensor,factorization,unknowns,factors,factor_s,lu_nnz")
    for name, dec in tensors(args.seed).items():
        tensor = regularize(canonicalize_decomposition(dec), args.eps)
        op = DiscreteOperator(tensor, dom, patterns)
        whole_s, whole = best(lambda: op.matrix,
                              lambda A: spla.splu(A, permc_spec="MMD_AT_PLUS_A",
                                                  options={"SymmetricMode": True}),
                              args.repeat)
        whole_nnz = whole.nnz
        del whole
        split_s, split = best(lambda: DiscreteOperator(tensor, dom, patterns),
                              DiscreteOperator.factorize, args.repeat)
        size = op.matrix.shape[0]
        print(f"{name},whole,{size},1,{whole_s:.3f},{whole_nnz}")
        print(f"{name},split,{size},{len(split.factors)},{split_s:.3f},"
              f"{split.L.nnz + split.U.nnz}")


if __name__ == "__main__":
    main()
