"""Cross-validation of the master-equation machinery.

Three independent consistency checks on the master-equation path:

1. the jump-map steady state that the sweeps and the optimizer use agrees
   with the dense Liouvillian's trace-constrained linear solve;
2. the linear (coherent) limit reproduces g2 = 1 and n = 4E^2/kappa^2;
3. sweep datasets for a published figure panel can be regenerated as
   CSV + JSON metadata, ready for plotting.
"""

import tempfile

import numpy as np

from blockade import FockBasis, weak_params
from blockade.lindblad import g2_mode, liouvillian, steady_rho, steady_state
from blockade.model import SystemParams
from blockade.sweep import figure_dataset


def main():
    # 1. jump map vs dense solve
    p = weak_params(delta=1e-3, lambda_gain=0.93e-6)
    basis = FockBasis(2, 2)
    rho_ss = steady_state(liouvillian(p, basis))
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(steady_rho(p, basis)
                                                  - rho_ss)))
    print("trace distance between jump-map and dense steady states: %.2e"
          % dist)

    # 2. coherent limit
    lin = SystemParams(kappa=0.002, drive_E=4e-5)
    basis5 = FockBasis(5, 5)
    g2, n = g2_mode(steady_state(liouvillian(lin, basis5)), basis5, 1)
    print("linear cavity: g2 = %.6f (expect 1), n = %.3e (expect %.3e)"
          % (g2, n, 4 * lin.drive_E ** 2 / lin.kappa ** 2))

    # 3. figure dataset regeneration
    with tempfile.TemporaryDirectory(prefix="figure2a_") as outdir:
        paths = figure_dataset("2a", outdir, points=41)
        print("figure 2(a) dataset written (then removed):")
        for path in paths:
            print("  ", path)


if __name__ == "__main__":
    main()
