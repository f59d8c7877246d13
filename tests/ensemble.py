"""The mixed state of a branch ensemble, for comparing ``run_branches``
with the deferred-measurement oracle.

Not part of ``oracles.py``, which stays independent of the package's
execution path: this reads the ``BranchOutcome`` values that
``run_branches`` returns.
"""

from __future__ import annotations

import numpy as np


def branch_density(outcomes) -> np.ndarray:
    """Mixed output state of a branch ensemble: sum of p |phi><phi|."""
    dim = outcomes[0].final_state.amplitudes.size
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for o in outcomes:
        v = o.final_state.amplitudes
        rho += o.probability * np.outer(v, v.conj())
    return rho
