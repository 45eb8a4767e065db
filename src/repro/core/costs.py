"""Per-box cost accounting for the dynamic load balancer.

Two cost sources, matching the paper's "number of heuristics and measured
runtime cost information":

* a heuristic model ``alpha * cells + beta * particles`` — the same
  weighting the WarpX figure-of-merit uses (mesh work vs particle work);
* exponentially smoothed measured runtimes per box.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np


class CostModel:
    """Heuristic + measured cost tracking for a set of boxes.

    Parameters
    ----------
    alpha, beta:
        Relative weight of one cell vs one macroparticle (the paper's FOM
        uses 0.1 / 0.9).
    smoothing:
        Exponential-moving-average factor applied to measured samples.
    """

    def __init__(self, alpha: float = 0.1, beta: float = 0.9, smoothing: float = 0.5) -> None:
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.smoothing = float(smoothing)
        self._measured: Dict[int, float] = {}

    def heuristic(self, n_cells: Sequence[int], n_particles: Sequence[int]) -> np.ndarray:
        """Cost per box from cell and particle counts."""
        cells = np.asarray(n_cells, dtype=np.float64)
        particles = np.asarray(n_particles, dtype=np.float64)
        return self.alpha * cells + self.beta * particles

    def record_measured(self, box_id: int, seconds: float) -> None:
        """Fold one measured runtime sample into the EMA for ``box_id``."""
        prev = self._measured.get(box_id)
        if prev is None:
            self._measured[box_id] = float(seconds)
        else:
            s = self.smoothing
            self._measured[box_id] = s * float(seconds) + (1.0 - s) * prev

    def measured(self, box_ids: Sequence[int], default: float = 0.0) -> np.ndarray:
        """Measured EMA cost per box (``default`` where no sample exists)."""
        return np.array(
            [self._measured.get(b, default) for b in box_ids], dtype=np.float64
        )
