"""The ``python`` kernel: the original per-point code paths, kept as the
reference oracle.

Every operation delegates to the module that owned it before the kernel
layer existed (``BIGrid.build``, ``compute_lower_bounds``,
``compute_upper_bounds``, and verification's einsum distance check), so
this backend *is* the pre-kernel behavior — the conformance suite holds
every other backend to it bit-for-bit.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core import verification
from repro.core.lower_bound import compute_lower_bounds
from repro.core.upper_bound import compute_upper_bounds
from repro.grid.bigrid import BIGrid
from repro.grid.keys import compute_keys
from repro.kernels.base import KernelBackend


class PythonKernel(KernelBackend):
    """Reference backend: Algorithms 3-6 exactly as originally written."""

    name = "python"

    def cell_keys(self, points: np.ndarray, width: float) -> List[tuple]:
        return compute_keys(points, width)

    def build_bigrid(
        self,
        collection,
        r: float,
        backend: str = "ewah",
        labels=None,
        deadline=None,
    ) -> BIGrid:
        return BIGrid.build(
            collection,
            r,
            backend=backend,
            point_filter=labels.grid_mask if labels is not None else None,
            deadline=deadline,
        )

    def lower_bounds(self, bigrid, stats=None, deadline=None):
        return compute_lower_bounds(bigrid, stats=stats, deadline=deadline)

    def upper_bounds(
        self, bigrid, tau_max_low, labels=None, labeler=None, stats=None,
        deadline=None,
    ):
        return compute_upper_bounds(
            bigrid,
            tau_max_low,
            upper_masks=labels.upper_mask if labels is not None else None,
            labeler=labeler,
            stats=stats,
            deadline=deadline,
        )

    def verify_candidates(
        self,
        bigrid,
        candidates,
        r,
        k=1,
        seeds=None,
        verify_masks=None,
        labeler=None,
        stats=None,
        deadline=None,
    ):
        return verification.verify_candidates(
            bigrid,
            candidates,
            r,
            k=k,
            seeds=seeds,
            verify_masks=verify_masks,
            labeler=labeler,
            stats=stats,
            deadline=deadline,
            kernel=None,
        )

    def any_within(
        self, candidate_points: np.ndarray, point: np.ndarray, r_squared: float
    ) -> bool:
        diff = candidate_points - point
        return bool(np.einsum("ij,ij->i", diff, diff).min() <= r_squared)


#: The shared reference instance (kernels are stateless; one is enough).
PYTHON_KERNEL = PythonKernel()
