"""Per-phase speedup floors over the recorded kernel bench artifact.

``test_kernel_speedup.py`` measures paired python/numpy runs and writes
``results/BENCH_kernel_speedup.json``; this guard holds that artifact to
the kernel layer's perf contract so a regression in either vectorized op
fails CI instead of silently eroding the recorded numbers:

* **verification** and **lower_bounding** must not lose to the python
  reference on *any* recorded workload (these were the two losing ops
  before the batched verifier and the size-dispatched lower bounder),
  and neither may **grid_mapping**, which builds packed arrays only;
* **end-to-end** must clear 5x on at least one Fig. 6 ``s=0.5`` workload
  and stay above the headline 3x target on the best workload overall.

The floors are checked with a generous noise margin: CI machines are
shared and the cheapest phases run in tens of microseconds, so a floor
of ``F`` is enforced as ``speedup >= F * NOISE_MARGIN``.  The committed
artifact itself must meet the floors without the margin (that is the
acceptance bar when regenerating it); the margin only absorbs run-to-run
jitter when CI refreshes the JSON before running this guard.
"""

import json
from pathlib import Path

import pytest

RESULTS_PATH = (
    Path(__file__).parent / "results" / "BENCH_kernel_speedup.json"
)

#: Run-to-run jitter allowance for floors re-measured on shared CI
#: runners.  0.8 tolerates a 20% unlucky run while still catching any
#: real regression (the pre-fix states were 0.69x verification and
#: 0.49x lower-bounding -- far below the margin).
NOISE_MARGIN = 0.8

#: Phase floors enforced on every recorded workload.
PHASE_FLOORS = {
    "grid_mapping": 1.0,
    "verification": 1.0,
    "lower_bounding": 1.0,
}

#: At least one Fig. 6 sampled workload must clear this end to end.
SAMPLED_E2E_FLOOR = 5.0


@pytest.fixture(scope="module")
def artifact():
    if not RESULTS_PATH.exists():
        pytest.skip(
            "BENCH_kernel_speedup.json not found -- run "
            "benchmarks/test_kernel_speedup.py first"
        )
    with open(RESULTS_PATH) as handle:
        data = json.load(handle)
    assert data["bench"] == "kernel_speedup"
    assert data["workloads"], "artifact records no workloads"
    return data


def test_phase_floors_on_every_workload(artifact):
    failures = []
    for point in artifact["workloads"]:
        for phase, floor in PHASE_FLOORS.items():
            ratio = point["phase_speedups"].get(phase)
            assert ratio is not None, (point["workload"], phase)
            if ratio < floor * NOISE_MARGIN:
                failures.append(
                    f"{point['workload']}: {phase} speedup {ratio}x "
                    f"< floor {floor}x (margin {NOISE_MARGIN})"
                )
    assert not failures, "\n".join(failures)


def test_sampled_workload_clears_end_to_end_floor(artifact):
    sampled = [
        point for point in artifact["workloads"] if "s=0.5" in point["workload"]
    ]
    assert sampled, "artifact records no Fig. 6 s=0.5 workload"
    best = max(point["speedup"] for point in sampled)
    assert best >= SAMPLED_E2E_FLOOR * NOISE_MARGIN, (
        f"best s=0.5 end-to-end speedup {best}x below "
        f"{SAMPLED_E2E_FLOOR}x floor (margin {NOISE_MARGIN})"
    )


def test_headline_target_still_met(artifact):
    # The flagship >= 3x claim recorded by the speedup bench must hold on
    # the artifact as committed (no margin: this is the published number).
    best = max(point["speedup"] for point in artifact["workloads"])
    assert best >= artifact["target"]


def test_no_workload_loses_end_to_end(artifact):
    worst = min(point["speedup"] for point in artifact["workloads"])
    assert worst >= 1.0 * NOISE_MARGIN
