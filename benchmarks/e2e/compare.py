"""``run.py compare A.json B.json``: parent (A) against change (B).

One row per (workload, metric) present in both files: each side's median
and quartiles over its runs, the ratio B/A printed with its base, and a
verdict under the bounds BENCHMARK.json fixes:

* ``better``     -- B wins at least 9 of every 10 pairs (runs paired by
  seed, ties counting for neither) and the medians differ by more than
  A's own quartile spread;
* ``worse``      -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- the run-to-run spread (quartile distance over median,
  either side) exceeds the bound, unless every B run beats every A run;
* ``worse-in-bound`` -- the mirror of ``better``: B loses at least 9 of
  every 10 pairs by more than A's quartile spread, but by less than the
  bound.  Not a regression; shown so a steady loss inside the bound is
  not read as ``unchanged``;
* ``unchanged``  -- none of the above.

Per-layer metrics carry no bound: they get ``better``/``worse`` by the
pair rule alone, else ``~``.  Each workload also gets an ``error_rate``
row (failed / attempted over all its runs) whose bound is zero: any
failed op in B reads ``worse``.  Exit status 1 means some end-to-end
metric read ``worse``; 2 means the files cannot be compared, because
their runs used different windows or smoke settings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from stats import percentile

#: Provenance fields that should agree for two results to be comparable.
COMPARABLE = ("cpu_count", "python", "numpy", "scipy", "kernel", "platform")
#: Run fields that must agree: they change what a run measures.
REQUIRED_EQUAL = ("seconds", "smoke")


def _load(path: Path) -> List[dict]:
    return json.loads(path.read_text())["runs"]


def _series(runs: Sequence[dict]) -> Dict[Tuple[str, str], List[Tuple[int, float]]]:
    series: Dict[Tuple[str, str], List[Tuple[int, float]]] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            series.setdefault((run["workload"], name), []).append((run["seed"], metric["value"]))
    return series


def _pairs(a: List[Tuple[int, float]], b: List[Tuple[int, float]]) -> List[Tuple[float, float]]:
    """Pair runs by seed when the seeds match, else by position."""
    by_seed = dict(b)
    if len(by_seed) == len(b) and all(seed in by_seed for seed, _ in a):
        return [(value, by_seed[seed]) for seed, value in a]
    return [(x, y) for (_, x), (_, y) in zip(a, b)]


def verdict(
    a: List[Tuple[int, float]],
    b: List[Tuple[int, float]],
    better: str,
    bound: Optional[float],
) -> str:
    """The comparison rule for one metric (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    a_values = [value for _, value in a]
    b_values = [value for _, value in b]
    a_med, b_med = percentile(a_values, 0.5), percentile(b_values, 0.5)
    a_iqr = percentile(a_values, 0.75) - percentile(a_values, 0.25)
    pairs = _pairs(a, b)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    gap = sign * (b_med - a_med)
    if pairs and wins >= 0.9 * len(pairs) and gap > a_iqr:
        return "better"
    steady_loss = bool(pairs) and losses >= 0.9 * len(pairs) and -gap > a_iqr
    if bound is None:
        return "worse" if steady_loss else "~"
    all_better = min(sign * v for v in b_values) > max(sign * v for v in a_values)
    all_worse = max(sign * v for v in b_values) < min(sign * v for v in a_values)
    worse_by = -gap / abs(a_med) if a_med else 0.0
    spread = max(_spread(a_values), _spread(b_values))
    if all_better:
        return "unchanged"
    if worse_by > bound and (all_worse or spread <= bound):
        return "worse"
    if spread > bound:
        return "unresolved"
    return "worse-in-bound" if steady_loss else "unchanged"


def _spread(values: List[float]) -> float:
    median = percentile(values, 0.5)
    if not median:
        return 0.0
    return (percentile(values, 0.75) - percentile(values, 0.25)) / abs(median)


def _describe(values: List[float]) -> str:
    return (
        f"{percentile(values, 0.5):>11.4g} [{percentile(values, 0.25):.4g}, "
        f"{percentile(values, 0.75):.4g}] n={len(values)}"
    )


def _error_rate(runs: Sequence[dict], workload: str) -> Tuple[int, int]:
    mine = [run for run in runs if run["workload"] == workload]
    return sum(run["failed"] for run in mine), sum(run["attempted"] for run in mine)


def main(argv: Sequence[str], bench: Dict[str, Any]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", flush=True)
        return 2
    catalog = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
    catalog.update({m["name"]: (m["unit"], m["better"], None) for m in bench["per_layer"]})
    runs_a, runs_b = _load(Path(argv[0])), _load(Path(argv[1]))
    for field in REQUIRED_EQUAL:
        seen = {run[field] for run in runs_a + runs_b}
        if len(seen) > 1:
            print(f"error: runs differ in {field}: {sorted(map(str, seen))}; "
                  "measure both sides with the same settings", flush=True)
            return 2
    for field in COMPARABLE:
        seen_a = {run["provenance"].get(field) for run in runs_a}
        seen_b = {run["provenance"].get(field) for run in runs_b}
        if seen_a != seen_b:
            print(f"# warning: provenance {field} differs: A={sorted(map(str, seen_a))} "
                  f"B={sorted(map(str, seen_b))}")
    series_a, series_b = _series(runs_a), _series(runs_b)
    regressions = 0
    print(f"{'workload':<14} {'metric':<34} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32}  {'B/A (base A)':<26} verdict")
    for workload in sorted({run["workload"] for run in runs_a} & {run["workload"] for run in runs_b}):
        failed_a, attempted_a = _error_rate(runs_a, workload)
        failed_b, attempted_b = _error_rate(runs_b, workload)
        outcome = "worse" if failed_b else "unchanged"
        regressions += failed_b > 0
        print(f"{workload:<14} {'error_rate':<34} {f'{failed_a}/{attempted_a}':>32} "
              f"{f'{failed_b}/{attempted_b}':>32}  {'bound 0 failed ops':<26} {outcome}")
    for key in sorted(set(series_a) & set(series_b)):
        workload, name = key
        if name not in catalog:
            continue
        unit, better, bound = catalog[name]
        a, b = series_a[key], series_b[key]
        a_med = percentile([v for _, v in a], 0.5)
        b_med = percentile([v for _, v in b], 0.5)
        ratio = f"{b_med / a_med:.3f}x of {a_med:.4g} {unit}" if a_med else f"- (A = 0 {unit})"
        outcome = verdict(a, b, better, bound)
        regressions += outcome == "worse" and bound is not None
        print(f"{workload:<14} {name:<34} {_describe([v for _, v in a]):>32} "
              f"{_describe([v for _, v in b]):>32}  {ratio:<26} {outcome}")
    return 1 if regressions else 0
