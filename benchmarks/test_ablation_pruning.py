"""Ablation: what each stage of the filter-and-verification framework buys.

The paper's design stacks three mechanisms in front of exact scoring:
lower bounds (Lemma 1) set the pruning threshold, upper bounds (Theorem 2)
prune, and the best-first order enables early termination (Corollary 1).
This bench removes them one at a time on every dataset and reports how
many objects must be exactly verified:

* full pipeline            -- threshold = tau_max_low, early termination on
* no lower bounds          -- threshold 0: nothing pruned by Theorem 2
* no early termination     -- every candidate verified exactly

The full pipeline's "box-skipped" column counts the candidates dequeued
but skipped because their per-segment box bound could not beat the best
score (read from the verification result; nothing switches it off).
With every candidate kept in the top-k heap, none is skipped.

The exact answer must be identical in all configurations.
"""

from repro.bench.reporting import format_table
from repro.core.lower_bound import compute_lower_bounds
from repro.core.upper_bound import compute_upper_bounds
from repro.core.verification import verify_candidates
from repro.grid.bigrid import BIGrid

from conftest import ALL_DATASETS, DEFAULT_R


def _run(bigrid, r, use_lower, use_early):
    lower = compute_lower_bounds(bigrid)
    threshold = lower.tau_max if use_lower else 0
    upper = compute_upper_bounds(bigrid, tau_max_low=threshold)
    k = 1 if use_early else len(upper.candidates)
    verification = verify_candidates(bigrid, upper.candidates, r, k=k)
    best_score = verification.ranking[0][1]
    return (
        best_score,
        len(upper.candidates),
        verification.verified,
        verification.box_skipped,
    )


def test_ablation_pruning_stages(datasets, report, benchmark):
    def collect():
        rows = []
        for name in ALL_DATASETS:
            collection = datasets[name]
            bigrid = BIGrid.build(collection, r=DEFAULT_R)
            full = _run(bigrid, DEFAULT_R, use_lower=True, use_early=True)
            no_lower = _run(bigrid, DEFAULT_R, use_lower=False, use_early=True)
            no_early = _run(bigrid, DEFAULT_R, use_lower=True, use_early=False)
            assert full[0] == no_lower[0] == no_early[0]  # same exact answer
            rows.append(
                [
                    name,
                    collection.n,
                    full[1],
                    full[2],
                    full[3],
                    no_lower[1],
                    no_lower[2],
                    no_early[2],
                ]
            )
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    report(
        "ablation_pruning",
        format_table(
            [
                "dataset",
                "n",
                "candidates",
                "verified",
                "box-skipped",
                "cand (no LB)",
                "verified (no LB)",
                "verified (no ET)",
            ],
            rows,
            title=f"Ablation: pruning-stage contributions at r={DEFAULT_R}",
        ),
    )

    for (
        name, n, cand, verified, skipped, cand_no_lb, verified_no_lb, verified_no_et
    ) in rows:
        # Lower bounds prune: without them every object is a candidate.
        assert cand_no_lb == n
        assert cand <= cand_no_lb
        # Early termination saves verifications on every dataset.
        assert verified <= verified_no_et
        # The full pipeline verifies a strict minority of objects.
        assert verified < n
