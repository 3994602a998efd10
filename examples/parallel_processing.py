"""Multi-core MIO processing (Section IV of the paper).

Shows the partitioning schemes behind the paper's parallel speedups: the
cost-based greedy plans balance load where naive hash/object partitioning
cannot.  The schedule study (``repro.bench.schedule``) quantifies each
plan's quality deterministically: every task runs serially, its measured
cost is charged to the core the plan chose, and a phase reports the
makespan of that schedule (see DESIGN.md §5 for why speedups are simulated
rather than thread-measured under CPython's GIL).  Every real query runs
the serial engine.

Run:  python examples/parallel_processing.py
"""

from repro import MIOEngine, make_powerlaw
from repro.bench.schedule import simulate_query


def main() -> None:
    # A skewed dataset -- the regime where load balancing matters.
    collection = make_powerlaw(n=600, mean_points=12, extent=1500.0,
                               n_communities=25, seed=5)
    print(f"dataset: {collection}")

    r = 5.0
    serial = MIOEngine(collection).query(r)
    print(f"\nserial BIGrid: o_{serial.winner} with score {serial.score} "
          f"in {serial.total_time * 1e3:.0f} ms")

    print("\nsimulated parallel run time by core count "
          "(LB-greedy-d + UB-greedy-p, the paper's winners):")
    print(f"{'cores':>5} | {'makespan [ms]':>13} | {'serial [ms]':>11} | speedup")
    for cores in (1, 2, 4, 8, 12):
        result = simulate_query(collection, r, cores)
        assert result.score == serial.score  # exactness is never traded
        makespan = result.total_time
        serial_cost = sum(
            seconds for key, seconds in result.extra.items()
            if key.startswith("serial:")
        )
        print(f"{cores:>5} | {makespan * 1e3:>13.1f} | {serial_cost * 1e3:>11.1f} | "
              f"{serial_cost / makespan:.2f}x")

    print("\npartitioning strategies at 8 cores (phase makespans, ms):")
    print(f"{'strategy':<28} | {'lower':>8} | {'upper':>8}")
    for lb, ub in (("greedy-d", "greedy-p"), ("hash-p", "greedy-p"),
                   ("greedy-d", "greedy-d")):
        result = simulate_query(collection, r, 8, lb_strategy=lb, ub_strategy=ub)
        print(f"LB-{lb:<10} UB-{ub:<10} | "
              f"{result.phases['lower_bounding'] * 1e3:>8.2f} | "
              f"{result.phases['upper_bounding'] * 1e3:>8.2f}")
    print("\nthe cost-based greedy plans (the first row) are the paper's "
          "Fig. 8 winners.")


if __name__ == "__main__":
    main()
