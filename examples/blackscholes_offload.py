"""Black-Scholes offloading with the live runtime (the Fig. 13a story).

Runs the fig13 sweep's Black-Scholes point: a real option portfolio is
priced serially, fully remote on warm process executors, and on "doubled
resources" (local worker + remote executors, split by the Eq.-1 LogP
model through the offload dispatcher).  Prints the sweep's table, the
calibrated model and whether the three variants agree.

Run:  python examples/blackscholes_offload.py
"""

from repro.sweep import run_sweep


def main() -> None:
    result = run_sweep("fig13", workers=2, options=500_000, iterations=4,
                       particles=(), seed=7)
    print(result.format_report())
    (point,) = result.points
    print(f"\nEq. 1 calibration: T_local={point.t_local * 1e3:.1f} ms,"
          f" T_inv={point.t_inv * 1e3:.1f} ms, L={point.latency * 1e3:.2f} ms,"
          f" Data_inv={point.data_per_task / 1024:.0f} KiB"
          f" -> offloading profitable beyond N_local_min={point.n_local_min} tasks")
    assert point.checks_passed
    print("all three variants produced identical prices ✓")


if __name__ == "__main__":
    main()
