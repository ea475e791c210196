"""GPU disaggregation: a batch GPU job shares its nodes with GPU functions.

Runs the smallest fig12 point: the GPU versions of LULESH and MILC keep
their devices busy while a Rodinia kernel (``bfs``), standing in for a
GPU function on one spare core, co-locates with them (Sec. III-D,
Fig. 12).  Prints each batch job's slowdown and the cost saved by
requesting 9 of 12 cores.

Run:  python examples/gpu_sharing.py
"""

from repro.sweep import run_sweep


def main() -> None:
    print(run_sweep("fig12", rodinia_keys=("bfs",)).format_report())


if __name__ == "__main__":
    main()
