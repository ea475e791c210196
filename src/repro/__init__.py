"""repro — software resource disaggregation for HPC with serverless computing.

A full reproduction of Copik et al., "Software Resource Disaggregation
for HPC with Serverless Computing" (IPDPS 2024): an HPC-specialized FaaS
platform (rFaaS model) co-located with a SLURM-like batch system on a
simulated Cray-class cluster, plus a live process-based runtime for the
offloading case studies.

Package map (see DESIGN.md for the full inventory):

- ``repro.sim``          deterministic discrete-event engine
- ``repro.cluster``      nodes, hardware presets, dragonfly topology
- ``repro.slurm``        batch jobs, EASY-backfill scheduler, workloads
- ``repro.network``      LogGP model, fabric providers, RDMA transport, DRC
- ``repro.containers``   images, runtimes (Table II), warm pools
- ``repro.storage``      Lustre / object-store / tiered function I/O
- ``repro.rfaas``        the serverless platform: leases, executors, manager
- ``repro.memservice``   durable RMA memory functions, remote paging
- ``repro.gpu``          GPU device model and GPU functions
- ``repro.interference`` demand vectors and the contention model
- ``repro.colocation``   history DB, admission policy
- ``repro.disagg``       the disaggregation controller, billing, metrics
- ``repro.offload``      Eq.-1 planner, live dispatcher
- ``repro.local``        real multiprocessing-based function runtime
- ``repro.workloads``    app demand models + Fig. 13's numpy kernels
- ``repro.experiments``  one module per paper table/figure
- ``repro.sweep``        parallel sweep fabric: fan scenarios out, merge in order
- ``repro.analysis``     utilization statistics, report tables
"""

__version__ = "1.0.0"

__all__ = [
    "sim",
    "cluster",
    "slurm",
    "network",
    "containers",
    "storage",
    "rfaas",
    "memservice",
    "gpu",
    "interference",
    "colocation",
    "disagg",
    "offload",
    "local",
    "workloads",
    "experiments",
    "sweep",
    "analysis",
]
