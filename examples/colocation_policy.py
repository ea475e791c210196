"""The co-location policy learning loop (Sec. III-E, Fig. 4).

Walks through the paper's decision pipeline for a MILC batch job sharing
its node with candidate NAS functions:

1. first encounters fall back to the *heuristic* (interference-model
   preview — resource requirement modeling);
2. observed co-locations are recorded in the global history DB;
3. subsequent decisions use the *history* as the primary metric —
   including rejecting a pair the heuristic would have admitted, once a
   bad experience is on record.

Run:  python examples/colocation_policy.py
"""

from repro.cluster import Cluster, DAINT_MC
from repro.colocation import CoLocationPolicy, Decision, PolicyConfig
from repro.interference import InterferenceModel
from repro.rfaas import NodeLoadRegistry
from repro.workloads import milc_model, nas_model

CANDIDATES = ("ep.W", "bt.W", "mg.W", "cg.A")


def main() -> None:
    cluster = Cluster()
    cluster.add_nodes("n", 1, DAINT_MC)
    node = cluster.node("n0000")
    loads = NodeLoadRegistry(cluster)
    model = InterferenceModel()
    policy = CoLocationPolicy(loads, config=PolicyConfig(max_batch_slowdown=1.05))

    # The batch job: MILC, 16 ranks, memory-bandwidth heavy.
    batch = milc_model(16, gpu=False).demand(16)
    loads.add("n0000", "batch", batch)
    node.allocate("milc-job", cores=16, kind="batch")
    batch_alone = model.slowdowns(DAINT_MC, [batch])[0]

    print("round 1 — no history, heuristic decides:")
    for key in CANDIDATES:
        demand = nas_model(key).demand(4)
        decision = policy.decide(node, demand, "milc")
        print(f"  {key:6s} -> {decision.value}")
        # Simulate actually running the admitted pairs and record what
        # happened (the feedback edge of Fig. 4).
        if decision.admitted:
            both = model.slowdowns(DAINT_MC, [batch, demand])
            policy.observe(
                "milc", key,
                batch_slowdown=max(1.0, both[0] / batch_alone),
                function_slowdown=max(
                    1.0, both[1] / model.slowdowns(DAINT_MC, [demand])[0]
                ),
            )

    # Suppose operations also ran MILC+cg.A elsewhere (or with an older,
    # laxer policy) and it went badly — the history now knows.
    policy.observe("milc", "cg.A", batch_slowdown=1.22, function_slowdown=1.6)

    print("\nhistory after round 1:")
    for key in CANDIDATES:
        slow = policy.history.expected_batch_slowdown("milc", key)
        if slow is not None:
            print(f"  milc + {key:6s}: mean batch slowdown {slow:.3f}")

    print("\nround 2 — history is the primary metric:")
    for key in CANDIDATES:
        demand = nas_model(key).demand(4)
        decision = policy.decide(node, demand, "milc")
        source = "history" if policy.history.has("milc", key) else "heuristic"
        print(f"  {key:6s} -> {decision.value:18s} (decided by {source})")

    print("\ndecision counters:", {
        d.value: n for d, n in policy.decisions.items() if n
    })


if __name__ == "__main__":
    main()
