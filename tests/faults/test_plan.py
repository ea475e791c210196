"""FaultPlan / FaultEvent: plain data, validated, JSON round-trippable."""

import pytest

from repro.faults import FaultEvent, FaultKind, FaultPlan


def sample_plan():
    return (
        FaultPlan(name="sample")
        .node_crash(at_s=5.0, node="n0001", duration_s=20.0, immediate=False)
        .lease_storm(at_s=8.0, count=4)
        .network_degrade(at_s=12.0, duration_s=3.0, latency_factor=10.0,
                         bandwidth_factor=0.25, drop_rate=0.05)
        .network_partition(at_s=13.0, duration_s=2.0, node="n0002")
        .straggler(at_s=14.0, duration_s=1.0, multiplier=30.0)
        .warmpool_pressure(at_s=15.0, fraction=0.5)
        .memservice_kill(at_s=16.0)
        .gpu_device_loss(at_s=17.0, duration_s=5.0)
        .manager_crash(at_s=18.0, duration_s=4.0)
        .manager_partition(at_s=19.0, duration_s=2.0)
    )


def test_fluent_builders_cover_the_taxonomy():
    plan = sample_plan()
    assert len(plan) == 10
    assert [ev.kind for ev in plan] == list(FaultKind.ALL)
    assert not plan.empty
    assert FaultPlan().empty


def test_sorted_events_is_stable_on_ties():
    plan = (FaultPlan()
            .lease_storm(at_s=2.0, count=1)
            .lease_storm(at_s=1.0, count=2)
            .lease_storm(at_s=1.0, count=3))
    ordered = plan.sorted_events()
    assert [ev.at_s for ev in ordered] == [1.0, 1.0, 2.0]
    # The two t=1.0 events keep their plan order.
    assert [ev.count for ev in ordered] == [2, 3, 1]


def test_json_round_trip_preserves_every_field():
    plan = sample_plan()
    clone = FaultPlan.from_json(plan.to_json())
    assert clone.name == plan.name
    assert clone.events == plan.events


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "plan.json"
    plan = sample_plan()
    path.write_text(plan.to_json())
    assert FaultPlan.load(str(path)).events == plan.events


def test_from_dict_defaults():
    plan = FaultPlan.from_dict({})
    assert plan.empty and plan.name == "plan"
    event = FaultEvent.from_dict({"kind": "lease_storm", "at_s": 1.0})
    assert event.count == 1 and event.duration_s == 0.0


@pytest.mark.parametrize("kwargs", [
    {"kind": "power_surge", "at_s": 0.0},            # unknown kind
    {"kind": "node_crash", "at_s": -1.0},            # negative time
    {"kind": "node_crash", "at_s": 0.0, "duration_s": -1.0},
    {"kind": "straggler", "at_s": 0.0, "magnitude": 0.0},
    {"kind": "network_degrade", "at_s": 0.0, "bandwidth_factor": 0.0},
    {"kind": "network_degrade", "at_s": 0.0, "drop_rate": 1.5},
    {"kind": "lease_storm", "at_s": 0.0, "count": 0},
    {"kind": "warmpool_pressure", "at_s": 0.0, "magnitude": 2.0},  # fraction > 1
])
def test_event_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        FaultEvent(**kwargs)
