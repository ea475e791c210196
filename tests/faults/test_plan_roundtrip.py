"""FaultPlan JSON round-trips: every builder, every kind, exact fields.

The ``repro sweep chaos --plan`` / ``repro certify`` workflows ship plans
through JSON files; a field silently dropped (or defaulted differently)
on the way back would replay a *different* storm than the one reviewed.
Round-tripping every fluent builder pins the serialization contract.
"""

import pytest

from repro.faults import FaultEvent, FaultKind, FaultPlan


def full_plan() -> FaultPlan:
    """One event per builder, every non-default knob set."""
    return (FaultPlan(name="everything")
            .node_crash(at_s=1.0, node="n0001", duration_s=4.0, immediate=False)
            .lease_storm(at_s=2.0, count=5)
            .network_degrade(at_s=3.0, duration_s=2.0, latency_factor=7.5,
                             bandwidth_factor=0.4, drop_rate=0.03)
            .network_partition(at_s=4.0, duration_s=1.5, node="n0002")
            .straggler(at_s=5.0, duration_s=2.5, multiplier=12.0, node="n0003")
            .warmpool_pressure(at_s=6.0, fraction=0.75, node="n0001", swap=False)
            .memservice_kill(at_s=7.0, node="n0002")
            .gpu_device_loss(at_s=8.0, node="n0003", duration_s=3.0)
            .manager_crash(at_s=9.0, duration_s=2.0)
            .manager_partition(at_s=10.0, duration_s=1.0))


def test_every_builder_covers_a_distinct_taxonomy_kind():
    plan = full_plan()
    assert [ev.kind for ev in plan] == list(FaultKind.ALL)


def test_json_round_trip_is_lossless():
    plan = full_plan()
    clone = FaultPlan.from_json(plan.to_json())
    assert clone.name == plan.name
    assert len(clone) == len(plan)
    for original, restored in zip(plan, clone):
        assert restored == original  # frozen dataclass: field-exact


def test_dict_round_trip_is_lossless():
    plan = full_plan()
    assert FaultPlan.from_dict(plan.to_dict()).to_dict() == plan.to_dict()


def test_file_round_trip(tmp_path):
    path = tmp_path / "plan.json"
    plan = full_plan()
    plan.save(str(path))
    loaded = FaultPlan.load(str(path))
    assert loaded.to_json() == plan.to_json()


def test_manager_events_round_trip_their_duration():
    plan = (FaultPlan(name="mgr")
            .manager_crash(at_s=1.0, duration_s=2.5)
            .manager_partition(at_s=3.0, duration_s=0.5))
    clone = FaultPlan.from_json(plan.to_json())
    crash, partition = list(clone)
    assert crash.kind == FaultKind.MANAGER_CRASH
    assert crash.duration_s == 2.5 and crash.node is None
    assert partition.kind == FaultKind.MANAGER_PARTITION
    assert partition.duration_s == 0.5


def test_unknown_kind_raises_and_names_the_taxonomy():
    with pytest.raises(ValueError) as exc:
        FaultEvent(kind="power_outage", at_s=1.0)
    message = str(exc.value)
    assert "power_outage" in message
    for kind in FaultKind.ALL:
        assert kind in message  # the error teaches the valid vocabulary


def test_unknown_kind_rejected_on_deserialization_too():
    data = {"name": "bad", "events": [{"kind": "power_outage", "at_s": 1.0}]}
    with pytest.raises(ValueError):
        FaultPlan.from_dict(data)


def test_shifted_preserves_round_trip_equality():
    shifted = full_plan().shifted(2.5)
    assert FaultPlan.from_json(shifted.to_json()).to_dict() == shifted.to_dict()
    assert [ev.at_s for ev in shifted] == [
        at + 2.5 for at in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]]
