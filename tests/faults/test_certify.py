"""Chaos certification: checkers, schedules, and the ``certify`` sweep."""

import json

import numpy as np
import pytest

from repro.controlplane import LogRecord
from repro.faults import FaultKind, random_plan
from repro.faults.certify import (
    check_conservation,
    check_epoch_monotonic,
    check_no_double_grant,
    check_single_primary,
)
from repro.sweep import run_sweep


def _rec(index, op, payload, epoch=1):
    return LogRecord(index=index, epoch=epoch, op=op, at_s=float(index),
                     payload=payload)


def _register(index, node, cores=4, epoch=1):
    return _rec(index, "register",
                {"node": node, "registration": {"cores": cores}}, epoch)


def _grant(index, lease_id, node, cores=1, epoch=1):
    return _rec(index, "grant",
                {"lease_id": lease_id, "node": node, "cores": cores}, epoch)


# -- checker unit tests (synthetic logs) -------------------------------------

def test_conservation_flags_silent_drops():
    assert check_conservation(10, {"ok": 10}) == []
    assert check_conservation(10, {"ok": 8, "gave_up": 2}) == []
    problems = check_conservation(10, {"ok": 9})
    assert problems and "10" in problems[0] and "9" in problems[0]


def test_double_grant_is_flagged():
    log = [_register(1, "n0001"),
           _grant(2, 7, "n0001"),
           _grant(3, 7, "n0001")]
    problems = check_no_double_grant(log)
    assert len(problems) == 1 and "double grant" in problems[0]


def test_grant_after_release_is_clean():
    log = [_register(1, "n0001"),
           _grant(2, 7, "n0001"),
           _rec(3, "release", {"lease_id": 7}),
           _grant(4, 7, "n0001")]
    assert check_no_double_grant(log) == []


def test_overcommit_and_unregistered_node_are_flagged():
    log = [_register(1, "n0001", cores=2),
           _grant(2, 1, "n0001", cores=2),
           _grant(3, 2, "n0001", cores=1),
           _grant(4, 3, "n0002", cores=1)]
    problems = check_no_double_grant(log)
    assert any("over-committed" in p for p in problems)
    assert any("unregistered node n0002" in p for p in problems)


def test_remove_frees_the_node_and_its_leases():
    log = [_register(1, "n0001", cores=2),
           _grant(2, 1, "n0001", cores=2),
           _rec(3, "remove", {"node": "n0001"}),
           _register(4, "n0001", cores=2),
           _grant(5, 2, "n0001", cores=2)]
    assert check_no_double_grant(log) == []


def test_single_primary_flags_duplicate_and_regressing_epochs():
    class E:
        def __init__(self, epoch, rank):
            self.epoch, self.rank = epoch, rank

    assert check_single_primary([E(1, 0), E(2, 1)]) == []
    assert any("elected twice" in p
               for p in check_single_primary([E(2, 0), E(2, 1)]))
    assert any("did not advance" in p
               for p in check_single_primary([E(3, 0), E(2, 1)]))


def test_epoch_monotonic_flags_regressions():
    good = [_rec(1, "grant", {"lease_id": 1}, epoch=1),
            _rec(2, "grant", {"lease_id": 2}, epoch=3)]
    assert check_epoch_monotonic(good) == []
    bad = good + [_rec(3, "grant", {"lease_id": 3}, epoch=2)]
    problems = check_epoch_monotonic(bad)
    assert problems and "backwards" in problems[0]


# -- randomized schedules ----------------------------------------------------

def test_random_plan_is_seed_deterministic():
    a = random_plan(np.random.default_rng(42), events=12)
    b = random_plan(np.random.default_rng(42), events=12)
    assert a.to_json() == b.to_json()
    c = random_plan(np.random.default_rng(43), events=12)
    assert a.to_json() != c.to_json()


def test_random_plan_draws_from_the_whole_taxonomy():
    plan = random_plan(np.random.default_rng(0), events=200)
    assert {ev.kind for ev in plan} == set(FaultKind.ALL)
    assert all(0.0 < ev.at_s < 0.85 * 8.0 + 1e-9 for ev in plan)


def test_random_plan_respects_a_kind_subset():
    plan = random_plan(np.random.default_rng(0), events=20,
                       kinds=(FaultKind.MANAGER_CRASH,))
    assert {ev.kind for ev in plan} == {FaultKind.MANAGER_CRASH}


# -- the certify sweep --------------------------------------------------------

def test_certify_clean_run_passes_every_invariant():
    result = run_sweep("certify", budget=1, seed=0, standbys=1, window_s=5.0)
    (point,) = result.points
    assert point.violations == []
    assert point.invocations > 0
    assert set(point.invariants) == {
        "conservation", "no_double_grant", "single_primary", "epoch_monotonic",
    }
    assert "PASS" in result.format_report()


def test_certify_is_deterministic_across_calls():
    a = run_sweep("certify", budget=2, seed=7, standbys=1, window_s=5.0)
    b = run_sweep("certify", budget=2, seed=7, standbys=1, window_s=5.0)
    assert a.to_json() == b.to_json()


def test_certify_k0_loses_work_but_never_lies_about_it():
    """Zero standbys lose invocations to a manager crash — but the loss
    is *accounted* (conservation holds): nothing silently vanishes."""
    result = run_sweep("certify", budget=2, seed=3, standbys=0, window_s=5.0,
                       kinds=(FaultKind.MANAGER_CRASH, FaultKind.LEASE_STORM))
    # invariants hold even while work is lost
    assert not any(point.violations for point in result.points)
    assert any(point.completion_ratio < 0.9 for point in result.points)


def test_certify_report_serializes():
    result = run_sweep("certify", budget=1, seed=0, standbys=1, window_s=5.0)
    payload = json.loads(result.to_json())
    assert payload["budget"] == 1
    assert payload["points"] == result.to_dict()["points"]
    assert not any(problems for point in payload["points"]
                   for problems in point["invariants"].values())


def test_certify_rejects_nothing_silently():
    with pytest.raises(TypeError):
        run_sweep("certify", budget=1, bogus_kwarg=True)


def test_certify_rejects_an_empty_budget():
    """Zero schedules would certify nothing: a vacuous pass."""
    with pytest.raises(ValueError, match="budget must be >= 1"):
        run_sweep("certify", budget=0)


def test_certify_rejects_an_empty_taxonomy():
    """An empty ``kinds`` must not silently mean the whole taxonomy."""
    with pytest.raises(ValueError, match="kinds must name at least one"):
        run_sweep("certify", budget=1, kinds=())
