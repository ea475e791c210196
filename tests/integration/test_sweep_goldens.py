"""Golden output of every registered sweep at a small plan.

The sha256 pins below were recorded from the per-sweep result classes
that predate :class:`repro.experiments.base.SweepResult`, so they prove
the generic result (typed points, column spec, title template, footer)
reproduces each sweep's JSON *and* report text byte-for-byte.  A second
pass feeds the same plans with int literals where the plan takes floats
(``window_s=4`` vs ``4.0``): ``plan_scenarios`` normalizes them, so the
JSON must not change.
"""

import hashlib

import pytest

from repro.sweep import run_sweep, sweep_names

#: name -> (plan_scenarios kwargs, sha256 of to_json(), sha256 of format_report())
GOLDENS = {
    "chaos": (
        dict(rates=(0.0, 8.0), window_s=4.0),
        "299bcbac506c52e62f42379e471c6a0b3588aafbadd9ff1844be44eeeb0e799a",
        "eccd71ce909fcde47c4beeec8f90a051ab76709cfc23f69c29e06bf9a7c25435",
    ),
    "autoscale": (
        dict(loads=(1.0, 4.0), window_s=4.0),
        "64752beaa1033098608bf1e4e8249b445b99453437b338731ceb07dd27d6f53c",
        "bb1ab63aa9e01b64dd567debd3212a7878f3023b113353ec78528f4a4991f178",
    ),
    "memdurability": (
        dict(factors=(1, 2), window_s=4.0, accesses=40),
        "ec11d564a643591490cb4c89fb89243de83b10dce865df18705f671b1c3cace4",
        "23d59f9d371f596b42423c4e2044539e6ffb07142a3ad93dad0fd69cd4ddc18a",
    ),
    "gpu_scaling": (
        dict(batch_sizes=(1, 8), requests=64),
        "ecae7b92b7946fa92834b519b62ee40904371b6aa3e2540d43c0cba7faadd3cd",
        "cb0992cd0afc13d817dd5449018e3f10db8ab0d83dc3181bb0aa2e94a9a23143",
    ),
    "manager_failover": (
        dict(standbys=(0, 1), window_s=4.0),
        "8be948abd19e4fee07a5eebf54656a815b4e36acb3a6c70b61040941e9b0cec6",
        "f96a992f66a3c64ae3837f8770ba015a6f31b75595d7c17731fcf65151c583d0",
    ),
    "loadstorm": (
        dict(shards=(1, 2), window_s=2.0, rate_per_s=600.0, population=50000),
        "01ee6ade635b0ecbdfc47b4c14616f16dc38923a67d708dc4fb5f6045f25e415",
        "a1a3565654f3a2dfa6cbdeea45fa55bd0dfacc6a0b716963dfb936c4f10ad98b",
    ),
}

#: The same plans, spelled with int literals for every float argument.
INT_LITERALS = {
    "chaos": dict(rates=(0, 8), window_s=4),
    "autoscale": dict(loads=(1, 4), window_s=4),
    "memdurability": dict(factors=(1, 2), window_s=4, accesses=40),
    "gpu_scaling": dict(batch_sizes=(1, 8), requests=64, max_rate_rps=800),
    "manager_failover": dict(standbys=(0, 1), window_s=4),
    "loadstorm": dict(shards=(1, 2), window_s=2, rate_per_s=600, population=50000),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_registered_sweep_is_pinned():
    assert sorted(GOLDENS) == sorted(sweep_names())


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_json_and_report_match_the_pinned_digests(name):
    kwargs, json_sha, report_sha = GOLDENS[name]
    result = run_sweep(name, **kwargs)
    assert _sha256(result.to_json()) == json_sha
    assert _sha256(result.format_report()) == report_sha


@pytest.mark.parametrize("name", sweep_names())
def test_int_literals_give_the_float_json(name):
    result = run_sweep(name, **INT_LITERALS[name])
    assert _sha256(result.to_json()) == GOLDENS[name][1]
