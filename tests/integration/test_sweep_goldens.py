"""The determinism contract, stated once: every sweep hashes to a pin.

The one exception is :data:`UNPINNED`: fig13 times real processes.

Every number the repo reports is worth only as much as the promise that
``(params, seed)`` replays byte for byte.  Each run below must match a
pinned sha256, never a second run, so two runs that drift the same way
still fail.  For every plan in :data:`GOLDENS`:

1. **In-process, untraced, ``jobs=1``**: ``to_json()`` and
   ``format_report()`` match the JSON and report pins, and so does
   ``to_json()`` of the same plan spelled with int literals.
2. **Fresh interpreter, traced, ``--jobs 2``, int-literal ``--set``**:
   one ``repro sweep`` subprocess writes ``--json`` and
   ``--stream-spans``.  The JSON file (less the CLI's trailing newline)
   must hash to the JSON pin and the stream to the stream pin.  That
   one run covers an interpreter with no history, the 2-worker pool,
   traced output equal to untraced output, the span stream and CLI
   literal parsing.  The same run writes ``--metrics-out``, whose text
   must hash to its :data:`METRICS_PINS` pin.  :data:`EXTRA_PLANS` adds
   plans no golden reaches, checked the same way.
3. **After another traced run in the same interpreter**:
   ``tests/telemetry/test_span_identity.py`` re-checks the chaos stream
   pin, so a module-global id counter fails even though forked workers
   would each start it afresh.

The JSON and report pins were recorded from the per-sweep result
classes that predate :class:`repro.experiments.base.SweepResult`, so
they also prove the generic result (typed points, column spec, title
template, footer) reproduces each sweep byte for byte.  The certify
pins were recorded from ``SweepResult`` itself; its points equal the
rows of the harness that predates the sweep.  The figure and table pins
(``fig*``, ``tab03``) were recorded from their sweeps; at default
parameters their points equal the rows of the per-figure runners that
predate them, except fig07, whose sizes each run on their own
platforms now.  The fig07 pin replaces that runner's report digest
(``samples=25, seed=3``).  The stream pins were recorded on CPython
3.11.7.  The streams that hold ``manager.register_node`` instants were
re-pinned once when the instant lost its always-zero ``gpus``
attribute; each new stream is the old one with ``"gpus": 0, `` deleted
from those lines.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.faults import FaultPlan
from repro.sweep import run_sweep, sweep_names

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent.parent / "src"

#: name -> (plan_scenarios kwargs, sha256 of to_json(), sha256 of
#: format_report(), sha256 of the ``--stream-spans`` file)
GOLDENS = {
    "fig01": (
        dict(nodes=16, hours=2.0),
        "d708b8f67eff2665ce5cfdb443338b8b0d9686a640ee7d36f230a6a77ae4dced",
        "98be4ac62d4a3117d3e687bc6e08300583eb4280ac46fef54e07f608cd746b0b",
        "97a47423d73154b5bd824579e7c4b4a864aa2f8615a65eb1a050c1980895d707",
    ),
    "fig07": (
        dict(samples=25, seed=3),
        "043c9787b5f52823282555d4ba22df472176e9d4974ab3b157a09424c94934e0",
        "174d6f3c1e8df950154a260126fb038c06c0a51ec2c6277d4fe1183cf22dd686",
        "5ff2d5ebc4226b0124e01feb305dc108d65d895302a4a6d46776d8af3f20034c",
    ),
    "fig08": (
        dict(sizes=(4096, 1048576), readers=(1, 16)),
        "64b669acf2cc2abdec90836011a007ed27b5bc2df52a00b6209792a128b9a417",
        "6cb9cc9560910e6efcde5da20bbe3ae4bc364eeba7ccc5ddc05c7d97b6d9a99b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "tab03": (
        dict(counts=(1, 16, 32)),
        "154454d2a483929d620947ebf8896772754d383d1eb815e410d6e4e6b59e6ec2",
        "aeb20db45fc50a16e0bc956dc4b413e70abcfecbbf000a62e787ec47cc22855b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "fig09": (
        dict(lulesh_sizes=(20,), milc_sizes=(8,)),
        "142bb84c7302da22956d9328b74ab05fca5b24160c979f6604a66660883b54c9",
        "9e86c2e74ff79dd18197be6cbc743b2e557ecae1aa925904aaaead241f47004a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "fig10": (
        dict(nas_keys=("bt.W", "cg.A")),
        "93e9a160e519dad69017d378b84adc13d0195a149b5c1b827208b8b49f997ee1",
        "9b1d0000ae12fe1e4496a92871cf88f16fb045944545723830b0a87c683979f9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "fig11": (
        dict(intervals=(0.0, 0.01)),
        "4cc849961ba97c0177f69cb72eed695a2d768ca15a940c8b34229039b24ddedd",
        "dc4145fd10473514d8459d57d6a8079c57ff1e5ef6782d1b8689059255228d7d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "fig12": (
        dict(rodinia_keys=("bfs", "lavamd"), lulesh_sizes=(20, 45), milc_sizes=(8,)),
        "33ee78d1b8ecbaca8a91f64a265674cd1dfbb55aab7e04db88687e8e7c3bb57e",
        "1ece483b91a2fd8991dce81efb3d72e91b1fc4d87bac528086d6824d08f485fe",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "chaos": (
        dict(rates=(0.0, 8.0), window_s=4.0),
        "299bcbac506c52e62f42379e471c6a0b3588aafbadd9ff1844be44eeeb0e799a",
        "eccd71ce909fcde47c4beeec8f90a051ab76709cfc23f69c29e06bf9a7c25435",
        "16259492d422cc75635fe2dc9f7179600e419953f0809cb3f3deaa1eeac213cf",
    ),
    # crash=True is the default: every point replays the node-crash storm.
    "autoscale": (
        dict(loads=(1.0, 4.0), window_s=4.0),
        "64752beaa1033098608bf1e4e8249b445b99453437b338731ceb07dd27d6f53c",
        "bb1ab63aa9e01b64dd567debd3212a7878f3023b113353ec78528f4a4991f178",
        "0a4c7e2bd2caf2b6c283cee9c14efda32e680dcc07696f56825e4396a5236f5c",
    ),
    "memdurability": (
        dict(factors=(1, 2), window_s=4.0, accesses=40),
        "ec11d564a643591490cb4c89fb89243de83b10dce865df18705f671b1c3cace4",
        "23d59f9d371f596b42423c4e2044539e6ffb07142a3ad93dad0fd69cd4ddc18a",
        "e25311c9d112d068b84d2a1aac7c5e6378d413d079fe2818c5e880fdf3f9385d",
    ),
    "gpu_scaling": (
        dict(batch_sizes=(1, 8), requests=64),
        "ecae7b92b7946fa92834b519b62ee40904371b6aa3e2540d43c0cba7faadd3cd",
        "cb0992cd0afc13d817dd5449018e3f10db8ab0d83dc3181bb0aa2e94a9a23143",
        "7df4f30e4245d8f398010524af160be39f7ff8637981b3e2c111c8bf09c69069",
    ),
    "manager_failover": (
        dict(standbys=(0, 1), window_s=4.0),
        "8be948abd19e4fee07a5eebf54656a815b4e36acb3a6c70b61040941e9b0cec6",
        "f96a992f66a3c64ae3837f8770ba015a6f31b75595d7c17731fcf65151c583d0",
        "061a9e8dc20fd823196882467ba3483340e343117326832f69ec317cf93a1f60",
    ),
    "loadstorm": (
        dict(shards=(1, 2), window_s=2.0, rate_per_s=600.0, population=50000),
        "01ee6ade635b0ecbdfc47b4c14616f16dc38923a67d708dc4fb5f6045f25e415",
        "a1a3565654f3a2dfa6cbdeea45fa55bd0dfacc6a0b716963dfb936c4f10ad98b",
        "2b686f37561b7dbe0bf23e678c104df0311b999c5fa13c3c7e29998efe9433c7",
    ),
    "certify": (
        dict(budget=2, window_s=4.0),
        "90e1a802d1954d982fe66d886727d7ef5ffe4a5c27b17c60b01e3111030ff2b8",
        "5a6a2e178e28c43abb91ee8f08f2c00534e7389e5fa281a5b420bed885fd23c3",
        "e0ad4175ea58daf9b037d4c2212145752f99de33fff5512340a2d80ff200c6cd",
    ),
}

#: Registered sweeps with no pin, and why.
UNPINNED = {
    "fig13": "times live worker processes on the host's wall clock",
}

#: The same plans, spelled with int literals for every float argument.
INT_LITERALS = {
    "fig01": dict(nodes=16, hours=2),
    "fig07": dict(samples=25, seed=3),
    "fig08": dict(sizes=(4096, 1048576), readers=(1, 16)),
    "tab03": dict(counts=(1, 16, 32)),
    "fig09": dict(lulesh_sizes=(20,), milc_sizes=(8,)),
    "fig10": dict(nas_keys=("bt.W", "cg.A")),
    "fig11": dict(intervals=(0, 0.01)),
    "fig12": dict(rodinia_keys=("bfs", "lavamd"), lulesh_sizes=(20, 45),
                  milc_sizes=(8,)),
    "chaos": dict(rates=(0, 8), window_s=4),
    "autoscale": dict(loads=(1, 4), window_s=4),
    "memdurability": dict(factors=(1, 2), window_s=4, accesses=40),
    "gpu_scaling": dict(batch_sizes=(1, 8), requests=64, max_rate_rps=800),
    "manager_failover": dict(standbys=(0, 1), window_s=4),
    "loadstorm": dict(shards=(1, 2), window_s=2, rate_per_s=600, population=50000),
    "certify": dict(budget=2, window_s=4),
}

#: CI's mid-flight drain plan: a crash of n0001 with executions in flight.
MIDFLIGHT = (FaultPlan(name="midflight").lease_storm(at_s=2.0)
             .node_crash(at_s=4.0, node="n0001", duration_s=2.0))

#: Plans no golden reaches, checked through the CLI only: label ->
#: (sweep, ``--set`` kwargs, sha256 of the JSON, sha256 of the stream).
#: A ``plan`` kwarg is written to a file and passed as ``--plan``.
EXTRA_PLANS = {
    # The golden autoscale plan runs the crash storm; this is the calm run.
    "autoscale-calm": (
        "autoscale", dict(loads=(1, 4), window_s=4, crash=False),
        "eeab75e6850ed0185c57b38e4aa1b1114d161d12e55b99380b355fba959d18cb",
        "e8275c280e0af6529c83863208110bba214054d4ac343a0e527e757fd1e2b837",
    ),
    # With zero standbys the crash withdraws every node at once and
    # interrupts all in-flight invocations at one instant: the order
    # they end in is pinned.
    "manager_failover-orphans": (
        "manager_failover", dict(standbys=(0,), window_s=8),
        "2c6bf0d6fa0800effd6f3b3572f16695421479466ef2ad7ba22a25ffeeb01c1b",
        "f964109a93bba9d094bfbeb895dde1a540986919d58d3039b83db236722237ed",
    ),
    "chaos-midflight": (
        "chaos", dict(plan=MIDFLIGHT, window_s=8),
        "67ae40f0a62fedbd4a7bb9a5abde05fd5137b90083b1aa399b2d2972128fa8c7",
        "841955cb81fd2d98607da2dd5d6fc5f37c7316f09a9ce8a499afb4d123c29719",
    ),
    # One shard crashes halfway through the storm.
    "loadstorm-crash": (
        "loadstorm", dict(shards=(1, 2), window_s=2, rate_per_s=600,
                          population=50000, crash_at_frac=0.5),
        "9ac8a122112ed576b1f7f5bf45be5cee45be5bdffbc32e809337227c0a1501b4",
        "9cbe2c46115e61e38b4b863572716f7653b1c672750c377773b01ef358f04a4d",
    ),
}

#: label -> sha256 of the ``--metrics-out`` text of that CLI plan's run.
#: Families a plan does not export are simply absent from its text.
METRICS_PINS = {
    "autoscale":
        "90ae33e2787f54d2fb5ee101c9ec3338dd8f8215c6ca15b05b866479b528431c",
    "autoscale-calm":
        "51fc60d67e1dce6bdca452ef95ad26964f159068b881e91e581536e19d05e3c0",
    "certify":
        "4be149efed0ab755c612a7ed9d8b9306f6f80f2db823fe8c3852c048820b8d14",
    "chaos":
        "3261e12b6a68ec435d17912ea2700e847d9759e60323ecae767e8ae91aacc0c7",
    "chaos-midflight":
        "59e91f05805124704d9b33a810911f53b7649774846b64ef7c7f0bf12f44bc12",
    "fig01":
        "06c08a4abcf74855c2e6e5594c0d9331bd4f96db9c620ac2fd03813949b0af59",
    "fig07":
        "a073931b426f286b48f1e370432d2b93de8b2088a3fe3528c706c3ab248f067f",
    "fig08":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fig09":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fig10":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fig11":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fig12":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "gpu_scaling":
        "f1658d7459ff52527f3dba1228d8bd5add641ac62a115e1ca51c0dae33225c9f",
    "loadstorm":
        "5adc3c83bfd3dd5078679934a2e045558b6506c8a7bc58568279037da217b4d5",
    "loadstorm-crash":
        "037f360c9c81fdd864180e941127b2624450c9a9b70d7c15768331ce51ef0ff9",
    "manager_failover":
        "e31f18ac72b0f208b30f2cdc67113f8c0f8590f0f70976a397b64d43a4568849",
    "manager_failover-orphans":
        "862cc37694b867cd1ef89b4917da4e626e021329247d2fc7e979c27b8612d269",
    "memdurability":
        "03e2041dc47b41a7f0b9ed684259ea4b346ee3e8cc2ca41d95ff665315ef5449",
    "tab03":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}

CLI_PLANS = {
    **{name: (name, INT_LITERALS[name], json_sha, stream_sha)
       for name, (_, json_sha, _, stream_sha) in GOLDENS.items()},
    **EXTRA_PLANS,
}


def _crash_storm_ran(points, stream):
    assert [p["faults_injected"] for p in points] == [4] * len(points)


def _durability_divides_the_factors(points, stream):
    k1, k2 = points
    assert (k1["replication"], k1["faults_injected"],
            k1["data_loss_accesses"]) == (1, 4, 32)
    # k=2 survives hits, not a calm run.
    assert (k2["replication"], k2["data_loss_accesses"],
            k2["replicas_lost"]) == (2, 0, 4)


def _orphans_were_executing(points, stream):
    assert b'"rfaas.execution"' in stream


def _executions_were_interrupted(points, stream):
    assert b'"error": "Interrupt"' in stream


def _a_shard_crashed(points, stream):
    assert [p["crashes"] for p in points] == [1, 1]


def _every_schedule_struck_and_held(points, stream):
    assert all(p["injected"] >= 1 for p in points)
    assert all(problems == [] for p in points
               for problems in p["invariants"].values())
    # Some schedule forced a failover, so the election invariants bit.
    assert any(p["epochs"] > 1 for p in points)


#: What each pinned run must exercise, so no pin can be a vacuous run.
NON_VACUOUS = {
    "autoscale": _crash_storm_ran,
    "memdurability": _durability_divides_the_factors,
    "manager_failover-orphans": _orphans_were_executing,
    "chaos-midflight": _executions_were_interrupted,
    "loadstorm-crash": _a_shard_crashed,
    "certify": _every_schedule_struck_and_held,
}


def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def test_every_registered_sweep_is_pinned():
    assert sorted(GOLDENS) == sorted(set(sweep_names()) - set(UNPINNED))


def test_every_cli_plan_pins_its_metrics():
    assert sorted(METRICS_PINS) == sorted(CLI_PLANS)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_json_and_report_match_the_pinned_digests(name):
    kwargs, json_sha, report_sha, _ = GOLDENS[name]
    result = run_sweep(name, **kwargs)
    assert _sha256(result.to_json()) == json_sha
    assert _sha256(result.format_report()) == report_sha


@pytest.mark.parametrize("name", sorted(INT_LITERALS))
def test_int_literals_give_the_float_json(name):
    result = run_sweep(name, **INT_LITERALS[name])
    assert _sha256(result.to_json()) == GOLDENS[name][1]


@pytest.mark.parametrize("plan", sorted(CLI_PLANS))
def test_fresh_cli_run_matches_the_pins(plan, tmp_path):
    name, kwargs, json_sha, stream_sha = CLI_PLANS[plan]
    out, stream = tmp_path / "sweep.json", tmp_path / "spans.jsonl"
    metrics = tmp_path / "metrics.txt"
    kwargs = dict(kwargs)
    plan_args = []
    if "plan" in kwargs:
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(kwargs.pop("plan").to_json(), encoding="utf-8")
        plan_args = ["--plan", str(plan_file)]
    sets = [arg for key, value in kwargs.items()
            for arg in ("--set", f"{key}={value!r}")]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", name, *plan_args, *sets,
         "--jobs", "2", "--json", str(out), "--stream-spans", str(stream),
         "--metrics-out", str(metrics)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr or proc.stdout
    text, spans = out.read_text(encoding="utf-8"), stream.read_bytes()
    if plan in NON_VACUOUS:
        NON_VACUOUS[plan](json.loads(text)["points"], spans)
    assert text.endswith("\n")
    assert _sha256(text[:-1]) == json_sha
    assert _sha256(spans) == stream_sha
    assert _sha256(metrics.read_bytes()) == METRICS_PINS[plan]
