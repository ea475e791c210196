"""The public-API lint: the exported surface must match the manifest.

Wired through the unified ``tools.checks`` entry point so the suite runs
the exact code path CI and humans run (``python -m tools.checks``).
"""

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools import check_public_api, checks  # noqa: E402


def test_public_surface_matches_the_manifest():
    assert checks.run("public-api") == []


def test_snapshot_covers_the_contract_modules():
    surface = check_public_api.snapshot()
    assert set(surface) == set(check_public_api.MODULES)
    assert "Platform" in surface["repro.api"]
    assert "PlatformConfig" in surface["repro.api"]
    for name in ("FaultPlan", "Injector", "RetryPolicy", "DegradedResult"):
        assert name in surface["repro.faults"]
    for name in ("RFaaSClient", "ResourceManager", "LeaseRevokedError"):
        assert name in surface["repro.rfaas"]


def test_snapshot_records_signatures_and_members():
    surface = check_public_api.snapshot()
    platform = surface["repro.api"]["Platform"]
    assert platform["kind"] == "class"
    assert "config" in platform["methods"]["build"]
    assert "faults" in platform["methods"]["build"]
    client = surface["repro.rfaas"]["RFaaSClient"]
    assert "retry_policy" in client["signature"]
    assert "close" in client["methods"]


def test_drift_against_a_tampered_manifest_is_reported(tmp_path):
    surface = check_public_api.snapshot()
    tampered = check_public_api.load_manifest()
    del tampered["repro.api"]["Platform"]
    tampered["repro.faults"]["Bogus"] = {"kind": "value", "type": "int"}
    path = tmp_path / "public_api.json"
    check_public_api.write_manifest(tampered, path)
    recorded = check_public_api.load_manifest(path)
    problems = []
    for module_name in surface:
        have, want = surface[module_name], recorded.get(module_name, {})
        for name in sorted(set(have) | set(want)):
            if name not in want:
                problems.append(f"{module_name}.{name}: new export")
            elif name not in have:
                problems.append(f"{module_name}.{name}: disappeared")
    assert any("Platform" in p and "new export" in p for p in problems)
    assert any("Bogus" in p and "disappeared" in p for p in problems)
