"""The failure detector's knob: detection latency vs false positives.

``suspect_after`` (missed heartbeat intervals before suspicion) is the
availability tradeoff of docs/control_plane_ha.md: small values detect
a dead primary fast but declare a *slow* primary dead (a needless
election); large values never cry wolf but stretch the outage every
client rides out in backoff.  These tests pin both sides.
"""

import pytest

from .conftest import build_ha_platform

HEARTBEAT_S = 0.1


def _takeover_latency(suspect_after: int) -> float:
    platform = build_ha_platform(standbys=1,
                                 heartbeat_interval_s=HEARTBEAT_S,
                                 suspect_after=suspect_after)
    ha = platform.ha
    platform.run(0.25)
    ha.crash_primary()
    platform.run(5.0)
    platform.run()
    assert ha.epoch == 2
    return ha.elections[-1].at_s - 0.25


@pytest.mark.parametrize("suspect_after", [2, 3])
def test_detection_latency_is_2_to_3_timeouts_quantized(suspect_after):
    """Takeover lands between ``m`` and ``m + 2`` heartbeat intervals
    after the crash — never earlier (that would be a false positive on
    a merely late tick), never later (that is detector lag)."""
    latency = _takeover_latency(suspect_after)
    assert suspect_after * HEARTBEAT_S <= latency + 1e-9
    assert latency <= (suspect_after + 2) * HEARTBEAT_S + 1e-9


def test_aggressive_detector_is_strictly_faster():
    assert _takeover_latency(2) < _takeover_latency(3)


@pytest.mark.parametrize("suspect_after,false_positive", [(2, True), (3, False)])
def test_false_positive_rate_mirrors_the_timeout(suspect_after, false_positive):
    """One partition blip, two detectors: the 0.3s blip outlives the
    aggressive detector's 0.2s timeout (needless election + stepdown)
    but stays inside the conservative detector's 0.3s one (no churn)."""
    platform = build_ha_platform(standbys=1,
                                 heartbeat_interval_s=HEARTBEAT_S,
                                 suspect_after=suspect_after)
    ha = platform.ha
    platform.run(0.25)
    ha.partition_primary(heal_after_s=0.3)
    platform.run(3.0)
    platform.run()
    metrics = platform.telemetry.metrics
    failovers = metrics.get("repro_controlplane_failovers_total").value
    if false_positive:
        assert failovers == 1  # cried wolf: epoch churn for a blip
        assert ha.epoch == 2
        assert metrics.get("repro_controlplane_stepdowns_total").value == 1
    else:
        assert failovers == 0
        assert ha.epoch == 1
        assert ha.primary_rank == 0
