"""Recorded simulation outputs that every change must reproduce bit for bit.

``golden_runs.json`` maps a run name to the run's ``fingerprint()``,
``exact_digest()``, ``computing_total`` and ``delivered_count``; the digest
sees every output float bit for bit, which the fingerprint's ``:g`` text
does not.  The runs cover the acceptance NELS plan (plain traffic under
both policies, critical traffic under ``rmdg`` and, for two seeds, under
``standard``), and runs that keep each
plan's own light times (``owlt_mode="file"``): a few NELS seeds, whose
ranges are fractions of a light-second, the six-node demonstration plan
with critical and plain traffic under both policies, and that plan with its
light times padded by ``with_transit_margin`` under ``standard`` critical
traffic.
Standard-policy critical NELS runs take seconds each; ``bench/golden.json``
covers a further sample of them.

Run ``python tests/test_golden.py`` to record the file again.
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest

from cgrlab.constellation import IslConstraints, WalkerParams, generate_contact_plan
from cgrlab.contactplan import make_demo_plan, with_transit_margin
from cgrlab.simcore import run_simulation
from cgrlab.traffic import ScenarioSpec, generate_scenario

GOLDEN_PATH = Path(__file__).with_name("golden_runs.json")

NELS = WalkerParams(
    sats_per_plane=12, planes=10, phase_factor=1, altitude_km=1200.0, inclination_deg=55.0
)
NELS_ISL = IslConstraints(max_interorbit_km=4909.0, terminals_per_sat=4)
K = 7

# name -> (plan, source, seed, with_critical, policy, owlt_mode)
RUNS = {}
for _seed in range(1, 11):
    for _policy in ("standard", "rmdg"):
        RUNS[f"nels-plain-{_policy}-{_seed}"] = ("nels", "1", _seed, False, _policy, "uniform")
for _seed in range(1, 21):
    RUNS[f"nels-critical-rmdg-{_seed}"] = ("nels", "1", _seed, True, "rmdg", "uniform")
for _seed in (4, 5):
    RUNS[f"nels-critical-standard-{_seed}"] = ("nels", "1", _seed, True, "standard", "uniform")
for _seed in range(1, 4):
    for _policy in ("standard", "rmdg"):
        RUNS[f"nels-file-plain-{_policy}-{_seed}"] = ("nels", "1", _seed, False, _policy, "file")
    RUNS[f"nels-file-critical-rmdg-{_seed}"] = ("nels", "1", _seed, True, "rmdg", "file")
for _seed in range(1, 6):
    for _critical in (True, False):
        for _policy in ("standard", "rmdg"):
            _kind = "critical" if _critical else "plain"
            RUNS[f"demo-file-{_kind}-{_policy}-{_seed}"] = (
                "demo", "A", _seed, _critical, _policy, "file"
            )
for _seed in range(1, 4):
    RUNS[f"demo-margin-critical-standard-{_seed}"] = (
        "demo-margin", "A", _seed, True, "standard", "file"
    )


@lru_cache(maxsize=None)
def _plan(name: str):
    if name == "demo":
        return make_demo_plan()
    if name == "demo-margin":
        return with_transit_margin(make_demo_plan())
    return generate_contact_plan(NELS, NELS_ISL, horizon=130.0, step=5.0)


def _outputs(name: str) -> dict:
    plan_name, source, seed, critical, policy, owlt_mode = RUNS[name]
    plan = _plan(plan_name)
    spec = ScenarioSpec(
        seed=seed,
        duration=25,
        source=source,
        dest_pool=tuple(sorted(plan.node_ids - {source})),
        with_critical=critical,
    )
    metrics = run_simulation(
        plan, generate_scenario(spec), policy, seed=seed, k=K, owlt_mode=owlt_mode
    )
    return {
        "fingerprint": metrics.fingerprint(),
        "exact_digest": metrics.exact_digest(),
        "computing_total": metrics.computing_total,
        "delivered_count": metrics.delivered_count,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_every_run_recorded(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(golden, name):
    assert _outputs(name) == golden[name]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: _outputs(name) for name in sorted(RUNS)}, indent=1, sort_keys=True)
        + "\n"
    )
