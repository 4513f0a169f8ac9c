"""The benchmark's workloads: their inputs, one operation, and the golden check.

An operation is one ``simcore.run_simulation`` call for one (scenario seed,
policy); on ``orbit-24x20-plain`` it also includes the
``contactplan.parse_contact_plan`` call before it, as ``cgrlab simulate
--plan`` does.  Every call into the program goes through a module attribute
(``simcore.run_simulation``, not a name imported from it), so the timing
wrappers in ``tracing.py`` see the benchmark's own calls too.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from cgrlab import constellation, contactplan, simcore, traffic  # noqa: E402

ISL = constellation.IslConstraints(max_interorbit_km=4909.0, terminals_per_sat=4)
NELS = constellation.WalkerParams(
    sats_per_plane=12, planes=10, phase_factor=1, altitude_km=1200.0, inclination_deg=55.0
)
ORBIT_24X20 = constellation.WalkerParams(
    sats_per_plane=24, planes=20, phase_factor=1, altitude_km=1200.0, inclination_deg=55.0
)
PLAN_STEP_S = 5.0
SOURCE = "1"
TRAFFIC_DURATION_S = 25
K = 7


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs.

    Every run covers whole passes over ``default_seeds`` (or
    ``held_out_seeds``), so runs with different ``--seed`` values measure the
    same work in a different order.
    """

    name: str
    walker: constellation.WalkerParams
    horizon_s: float
    policy: str
    critical: bool
    parse_plan: bool
    default_seeds: tuple[int, ...]
    held_out_seeds: tuple[int, ...]

    def scenario_seeds(self, held_out: bool) -> tuple[int, ...]:
        return self.held_out_seeds if held_out else self.default_seeds


WORKLOADS = {
    w.name: w
    for w in (
        # Blanket replication: one dijkstra_bdt per neighbour per copy.
        Workload(
            name="nels-critical-standard",
            walker=NELS,
            horizon_s=130.0,
            policy="standard",
            critical=True,
            parse_plan=False,
            default_seeds=(1, 2, 3),
            held_out_seeds=(21, 22, 23),
        ),
        # Same plan and traffic under the paper's policy: yen_plus on
        # route-cache misses, the per-neighbour search never runs.
        Workload(
            name="nels-critical-rmdg",
            walker=NELS,
            horizon_s=130.0,
            policy="rmdg",
            critical=True,
            parse_plan=False,
            default_seeds=tuple(range(1, 21)),
            held_out_seeds=tuple(range(21, 41)),
        ),
        # Full orbit of a 480-satellite plan: per-second sampling over 1920
        # contacts, plan parsing, yen_plus on a large graph.
        Workload(
            name="orbit-24x20-plain",
            walker=ORBIT_24X20,
            horizon_s=6565.0,
            policy="standard",
            critical=False,
            parse_plan=True,
            default_seeds=(1, 2, 3, 4),
            held_out_seeds=(21, 22, 23, 24),
        ),
    )
}


@dataclass
class Inputs:
    """What set-up hands to the operations: the plan and each scenario's bundles."""

    plan: contactplan.ContactPlan
    plan_text: str | None
    bundles: dict[int, list]


def set_up(workload: Workload, seeds: tuple[int, ...]) -> Inputs:
    """Generate the plan (serialized too, when ops parse it) and the bundles."""
    plan = constellation.generate_contact_plan(
        workload.walker, ISL, horizon=workload.horizon_s, step=PLAN_STEP_S
    )
    text = contactplan.serialize_contact_plan(plan) if workload.parse_plan else None
    dest_pool = tuple(sorted(plan.node_ids - {SOURCE}))
    bundles = {
        seed: traffic.generate_scenario(
            traffic.ScenarioSpec(
                seed=seed,
                duration=TRAFFIC_DURATION_S,
                source=SOURCE,
                dest_pool=dest_pool,
                with_critical=workload.critical,
            )
        )
        for seed in seeds
    }
    return Inputs(plan=plan, plan_text=text, bundles=bundles)


def run_op(workload: Workload, inputs: Inputs, seed: int):
    """One operation; returns the run's ``SimulationMetrics``."""
    plan = (
        contactplan.parse_contact_plan(inputs.plan_text)
        if workload.parse_plan
        else inputs.plan
    )
    return simcore.run_simulation(
        plan, inputs.bundles[seed], workload.policy, seed=seed, k=K
    )


def outputs(metrics) -> dict:
    """The outputs an operation is checked on."""
    return {
        "fingerprint": metrics.fingerprint(),
        "computing_total": metrics.computing_total,
        "delivered": metrics.delivered_count,
    }


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def golden_mismatch(golden: dict, workload: Workload, seed: int, metrics) -> str | None:
    """Why an operation's outputs differ from the golden values, or None."""
    want = golden.get(workload.name, {}).get(str(seed))
    if want is None:
        return f"no golden outputs for {workload.name} scenario seed {seed}"
    got = outputs(metrics)
    diff = [key for key in want if got[key] != want[key]]
    if diff:
        return f"{workload.name} scenario seed {seed}: {', '.join(diff)} differ from golden"
    return None


def record_golden() -> None:
    """Run every (workload, scenario seed) once and write ``golden.json``."""
    golden: dict[str, dict[str, dict]] = {}
    for workload in WORKLOADS.values():
        seeds = workload.default_seeds + workload.held_out_seeds
        inputs = set_up(workload, seeds)
        golden[workload.name] = {
            str(seed): outputs(run_op(workload, inputs, seed)) for seed in seeds
        }
        print(f"{workload.name}: {len(seeds)} scenario seeds recorded", file=sys.stderr)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record_golden()
