"""Per-second metric sampling, kept as a test oracle for the engine's rows.

The engine computes a row only where its state or a time comparison can have
changed, and keeps one run of equal rows for the seconds after it up to the
next event.  ``PerSecondEngine`` is the same engine with the row of every
whole second computed from scratch by ``_sample`` and kept as a run of one,
so its ``rows`` are the engine's expanded runs only if every row a run
stands for is exact.
``available_contacts`` builds the set of contacts available at an instant by
a scan of the plan, the reference ``contactplan.occupancy_rate``'s bisections
are compared with.
"""

from __future__ import annotations

from cgrlab.contactplan import ContactPlan
from cgrlab.simcore import SimulationMetrics, _Engine


def available_contacts(plan: ContactPlan, t: float) -> set[int]:
    """Ids of contacts whose window contains ``t`` (closed interval)."""
    return {c.id for c in plan.contacts if c.t_start <= t <= c.t_end}


class PerSecondEngine(_Engine):
    def _emit_rows(self, s: float, t: float) -> float:
        while s < t:
            self.runs.append((s, 1, self._sample(s)))
            s += 1.0
        return s


def per_second_run(plan, bundles, policy, owlt_mode="uniform", seed=0, k=4) -> SimulationMetrics:
    return PerSecondEngine(plan, bundles, policy, seed, k, owlt_mode).run()
