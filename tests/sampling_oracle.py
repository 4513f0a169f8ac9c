"""Per-second metric sampling, kept as a test oracle for the engine's rows.

The engine computes a row only where its state or a time comparison can have
changed and copies the rest.  ``PerSecondEngine`` is the same engine with the
row of every whole second computed from scratch by ``_sample``.
"""

from __future__ import annotations

from cgrlab.simcore import SimulationMetrics, _Engine


class PerSecondEngine(_Engine):
    def _emit_rows(self, s: float, t: float) -> float:
        while s < t:
            self.rows.append(self._sample(s))
            s += 1.0
        return s


def per_second_run(plan, bundles, policy, owlt_mode="uniform", seed=0, k=4) -> SimulationMetrics:
    return PerSecondEngine(plan, bundles, policy, seed, k, owlt_mode).run()
