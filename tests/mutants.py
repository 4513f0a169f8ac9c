"""Mutation checks of the program's guards, transcribed from CHANGES.md.

Usage, from the root of a checkout::

    python3 tests/mutants.py            # every row
    python3 tests/mutants.py spurs      # the rows whose name contains "spurs"

Each row of ``MUTANTS`` names a file under ``src/cgrlab``, a text that occurs
in it exactly once, the text that replaces it, and the tests that must fail
with that edit in place.  For each row the script copies ``src``, ``tests``,
``conftest.py`` and ``pyproject.toml`` to a temporary directory, applies the
edit there and runs the named tests in one pytest subprocess; the checkout
itself is never written.  A row is

* killed when every named test fails;
* a survivor when any named test passes, which names the tests that did;
* stale when its text does not occur exactly once, so the guard it mutates
  has moved or gone and the row needs transcribing again.

The script exits 1 on a survivor or a stale row and prints one summary line
last.  Pytest does not collect this file (its name does not start with
``test_``) and tier-1 does not run it: a row takes a few seconds, the rows
with property tests longer.  ``tests/test_mutants_table.py`` runs no mutant
but checks in tier-1 that every row's text occurs once and every kill id
names a test that exists.  ``EQUIVALENT`` lists mutants that no test can
kill, with the reason, and ``NOT_TRANSCRIBED`` the mutation checks recorded
in CHANGES.md that have no row yet; neither is run.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    kills: tuple[str, ...]


SPURS = "tests/test_routesearch.py::TestKeptSpurs::"
REUSE = "tests/test_routesearch.py::TestSearchReuse::"
START = "tests/test_routesearch.py::TestSearchStart::"
EDGES = "tests/test_simcore.py::TestContactEdgeEvents::"
SERIES = "tests/test_simcore.py::TestMetricsSeries::"
IDLE = "tests/test_simcore.py::TestBlanketIdleKey::"
REPEATS = "tests/test_simcore.py::TestRepeatSelections::"
GROUPS = "tests/test_simcore.py::TestReattemptGroups::"
PLAN = "tests/test_constellation.py::TestPlanOracle::"
BLANKET_ONLY = REPEATS + "test_only_a_blanket_repeat_is_skipped"
NEIGHBOURS = ("tests/test_simcore.py::TestCriticalReplication::"
              "test_one_search_per_neighbour_with_a_whole_second_left")

MUTANTS = (
    # kept spur searches in yen_plus
    Mutant(
        "spurs: replay every round, diverged or not",
        "routesearch.py",
        "if traced is not None and traced[0] == base and traced[1] == deviation:",
        "if traced is not None:",
        (SPURS + "test_reordered_pool_replays_no_later_round",),
    ),
    # the shift rule both kept-search sites share
    Mutant(
        "shifts: reuse at an earlier start",
        "routesearch.py",
        "        s1 >= s0\n        and ",
        "        ",
        (REUSE + "test_earlier_departure_searches_again",
         SPURS + "test_earlier_departure_searches_again"),
    ),
    Mutant(
        "shifts: reuse where no search is exact",
        "routesearch.py",
        "        and _exact(plan, s0)\n        and _exact(plan, s1)\n",
        "",
        (REUSE + "test_zero_light_time_searches_again_at_a_later_departure",
         SPURS + "test_fractional_light_times_search_again"),
    ),
    Mutant(
        "shifts: no window-opening test",
        "routesearch.py",
        "        and bisect_right(starts, s0) == bisect_right(starts, shifted)\n",
        "",
        (
            REUSE + "test_wait_past_the_shifted_arrival_is_reused",
            "tests/test_simcore.py::TestSearchReuse::test_search_that_waits_is_never_reused",
            SPURS + "test_matches_fresh_graph",
            SPURS + "test_window_opening_in_the_span_searches_again",
        ),
    ),
    Mutant(
        "shifts: no window-closing test",
        "routesearch.py",
        "        and bisect_left(ends, s0 + 1) == bisect_left(ends, shifted + 1)\n",
        "",
        (
            REUSE + "test_matches_fresh_search",
            "tests/test_simcore.py::TestSearchReuse::"
            "test_reused_up_to_the_last_departure_the_window_allows",
            SPURS + "test_matches_fresh_graph",
            SPURS + "test_window_closing_in_the_span_searches_again",
        ),
    ),
    # dijkstra_bdt has no bound, so only the spur loop can test this one
    Mutant(
        "spurs: kept hops past the bound",
        "routesearch.py",
        "if arrival + (start_time - s0) > bound:\n                        continue\n",
        "",
        (SPURS + "test_kept_spur_arriving_after_the_bound_is_none",),
    ),
    Mutant(
        "dijkstra_bdt: windows tested up to the shifted departure, not the arrival",
        "routesearch.py",
        "_shifts(plan, kept[0], depart, kept[2])",
        "_shifts(plan, kept[0], depart, kept[0])",
        (
            REUSE + "test_matches_fresh_search",
            REUSE + "test_wait_past_the_shifted_arrival_is_reused",
            "tests/test_simcore.py::TestSearchReuse::"
            "test_reused_up_to_the_last_departure_the_window_allows",
        ),
    ),
    # the standing-route predicate
    Mutant(
        "covers: > in place of >=",
        "routesearch.py",
        "return min(map(residual.__getitem__, route.hops)) >= route.volume",
        "return min(map(residual.__getitem__, route.hops)) > route.volume",
        (
            REUSE + "test_kept_route_returned_while_residuals_cover_it[4]",
            "tests/test_simcore.py::TestRouteListTiming::"
            "test_listed_route_is_timed_again_only_below_its_volume",
            "tests/test_simcore.py::TestCriticalReplication::"
            "test_route_is_re_evaluated_only_after_a_transmission_start",
        ),
    ),
    # a listed route used as it stands at the instant its list was computed
    Mutant(
        "_candidates: no residual-cover test",
        "simcore.py",
        "if not timed or not covers(residual, route):",
        "if not timed:",
        (
            "tests/test_simcore.py::TestRouteListTiming::"
            "test_listed_route_is_timed_again_only_below_its_volume",
        ),
    ),
    # the search's start and banned nodes, which the loop settles
    Mutant(
        "_search: no first-hop ban",
        "routesearch.py",
        "if done[to] or node == start and cid in banned_first:",
        "if done[to]:",
        (START + "test_banned_first_hops_and_nodes_are_skipped",),
    ),
    Mutant(
        "_search: banned nodes not settled",
        "routesearch.py",
        "    for n in banned_nodes:\n        done[n] = 1\n",
        "",
        (
            START + "test_banned_start_finds_nothing",
            START + "test_start_at_dest_returns_no_hops",
            START + "test_banned_first_hops_and_nodes_are_skipped",
        ),
    ),
    # the goal-directed order's tie rule
    Mutant(
        "_search: no tie rule",
        "routesearch.py",
        "            elif reach == best[to] and goal:\n",
        "            elif False:\n",
        (
            "tests/test_routesearch.py::TestGoalDirectedOrder::"
            "test_tie_keeps_the_parent_dijkstra_settles_first",
            "tests/test_routesearch.py::TestGoalDirectedOrder::test_matches_dijkstra_order",
        ),
    ),
    # a plan error names its line
    Mutant(
        "parse: a contact past the horizon line caught only by the plan",
        "contactplan.py",
        "if horizon_override is not None and t_end > horizon_override:",
        "if False:",
        ("tests/test_cli.py::test_bad_plan_line_is_runtime_error[past-horizon]",),
    ),
    # one event per contact-edge instant
    Mutant(
        "contact edges: a group's contacts handled in reverse order",
        "simcore.py",
        "self._push(t, _R_CONTACT_START, group)\n"
        "        for t, group in ends.items():\n"
        "            self._push(t, _R_CONTACT_END, group)",
        "self._push(t, _R_CONTACT_START, group[::-1])\n"
        "        for t, group in ends.items():\n"
        "            self._push(t, _R_CONTACT_END, group[::-1])",
        (EDGES + "test_one_event_per_edge_instant",
         EDGES + "test_same_instant_starts_are_handled_in_plan_order",
         EDGES + "test_same_instant_ends_are_handled_in_plan_order",
         "tests/test_properties.py::test_matches_run_without_shortcuts_under_contention"),
    ),
    Mutant(
        "contact edges: a start group handled for its first contact only",
        "simcore.py",
        "for c in payload:\n                    self._try_start(c, t)",
        "for c in payload[:1]:\n                    self._try_start(c, t)",
        (EDGES + "test_same_instant_starts_are_handled_in_plan_order",
         "tests/test_properties.py::test_matches_run_without_shortcuts"),
    ),
    # metric rows as runs
    Mutant(
        "metric rows: a run one second short",
        "simcore.py",
        "self.runs.append((s, count, self._sample(s)))",
        "self.runs.append((s, count - 1, self._sample(s)))",
        (SERIES + "test_rows_view_reads_like_a_list",
         SERIES + "test_idle_run_samples_every_second_to_last_contact_end",
         "tests/test_properties.py::test_rows_match_per_second_sampling"),
    ),
    Mutant(
        "metric rows: the first row after an event standing for the rest",
        "simcore.py",
        "self.runs.append((s, count, self._sample(s)))",
        "self.runs.append((s, count, self.runs[-1][2]._replace(t=s)))",
        ("tests/test_properties.py::test_rows_settle_one_second_after_an_event[standard]",
         "tests/test_properties.py::test_rows_match_per_second_sampling"),
    ),
    # the idle-attempt skip and its keys
    Mutant(
        "idle-attempt skip: never taken",
        "simcore.py",
        "if idle is not None and idle[0] == now and idle[1] == self.stamps[copy.at_node]:",
        "if False:",
        (REPEATS + "test_same_instant_repeats_are_counted_not_reviewed",
         IDLE + "test_change_between_repeats[enqueue-elsewhere]"),
    ),
    Mutant(
        "idle-attempt skip: every idle attempt kept, not only blanket ones",
        "simcore.py",
        "if blanket and (self.booking_seq, self.copy_seq) == before:",
        "if (self.booking_seq, self.copy_seq) == before:",
        (BLANKET_ONLY + "[rmdg-critical]", BLANKET_ONLY + "[rmdg]", BLANKET_ONLY + "[standard]",
         "tests/test_properties.py::test_selection_matches_full_attempts"),
    ),
    Mutant(
        "blanket idle key: no stamp bump on an accepted enqueue",
        "simcore.py",
        "        self.stamps[contact.from_node] += 1\n",
        "",
        (IDLE + "test_change_between_repeats[enqueue-leaving-A]",
         REPEATS + "test_enqueue_between_repeats_forces_a_fresh_review"),
    ),
    Mutant(
        "blanket idle key: no stamp bump on a transmission start",
        "simcore.py",
        "            self.stamps[c.from_node] += 1\n            booking = min(",
        "            booking = min(",
        (IDLE + "test_change_between_repeats[transmission-start-leaving-A]",),
    ),
    Mutant(
        "blanket idle key: no stamp bump on an expiry removal",
        "simcore.py",
        "                self.stamps[self.plan.contact(copy.queued_on).from_node] += 1\n",
        "",
        (IDLE + "test_change_between_repeats[expiry-removal-leaving-A]",),
    ),
    Mutant(
        "blanket idle key: no stamp bump on a contact-end flush",
        "simcore.py",
        "        self.stamps[c.from_node] += 1\n        flushed",
        "        flushed",
        (IDLE + "test_change_between_repeats[contact-end-flush-leaving-A]",),
    ),
    Mutant(
        "blanket idle key: the record kept across an arrival",
        "simcore.py",
        "        copy.idle_attempt = None",
        "        pass",
        (IDLE + "test_arrival_clears_the_idle_record",),
    ),
    # one selection event per re-attempt group
    Mutant(
        "re-attempt groups: a group handled in reverse",
        "simcore.py",
        "[stored[i] for i in sorted(stored)]",
        "[stored[i] for i in sorted(stored, reverse=True)]",
        (GROUPS + "test_one_event_carries_the_stored_copies_in_copy_id_order",
         GROUPS + "test_group_is_attempted_in_copy_id_order",
         "tests/test_properties.py::test_matches_run_without_shortcuts_under_contention"),
    ),
    # the per-node neighbour table of blanket replication
    Mutant(
        "neighbour table: no dedupe",
        "simcore.py",
        "table = self.neighbours[node] = sorted(last.items())",
        "table = self.neighbours[node] = sorted(\n"
        "                (c.to_node, c.t_end - 1) for c in self.plan.contacts_from(node))",
        (NEIGHBOURS + "[open]", NEIGHBOURS + "[on-trace]"),
    ),
    Mutant(
        "neighbour table: no `t_end - 1 >= now` filter",
        "simcore.py",
        "if last_s < now or neighbor in hop_trace:",
        "if neighbor in hop_trace:",
        (NEIGHBOURS + "[one-closed]",),
    ),
    # branches dead by argument, now faults
    Mutant(
        "evaluate_route: empty hops give None",
        "routesearch.py",
        'raise AssertionError("evaluate_route: a route needs at least one hop")',
        "return None",
        ("tests/test_routesearch.py::TestEvaluateRoute::test_empty_hops_are_a_fault",),
    ),
    Mutant(
        "yen_plus: a spur failing the forward rule skipped",
        "routesearch.py",
        'raise AssertionError(f"yen_plus: spur {total} fails the forward rule")',
        "continue",
        ("tests/test_routesearch.py::TestYenPlus::test_spur_failing_the_forward_rule_is_a_fault",),
    ),
    # expiry retires stored copies, so no attempt comes after it
    Mutant(
        "expiry: a stored copy not retired",
        "simcore.py",
        "            if copy.state != _IN_FLIGHT:\n                self._move(copy, _RETIRED, now)",
        "            if copy.state == _QUEUED:\n                self._move(copy, _RETIRED, now)",
        ("tests/test_simcore.py::TestRollback::test_stuck_at_source_is_stored_until_expiry",),
    ),
    # plan generation per plane pair, against the per-sample generator
    Mutant(
        "plan windows: a run open at the last sample ends past the horizon",
        "constellation.py",
        "last_end = min(times[-1], horizon)",
        "last_end = times[-1]",
        (PLAN + "test_window_open_at_a_last_sample_past_the_horizon",
         PLAN + "test_random_walker_plans"),
    ),
    Mutant(
        "plan windows: a run's last sample one sample late",
        "constellation.py",
        "runs[col].append((first, stop - 1))",
        "runs[col].append((first, stop))",
        (PLAN + "test_bench_and_gate_plans[episodic-12x10]",
         PLAN + "test_episodic_plan_has_windows_that_open_and_close"),
    ),
    Mutant(
        "plan windows: the light time leaves out the window's last sample",
        "constellation.py",
        "dist[i0 : stop + 1, s]",
        "dist[i0 : stop, s]",
        (PLAN + "test_bench_and_gate_plans[nels-130s]",
         PLAN + "test_bench_and_gate_plans[episodic-12x10]",
         PLAN + "test_random_walker_plans"),
    ),
    Mutant(
        "plane pairs: plane q's slots misaligned by one",
        "constellation.py",
        "there = plane(q)",
        "there = np.roll(plane(q), 1, axis=1)",
        (PLAN + "test_bench_and_gate_plans[nels-130s]",
         PLAN + "test_bench_and_gate_plans[orbit-24x20]",
         PLAN + "test_edge_shapes[two-planes]",
         PLAN + "test_random_walker_plans"),
    ),
)

EQUIVALENT = (
    (
        "_exact: no `< 2.0**52`",
        "at or past 2**52 no window is open, since `positive_whole_times` keeps the "
        "horizon below 2**52, so no start edge survives; every caller departs at 0 or later",
    ),
    (
        "bounded spurs: `<` for `<=` in the prune test",
        "no label sum lands exactly on the padded bound",
    ),
)

NOT_TRANSCRIBED = (
    "graph vertices: pruning contacts that end within 3 s of a node's earliest arrival",
    "same-instant reviews: caching Route objects",
    "Lawler's restriction: skipping j <= d, or only j == d when d > 0",
    "node indices: numeric or insertion-order numbering",
    "bounded spurs: the bound at B* with a strict prune, h[node] for h[to], "
    "a bound kept when confirm is set",
    "copy states: a copy not removed from `stored` when it leaves that state",
    "occupancy: the bisections swapped or taken on one side",
    "residual tables: an uncached `uniform()`, a residual table kept on the plan, "
    "a rollback or EVL that ignores the table, no `Bundle` check",
    "`compute_pat`: `t_end = last + 1`",
    "hop traces: upstream as `hop_trace[0]`, no trace filter in `_critical_candidates`, "
    "critical children with a fresh trace",
    "`compute_eto`: a busy wait measured from `now` in place of `start`",
    "computing metric: `len(routes)` counted in place of `min(len(routes) + 1, k)`",
)


def _failed(ids: tuple[str, ...], cwd: Path) -> set[str]:
    """The named tests that fail (or error) when run in ``cwd``."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *ids],
        cwd=cwd, capture_output=True, text=True,
    )
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE))


def run(mutant: Mutant) -> tuple[str, str]:
    """(verdict, detail) of one row: killed, survived or stale."""
    text = (ROOT / "src" / "cgrlab" / mutant.file).read_text()
    if text.count(mutant.old) != 1:
        return "stale", f"{text.count(mutant.old)} occurrences of the old text"
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for name in ("conftest.py", "pyproject.toml"):
            shutil.copy(ROOT / name, work / name)
        (work / "src" / "cgrlab" / mutant.file).write_text(text.replace(mutant.old, mutant.new))
        failed = _failed(mutant.kills, work)
    passed = [t for t in mutant.kills if t not in failed]
    if passed:
        return "survived", "passed: " + ", ".join(passed)
    return "killed", f"{len(mutant.kills)} tests failed"


def main(argv: list[str]) -> int:
    rows = [m for m in MUTANTS if not argv or any(a in m.name for a in argv)]
    counts = {"killed": 0, "survived": 0, "stale": 0}
    for mutant in rows:
        verdict, detail = run(mutant)
        counts[verdict] += 1
        print(f"{verdict:8} {mutant.name} ({detail})", flush=True)
    print(
        f"mutants: {counts['killed']} killed, {counts['survived']} survived, "
        f"{counts['stale']} stale of {len(rows)} rows; {len(EQUIVALENT)} equivalent "
        f"and {len(NOT_TRANSCRIBED)} not yet transcribed, not run"
    )
    return 1 if counts["survived"] or counts["stale"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
