"""Command line behavior: plan generation, route queries, simulation, compare."""

import contextlib
import csv
import io
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cgrlab.cli import main
from cgrlab.contactplan import make_demo_plan, parse_contact_plan, serialize_contact_plan


TASK_HEADER = "bundle_id,source,dest,size_mb,priority,critical,t_gen,t_exp\n"
SUMMARY_HEADER = (
    "seed,policy,generated,delivered,failed,delivery_rate,mean_r_o,computing,"
    "peak_at_sending,mean_early_margin\n"
)
SUMMARY_ROW = "1,rmdg,10,9,1,0.9,0.25,100,5,3\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenPlan:
    def test_writes_constellation_plan(self, tmp_path, capsys):
        out = tmp_path / "plan.txt"
        code, _, err = run_cli(
            capsys,
            "gen-plan", "--walker", "12x10", "--phase", "1", "--alt", "1200",
            "--inc", "55", "--horizon", "120", "--step", "10", "--out", str(out),
        )
        assert code == 0
        plan = parse_contact_plan(out.read_text())
        assert len(plan.node_ids) == 120
        assert plan.horizon == 120

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen-plan", "--walker", "12x10"),
            ("route", "--walker", "3x3", "--from", "1", "--to", "2"),
            ("simulate", "--walker", "3x3", "--policy", "rmdg"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_altitude_is_usage_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == "error: --alt is required\n"

    def test_zero_interorbit_gives_intraorbit_only(self, tmp_path, capsys):
        out = tmp_path / "plan.txt"
        code, _, _ = run_cli(
            capsys,
            "gen-plan", "--walker", "4x3", "--alt", "1200", "--horizon", "60",
            "--step", "10", "--max-interorbit", "0", "--out", str(out),
        )
        assert code == 0
        plan = parse_contact_plan(out.read_text())
        planes = {(int(c.from_node) - 1) // 4 == (int(c.to_node) - 1) // 4 for c in plan.contacts}
        assert planes == {True}

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-plan", "--walker", "12x10", "--bogus"])
        assert exc.value.code == 2

    def test_positions_csv_emitted(self, tmp_path, capsys):
        out = tmp_path / "plan.txt"
        pos = tmp_path / "positions.csv"
        code, _, _ = run_cli(
            capsys,
            "gen-plan", "--walker", "4x3", "--alt", "1200", "--horizon", "20",
            "--step", "10", "--out", str(out), "--positions", str(pos),
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(pos.read_text())))
        assert pos.read_text().splitlines()[0] == "t,sat_id,x,y,z"
        assert len(rows) == 3 * 12  # three samples of twelve satellites
        for t in ("0", "10", "20"):
            assert [r["sat_id"] for r in rows if r["t"] == t] == [str(i) for i in range(1, 13)]
        # the plan's node labels are the satellites the CSV places
        plan = parse_contact_plan(out.read_text())
        assert {r["sat_id"] for r in rows} == set(plan.node_ids)

    def test_positions_follow_fractional_step(self, tmp_path, capsys):
        pos = tmp_path / "positions.csv"
        code, _, _ = run_cli(
            capsys,
            "gen-plan", "--walker", "4x3", "--alt", "1200", "--horizon", "10",
            "--step", "2.5", "--out", str(tmp_path / "plan.txt"), "--positions", str(pos),
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(pos.read_text())))
        assert list(dict.fromkeys(r["t"] for r in rows)) == ["0", "2.5", "5", "7.5", "10"]

    def test_fractional_step_plan_parses_and_routes(self, tmp_path, capsys):
        # at a 2.5 s step the sampled inter-plane windows end on half seconds
        out = tmp_path / "plan.txt"
        code, _, _ = run_cli(
            capsys,
            "gen-plan", "--walker", "6x4", "--alt", "1200", "--horizon", "1000",
            "--step", "2.5", "--max-interorbit", "2500", "--out", str(out),
        )
        assert code == 0
        plan = parse_contact_plan(out.read_text())
        inter = [c for c in plan.contacts if (c.t_start, c.t_end) != (0, 1000)]
        assert inter and all(c.t_end > c.t_start for c in inter)
        code, routes, _ = run_cli(
            capsys, "route", "--plan", str(out), "--from", "1", "--to", "5", "--k", "4"
        )
        assert code == 0
        hops = {int(h) for row in routes.splitlines()[1:] for h in row.split(",")[-1].split(";")}
        assert hops & {c.id for c in inter}


class TestRoute:
    def test_demo_plan_golden_first_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "route", "--demo-plan", "--from", "A", "--to", "F", "--k", "7"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rank,bdt,volume,vti_start,vti_end,hops"
        assert len(lines) >= 8  # at least 7 routes plus header
        assert lines[1].startswith("1,32,10,0,9,")

    def test_k1_matches_single_best(self, capsys):
        code, out, _ = run_cli(
            capsys, "route", "--demo-plan", "--from", "A", "--to", "F", "--k", "1"
        )
        assert code == 0
        assert out.splitlines()[1].startswith("1,32,10,0,9,")

    def test_unreachable_destination_warns_empty(self, tmp_path, capsys):
        plan = tmp_path / "p.txt"
        plan.write_text(
            "a contact +0 +60 A B 1\na range +0 +60 A B 1\n"
            "a contact +0 +60 C D 1\na range +0 +60 C D 1\n"
        )
        code, out, err = run_cli(
            capsys, "route", "--plan", str(plan), "--from", "A", "--to", "D"
        )
        assert code == 0
        assert out.strip() == "rank,bdt,volume,vti_start,vti_end,hops"
        assert "no route" in err

    def test_unknown_node_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "route", "--demo-plan", "--from", "A", "--to", "Z"
        )
        assert code == 2

    def test_same_endpoints_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "route", "--demo-plan", "--from", "A", "--to", "A"
        )
        assert code == 2
        assert out == ""
        assert err == "error: --from and --to must name different nodes\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("route", "--demo-plan", "--from", "A", "--to", "F"),
        ("simulate", "--demo-plan", "--policy", "standard", "--source", "A"),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("k", ["0", "-3", "two"])
def test_bad_k_is_usage_error(capsys, argv, k):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--k", k])
    assert exc.value.code == 2
    err_lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(err_lines) == 1 and "--k" in err_lines[0]


@pytest.mark.parametrize("duration", ["0", "-5"])
def test_bad_duration_is_usage_error(capsys, duration):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--demo-plan", "--policy", "standard", "--source", "A",
              "--duration", duration])
    assert exc.value.code == 2
    err_lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(err_lines) == 1 and "--duration" in err_lines[0]


@pytest.mark.parametrize("command", ["gen-plan", "route", "simulate"])
@pytest.mark.parametrize("horizon", ["0", "-5", "0.5", "ten"])
def test_bad_horizon_is_usage_error(tmp_path, capsys, command, horizon):
    argv = {
        "gen-plan": ["gen-plan"],
        "route": ["route", "--from", "1", "--to", "2"],
        "simulate": ["simulate", "--policy", "rmdg", "--out", str(tmp_path / "run")],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--walker", "4x3", "--alt", "1200", "--step", "10", "--horizon", horizon])
    assert exc.value.code == 2
    err_lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(err_lines) == 1 and "--horizon" in err_lines[0]
    assert not (tmp_path / "run").exists()


def test_traffic_past_horizon_is_usage_error(tmp_path, capsys):
    outdir = tmp_path / "run"
    code, out, err = run_cli(
        capsys,
        "simulate", "--walker", "4x3", "--alt", "1200", "--horizon", "10", "--step", "5",
        "--policy", "rmdg", "--source", "1", "--out", str(outdir),
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: seed 1: ")
    assert "--duration" in err and "--horizon" in err
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["gen-plan", "route", "simulate"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--phase", "9", "phase_factor must lie in [0, planes)"),
        ("--terminals", "1", "at least 2 ISL terminals are required"),
        ("--step", "0", "step must be at least 1 second"),
        ("--alt", "-5", "constellation dimensions must be positive"),
        ("--rate", "0", "contact 1: rate must be positive"),
    ],
    ids=["phase", "terminals", "step", "alt", "rate"],
)
def test_rejected_walker_flag_is_usage_error(tmp_path, capsys, command, flag, value, message):
    argv = {
        "gen-plan": ["gen-plan"],
        "route": ["route", "--from", "1", "--to", "2"],
        "simulate": ["simulate", "--policy", "rmdg", "--out", str(tmp_path / "run")],
    }[command]
    walker = ["--walker", "4x3", "--alt", "1200", "--horizon", "20", "--step", "10"]
    code, out, err = run_cli(capsys, *argv, *walker, flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["gen-plan", "route", "simulate"])
@pytest.mark.parametrize("flag", ["--rate", "--alt", "--inc", "--max-interorbit", "--step"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_walker_flag_is_usage_error(tmp_path, capsys, command, flag, value):
    argv = {
        "gen-plan": ["gen-plan"],
        "route": ["route", "--from", "1", "--to", "2"],
        "simulate": ["simulate", "--policy", "rmdg", "--out", str(tmp_path / "run")],
    }[command]
    walker = ["--walker", "4x3", "--alt", "1200", "--horizon", "20", "--step", "10"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, *walker, f"{flag}={value}"])
    assert exc.value.code == 2
    err_lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(err_lines) == 1 and flag in err_lines[0] and "finite" in err_lines[0]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("depart", ["nan", "inf", "-1", "soon"])
def test_bad_depart_is_usage_error(capsys, depart):
    with pytest.raises(SystemExit) as exc:
        main(["route", "--demo-plan", "--from", "A", "--to", "F", "--depart", depart])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(err_lines) == 1 and "--depart" in err_lines[0]


def test_bad_walker_spec_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-plan", "--walker", "12y10", "--alt", "1200"])
    assert exc.value.code == 2
    err_lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(err_lines) == 1 and err_lines[0].endswith(
        "argument --walker: walker spec '12y10' must look like 12x10 (sats-per-plane x planes)"
    )


@pytest.mark.parametrize("command", ["route", "simulate"])
def test_no_plan_source_is_usage_error(tmp_path, capsys, command):
    argv = {
        "route": ["route", "--from", "A", "--to", "F"],
        "simulate": ["simulate", "--policy", "rmdg", "--source", "A",
                     "--out", str(tmp_path / "run")],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: one plan source is required: --plan, --walker or --demo-plan\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("a contact +-5 +10 A B 1\n", "line 1: negative time '+-5'"),
        ("a horizon +10 +3\na contact +0 +3 A B 1\n", "line 1: horizon takes one time field"),
        ("a contact +0 +10 A B 1\na range +0 +10 A B -1\n", "line 2: negative owlt"),
        ("a contact +0 +10 A B 1 -2\n", "line 1: contact 1: owlt must be non-negative"),
        ("a horizon +5\na contact +0 +10 A B 1\n",
         "line 2: contact 1 ends at 10, beyond horizon 5"),
    ],
    ids=["negative-time", "two-field-horizon", "negative-range", "negative-light-time",
         "past-horizon"],
)
def test_bad_plan_line_is_runtime_error(tmp_path, capsys, text, message):
    plan = tmp_path / "plan.txt"
    plan.write_text(text)
    code, out, err = run_cli(capsys, "route", "--plan", str(plan), "--from", "A", "--to", "B")
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


class TestSimulateAndCompare:
    def _simulate(self, capsys, tmp_path, policy, extra=()):
        outdir = tmp_path / policy
        return run_cli(
            capsys,
            "simulate", "--demo-plan", "--policy", policy, "--seed", "1,2",
            "--source", "A", "--duration", "20", "--k", "4",
            "--out", str(outdir), *extra,
        )

    def test_simulate_writes_metrics_and_summary(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CGRLAB_OUT", raising=False)
        code, out, _ = self._simulate(capsys, tmp_path, "rmdg")
        assert code == 0
        outdir = tmp_path / "rmdg"
        assert (outdir / "metrics_rmdg_1.csv").exists()
        assert (outdir / "bundles_rmdg_2.csv").exists()
        rows = list(csv.DictReader((outdir / "summary_rmdg.csv").open()))
        assert [r["seed"] for r in rows] == ["1", "2"]

    def test_empty_seed_list_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CGRLAB_OUT", raising=False)
        outdir = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--demo-plan", "--policy", "rmdg", "--source", "A",
                  "--seed", "", "--out", str(outdir)])
        assert exc.value.code == 2
        err_lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(err_lines) == 1 and err_lines[0].endswith("argument --seed: no seeds given")
        assert not outdir.exists()

    def test_unknown_source_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CGRLAB_OUT", raising=False)
        outdir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, "simulate", "--demo-plan", "--policy", "rmdg", "--source", "ZZ",
            "--out", str(outdir),
        )
        assert (code, out) == (2, "")
        assert err == "error: source node 'ZZ' not in plan\n"
        assert not outdir.exists()

    def test_invalid_policy_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--demo-plan", "--policy", "bogus"])
        assert exc.value.code == 2

    def test_env_var_overrides_outdir(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("CGRLAB_OUT", str(env_dir))
        code, _, _ = self._simulate(capsys, tmp_path, "standard")
        assert code == 0
        assert (env_dir / "summary_standard.csv").exists()

    def test_compare_identical_inputs_all_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CGRLAB_OUT", raising=False)
        self._simulate(capsys, tmp_path, "rmdg")
        summary = tmp_path / "rmdg" / "summary_rmdg.csv"
        code, out, err = run_cli(
            capsys, "compare", "--a", str(summary), "--b", str(summary)
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert all(float(x) == 0 for x in line.split(",")[1:])

    def test_compare_paired_policies(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CGRLAB_OUT", raising=False)
        self._simulate(capsys, tmp_path, "standard")
        self._simulate(capsys, tmp_path, "rmdg")
        code, out, _ = run_cli(
            capsys,
            "compare",
            "--a", str(tmp_path / "standard" / "summary_standard.csv"),
            "--b", str(tmp_path / "rmdg" / "summary_rmdg.csv"),
        )
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == [
            "seed", "delta_delivery_rate", "delta_mean_early_margin",
            "delta_mean_r_o", "delta_computing", "delta_peak_at_sending",
        ]
        assert len(out.strip().splitlines()) == 3

    def test_compare_out_writes_its_table(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CGRLAB_OUT", raising=False)
        self._simulate(capsys, tmp_path, "rmdg")
        summary = tmp_path / "rmdg" / "summary_rmdg.csv"
        outdir = tmp_path / "cmp"
        code, out, _ = run_cli(
            capsys, "compare", "--a", str(summary), "--b", str(summary), "--out", str(outdir)
        )
        assert code == 0
        assert (outdir / "comparison.csv").read_text() == out
        assert out.startswith("seed,delta_delivery_rate,") and len(out.splitlines()) == 3

    def test_compare_disjoint_seeds_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CGRLAB_OUT", raising=False)
        self._simulate(capsys, tmp_path, "rmdg")
        base = tmp_path / "rmdg" / "summary_rmdg.csv"
        other = tmp_path / "other.csv"
        text = base.read_text().splitlines()
        other.write_text("\n".join([text[0]] + [line.replace("1,", "9,", 1) for line in text[1:2]]) + "\n")
        code, _, err = run_cli(capsys, "compare", "--a", str(base), "--b", str(other))
        assert code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            (SUMMARY_HEADER.replace("seed,", "") + SUMMARY_ROW.split(",", 1)[1],
             "line 2: field 'seed' missing"),
            (SUMMARY_HEADER.replace("computing,", "") + SUMMARY_ROW.replace("100,", ""),
             "line 2: field 'computing' missing"),
            (SUMMARY_HEADER + SUMMARY_ROW.replace("0.9,", ","),
             "line 2: field 'delivery_rate' missing"),
            (SUMMARY_HEADER + SUMMARY_ROW.replace("0.9,", "high,"),
             "line 2: field 'delivery_rate' unparsable ('high')"),
            (SUMMARY_HEADER + SUMMARY_ROW.replace("1,", "one,", 1),
             "line 2: field 'seed' unparsable ('one')"),
            (SUMMARY_HEADER + SUMMARY_ROW + SUMMARY_ROW, "line 3: seed 1 repeated"),
        ],
        ids=["no-seed", "no-field", "empty-field", "unparsable-field", "unparsable-seed",
             "repeated-seed"],
    )
    def test_bad_summary_is_runtime_error(self, tmp_path, capsys, text, message):
        bad, ok = tmp_path / "s.csv", tmp_path / "ok.csv"
        bad.write_text(text)
        ok.write_text(SUMMARY_HEADER + SUMMARY_ROW)
        for a, b in ((bad, ok), (ok, bad)):
            code, out, err = run_cli(capsys, "compare", "--a", str(a), "--b", str(b))
            assert (code, out) == (1, "")
            assert err == f"error: {bad} {message}\n"

    @pytest.mark.parametrize("seeds, repeated", [("1,1", 1), ("1..3,2", 2)])
    def test_repeated_seed_is_usage_error(self, tmp_path, capsys, monkeypatch, seeds, repeated):
        monkeypatch.delenv("CGRLAB_OUT", raising=False)
        outdir = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--demo-plan", "--policy", "rmdg", "--source", "A",
                  "--seed", seeds, "--out", str(outdir)])
        assert exc.value.code == 2
        err_lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(err_lines) == 1 and err_lines[0].endswith(f"seed {repeated} repeated")
        assert not outdir.exists()

    @pytest.mark.parametrize("seeds, reversed_range", [("1,5..3", "5..3"), ("5..3", "5..3")])
    def test_reversed_seed_range_is_usage_error(self, tmp_path, capsys, monkeypatch, seeds,
                                                reversed_range):
        monkeypatch.delenv("CGRLAB_OUT", raising=False)
        outdir = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--demo-plan", "--policy", "rmdg", "--source", "A",
                  "--seed", seeds, "--out", str(outdir)])
        assert exc.value.code == 2
        err_lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(err_lines) == 1
        assert err_lines[0].endswith(f"seed range {reversed_range} runs backwards")
        assert not outdir.exists()

    def test_tasks_file_input(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CGRLAB_OUT", raising=False)
        tasks = tmp_path / "tasks.csv"
        tasks.write_text(TASK_HEADER + "1,A,F,1,1,0,0,40\n")
        outdir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--demo-plan", "--policy", "standard",
            "--tasks", str(tasks), "--source", "A", "--out", str(outdir),
        )
        assert code == 0
        rows = list(csv.DictReader((outdir / "bundles_standard_1.csv").open()))
        assert rows[0]["outcome"] == "delivered"

    def test_tasks_with_seed_list_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CGRLAB_OUT", raising=False)
        tasks = tmp_path / "tasks.csv"
        tasks.write_text(TASK_HEADER + "1,A,F,1,1,0,0,40\n")
        outdir = tmp_path / "run"
        code, _, err = run_cli(
            capsys,
            "simulate", "--demo-plan", "--policy", "standard", "--tasks", str(tasks),
            "--seed", "1..3", "--source", "A", "--out", str(outdir),
        )
        assert code == 2
        assert err == "error: --tasks runs one fixed task list: give at most one --seed\n"
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                TASK_HEADER.replace("dest,", "") + "1,A,1,1,0,0,40\n",
                "error: tasks line 2: field 'dest' missing\n",
            ),
            (
                TASK_HEADER + "1,A,F,x,1,0,0,40\n",
                "error: tasks line 2: field 'size_mb' unparsable ('x')\n",
            ),
            (
                TASK_HEADER + "1,A,F,1,1,0,0,40\n1,A,E,1,1,0,0,40\n",
                "error: tasks line 3: duplicate bundle id 1\n",
            ),
            (
                TASK_HEADER + "1,A,F,1,1,0,500,540\n",
                "error: tasks line 2: bundle 1 generated outside the plan horizon\n",
            ),
            (
                TASK_HEADER + "1,A,F,1,1,0,0,40\n2,A,Z,1,1,0,0,40\n",
                "error: tasks line 3: bundle 2 references unknown node 'Z'\n",
            ),
            (
                TASK_HEADER + "1,A,F,1,1,0,0,inf\n",
                "error: tasks line 2: field 't_exp' unparsable ('inf')\n",
            ),
            (
                TASK_HEADER + "1,A,F,1,1,0,0,nan\n",
                "error: tasks line 2: field 't_exp' unparsable ('nan')\n",
            ),
            (
                TASK_HEADER + "1,A,F,inf,1,0,0,40\n",
                "error: tasks line 2: field 'size_mb' unparsable ('inf')\n",
            ),
            (
                TASK_HEADER + "1,A,F,1,2,7,0,40\n",
                "error: tasks line 2: field 'critical' unparsable ('7')\n",
            ),
            (
                TASK_HEADER + "1,A,F,1,1,0,0,40\n2,A,F,1,0,0,40,30\n",
                "error: tasks line 3: bundle 2: t_exp must exceed t_gen\n",
            ),
            (
                TASK_HEADER + "1,A,A,1,0,0,0,30\n",
                "error: tasks line 2: bundle 1: source and destination must differ\n",
            ),
            (
                TASK_HEADER + "1,A,F,1,0,0,0,1e300\n",
                "error: tasks line 2: bundle 1: expires past the run cap of 1000000 s\n",
            ),
            (
                TASK_HEADER + "1,A,F,0,1,0,0,40\n",
                "error: tasks line 2: bundle 1: size must be positive\n",
            ),
        ],
        ids=[
            "missing-field", "unparsable-field", "duplicate-id", "past-horizon",
            "unknown-node", "inf-expiry", "nan-expiry", "inf-size", "critical-7", "expiry-before-generation",
            "source-is-destination", "expiry-past-cap", "zero-size",
        ],
    )
    def test_bad_tasks_file_is_runtime_error(self, tmp_path, capsys, monkeypatch, text, message):
        monkeypatch.delenv("CGRLAB_OUT", raising=False)
        tasks = tmp_path / "tasks.csv"
        tasks.write_text(text)
        code, _, err = run_cli(
            capsys,
            "simulate", "--demo-plan", "--policy", "standard",
            "--tasks", str(tasks), "--source", "A", "--out", str(tmp_path / "run"),
        )
        assert code == 1
        assert err == message


DEMO_PLAN_TEXT = serialize_contact_plan(make_demo_plan())
THREE_TASKS = TASK_HEADER + "1,A,F,1,1,0,0,40\n2,B,E,2,2,1,3,50\n3,C,A,1,0,0,10,45\n"
# Tokens a mutation writes: separators, node names, directive words, and
# numbers that are negative, fractional, not finite, past the run cap of
# 10**6 s, or late in a 60 s plan.  A finite time far past the plan keeps
# one run writing a metrics line per second up to it (10**6 lines for
# 10**6 s), so none is drawn.
PAYLOADS = (
    "", " ", ",", "\n", "#", "+", "-", "a", "contact", "range", "horizon", "A", "F", "Z",
    "x", "0", "+0", "1", "+1", "-1", "2", "7", "0.5", "+59", "+61", "+90", "120",
    "1e300", "+1e300", "1000001", "nan", "inf", "-inf",
)


@st.composite
def mutations(draw, text):
    """``text`` after one to three edits: a token (a run of characters other
    than whitespace and commas) replaced, a payload inserted, a few
    characters deleted, or a line dropped or repeated."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("token", "token", "insert", "delete", "line")))
        tokens = [m.span() for m in re.finditer(r"[^\s,]+", text)]
        lines = text.splitlines(keepends=True)
        if kind == "token" and tokens:
            start, end = draw(st.sampled_from(tokens))
            text = text[:start] + draw(st.sampled_from(PAYLOADS)) + text[end:]
        elif kind == "insert":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(PAYLOADS)) + text[at:]
        elif kind == "delete":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + text[at + draw(st.integers(1, 4)):]
        elif lines:
            at = draw(st.integers(0, len(lines) - 1))
            lines[at:at + 1] = [lines[at]] * draw(st.integers(0, 2))
            text = "".join(lines)
    return text


class TestMutatedInputs:
    """Mutated plan and task files end in an exit code, never a traceback."""

    @settings(
        max_examples=150, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        plan_text=st.one_of(st.just(DEMO_PLAN_TEXT), mutations(DEMO_PLAN_TEXT)),
        tasks_text=st.one_of(st.just(THREE_TASKS), mutations(THREE_TASKS)),
        policy=st.sampled_from(["standard", "rmdg"]),
    )
    def test_simulate_and_route_exit_0_1_or_2(self, monkeypatch, plan_text, tasks_text, policy):
        monkeypatch.delenv("CGRLAB_OUT", raising=False)
        with tempfile.TemporaryDirectory() as tmp:
            plan, tasks = Path(tmp, "plan.txt"), Path(tmp, "tasks.csv")
            plan.write_text(plan_text)
            tasks.write_text(tasks_text)
            for argv in (
                ["simulate", "--plan", str(plan), "--policy", policy, "--tasks", str(tasks),
                 "--source", "A", "--out", str(Path(tmp, "run"))],
                ["route", "--plan", str(plan), "--from", "A", "--to", "F", "--k", "3"],
            ):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                assert code in (0, 1, 2)
