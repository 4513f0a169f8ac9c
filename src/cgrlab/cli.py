"""Command line front end: plan generation, route queries, simulation, A/B runs.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  The environment
variable ``CGRLAB_OUT`` overrides any ``--out`` directory.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path

import numpy as np

from cgrlab import constellation, simcore, traffic
from cgrlab.contactplan import (
    ContactPlan,
    make_demo_plan,
    parse_contact_plan,
    serialize_contact_plan,
)
from cgrlab.routesearch import build_contact_graph, routes_to_csv, yen_plus


class SystemExit2(Exception):
    """Usage error that should exit with status 2."""


def _parse_walker(value: str) -> tuple[int, int]:
    try:
        sats, planes = value.lower().split("x")
        return int(sats), int(planes)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"walker spec {value!r} must look like 12x10 (sats-per-plane x planes)"
        ) from None


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {number}")
    return number


def _finite_float(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number") from None
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(f"must be finite, got {value!r}")
    return number


def _departure(value: str) -> float:
    number = _finite_float(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value!r}")
    return number


def _positive_seconds(value: str) -> float:
    """A whole number of seconds, at least 1: plan windows are integer seconds."""
    return float(_positive_int(value))


def _parse_seeds(value: str) -> list[int]:
    seeds: list[int] = []
    for part in value.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = (int(end) for end in part.split(".."))
            if lo > hi:
                raise argparse.ArgumentTypeError(f"seed range {part} runs backwards")
            seeds.extend(range(lo, hi + 1))
        elif part:
            seeds.append(int(part))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds given")
    seen: set[int] = set()
    for seed in seeds:
        if seed in seen:
            raise argparse.ArgumentTypeError(f"seed {seed} repeated")
        seen.add(seed)
    return seeds


def _walker_plan(
    args: argparse.Namespace,
) -> tuple[constellation.WalkerParams, ContactPlan]:
    """The Walker parameters given by the walker flags and their contact plan.

    The library validates the flag values; what it rejects is a usage error.
    """
    if args.alt is None:
        raise SystemExit2("--alt is required")
    sats, planes = args.walker
    try:
        params = constellation.WalkerParams(
            sats_per_plane=sats,
            planes=planes,
            phase_factor=args.phase,
            altitude_km=args.alt,
            inclination_deg=args.inc,
        )
        constraints = constellation.IslConstraints(
            max_interorbit_km=args.max_interorbit, terminals_per_sat=args.terminals
        )
        plan = constellation.generate_contact_plan(
            params, constraints, horizon=args.horizon, step=args.step, rate=args.rate
        )
    except ValueError as exc:
        raise SystemExit2(str(exc)) from None
    return params, plan


def _load_plan(args: argparse.Namespace) -> ContactPlan:
    if getattr(args, "demo_plan", False):
        return make_demo_plan()
    if getattr(args, "plan", None):
        return parse_contact_plan(Path(args.plan).read_text())
    if getattr(args, "walker", None):
        return _walker_plan(args)[1]
    raise SystemExit2("one plan source is required: --plan, --walker or --demo-plan")


def _add_walker_flags(parser: argparse.ArgumentParser, require: bool = False) -> None:
    parser.add_argument("--walker", type=_parse_walker, required=require,
                        help="constellation as SATSxPLANES, e.g. 12x10")
    parser.add_argument("--phase", type=int, default=1, help="Walker phase factor")
    parser.add_argument("--alt", type=_finite_float, help="orbital altitude in km")
    parser.add_argument("--inc", type=_finite_float, default=55.0, help="inclination in degrees")
    parser.add_argument("--horizon", type=_positive_seconds, default=6565.0,
                        help="plan horizon in whole seconds")
    parser.add_argument("--step", type=_finite_float, default=1.0, help="sampling step in seconds")
    parser.add_argument("--max-interorbit", type=_finite_float, default=4909.0,
                        help="maximum inter-plane link distance in km")
    parser.add_argument("--terminals", type=int, default=4, help="ISL terminals per satellite")
    parser.add_argument("--rate", type=_finite_float, default=1.0, help="link rate in Mb/s")


def _cmd_gen_plan(args: argparse.Namespace) -> int:
    params, plan = _walker_plan(args)
    text = serialize_contact_plan(plan)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(plan.contacts)} contacts to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    if args.positions:
        # the plan's own sampling instants, those at or below the horizon
        times = np.arange(0.0, args.horizon + args.step, args.step)
        times = times[times <= args.horizon].tolist()
        with Path(args.positions).open("w") as out:
            out.writelines(constellation.positions_csv_chunks(params, times))
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    plan = _load_plan(args)
    if args.src not in plan.node_ids or args.dst not in plan.node_ids:
        raise SystemExit2(f"unknown node; plan knows {len(plan.node_ids)} nodes")
    if args.src == args.dst:
        raise SystemExit2("--from and --to must name different nodes")
    graph = build_contact_graph(plan, args.src, args.dst)
    routes = yen_plus(graph, args.k, depart=args.depart)
    if not routes:
        print(f"warning: no route from {args.src} to {args.dst}", file=sys.stderr)
    sys.stdout.write(routes_to_csv(routes))
    return 0


def _out_dir(args: argparse.Namespace) -> Path:
    out = os.environ.get("CGRLAB_OUT") or args.out
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _scenario_bundles(args: argparse.Namespace, plan: ContactPlan, seed: int):
    if args.tasks:
        return traffic.read_tasks(Path(args.tasks).read_text(), plan)
    dest_pool = tuple(sorted(plan.node_ids - {args.source}))
    spec = traffic.ScenarioSpec(
        seed=seed,
        duration=args.duration,
        source=args.source,
        dest_pool=dest_pool,
        with_critical=not args.no_critical,
    )
    bundles = traffic.generate_scenario(spec)
    last = max(b.t_gen for b in bundles)
    if last > plan.horizon:
        raise SystemExit2(
            f"seed {seed}: traffic generated until t={last:g} s outruns the plan "
            f"horizon {plan.horizon:g} s; shorten --duration or lengthen --horizon"
        )
    return bundles


def _run_one(plan, bundles, policy, seed, k, outdir) -> dict:
    metrics = simcore.run_simulation(plan, bundles, policy, seed=seed, k=k)
    with (outdir / f"metrics_{policy}_{seed}.csv").open("w") as out:
        out.writelines(metrics.metrics_csv_chunks())
    (outdir / f"bundles_{policy}_{seed}.csv").write_text(metrics.bundles_csv())
    return {
        "seed": seed,
        "policy": policy,
        "generated": metrics.generated,
        "delivered": metrics.delivered_count,
        "failed": metrics.failed_count,
        "delivery_rate": round(metrics.delivery_rate(), 6),
        "mean_r_o": round(metrics.mean_occupancy(), 6),
        "computing": metrics.computing_total,
        "peak_at_sending": round(metrics.peak_at_sending(), 3),
        "mean_early_margin": round(metrics.mean_early_margin(), 3),
    }


_SUMMARY_FIELDS = (
    "seed", "policy", "generated", "delivered", "failed", "delivery_rate",
    "mean_r_o", "computing", "peak_at_sending", "mean_early_margin",
)


def _write_summary(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SUMMARY_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.tasks and len(args.seeds) > 1:
        raise SystemExit2("--tasks runs one fixed task list: give at most one --seed")
    plan = _load_plan(args)
    if args.source not in plan.node_ids:
        raise SystemExit2(f"source node {args.source!r} not in plan")
    scenarios = [(seed, _scenario_bundles(args, plan, seed)) for seed in args.seeds]
    outdir = _out_dir(args)
    rows = [
        _run_one(plan, bundles, args.policy, seed, args.k, outdir)
        for seed, bundles in scenarios
    ]
    _write_summary(outdir / f"summary_{args.policy}.csv", rows)
    means = {
        key: sum(r[key] for r in rows) / len(rows)
        for key in ("delivery_rate", "mean_r_o", "computing", "peak_at_sending", "mean_early_margin")
    }
    print(
        f"{args.policy}: {len(rows)} run(s); mean delivery_rate "
        f"{means['delivery_rate']:.3f}, mean R_O {means['mean_r_o']:.4f}, "
        f"mean computing {means['computing']:.0f}, "
        f"mean peak at_sending {means['peak_at_sending']:.0f} Mb"
    )
    return 0


_COMPARED = ("delivery_rate", "mean_early_margin", "mean_r_o", "computing", "peak_at_sending")
# the summary columns compare reads, with their parsers
_COMPARE_COLUMNS = (("seed", int),) + tuple((f, float) for f in _COMPARED)


def _read_summary(path: Path) -> dict[int, dict[str, float]]:
    """Each seed's compared fields in a summary file.

    Raises ValueError naming the file, line and field when a row lacks a
    field or a field does not parse, and when a seed repeats.
    """
    summary: dict[int, dict[str, float]] = {}
    with path.open() as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            where = f"{path} line {reader.line_num}"
            values = traffic.parse_fields(row, _COMPARE_COLUMNS, where)
            seed = values.pop("seed")
            if seed in summary:
                raise ValueError(f"{where}: seed {seed} repeated")
            summary[seed] = values
    return summary


def _cmd_compare(args: argparse.Namespace) -> int:
    a = _read_summary(Path(args.a))
    b = _read_summary(Path(args.b))
    shared = sorted(set(a) & set(b))
    if not shared:
        raise SystemExit2("the two summaries share no seeds")
    lines = ["seed," + ",".join(f"delta_{f}" for f in _COMPARED)]
    deltas = {f: 0.0 for f in _COMPARED}
    for seed in shared:
        row = [str(seed)]
        for f in _COMPARED:
            d = b[seed][f] - a[seed][f]
            deltas[f] += d
            row.append(f"{d:g}")
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        outdir = _out_dir(args)
        (outdir / "comparison.csv").write_text(text)
    sys.stdout.write(text)
    n = len(shared)
    print(
        f"# mean deltas (b - a) over {n} seed(s): "
        + ", ".join(f"{f} {deltas[f] / n:+.4f}" for f in _COMPARED),
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cgrlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-plan", help="generate a constellation contact plan")
    _add_walker_flags(gen, require=True)
    gen.add_argument("--out", help="output file (default: stdout)")
    gen.add_argument("--positions", help="also write a positions CSV to this file")
    gen.set_defaults(func=_cmd_gen_plan)

    route = sub.add_parser("route", help="print the best routes between two nodes")
    route.add_argument("--plan", help="contact plan file")
    route.add_argument("--demo-plan", action="store_true", help="use the built-in six-node plan")
    _add_walker_flags(route)
    route.add_argument("--from", dest="src", required=True)
    route.add_argument("--to", dest="dst", required=True)
    route.add_argument("--k", type=_positive_int, default=7)
    route.add_argument("--depart", type=_departure, default=0.0,
                       help="departure time in seconds, at least 0")
    route.set_defaults(func=_cmd_route)

    sim = sub.add_parser("simulate", help="run seeded simulations under one policy")
    sim.add_argument("--plan", help="contact plan file")
    sim.add_argument("--demo-plan", action="store_true")
    _add_walker_flags(sim)
    sim.add_argument("--tasks", help="task CSV file instead of a generated scenario "
                     "(one run: at most one --seed)")
    sim.add_argument("--policy", choices=simcore.POLICIES, required=True)
    sim.add_argument("--k", type=_positive_int, default=4)
    sim.add_argument("--seed", dest="seeds", type=_parse_seeds, default=[1],
                     help="seed list: 1,2,3 or 1..20")
    sim.add_argument("--source", default="1", help="traffic source node")
    sim.add_argument("--duration", type=_positive_int, default=25,
                     help="generation window (s) of priority-2 and -1 traffic; "
                          "priority-0 bursts of 25 s can run past it")
    sim.add_argument("--no-critical", action="store_true", help="omit the critical traffic class")
    sim.add_argument("--out", default="out", help="output directory")
    sim.set_defaults(func=_cmd_simulate)

    cmp_ = sub.add_parser("compare", help="diff two simulate summary files")
    cmp_.add_argument("--a", required=True, help="baseline summary CSV")
    cmp_.add_argument("--b", required=True, help="contender summary CSV")
    cmp_.add_argument("--out", help="directory for comparison.csv")
    cmp_.set_defaults(func=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
