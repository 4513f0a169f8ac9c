"""cgrlab benchmark: simulation workloads timed end to end, and a traced per-layer run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload nels-critical-standard --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                     # every workload, one process each
    python3 bench/run.py --trace 1           # per-layer tables for every workload
    python3 bench/run.py --held-out ...      # the held-out scenario seeds

Each workload runs in its own single-threaded process as a closed loop with
one caller: an operation (see ``workloads.py``) starts only after the
previous one returned.  The loop makes whole passes over the workload's
scenario seeds, in an order drawn from ``--seed``, while the next pass is
expected to end within ``--seconds`` (at least one pass), so every run
measures the same work.  Every operation's ``fingerprint()``,
``computing_total`` and ``delivered_count`` are checked against
``golden.json``; an operation that raises or differs counts as failed.

Times are in reference seconds: host seconds corrected for the host's speed
at the time, which ``hostspeed.py`` samples throughout the run.  Host
seconds are printed beside them and kept in the record under ``bench/out/``.

``--trace 0`` reports the end-to-end metrics, with tracing off:

* ``setup_s``: import time plus the median of several set-ups (plan
  generation, its serialization when ops parse it, scenario generation).
* ``bundles_per_s``: bundles carried to a final outcome per second of
  operations.
* ``run_s_p50``: median seconds per operation, over ``attempted`` ops.
* ``peak_rss_mb``: peak resident memory of the process.

Failed ops over attempted ops (``error_rate``) is printed too; it rides in
the result's ``failed`` and ``attempted`` fields.

``--trace 1`` runs the first half of one pass (rounded up), each scenario
untraced and traced, so that it takes about as long as an untraced run, and
reports per-layer call counts and self times (``tracing.py``),
outcome counts, and the tracing overhead.  ``--seconds`` does not apply, so
that counts repeat exactly.  A layer that some workload never calls reports
its share of op time instead of seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with machine information, per-op times and, for traced runs, the spans, is
written under ``bench/out/``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SRC_PACKAGE = BENCH_DIR.parent / "src" / "cgrlab"
WORKLOAD_NAMES = ("nels-critical-standard", "nels-critical-rmdg", "orbit-24x20-plain")
SETUP_REPEATS = 5
SETUP_OP = -2

# Layers that some workload never calls report their share of op time, not
# seconds: a time that reads 0 on every run is indistinguishable from a stuck
# clock.
SHARE_LAYERS = ("contactplan.parse_contact_plan", "forwarding.forward_critical")
SETUP_LAYERS = ("constellation.generate_contact_plan", "traffic.generate_scenario")
ROOT_LAYER = "simcore.run_simulation"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: every workload)")
    parser.add_argument("--seed", type=int, default=1, help="orders the scenario seeds")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="make passes while the next one should end within this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="run the held-out scenario seeds instead of the default ones")
    return parser.parse_args(argv)


def machine_info(load_at_start: tuple[float, float, float]) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(load_at_start),
    }


def release_free_memory() -> None:
    """Hand freed heap pages back to the OS (glibc only).

    Called between set-ups, so that where the allocator left one set-up's
    freed memory does not decide the next one's footprint: without it the
    orbit plan's peak RSS lands on 69 MB or 79 MB at random.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    trim(0)


def simcore_counts(metrics) -> dict[str, int]:
    return {
        "simcore.computing_total": metrics.computing_total,
        "simcore.dispatches": len(metrics.dispatch_log),
        "simcore.rows": len(metrics.rows),
        "simcore.delivered": metrics.delivered_count,
    }


class OpLoop:
    """Runs and checks operations, keeping one record per op."""

    def __init__(self, wl, workload, inputs, golden) -> None:
        self.wl = wl
        self.workload = workload
        self.inputs = inputs
        self.golden = golden
        self.records: list[dict] = []

    def run(self, seed: int, traced: bool = False):
        """One timed op; returns its metrics, or None when it raised."""
        error = None
        metrics = None
        start = time.perf_counter()
        try:
            metrics = self.wl.run_op(self.workload, self.inputs, seed)
        except Exception as exc:  # a raising op is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if metrics is not None:
            error = self.wl.golden_mismatch(self.golden, self.workload, seed, metrics)
        if error:
            print(f"op failed: {error}", file=sys.stderr)
        self.records.append({
            "scenario_seed": seed,
            "traced": traced,
            "span": (start, end),
            "bundles": 0 if metrics is None else sum(
                1 for r in metrics.records.values() if r.outcome is not None),
            "error": error,
        })
        return metrics

    def time_ops(self, host: HostSpeed) -> None:
        """Fill in each op's host and reference seconds (after the run, so that
        the host-speed samples on both sides of the last op exist)."""
        for record in self.records:
            record["host_s"], record["ref_s"] = host.seconds(*record.pop("span"))

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["error"])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, loop: OpLoop, counts: dict[str, int], setup_scale: float):
    """Per-layer metrics with units, and the op-time table they come from.

    Self times are scaled from host to reference seconds by the scale of the
    op (or set-up) they fall in.  They include the host-speed kernel runs
    that land in them, about 1% of their time.
    """
    from tracing import LAYERS

    own = tracer.self_times()
    for op_id, (self_sum, root_sum) in tracer.balance(own).items():
        if abs(self_sum - root_sum) > 1e-6:
            raise AssertionError(f"op {op_id}: self times {self_sum} != root spans {root_sum}")
    traced = [r for r in loop.records if r["traced"]]
    ops = tracer.summary(own, {op: r["ref_s"] / r["host_s"] for op, r in enumerate(traced)})
    setup = tracer.summary(own, {SETUP_OP: setup_scale})
    op_s = sum(row["self_s"] for row in ops.values())
    traced_s = sum(r["ref_s"] for r in traced)
    plain_s = sum(r["ref_s"] for r in loop.records if not r["traced"])
    c = tracer.counts
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        if layer == ROOT_LAYER:
            continue
        row = (setup if layer in SETUP_LAYERS else ops)[layer]
        metrics[f"{layer}.calls"] = (row["calls"], "count")
        if layer in SHARE_LAYERS:
            metrics[f"{layer}.share"] = (100.0 * ratio(row["self_s"], op_s), "%")
        else:
            metrics[f"{layer}.self_s"] = (row["self_s"], "s")
    calls = {layer: ops[layer]["calls"] for layer in LAYERS}
    metrics["routesearch.dijkstra_bdt.found_ratio"] = (
        ratio(c["routesearch.dijkstra_bdt.found"], calls["routesearch.dijkstra_bdt"]), "ratio")
    metrics["forwarding.basic_checks.pass_ratio"] = (
        ratio(c["forwarding.basic_checks.passed"], calls["forwarding.basic_checks"]), "ratio")
    metrics["forwarding.handle_overbooking.accept_ratio"] = (
        ratio(c["forwarding.handle_overbooking.accepted"], calls["forwarding.handle_overbooking"]),
        "ratio")
    metrics["forwarding.handle_overbooking.displaced"] = (
        c["forwarding.handle_overbooking.displaced"], "count")
    metrics["forwarding.find_rollback_contact.found"] = (
        c["forwarding.find_rollback_contact.found"], "count")
    metrics["simcore.run_simulation.total_s"] = (ops[ROOT_LAYER]["total_s"], "s")
    metrics["simcore.self_s"] = (ops[ROOT_LAYER]["self_s"], "s")
    for name, value in counts.items():
        metrics[name] = (value, "count")
    metrics["trace.overhead"] = (traced_s / plain_s - 1.0, "ratio")
    table = {
        ("simcore (self)" if layer == ROOT_LAYER else layer): row
        for layer, row in ops.items()
        if layer not in SETUP_LAYERS
    }
    return metrics, {"op_seconds": op_s, "layers": table, "setup": setup}


def print_layer_table(workload: str, table: dict) -> None:
    total = table["op_seconds"]
    print(f"per-layer self time, {workload} (traced op time {total:.3f} s):")
    print(f"  {'layer':40s} {'calls':>9s} {'self_s':>10s} {'share':>7s}")
    rows = sorted(table["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for layer, row in rows:
        share = 100.0 * ratio(row["self_s"], total)
        print(f"  {layer:40s} {row['calls']:9d} {row['self_s']:10.4f} {share:6.1f}%")
    for layer in SETUP_LAYERS:
        row = table["setup"][layer]
        print(f"  {layer + ' (set-up)':40s} {row['calls']:9d} {row['self_s']:10.4f}")


def traced_pass(wl, workload, seeds, order, loop: OpLoop) -> tuple:
    """Each scenario untraced and traced, alternating which runs first."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.current_op = SETUP_OP
    loop.inputs = None
    release_free_memory()
    start = time.perf_counter()
    with tracer:
        loop.inputs = wl.set_up(workload, seeds)
    setup_span = (start, time.perf_counter())
    counts: dict[str, int] = {}
    for op_id, seed in enumerate(order):
        results = {}
        for traced in ((False, True) if op_id % 2 == 0 else (True, False)):
            if traced:
                tracer.current_op = op_id
                with tracer:
                    results[traced] = loop.run(seed, traced=True)
            else:
                results[traced] = loop.run(seed)
        if None in results.values():
            continue
        plain, with_trace = (simcore_counts(results[t]) for t in (False, True))
        if plain != with_trace:
            loop.records[-1]["error"] = "simcore counts differ between traced and untraced ops"
        for name, value in with_trace.items():
            counts[name] = counts.get(name, 0) + value
    return tracer, counts, setup_span


def run_workload(args: argparse.Namespace) -> int:
    load_at_start = os.getloadavg()
    if not (SRC_PACKAGE / "__init__.py").is_file():
        print(f"error: no program source at {SRC_PACKAGE}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    with HostSpeed() as host:
        import workloads as wl

        import_end = time.perf_counter()
        workload = wl.WORKLOADS[args.workload]
        seeds = workload.scenario_seeds(args.held_out)
        order = random.Random(args.seed).sample(seeds, len(seeds))
        setup_spans = []
        inputs = None
        for _ in range(SETUP_REPEATS):
            inputs = None  # one set of inputs alive at a time
            release_free_memory()
            start = time.perf_counter()
            inputs = wl.set_up(workload, seeds)
            setup_spans.append((start, time.perf_counter()))
        loop = OpLoop(wl, workload, inputs, wl.load_golden())
        if args.trace:
            traced_order = order[: (len(order) + 1) // 2]
            tracer, counts, traced_setup = traced_pass(wl, workload, seeds, traced_order, loop)
        else:
            start = time.perf_counter()
            while True:
                pass_start = time.perf_counter()
                for seed in order:
                    loop.run(seed)
                now = time.perf_counter()
                if now - start + (now - pass_start) > args.seconds:
                    break
        loop.time_ops(host)
        import_s = host.seconds(PROCESS_START, import_end)
        setups = [host.seconds(*span) for span in setup_spans]
        if args.trace:
            host_s, ref_s = host.seconds(*traced_setup)
            setup_scale = ref_s / host_s
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tag = f"{workload.name}-seed{args.seed}{'-heldout' if args.held_out else ''}"
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "held_out": args.held_out,
        "trace": args.trace,
        "machine": machine_info(load_at_start),
        "scenario_order": order,
        "import_s": import_s,
        "setup_repeats_s": setups,
    }
    print(f"machine: {json.dumps(record['machine'])}")
    print(f"workload {workload.name}, seed {args.seed}, scenario seeds in order {order}")
    if args.trace:
        metrics, table = per_layer(tracer, loop, counts, setup_scale)
        print_layer_table(workload.name, table)
        tracer.write(OUT_DIR / f"{tag}-spans.csv.gz")
        record["layers"] = table
    else:
        n = len(loop.records)
        host_sum = sum(r["host_s"] for r in loop.records)
        ref_sum = sum(r["ref_s"] for r in loop.records)
        bundles = sum(r["bundles"] for r in loop.records)
        setup = [(import_s[k] + statistics.median(s[k] for s in setups)) for k in (0, 1)]
        p50 = [statistics.median(r[key] for r in loop.records) for key in ("host_s", "ref_s")]
        rows = [
            ("setup_s", setup, "s"),
            ("bundles_per_s", [bundles / host_sum, bundles / ref_sum], "1/s"),
            ("run_s_p50", p50, "s"),
            ("peak_rss_mb", [peak_rss_mb, peak_rss_mb], "MB"),
        ]
        metrics = {name: (values[1], unit) for name, values, unit in rows}
        print(f"  {'metric':14s} {'reference':>12s} {'host':>12s}")
        for name, (host_value, ref_value), unit in rows:
            extra = f" (n={n})" if name == "run_s_p50" else ""
            print(f"  {name:14s} {ref_value:12.6f} {host_value:12.6f} {unit}{extra}")
        print(f"  {'error_rate':14s} {loop.failed / n:12.6f} ({loop.failed} of {n} ops failed)")

    result = {
        "correct": loop.failed == 0,
        "attempted": len(loop.records),
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(result, ops=loop.records)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after the other; prints all metrics."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--held-out"] if args.held_out else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        summary[name] = json.loads(lines[-1])
    print()
    for name, result in summary.items():
        for metric, m in result["metrics"].items():
            print(f"{name:24s} {metric:48s} {m['value']:14.6f} {m['unit']}")
        print(f"{name:24s} {'error_rate':48s} "
              f"{result['failed'] / result['attempted']:14.6f} "
              f"({result['failed']} of {result['attempted']} ops failed)")
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
