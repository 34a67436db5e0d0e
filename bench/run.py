"""tripart benchmark: end-to-end metrics per workload, or a traced run per layer.

    python3 bench/run.py --workload euler_sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; nothing needs installing.  A run
repeats passes over the workload's operations (closed loop, one client,
nothing in parallel) until ``--seconds`` have elapsed, then checks every
output and prints a summary followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_s``, ``partitions_per_s``, ``first_output_s``, ``peak_rss_mb``);
with ``--trace 1`` untraced and traced passes alternate and the metrics
are the per-layer ones.  ``error_rate`` is 0 on correct code, so the
JSON line carries it as ``failed`` / ``attempted``.  METRICS.md defines
every metric and says which layer metric should move which end-to-end
metric on which workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = str(BENCH / "worker.py")

MIN_PASSES = 3
SETUP_SAMPLES = 8  # set-up-only spawns per run, on top of one per pass

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "partitions_per_s": "1/s",
             "first_output_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "enumeration.calls": "count", "enumeration.partitions": "count", "enumeration.self_s": "s",
    "core.validated_builds": "count", "core.classify_calls": "count", "core.classify_self_s": "s",
    "dsl.compiles": "count", "dsl.compile_s": "s", "dsl.evals": "count",
    "sets.resolve_s": "s",
    "identities.sweep_self_s": "s", "identities.certify_calls": "count",
    "identities.certify_self_s": "s", "identities.certify_enumerations_per_call": "ratio",
    "identities.certify_useful_ratio": "ratio",
    "trimap.steps": "count", "trimap.self_s": "s",
    "qseries.route_s": "s", "qseries.coeffs": "count",
    "realmap.steps": "count", "realmap.self_s": "s",
    "cli.render_s": "s", "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}

# Layer metrics that are exact counts: they must repeat exactly between passes.
EXACT = ("enumeration.calls", "enumeration.partitions", "core.validated_builds",
         "core.classify_calls", "dsl.compiles", "dsl.evals", "identities.certify_calls",
         "identities.certify_enumerations_per_call", "identities.certify_useful_ratio",
         "trimap.steps", "qseries.coeffs", "realmap.steps", "cli.bytes_out")


# CPUs this process may run on; each pass is pinned to one of them.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin_to_fastest_cpu() -> None:
    """Pin the benchmark, and with it the children it spawns next, to the
    CPU that runs a short pure-Python loop fastest right now.

    The CPUs of a virtual machine on a shared host can run at different
    speeds for seconds to minutes, and the guest scheduler moves processes
    between them without knowing it.  Pinning before each pass keeps the
    pass on one CPU, the least contended one.  Processes still run one at
    a time.
    """
    if len(CPUS) < 2:
        return
    timings = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        timings.append((time.perf_counter() - start, cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


class HarnessError(RuntimeError):
    """The benchmark itself could not run a pass."""


@dataclass
class PassResult:
    traced: bool
    setup_s: float
    wall_s: float
    first_output_s: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    bytes_out: int = 0
    trace: dict | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_cli(op, pass_dir: Path, run_id: str, result: PassResult, reports: list):
    """Run one CLI command, timing it and its first stdout byte."""
    argv = list(op.argv)
    out_path = None
    if op.out:
        out_path = pass_dir / op.out
        argv += ["--out", str(out_path)]
    report = pass_dir / f"report-{len(reports)}.json"
    reports.append(report)
    cmd = [sys.executable, WORKER, "cli", str(report), run_id, *argv]
    chunks, first = [], None
    with open(pass_dir / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
    try:
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, 1 << 16):
            if first is None:
                first = time.perf_counter() - start
            chunks.append(chunk)
    finally:
        proc.stdout.close()
        proc.wait()
    if first is not None and out_path is None:
        result.first_output_s.append(first)
    return workloads.CliResult(proc.returncode, b"".join(chunks), None), out_path


def start_worker(workload, pass_dir: Path, report: Path, run_id: str = "",
                 skip=()) -> tuple[subprocess.Popen, float]:
    """Spawn the library worker; return it with its set-up time."""
    init = {"predicates": workload.predicates, "report_file": str(report),
            "run_id": run_id, "skip": list(skip)}
    with open(pass_dir / "stderr.txt", "ab") as err:
        spawn = time.perf_counter()
        worker = subprocess.Popen([sys.executable, WORKER, "lib"], stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, stderr=err, env=child_env(),
                                  cwd=ROOT, text=True)
    try:
        worker.stdin.write(json.dumps(init) + "\n")
        worker.stdin.flush()
        ready = worker.stdout.readline()
    except BaseException:
        stop_worker(worker)
        raise
    setup_s = time.perf_counter() - spawn
    if ready != "ready\n":
        stop_worker(worker)
        raise HarnessError("worker failed to set up:\n"
                           + (pass_dir / "stderr.txt").read_text(errors="replace"))
    return worker, setup_s


def stop_worker(worker: subprocess.Popen) -> None:
    """Close the worker's input and wait until it has written its report."""
    worker.stdin.close()
    worker.stdout.read()
    worker.stdout.close()
    worker.wait()


def read_reports(paths, result: PassResult) -> list:
    """Collect each child's peak RSS; return the traces of traced children."""
    traces = []
    for path in paths:
        if not path.exists():
            result.errors.append(f"no report from the child that was to write {path.name}")
            continue
        report = json.loads(path.read_text())
        result.rss_mb.append(report["peak_rss_mb"])
        if report["trace"] is not None:
            traces.append((path.stem, report["trace"]))
    return traces


def run_pass(workload, index: int, traced: bool, tmp: Path, seed: int,
             skip=(), tamper=None) -> PassResult:
    run_id = f"{workload.name}-seed{seed}-pass{index}" if traced else "-"
    pass_dir = tmp / f"pass{index}"
    pass_dir.mkdir(parents=True)
    pin_to_fastest_cpu()
    reports = [pass_dir / "report-lib.json"]
    worker, setup_s = start_worker(workload, pass_dir, reports[0],
                                   run_id if traced else "", skip)
    result = PassResult(traced, setup_s, 0.0)
    outputs = []
    try:
        start = time.perf_counter()
        for op in workload.ops:
            if op.request is None:
                outputs.append(run_cli(op, pass_dir, run_id, result, reports))
                continue
            try:
                worker.stdin.write(json.dumps(op.request) + "\n")
                worker.stdin.flush()
                line = worker.stdout.readline()
            except BrokenPipeError:
                line = ""
            outputs.append((json.loads(line) if line else {"error": "worker exited"}, None))
        result.wall_s = time.perf_counter() - start
    finally:
        stop_worker(worker)

    # outside the timed region: check every output
    for op, (output, out_path) in zip(workload.ops, outputs):
        if out_path is not None:
            output.out_data = out_path.read_bytes() if out_path.exists() else None
        if op.request is None:
            result.bytes_out += len(output.stdout) + len(output.out_data or b"")
        if tamper is not None:
            output = tamper(op, output)
        try:
            errors = op.check(output)
        except Exception as exc:  # noqa: BLE001 - a malformed output fails its check
            errors = [f"check raised {type(exc).__name__}: {exc}"]
        result.attempted += 1
        if errors:
            result.failed += 1
            result.errors += [f"{op.label}: {e}" for e in errors]
    traces = read_reports(reports, result)
    if traced:
        result.trace = collect_trace(traces, workload, result)
    shutil.rmtree(pass_dir)
    return result


def collect_trace(traces, workload, result: PassResult) -> dict:
    calls, self_s, counts, spans = Counter(), Counter(), Counter(), []
    for process, data in traces:
        calls.update(data["calls"])
        self_s.update(data["self_s"])
        counts.update(data["counts"])
        for span in data["spans"]:  # span ids are per process; qualify them
            span["id"] = f"{process}:{span['id']}"
            if span["parent"] is not None:
                span["parent"] = f"{process}:{span['parent']}"
            spans.append(span)
    missing = sorted(name for name in workload.expected_wrappers if not calls[name])
    if missing:
        result.errors.append("trace: expected wrappers never fired: " + ", ".join(missing))
    if counts["enumeration.partitions"] != counts["enumeration.expected_partitions"]:
        result.errors.append(
            f"trace: enumerated {counts['enumeration.partitions']} partitions, but the calls"
            f" made need sum p(n) = {counts['enumeration.expected_partitions']}")
    return {"calls": calls, "self_s": self_s, "counts": counts, "spans": spans}


def layer_metrics(trace: dict, bytes_out: int) -> dict:
    self_s, counts = trace["self_s"], trace["counts"]

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    certify_calls = counts["identities.certify_calls"]
    certify_parts = counts["identities.certify_partitions"]
    return {
        "enumeration.calls": counts["enumeration.calls"],
        "enumeration.partitions": counts["enumeration.partitions"],
        "enumeration.self_s": layer_self("enumeration"),
        "core.validated_builds": counts["core.validated_builds"],
        "core.classify_calls": counts["core.classify_calls"],
        "core.classify_self_s": self_s["core.classify"],
        "dsl.compiles": counts["dsl.compiles"],
        "dsl.compile_s": self_s["dsl.compile_node"],
        "dsl.evals": counts["dsl.evals"],
        "sets.resolve_s": layer_self("sets"),
        "identities.sweep_self_s": self_s["identities.count_columns"] + self_s["identities.count_set"],
        "identities.certify_calls": certify_calls,
        "identities.certify_self_s": self_s["identities.certify_bijection"],
        "identities.certify_enumerations_per_call":
            counts["identities.certify_enumerations"] / certify_calls if certify_calls else 0.0,
        "identities.certify_useful_ratio":
            counts["identities.certify_pairs"] / certify_parts if certify_parts else 0.0,
        "trimap.steps": counts["trimap.steps"],
        "trimap.self_s": layer_self("trimap"),
        "qseries.route_s": layer_self("qseries"),
        "qseries.coeffs": counts["qseries.coeffs"],
        "realmap.steps": counts["realmap.steps"],
        "realmap.self_s": layer_self("realmap"),
        "cli.render_s": self_s["cli.main"],
        "cli.bytes_out": bytes_out,
    }


def measure(name: str, seed: int, seconds: float, traced: bool, profile: str = "full",
            skip=(), tamper=None) -> dict:
    """Run one benchmark run and return its summary lines and result object."""
    from tripart.enumeration import count_partitions

    workload = workloads.BUILDERS[name](seed, workloads.SIZES[profile], workloads.load_pins())
    tmp = ROOT / ".bench_out" / f"tmp-{os.getpid()}"
    passes: list[PassResult] = []
    setup_only = PassResult(False, 0.0, 0.0)  # reports of the set-up-only spawns
    setups = []
    min_passes = 4 if traced else MIN_PASSES
    start = time.perf_counter()
    try:
        tmp.mkdir(parents=True)
        for i in range(SETUP_SAMPLES):
            report = tmp / f"report-setup{i}.json"
            pin_to_fastest_cpu()
            worker, setup_s = start_worker(workload, tmp, report)
            stop_worker(worker)
            setups.append(setup_s)
            read_reports([report], setup_only)
        durations = []
        while True:
            # a traced run alternates untraced and traced passes
            began = time.perf_counter()
            passes.append(run_pass(workload, len(passes), traced and len(passes) % 2 == 1,
                                   tmp, seed, skip, tamper))
            durations.append(time.perf_counter() - began)
            # stop before a further pass would run past the measuring time
            elapsed = time.perf_counter() - start
            if len(passes) >= min_passes and elapsed + statistics.median(durations) > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [p for p in passes if not p.traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = setup_only.errors + [e for p in passes for e in p.errors]
    work = sum(count_partitions(n) for op in workload.ops for n in op.enumerates)
    wall = statistics.median(p.wall_s for p in plain)
    firsts = [t for p in plain for t in p.first_output_s]
    setups += [p.setup_s for p in plain]
    rss = setup_only.rss_mb + [r for p in plain for r in p.rss_mb]
    lines = [
        f"workload {name}  seed {seed}  profile {profile}  passes {len(passes)}"
        f" ({len(plain)} untraced)  closed loop, one client",
        f"inputs {json.dumps(workload.inputs)}",
        f"  setup_s           {statistics.median(setups):.4f} s    median of {len(setups)}",
        f"  wall_s            {wall:.4f} s    median of {len(plain)}",
        f"  partitions_per_s  {work / wall:.1f} 1/s    {work} partitions per pass",
        f"  first_output_s    {statistics.median(firsts):.4f} s    median of {len(firsts)}",
        f"  peak_rss_mb       {max(rss):.1f} MB    max of {len(rss)} processes",
        f"  error_rate        {failed / attempted:.4f} ratio    {failed} of {attempted} operations",
    ]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "partitions_per_s": work / wall,
        "first_output_s": statistics.median(firsts),
        "peak_rss_mb": max(rss),
    }
    units = E2E_UNITS
    if traced:
        metrics, units = trace_summary(passes, errors, lines, name, seed, workload.inputs)
    lines += [f"error: {e}" for e in errors[:20]]
    return {
        "lines": lines,
        "result": {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def trace_summary(passes, errors, lines, name, seed, inputs):
    traced = [p for p in passes if p.traced]
    per_pass = [layer_metrics(p.trace, p.bytes_out) for p in traced]
    metrics = {}
    for key in LAYER_UNITS:
        if key == "trace.overhead_s":
            continue
        values = [m[key] for m in per_pass]
        if key in EXACT:
            if len(set(values)) != 1:
                errors.append(f"trace: exact count {key} differs between passes: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                   - statistics.median(p.wall_s for p in passes if not p.traced))
    lines.append(f"  per layer, from {len(traced)} traced passes (times are medians):")
    lines += [f"    {k:42s} {v:.6g} {LAYER_UNITS[k]}" for k, v in metrics.items()]
    out = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": name, "seed": seed, "inputs": inputs}) + "\n")
        for p in traced:
            fh.writelines(json.dumps(span) + "\n" for span in p.trace["spans"])
    lines.append(f"  spans written to {out.relative_to(ROOT)}")
    return metrics, LAYER_UNITS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("euler_sweep", "map_routes", "enumerate_stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tripart" / "cli.py").is_file():
        print(f"error: no tripart sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(run["lines"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
