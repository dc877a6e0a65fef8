"""Layered benchmark of the hybrid-system simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-hot --seed 7001 \
        --seconds 20 --trace 0

``--trace 0`` runs the timed, untraced pass and reports the end-to-end
metrics declared in ``BENCHMARK.json``; ``--trace 1`` runs a shorter
untraced pass, then one traced unit of the workload with layer spans and
the invariant checker attached, and reports the per-layer metrics.
Every simulation's outputs are checked (untimed): a digest of its
deterministic statistics must repeat exactly, and every timed
simulation is drained and checked for liveness and replica convergence.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DEFAULT_SEED = 7001
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
#: Untimed units repeat at least this often, so digests can be compared.
MIN_UNITS = 2

_clock = time.perf_counter_ns


def _pin_threads() -> None:
    """One interpreter on one core: no BLAS thread pools."""
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")


def host_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "cpu": cpu}


def source_digest() -> str:
    """Hash of the simulator sources and the benchmark itself, keying
    the stored reference counts to the exact code that produced them."""
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "repro"), HERE):
        for directory, subdirs, files in sorted(os.walk(base)):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as source:
                        digest.update(source.read())
    return digest.hexdigest()[:16]


def measure_setup(workload: str, seed: int, repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first event."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(repeats):
        start = _clock()
        with subprocess.Popen([sys.executable, probe, workload, str(seed)],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = (_clock() - start) / 1e9
            _, errors = child.communicate(timeout=SETUP_TIMEOUT_S)
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {errors.strip()}")
        times.append(elapsed)
    return times


def run_units(workload, probe, seed: int, budget_s: float,
              min_units: int) -> list[int]:
    """Run whole units until ``budget_s`` has passed; returns each
    unit's wall time minus the untimed checks inside it (ns)."""
    walls = []
    start = _clock()
    while len(walls) < min_units or (_clock() - start) / 1e9 < budget_s:
        checks = probe.check_ns
        unit_start = _clock()
        workload.run_unit(probe, seed)
        walls.append(_clock() - unit_start - (probe.check_ns - checks))
    return walls


def by_label(records) -> dict[str, list]:
    groups: dict[str, list] = {}
    for record in records:
        groups.setdefault(record.label, []).append(record)
    return groups


def us_per_txn(records, protocol: str | None = None) -> float:
    """Sum over distinct simulations of the median host time per
    simulation (build plus run), per committed transaction."""
    wall = commits = 0
    for group in by_label(records).values():
        if protocol is not None and group[0].protocol != protocol:
            continue
        wall += statistics.median(r.wall_ns for r in group)
        commits += group[0].commits
    return wall / commits / 1e3 if commits else 0.0


def check_outputs(workload, records, problems: list[str]) -> None:
    """Repeats of one simulation must produce identical outputs; timed
    simulations must drain live and (unless a known defect is being
    reported) converge."""
    for label, group in by_label(records).items():
        prints = {record.fingerprint for record in group}
        if len(prints) > 1:
            problems.append(f"{label}: outputs differ across repeats")
        for record in group:
            if record.live is False:
                problems.append(f"{label}: not live after drain")
            if record.divergent and workload.expect_converged:
                problems.append(f"{label}: {record.divergent} divergent "
                                f"entities after drain")


def first_repeats(records) -> list:
    return [group[0] for group in by_label(records).values()]


def end_to_end_metrics(records, setup_times) -> dict:
    points = [record.wall_ns / 1e6 for record in records]
    return {
        "us_per_txn": us_per_txn(records),
        "point_ms_p50": statistics.median(points),
        "point_ms_p75": statistics.quantiles(
            points, n=4, method="inclusive")[2]
        if len(points) > 1 else points[0],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def check_metrics(records) -> dict:
    distinct = first_repeats(records)
    return {
        "check.error_rate": sum(1 for r in records
                                if r.error or r.live is False)
        / len(records),
        "check.divergent_entities": sum(r.divergent or 0
                                        for r in distinct),
    }


def per_layer_metrics(tracer, traced, untimed, unit_walls) -> dict:
    from tracing import LAYERS

    txns = sum(r.commits for r in traced)
    distinct = first_repeats(untimed)
    per = (lambda value: value / txns) if txns else (lambda value: 0.0)
    self_us = {layer: per(tracer.layer_self_ns[i] / 1e3)
               for i, layer in enumerate(LAYERS)}
    decide_calls = sum(tracer.calls[i] for i, (layer, name)
                       in enumerate(tracer.functions)
                       if name.endswith(".decide"))
    decide_ns = sum(tracer.inclusive_ns[i] for i, (layer, name)
                    in enumerate(tracer.functions)
                    if name.endswith(".decide"))
    table_scans = sum(tracer.count("db", f"LockManager.{name}") for name in (
        "total_locks_held", "waiting_requests", "entities_locked_by",
        "release_all", "cancel_waits"))
    completed = sum(r.completed for r in traced)
    untimed_wall = sum(r.wall_ns for r in untimed)
    untimed_commits = sum(r.commits for r in untimed)
    units_net = sum(unit_walls)
    metrics = {
        "sim.events_per_txn": sum(r.events for r in distinct)
        / max(1, sum(r.commits for r in distinct)),
        "sim.zero_delay_share": tracer.zero_delay_steps
        / max(1, tracer.steps),
        "sim.cpu_requests_per_txn": per(tracer.count(
            "sim", "Resource.request")),
        "db.lock_acquires_per_txn": per(tracer.count(
            "db", "LockManager.acquire")),
        "db.lock_waits_per_txn": per(sum(r.lock_waits for r in traced)),
        "db.deadlocks_per_ktxn": per(1000.0 * sum(r.deadlocks
                                                  for r in traced)),
        "db.table_scans_per_txn": per(table_scans),
        "db.us_per_release_all": tracer.mean_inclusive_us(
            "db", "LockManager.release_all"),
        "hybrid.messages_per_txn": per(tracer.count("sim", "Link.send")),
        "hybrid.useful_run_ratio": completed / max(
            1, completed + sum(r.aborts for r in traced)),
        "hybrid.auth_naks_per_txn": sum(r.auth_naks for r in traced)
        / max(1, completed),
        "hybrid.protocol_rounds_per_txn": per(
            tracer.count("obs", "MetricsCollector.record_auth_round")
            + tracer.count("obs", "MetricsCollector.record_protocol_event")),
        "hybrid.snapshot_calls_per_txn": per(tracer.count(
            "hybrid", "CentralSite.snapshot")),
        "core.decides_per_txn": per(decide_calls),
        "core.us_per_decide": decide_ns / decide_calls / 1e3
        if decide_calls else 0.0,
        "analysis.calls_per_txn": per(tracer.count_prefix("analysis")),
        "analysis.router_build_ms": statistics.fmean(
            r.router_build_ns for r in untimed) / 1e6,
        "obs.record_calls_per_txn": per(
            tracer.count_prefix("obs", "MetricsCollector.record_")
            + tracer.count("obs", "SpanRecorder.enter")
            + tracer.count("obs", "SpanRecorder.exit")),
        "net.frames_per_txn": per(tracer.count(
            "net", "ReliableEndpoint.pump")),
        "net.retransmits_per_txn": per(tracer.count(
            "obs", "MetricsCollector.record_retransmit")),
        "experiments.build_ms_p50": statistics.median(
            r.build_ns for r in untimed) / 1e6,
        "experiments.overhead_share": max(0.0, (units_net - untimed_wall)
                                          / units_net),
        "unattributed.self_us_per_txn": per(tracer.unattributed_ns / 1e3),
        "trace.overhead_ratio": (tracer.region_ns / txns)
        / (untimed_wall / untimed_commits) if txns else 0.0,
    }
    for layer, value in self_us.items():
        metrics[f"{layer}.self_us_per_txn"] = value
    checked = sum(r.commits for r in traced if r.checked)
    metrics["checker.self_us_per_txn"] = tracer.layer_self_ns[
        LAYERS.index("checker")] / 1e3 / checked if checked else 0.0
    from workloads import PROTOCOLS
    for protocol in PROTOCOLS:
        metrics[f"hybrid.us_per_txn.{protocol}"] = us_per_txn(untimed,
                                                              protocol)
    metrics["deterministic_counts"] = {
        "commits": txns,
        "events": sum(r.events for r in distinct),
        "lock_acquires": tracer.count("db", "LockManager.acquire"),
        "table_scans": table_scans,
        "decides": decide_calls,
        "messages": tracer.count("sim", "Link.send"),
        "retransmits": tracer.count("obs",
                                    "MetricsCollector.record_retransmit"),
    }
    return metrics


def compare_reference(kind: str, workload: str, seed: int, code: str,
                      values, problems: list[str]) -> None:
    """Deterministic values must repeat exactly across runs of the same
    code and seed: the first run stores them, later runs compare."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{kind}-{workload}-seed{seed}-{code}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as stored:
            reference = json.load(stored)
        if reference != values:
            problems.append(f"{kind} differ from an earlier run with the "
                            f"same seed and code ({path})")
        return
    with open(path, "w", encoding="utf-8") as out:
        json.dump(values, out, indent=1, sort_keys=True)


def emit(spec_metrics: list[dict], values: dict, correct: bool,
         attempted: int, failed: int) -> None:
    metrics = {}
    for declared in spec_metrics:
        name = declared["name"]
        metrics[name] = {"value": float(values[name]),
                         "unit": declared["unit"]}
        print(f"  {name:32s} {values[name]:14.6g} {declared['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def traced_pass(workload, seed: int, untimed, unit_walls, checks: dict,
                 code: str, problems: list[str]) -> tuple[dict, list]:
    """One unit with layer spans and the invariant checker attached;
    returns the per-layer metrics and the traced records."""
    import repro
    from tracing import SpanTracer, install_default_spans
    from workloads import Probe

    tracer = SpanTracer(os.path.dirname(repro.__file__))
    install_default_spans(tracer)
    probe = Probe(tracer)
    probe.attach_checker = True
    probe.drain_systems = False
    probe.install()
    start = _clock()
    try:
        workload.run_unit(probe, seed)
    finally:
        tracer.region_ns += (_clock() - start - probe.check_ns
                             - probe.discarded_ns)
        probe.uninstall()
        tracer.uninstall()
    traced = probe.records
    reference = {r.label: r.digest for r in first_repeats(untimed)}
    for record in traced:
        if record.error:
            problems.append(f"traced {record.label}: {record.error}")
        elif reference.get(record.label) != record.digest:
            problems.append(f"traced {record.label}: digest differs from "
                            f"the untraced run")
    for label, message in probe.violations:
        known = any(protocol in label.split("/") and fragment in message
                    for protocol, fragment in workload.known_violations)
        print(f"INVARIANT VIOLATION {label}: {message}"
              + (" (known defect, reported)" if known else ""))
        if not known:
            problems.append(f"invariant checker: {label}: {message}")
    closure = tracer.closure_error()
    if closure:
        problems.append(f"trace self-test: {closure}")

    values = per_layer_metrics(tracer, [r for r in traced if not r.error],
                               untimed, unit_walls)
    values.update(checks)
    values["check.invariant_violations"] = len(probe.violations)
    counts = values.pop("deterministic_counts")
    print("deterministic counts: " + json.dumps(counts, sort_keys=True))
    compare_reference("counts", workload.name, seed, code, counts, problems)
    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(OUT_DIR,
                             f"spans-{workload.name}-seed{seed}.jsonl")
    tracer.write_spans(span_path)
    print(f"trace: {tracer.spans_total} spans, {len(tracer.spans)} written "
          f"to {os.path.relpath(span_path, ROOT)}; self-test "
          f"{'failed: ' + closure if closure else 'ok'} (layer self + "
          f"unattributed = traced total {tracer.region_ns / 1e9:.3f} s)")
    for layer, rows in tracer.top_functions().items():
        print(f"top {layer}: " + "; ".join(
            f"{name} {ns / 1e6:.1f} ms/{calls}" for ns, name, calls in rows))
    return values, traced


def main(argv: list[str] | None = None) -> int:
    _pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default 7001; 7919 is the "
                             "held-out seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(SPEC_PATH, encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the simulator: {error}",
              file=sys.stderr)
        return 2
    if not os.path.realpath(repro.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        print(f"perfbench: the simulator must come from {SRC}, not "
              f"{repro.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Probe

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    facts = host_facts()
    code = source_digest()
    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} code={code}")
    print("host: " + json.dumps(facts))
    for note in workload.notes:
        print(f"note: {note}")

    # Compile once up front: byte-compilation is not part of set-up.
    import compileall
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)

    problems: list[str] = []
    setup_times = []
    if args.trace == 0:
        setup_times = measure_setup(workload.name, args.seed,
                                    SETUP_REPEATS)
        print("setup_s samples: "
              + ", ".join(f"{t:.4f}" for t in setup_times))

    probe = Probe()
    probe.install()
    budget = args.seconds if args.trace == 0 else args.seconds / 2
    unit_walls = run_units(workload, probe, args.seed, budget,
                           MIN_UNITS if args.trace == 0 else 1)
    probe.uninstall()
    records = probe.records
    untimed = [r for r in records if not r.error]
    for record in records:
        if record.error:
            problems.append(f"{record.label}: {record.error}")
    check_outputs(workload, untimed, problems)
    for label, group in by_label(untimed).items():
        record = group[0]
        print(f"sim {label}: digest {record.digest[:16]} "
              f"commits {record.commits} events {record.events} "
              f"live {record.live} divergent {record.divergent} "
              f"ms " + " ".join(f"{r.wall_ns / 1e6:.0f}" for r in group))
    checks = check_metrics(records)
    print(f"checks: error_rate {checks['check.error_rate']:.4f} "
          f"divergent_entities {checks['check.divergent_entities']} "
          f"over {len(records)} simulations in {len(unit_walls)} units")
    compare_reference("digests", workload.name, args.seed, code,
                      {r.label: r.digest for r in first_repeats(untimed)},
                      problems)
    attempted = len(records)
    failed = sum(1 for r in records if r.error or r.live is False)
    if not untimed:
        print("perfbench: no simulation completed: " + "; ".join(problems),
              file=sys.stderr)
        return 1

    if args.trace == 0:
        values = end_to_end_metrics(untimed, setup_times)
        print(f"point samples: {len(untimed)}")
        declared = spec["end_to_end"]
    else:
        values, traced = traced_pass(workload, args.seed, untimed,
                                     unit_walls, checks, code, problems)
        attempted += len(traced)
        failed += sum(1 for r in traced if r.error)
        declared = spec["per_layer"]

    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    os.makedirs(OUT_DIR, exist_ok=True)
    record_path = os.path.join(
        OUT_DIR, f"result-{workload.name}-seed{args.seed}"
                 f"-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as out:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "code": code, "host": facts, "problems": problems,
                   "metrics": values,
                   "simulations": [[r.label, r.wall_ns, r.commits]
                                   for r in untimed]},
                  out, indent=1, sort_keys=True)
    print(f"{'end-to-end' if args.trace == 0 else 'per-layer'} metrics "
          f"({workload.name}):")
    emit(declared, values, not problems, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
