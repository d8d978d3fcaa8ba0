#!/usr/bin/env python3
"""End-to-end benchmark of the release `insomnia run` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the `insomnia`
binary and the tracer (`perfbench/tracer`) with cargo, into
`$CARGO_TARGET_DIR` (default `.bench_build`), then measures the workload
named in `perfbench/workloads.json` for about S seconds:

* `--trace 0` runs the CLI (untraced) over and over and reports medians of
  the end-to-end metrics;
* `--trace 1` runs the tracer once — a span-timed replay of the batch
  schedule, the batch itself, and the access/optimal probes — and fills
  the rest of the time with untraced CLI runs, then reports the per-layer
  metrics.

Every CLI run's output is checked (see `check_run`); a job that fails a
check counts in `failed`. The last stdout line is the result object
`{"correct", "attempted", "failed", "metrics"}`; the line before it gives
the host, the workload's sample counts and any failure messages. Sample
i of a run at workload seed N simulates scenario seed N + i * 1000003
(`--set seed=...`), except on a panel workload (see `scenario_seed`); the
tracer replays sample 0.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench-state"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text())

# Every scheme key the CLI accepts, in its help-text order.
SCHEMES = ["no-sleep", "soi", "soi+k", "soi+full", "bh2", "bh2-nb", "bh2+full",
           "optimal", "multi-doze", "adaptive-soi"]
EVENT_KINDS = ["arrivals", "departures", "wake_dones", "idle_checks", "bh2_ticks",
               "doze_ticks", "samples"]
DELIVERED_KINDS = EVENT_KINDS + ["optimal_solves"]
FABRICS = ["fixed", "kswitch", "full"]
PROBE_LINES = [40, 200, 500]

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
    "first_record_s": "s", "client_hours_per_s": "client-h/s",
}

MIN_SAMPLES = 3
# CLI and tracer processes still running this long after the build are
# killed, so a run ends inside its time limit.
HARD_LIMIT_S = 160.0
# Distance between the scenario seeds of consecutive samples (a prime, so
# runs at workload seeds below it never share a world).
SEED_STRIDE = 1_000_003


def metric_scheme(key):
    """Scheme key as it appears in metric names (`+` is not allowed there)."""
    return key.replace("+", "-")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "simcore.heap_pushes": "count", "simcore.peak_heap": "count",
        "simcore.delivered_per_push": "ratio", "simcore.par_busy_frac": "ratio",
        "traffic.setup_ms": "ms", "traffic.setup_flows_per_s": "1/s",
        "traffic.drain_flows_per_s": "1/s", "traffic.stream_refills": "count",
        "traffic.merge_pops": "count",
        "wireless.topology_ms": "ms",
        "access.transitions": "count",
    }
    for fabric in FABRICS:
        for lines in PROBE_LINES:
            units[f"access.transition_ns.{fabric}.{lines}"] = "ns"
    for key in SCHEMES:
        name = metric_scheme(key)
        units[f"driver.{name}.loop_ms"] = "ms"
        units[f"driver.{name}.events"] = "count"
        units[f"driver.{name}.mevents_per_s"] = "M/s"
    for kind in EVENT_KINDS:
        units[f"driver.events.{kind}"] = "count"
    units.update({
        "driver.proto_cache_builds": "count", "driver.proto_cache_hits": "count",
        "optimal.solves": "count", "optimal.solve_ms": "ms",
        "fold.absorb_ms": "ms", "fold.queue_peak": "count",
        "scenarios.batch_overhead_ms": "ms", "scenarios.checkpoint_ms": "ms",
        "scenarios.checkpoint_bytes": "bytes", "scenarios.jsonl_bytes": "bytes",
        "trace.coverage": "ratio", "trace.overhead_frac": "ratio",
    })
    return units


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the CLI and the tracer; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} holds no insomnia source tree to build")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (["-p", "insomnia-scenarios", "--bin", "insomnia"],
                ["--manifest-path", str(BENCH / "tracer" / "Cargo.toml")]):
        done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *cmd],
                              cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"cargo build {' '.join(cmd)} failed")
    return target / "release" / "insomnia", target / "release" / "perfbench-tracer"


def workload_args(w, seed):
    """`insomnia run` flags of a workload (minus output and sidecar paths)."""
    args = ["--scenario", w["scenario"], "--schemes", ",".join(w["schemes"]),
            "--seeds", str(w["seeds"]), "--threads", str(w["threads"])]
    for key, value in w["set"].items():
        args += ["--set", f"{key}={value}"]
    if w.get("quick"):
        args.append("--quick")
    return args + ["--set", f"seed={seed}"]


def run_cli(binary, w, seed, workdir, deadline):
    """One untraced CLI run: timings from spawn, JSONL from stdout."""
    tel = workdir / "run.telemetry.jsonl"
    argv = [str(binary), "run", *workload_args(w, seed), "--quiet", "--telemetry", str(tel)]
    if w["checkpoint"]:
        argv += ["--checkpoint", str(workdir / "run.checkpoint")]
    with open(workdir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(max(1.0, deadline - t0), proc.kill)
        watchdog.start()
        try:
            first, lines = None, []
            for line in proc.stdout:
                if first is None:
                    first = time.perf_counter() - t0
                lines.append(line)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    return {
        "exit": proc.returncode,
        "stderr": (workdir / "stderr.txt").read_text(errors="replace").strip(),
        "jsonl": b"".join(lines),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "first_record_s": first if first is not None else wall,
        "sidecar": tel.read_text() if tel.exists() else "",
    }


def sidecar_records(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def counter_totals(binary, workdir):
    """`insomnia profile --counters` of the run's sidecar."""
    done = subprocess.run([str(binary), "profile", str(workdir / "run.telemetry.jsonl"),
                           "--counters"], capture_output=True, text=True)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout)


def energy_order_errors(records):
    """optimal <= bh2 < soi < no-sleep energy within each seed."""
    errors = []
    by_seed = {}
    for r in records:
        by_seed.setdefault(r["seed_index"], {})[r["scheme"]] = r["energy_kwh"]
    for k, e in sorted(by_seed.items()):
        chain = [s for s in ("optimal", "bh2", "soi", "no-sleep") if s in e]
        for lo, hi in zip(chain, chain[1:]):
            bad = e[lo] > e[hi] if lo == "optimal" else e[lo] >= e[hi]
            if bad:
                errors.append(f"seed index {k}: {lo} energy {e[lo]} vs {hi} {e[hi]}")
    return errors


def check_run(w, run, counters, reference):
    """Output checks of one CLI run. Returns (failed job indices, messages)."""
    n_jobs = len(w["schemes"]) * w["seeds"]
    everything = set(range(n_jobs))
    if run["exit"] != 0:
        return everything, [f"exit {run['exit']}: {run['stderr'][-300:]}"]
    failed, errors = set(), []
    records = []
    for j, line in enumerate(run["jsonl"].splitlines()):
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if not isinstance(record, dict):
            failed.add(j)
            errors.append(f"record {j} is not a JSON object")
            record = {}
        records.append(record)
    for j in range(n_jobs):
        ci, ki = divmod(j, w["seeds"])
        want = (w["scenario"], w["schemes"][ci], ki)
        got = tuple(records[j].get(k) for k in ("scenario", "scheme", "seed_index")) \
            if j < len(records) else None
        if got != want:
            failed.add(j)
            errors.append(f"record {j}: want {want}, got {got}")
    if len(records) > n_jobs:
        errors.append(f"{len(records)} records for {n_jobs} jobs")
        failed |= everything
    if not failed:
        for msg in energy_order_errors(records):
            errors.append(msg)
            failed |= everything
    if counters is None:
        errors.append("no counter totals from the telemetry sidecar")
        failed |= everything
    elif counters["counters"]["flows_completed"] > counters["counters"]["flows_total"]:
        errors.append("flows_completed exceeds flows_total")
        failed |= everything
    digest = hashlib.sha256(run["jsonl"]).hexdigest()
    if reference.get("jsonl_sha256", digest) != digest:
        errors.append("JSONL bytes differ from the first run at this seed")
        failed |= everything
    if counters is not None and reference.get("counters", counters) != counters:
        errors.append(f"work counts differ from the pinned counts: {json.dumps(counters)}")
        failed |= everything
    return failed, errors


def scenario_seed(w, seed, i):
    """Scenario seed of sample `i` of a run at workload seed `seed`.

    Each sample simulates fresh worlds, so a run's medians average over
    worlds as well as over host noise; sample 0 uses the workload seed
    itself. A workload with a `panel` of P instead cycles through P fixed
    worlds (the default seed and the next P - 1 strides), starting where the
    workload seed points: its worlds differ so much in cost that a run's
    handful of fresh worlds would set its figures more than the code does."""
    panel = w.get("panel")
    if panel is None:
        return seed + i * SEED_STRIDE
    base = WORKLOADS["default_seed"]
    return base + (seed - base + i) % panel * SEED_STRIDE


def pooled(w, samples, value):
    """A run's figure for `value(sample)`: the median over its samples, or on
    a panel workload the mean over the panel's worlds of each world's
    median, so every world weighs the same."""
    if w.get("panel") is None:
        return statistics.median(value(s) for s in samples)
    by_world = {}
    for s in samples:
        by_world.setdefault(s["scenario_seed"], []).append(value(s))
    return statistics.fmean(statistics.median(v) for v in by_world.values())


class Runs:
    """Checked CLI runs of one workload, sample `i` at `scenario_seed(w, seed, i)`."""

    def __init__(self, name, w, seed, binary, deadline):
        self.name, self.w, self.seed, self.binary = name, w, seed, binary
        self.deadline = deadline
        self.workdir = STATE / "work" / name
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.attempted = self.failed = 0
        self.errors = []
        self.samples = []

    def reference(self, seed):
        """What a run at this scenario seed must reproduce: the pinned counts
        at the default seed, plus what the first run at this seed in this
        checkout recorded (JSONL digest and counts)."""
        args = hashlib.sha256(" ".join(workload_args(self.w, seed)).encode()).hexdigest()
        path = STATE / "refs" / f"{self.name}-{seed}-{args[:12]}.json"
        ref = json.loads(path.read_text()) if path.exists() else {}
        if seed == WORKLOADS["default_seed"] and "pins" in self.w:
            ref["counters"] = self.w["pins"]
        return path, ref

    def once(self, i):
        seed = scenario_seed(self.w, self.seed, i)
        run = run_cli(self.binary, self.w, seed, self.workdir, self.deadline)
        run["scenario_seed"] = seed
        counters = counter_totals(self.binary, self.workdir) if run["exit"] == 0 else None
        ref_path, ref = self.reference(seed)
        failed, errors = check_run(self.w, run, counters, ref)
        self.attempted += len(self.w["schemes"]) * self.w["seeds"]
        self.failed += len(failed)
        self.errors += [f"scenario seed {seed}: {e}" for e in errors]
        if not failed and "jsonl_sha256" not in ref:
            ref["jsonl_sha256"] = hashlib.sha256(run["jsonl"]).hexdigest()
            ref.setdefault("counters", counters)
            ref_path.parent.mkdir(parents=True, exist_ok=True)
            ref_path.write_text(json.dumps(ref))
        return run

    def measure(self, seconds):
        """Runs samples 0, 1, ... until `seconds` have passed and at least
        MIN_SAMPLES ran; on a panel workload, in whole rounds of the panel."""
        deadline = time.perf_counter() + seconds
        rounds = self.w.get("panel", 1)
        while (len(self.samples) < MIN_SAMPLES or time.perf_counter() < deadline
               or len(self.samples) % rounds):
            self.samples.append(self.once(len(self.samples)))


def end_to_end(w, samples):
    samples = [s for s in samples if s["exit"] == 0]
    if not samples:
        return {}

    def pool(key):
        return pooled(w, samples, lambda s: s[key])

    def setup_s(s):
        return sum(r.get("setup_ms", 0.0) for r in sidecar_records(s["sidecar"])
                   if r.get("type") == "task") / 1e3

    manifest = sidecar_records(samples[0]["sidecar"])[0]["scenarios"][0]
    client_hours = (manifest["n_clients"] * float(w["set"]["horizon_hours"])
                    * manifest["repetitions"] * w["seeds"] * len(w["schemes"]))
    return {
        "wall_s": pool("wall_s"),
        "cpu_s": pool("cpu_s"),
        "setup_s": pooled(w, samples, setup_s),
        "peak_rss_mib": pool("peak_rss_mib"),
        "first_record_s": pool("first_record_s"),
        "client_hours_per_s": pooled(w, samples, lambda s: client_hours / s["wall_s"]),
    }


def self_time_coverage(spans):
    """Summed self time of the schedule's descendants over its duration."""
    dur = [s["end_ms"] - s["start_ms"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child[s["parent"]] += d
    root = next(i for i, s in enumerate(spans) if s["name"] == "schedule")

    def under_root(i):
        while spans[i]["parent"] is not None:
            i = spans[i]["parent"]
            if i == root:
                return True
        return False

    self_ms = sum(dur[i] - child[i] for i in range(len(spans)) if under_root(i))
    return self_ms / dur[root]


def run_tracer(tracer, w, seed, deadline):
    out_dir = STATE / "work" / "trace"
    args = [str(tracer), "--out-dir", str(out_dir), *workload_args(w, seed)]
    if w["checkpoint"]:
        args += ["--checkpoint", str(out_dir / "batch.checkpoint")]
    try:
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return None, out_dir, "timed out"
    if done.returncode != 0:
        return None, out_dir, done.stderr.strip()
    return json.loads(done.stdout), out_dir, ""


def per_layer(w, t, out_dir):
    """Per-layer metrics from the tracer's report and the traced batch."""
    c = t["counters"]
    records = sidecar_records((out_dir / "batch.telemetry.jsonl").read_text())
    by_type = {}
    for r in records:
        by_type.setdefault(r["type"], []).append(r)
    threads = by_type["manifest"][0]["threads"]
    summary = by_type["summary"][0]
    phases = {p["phase"]: p["busy_ms"] for p in by_type["phase"]}
    busy_ms = phases["world-build"] + phases["event-loop"]
    traffic = t["traffic"]
    m = {
        "simcore.heap_pushes": c["heap_pushes"],
        "simcore.peak_heap": c["peak_heap"],
        "simcore.delivered_per_push": sum(c.get(k, 0) for k in DELIVERED_KINDS) / c["heap_pushes"],
        "simcore.par_busy_frac": busy_ms / (threads * summary["wall_ms"]),
        "traffic.setup_ms": traffic["setup_ms"],
        "traffic.setup_flows_per_s": traffic["setup_flows"] / (traffic["setup_ms"] / 1e3),
        "traffic.drain_flows_per_s": traffic["drain_flows"] / (traffic["drain_ms"] / 1e3),
        "traffic.stream_refills": c["stream_refills"],
        "traffic.merge_pops": c["merge_pops"],
        "wireless.topology_ms": t["topology_ms"],
        "access.transitions": t["transitions"],
    }
    for key, ns in t["access_ns"].items():
        m[f"access.transition_ns.{key}"] = ns
    for key in SCHEMES:
        s = t["schemes"].get(key, {"loop_ms": 0.0, "events": 0})
        name = metric_scheme(key)
        m[f"driver.{name}.loop_ms"] = s["loop_ms"]
        m[f"driver.{name}.events"] = s["events"]
        m[f"driver.{name}.mevents_per_s"] = s["events"] / s["loop_ms"] / 1e3 if s["loop_ms"] else 0.0
    for kind in EVENT_KINDS:
        m[f"driver.events.{kind}"] = c.get(kind, 0)
    batch_counters = summary["counters"]
    spans = json.loads((out_dir / "spans.json").read_text())
    m.update({
        "driver.proto_cache_builds": batch_counters.get("proto_cache_builds", 0),
        "driver.proto_cache_hits": batch_counters.get("proto_cache_hits", 0),
        "optimal.solves": c["optimal_solves"],
        "optimal.solve_ms": t["solve_ms"],
        "fold.absorb_ms": t["fold_ms"],
        "fold.queue_peak": max(r["fold_queue"] for r in by_type["task"]),
        "scenarios.batch_overhead_ms":
            summary["wall_ms"] - busy_ms / threads - phases["shard-fold"],
        "scenarios.checkpoint_ms": phases.get("checkpoint-write", 0.0),
        "scenarios.checkpoint_bytes":
            (out_dir / "batch.checkpoint").stat().st_size if w["checkpoint"] else 0,
        "scenarios.jsonl_bytes": (out_dir / "batch.jsonl").stat().st_size,
        "trace.coverage": self_time_coverage(spans),
        "trace.overhead_frac": t["schedule_ms"] / t["untraced_ms"] - 1.0,
    })
    return m


def trace_errors(w, t, out_dir, cli_jsonl):
    """Traced results must equal the untraced ones, and the spans must
    account for the schedule's time."""
    errors = []
    if (out_dir / "batch.jsonl").read_bytes() != cli_jsonl:
        errors.append("traced batch JSONL differs from the CLI's")
    records = [json.loads(line) for line in cli_jsonl.splitlines()]
    for j, job in enumerate(t["jobs"]):
        rec = records[j] if j < len(records) else {}
        if (job["scheme"], job["seed_index"], job["energy_kwh"]) != \
                (rec.get("scheme"), rec.get("seed_index"), rec.get("energy_kwh")):
            errors.append(f"job {j}: traced {job} vs untraced energy {rec.get('energy_kwh')}")
    coverage = self_time_coverage(json.loads((out_dir / "spans.json").read_text()))
    if coverage < 0.9:
        errors.append(f"span self times cover {coverage:.3f} of the traced wall-clock")
    return errors


def source_digest():
    """Digest of the sources the benchmark builds (the checkout has no git)."""
    h = hashlib.sha256()
    for path in sorted([ROOT / "Cargo.toml", ROOT / "Cargo.lock",
                        *ROOT.glob("src/**/*.rs"), *ROOT.glob("crates/**/*.rs"),
                        *ROOT.glob("crates/**/Cargo.toml")]):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    w = WORKLOADS["workloads"][a.workload]

    # Python's default SIGTERM handling skips `finally`; exit through it so
    # a running CLI child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    binary, tracer = build()
    deadline = time.perf_counter() + HARD_LIMIT_S
    runs = Runs(a.workload, w, a.seed, binary, deadline)
    # Warm-up: fills the page cache and repeats sample 0's world, so every
    # run checks that the same seed gives the same bytes. Checked, not timed.
    warm = runs.once(0)
    if a.trace:
        started = time.perf_counter()
        t, out_dir, err = run_tracer(tracer, w, warm["scenario_seed"], deadline)
        runs.measure(max(0.0, a.seconds - (time.perf_counter() - started)))
        n_jobs = len(w["schemes"]) * w["seeds"]
        runs.attempted += n_jobs
        if t is None:
            runs.failed += n_jobs
            runs.errors.append(f"tracer failed: {err[-300:]}")
            metrics = {}
        else:
            errors = trace_errors(w, t, out_dir, warm["jsonl"])
            runs.failed += n_jobs if errors else 0
            runs.errors += errors
            metrics = per_layer(w, t, out_dir)
        units = per_layer_units()
    else:
        runs.measure(a.seconds)
        metrics = end_to_end(w, runs.samples)
        units = END_TO_END

    print(json.dumps({
        "workload": a.workload, "seed": a.seed, "trace": a.trace,
        "samples": len(runs.samples),
        "scenario_seeds": sorted({s["scenario_seed"] for s in runs.samples}),
        "sample_wall_s": [round(s["wall_s"], 4) for s in runs.samples],
        "host": {"nproc": os.cpu_count(), "threads": w["threads"], "git_rev": git_rev(),
                 "source_digest": source_digest()},
        "errors": runs.errors[:20],
    }))
    result_metrics = {name: {"value": metrics[name], "unit": unit}
                      for name, unit in units.items() if name in metrics}
    correct = runs.failed == 0 and len(result_metrics) == len(units)
    print(json.dumps({"correct": correct, "attempted": runs.attempted, "failed": runs.failed,
                      "metrics": result_metrics}))


if __name__ == "__main__":
    main()
