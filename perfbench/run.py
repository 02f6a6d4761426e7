#!/usr/bin/env python3
"""End-to-end benchmark of the oms library: input file -> partition -> assignment file.

Usage (from the repository root):

    python3 perfbench/run.py --workload map-4096-t2 --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

One invocation is one run of one workload. It builds the `perfbench` steps
and the `oms` CLI, generates (or reuses) the seeded inputs, then:

* `--trace 0`: repeats the timed path in a fresh process per repetition
  for `--seconds` seconds (at least five repetitions) and reports the
  median of every end-to-end metric;
* `--trace 1`: makes one traced run that times each layer's calls and
  reports the per-layer metrics.

Every repetition's output is checked; once per workload and seed the
`oms` CLI runs the same job and must agree with the library path. The
last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
CACHE = os.path.join(ROOT, ".bench_cache")

# The workloads BENCHMARK.json names. On a shared 2-vCPU host the speed
# drifts by up to ±30 % over minutes, which dominates the spread between
# runs, so only two workloads are gated (see README.md).
WORKLOADS = ["map-4096-t2", "churn"]
# Runnable by hand with the same metrics and checks; not in BENCHMARK.json.
EXTRA_WORKLOADS = ["map-4096", "fennel-64-metis"]
THREADED = {"map-4096-t2"}

# name -> (unit, better); the order is the order of the report.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "partition_s": ("s", "lower"),
    "edge_cut_frac": ("ratio", "lower"),
    "mapping_cost": ("J", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

PER_LAYER = {
    "io.read_s": ("s", "lower"),
    "io.read_mib_per_s": ("MiB/s", "higher"),
    "io.input_bytes": ("bytes", "lower"),
    "io.decode_s": ("s", "lower"),
    "api.build_s": ("s", "lower"),
    "core.partition_s": ("s", "lower"),
    "core.trace_overhead": ("ratio", "lower"),
    "core.drive_floor_s": ("s", "lower"),
    "core.gather_floor_s": ("s", "lower"),
    "core.score_select_s": ("s", "lower"),
    "core.pass0_s": ("s", "lower"),
    "core.moved_pass1": ("count", "lower"),
    "core.moved_pass2": ("count", "lower"),
    "core.measure_pass_s": ("s", "lower"),
    "mapping.cost_pass_s": ("s", "lower"),
    "obs.nodes_scored": ("count", "lower"),
    "obs.deg_le2_fast_path": ("count", "higher"),
    "obs.restream_passes": ("count", "lower"),
    "obs.restream_reverts": ("count", "lower"),
    "parallel.materialize_s": ("s", "lower"),
    "parallel.t1_s": ("s", "lower"),
    "parallel.speedup": ("ratio", "higher"),
    "parallel.efficiency": ("ratio", "higher"),
    "parallel.overshoot_nodes": ("count", "lower"),
    "obs.deltas_applied": ("count", "higher"),
    "obs.repair_rescored": ("count", "lower"),
    "obs.repair_moves": ("count", "lower"),
    "obs.drift_fallbacks": ("count", "lower"),
    "dynamic.rescored_per_delta": ("ratio", "lower"),
    "dynamic.move_yield": ("ratio", "higher"),
    "output.write_s": ("s", "lower"),
    "mem.after_read_mib": ("MiB", "lower"),
    "mem.after_partition_mib": ("MiB", "lower"),
    "trace.path_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
}

# Layer timings that only some workloads have a call for. The traced run
# prints them where they apply; they stay out of the machine-readable set,
# which every workload must fill with measured values.
WORKLOAD_SPECIFIC = {
    "io.trace_read_s": "s",
    "core.pass1_s": "s",
    "core.pass2_s": "s",
    "core.restream_overhead_s": "s",
    "dynamic.init_s": "s",
    "dynamic.apply_s": "s",
    "dynamic.batch_p50_ms": "ms",
    "dynamic.batch_max_ms": "ms",
    "dynamic.fallback_s": "s",
}

# Printed with the end-to-end metrics but not gated: for a given input it is
# a fixed count divided by `partition_s`, so it carries no other information.
DERIVED = {"deltas_per_s": "1/s"}

MIN_REPS = 5
# Stop starting repetitions past this many seconds, whatever --seconds says,
# so a run always ends well inside three minutes.
HARD_CAP_S = 120
# Cached input sets kept per graph family (an RMAT set is about 330 MB).
KEEP_INPUTS = 3
# Relative cut and J difference allowed between the CLI and the library on
# the threaded workload, whose block races make every run differ a little.
THREADED_PARITY = 0.02


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def cargo(args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    proc = subprocess.run(["cargo", *args], cwd=ROOT, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError(f"cargo {' '.join(args)} failed with exit code {proc.returncode}")


def build():
    """Builds the benchmark steps and the `oms` CLI from this checkout."""
    manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(manifest):
        raise BenchError(f"{manifest} not found: run from a full checkout of the repository")
    cargo(["build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")])
    cargo(["build", "--release", "--offline", "--quiet", "-p", "oms-cli",
           "--manifest-path", manifest])
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "oms")


def step(binary, args, timeout=170):
    """Runs one benchmark step in a fresh process and parses its JSON line."""
    proc = subprocess.run([binary, *args], capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(binary)} {args[0]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def inputs(bench, family, seed, scale, needed):
    """Returns (dir, manifest) of the seeded inputs, generating the files in
    `needed` that are not there yet. The manifest records each file's size,
    SHA-256 and the time of the generation call that wrote it."""
    base = os.path.join(CACHE, "inputs")
    name = f"{family}-{scale}-{seed}"
    final = os.path.join(base, name)
    manifest_path = os.path.join(final, "manifest.json")
    if os.path.isfile(manifest_path):
        with open(manifest_path) as f:
            manifest = json.load(f)
        os.utime(final)
    else:
        os.makedirs(base, exist_ok=True)
        cached = sorted((d for d in os.listdir(base)
                         if d.startswith(f"{family}-{scale}-") and d != name),
                        key=lambda d: os.path.getmtime(os.path.join(base, d)))
        for old in cached[:max(0, len(cached) - KEEP_INPUTS + 1)]:
            shutil.rmtree(os.path.join(base, old), ignore_errors=True)
        manifest = {"family": family, "seed": seed, "scale": scale, "files": {}}
    missing = [f for f in needed if f not in manifest["files"]]
    if not missing:
        return final, manifest
    tmp = os.path.join(final, "gen.tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    gen = step(bench, ["gen", "--family", family, "--seed", str(seed), "--scale", scale,
                       "--files", ",".join(missing), "--dir", tmp], timeout=600)
    for f in sorted(os.listdir(tmp)):
        path = os.path.join(tmp, f)
        # Flush the new files to disk now, so their writeback does not
        # compete with the timed repetitions.
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        manifest["files"][f] = {"bytes": os.path.getsize(path), "sha256": file_digest(path),
                                "gen_s": gen["gen_s"]}
        os.replace(path, os.path.join(final, f))
    os.rmdir(tmp)
    with open(manifest_path + ".tmp", "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(manifest_path + ".tmp", manifest_path)
    return final, manifest


def warm(paths):
    """Reads the inputs once so every repetition starts from the page cache."""
    for path in paths:
        with open(path, "rb") as f:
            while f.read(1 << 22):
                pass


def host_facts():
    facts = {"nproc": os.cpu_count(), "cpu": "unknown", "mem_total": "unknown",
             "commit": "unknown (not a git checkout)"}
    try:
        with open("/proc/cpuinfo") as f:
            facts["cpu"] = next((l.split(":", 1)[1].strip() for l in f
                                 if l.startswith("model name")), "unknown")
        with open("/proc/meminfo") as f:
            facts["mem_total"] = next((l.split(":", 1)[1].strip() for l in f
                                       if l.startswith("MemTotal")), "unknown")
    except OSError:
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            facts["commit"] = proc.stdout.strip()
    return facts


def rep(bench, workload, data, out, corrupt=False):
    """One fresh-process repetition; returns its record, or one with an error."""
    args = ["run", "--workload", workload, "--dir", data, "--out", out]
    if corrupt:
        args.append("--corrupt")
    try:
        record = step(bench, args)
    except (BenchError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        record = {"failures": [f"run failed: {e}"]}
    record["file"] = out
    return record


def judge(workload, reps):
    """Marks failed repetitions: failed checks, or (sequential workloads) a
    cut or J that differs from the first repetition's."""
    first = next((r for r in reps if "cut" in r), None)
    for r in reps:
        failures = r.setdefault("failures", [])
        if "wall_s" in r and any(r.get(name) is None for name in END_TO_END):
            failures.append("a metric is not a finite number")
        if workload not in THREADED and first is not None and "cut" in r and \
                (r["cut"], r["cost"]) != (first["cut"], first["cost"]):
            failures.append(f"cut/J {r['cut']}/{r['cost']} differ from the first run's "
                            f"{first['cut']}/{first['cost']}")
    return sum(1 for r in reps if r["failures"])


def measure(bench, workload, data, seconds, runs_dir):
    reps, start = [], time.monotonic()
    while True:
        began = time.monotonic()
        reps.append(rep(bench, workload, data, os.path.join(runs_dir, f"run{len(reps)}.txt")))
        took = time.monotonic() - began
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed + took > seconds:
            break
        if elapsed + took > HARD_CAP_S:
            break
    return reps


def parse_cli(workload, stdout):
    """The cut and J the `oms` CLI printed."""
    cut = cost = None
    lines = stdout.splitlines()
    for line in lines:
        key, _, value = line.partition(":")
        if key.strip() == "edge-cut":
            cut = int(value.split()[0])
        elif key.strip() == "mapping cost":
            cost = int(value.split()[0])
    if workload == "churn":
        # Last row of the checkpoint table: checkpoint, deltas, cut, ...
        rows = [l.split() for l in lines if l.split() and l.split()[0].isdigit()]
        cut = int(rows[-1][2]) if rows else None
    return cut, cost


def parity(bench, oms, workload, info, data, reference):
    """Runs the `oms` CLI on the same file and job (untimed, once per
    workload and build) and compares it with the library path. Returns a
    list of disagreements (empty when the two agree)."""
    key = {"binaries": [[os.path.getmtime(b), os.path.getsize(b)] for b in (bench, oms)]}
    cache = os.path.join(CACHE, f"parity-{workload}.json")
    if os.path.isfile(cache):
        with open(cache) as f:
            saved = json.load(f)
        if saved.get("key") == key:
            return saved["problems"]
    out = os.path.join(data, f"cli-{workload}.txt")
    files = dict(zip(("{graph}", "{trace}"), (os.path.join(data, f) for f in info["inputs"])))
    args = [files.get(a, a) for a in info["cli"]]
    proc = subprocess.run([oms, *args, "--output", out], capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        return [f"oms exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    cut, cost = parse_cli(workload, proc.stdout)
    checked = step(bench, ["check", "--workload", workload, "--dir", data, "--file", out])
    problems = list(checked["failures"])
    if cut != checked["cut"]:
        problems.append(f"CLI printed cut {cut}, its file has cut {checked['cut']}")
    if cost is not None and cost != checked["cost"]:
        problems.append(f"CLI printed J {cost}, its file has J {checked['cost']}")
    for name in ("cut", "cost"):
        ours, theirs = reference[name], checked[name]
        if workload in THREADED:
            if abs(theirs - ours) > THREADED_PARITY * ours:
                problems.append(f"CLI {name} {theirs} vs library {ours}: more than "
                                f"{THREADED_PARITY:.0%} apart")
        elif theirs != ours:
            problems.append(f"CLI {name} {theirs} != library {ours}")
    if workload not in THREADED and file_digest(out) != file_digest(reference["file"]):
        problems.append("CLI and library assignment files differ")
    os.remove(out)
    with open(cache, "w") as f:
        json.dump({"key": key, "data": data, "problems": problems}, f)
    return problems


def quantiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def report_end_to_end(reps, failed):
    complete = [r for r in reps if all(r.get(name) is not None for name in END_TO_END)]
    ok = [r for r in complete if not r["failures"]] or complete
    if not ok:
        raise BenchError("no repetition produced metrics")
    metrics, rows = {}, []
    for name, (unit, _) in END_TO_END.items():
        values = [r[name] for r in ok]
        median = statistics.median(values)
        metrics[name] = {"value": median, "unit": unit}
        q = quantiles(values)
        rows.append(f"  {name:<16} {median:>16.6g} {unit:<6} n={len(values)} "
                    f"q1={q[0]:.6g} q3={q[2]:.6g} min={min(values):.6g} max={max(values):.6g}")
    for name, unit in DERIVED.items():
        median = statistics.median(r[name] for r in ok)
        rows.append(f"  {name:<16} {median:>16.6g} {unit:<6} (derived from partition_s)")
    rows.append(f"  {'failed_frac':<16} {failed / len(reps):>16.6g} ratio  "
                f"({failed} failed of {len(reps)} attempted)")
    return metrics, rows


def report_per_layer(layers):
    metrics, rows = {}, []
    missing = [n for n in PER_LAYER if layers.get(n) is None]
    if missing:
        raise BenchError(f"traced run did not emit {missing}")
    for name, (unit, _) in PER_LAYER.items():
        metrics[name] = {"value": layers[name], "unit": unit}
        rows.append(f"  {name:<28} {layers[name]:>16.6g} {unit}")
    for name, unit in WORKLOAD_SPECIFIC.items():
        value = f"{layers[name]:>16.6g}" if layers.get(name) is not None else f"{'n/a':>16}"
        rows.append(f"  {name:<28} {value} {unit}  (workload-specific)")
    return metrics, rows


def run(workload, seed, seconds, traced, scale="full", corrupt=False):
    """One benchmark run; returns (result, report lines). Also writes the
    run's record, with host facts and every repetition, under
    .bench_cache/results/."""
    bench, oms = build()
    info = step(bench, ["describe", "--workload", workload])
    # The traced run also decodes the v3 stream file (`io.decode_s`).
    needed = info["inputs"] + (["graph.oms"] if traced and "graph.oms" not in info["inputs"]
                               else [])
    data, manifest = inputs(bench, info["family"], seed, scale, needed)
    warm([os.path.join(data, f) for f in needed])
    runs_dir = os.path.join(CACHE, "runs", workload)
    os.makedirs(runs_dir, exist_ok=True)
    lines = [f"workload {workload}  seed {seed}  scale {scale}  trace {int(traced)}",
             "host     " + json.dumps(host_facts()),
             "inputs   " + ", ".join(
                 f"{f} {manifest['files'][f]['bytes']} B sha256 "
                 f"{manifest['files'][f]['sha256'][:16]} generated in "
                 f"{manifest['files'][f]['gen_s']:.3f} s" for f in needed) +
             " (generation is not part of setup_s)"]
    if traced:
        out = os.path.join(runs_dir, "traced.txt")
        try:
            layers = step(bench, ["trace", "--workload", workload, "--dir", data, "--out", out])
            checked = step(bench, ["check", "--workload", workload, "--dir", data, "--file", out])
            reps = [{"failures": checked["failures"], "cut": checked["cut"],
                     "cost": checked["cost"], "file": out}]
        except (BenchError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"traced run failed: {e}")
        failed = judge(workload, reps)
        metrics, rows = report_per_layer(layers)
        lines.append("per-layer metrics (one traced run):")
    else:
        reps = measure(bench, workload, data, seconds, runs_dir)
        if corrupt:
            reps.append(rep(bench, workload, data, os.path.join(runs_dir, "corrupt.txt"), True))
        failed = judge(workload, reps)
        metrics, rows = report_end_to_end(reps, failed)
        lines.append(f"end-to-end metrics (median of {len(reps)} fresh-process runs):")
    lines += rows
    reference = next((r for r in reps if not r["failures"]), None)
    try:
        problems = parity(bench, oms, workload, info, data, reference) if reference else \
            ["no passing run to compare the CLI with"]
    except (BenchError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        problems = [f"CLI parity check failed: {e}"]
    lines.append("CLI parity: " + ("ok" if not problems else "; ".join(problems)))
    for i, r in enumerate(reps):
        for f in r["failures"]:
            lines.append(f"FAILED run {i}: {f}")
    result = {"correct": failed == 0 and not problems, "attempted": len(reps),
              "failed": failed, "metrics": metrics}
    record = {"workload": workload, "seed": seed, "scale": scale, "trace": int(traced),
              "host": host_facts(), "inputs": manifest, "parity": problems,
              "runs": [{k: v for k, v in r.items() if k != "file"} for r in reps],
              "result": result}
    results = os.path.join(CACHE, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload}-seed{seed}-trace{int(traced)}.json"), "w") as f:
        json.dump(record, f, indent=1)
    return result, lines


def self_test():
    """Tiny-scale check of the benchmark itself: every metric is emitted
    with its unit, and a corrupted assignment counts as a failed run."""
    problems = []
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
            if declared != table:
                problems.append(f"BENCHMARK.json {key} differs from run.py")
        if [w["name"] for w in spec["workloads"]] != WORKLOADS:
            problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS + EXTRA_WORKLOADS:
        for traced, table in ((False, END_TO_END), (True, PER_LAYER)):
            result, lines = run(workload, 1, 0, traced, scale="tiny")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {k: unit for k, (unit, _) in table.items()}
            if got != want:
                problems.append(f"{workload} trace={int(traced)}: metrics {got} != {want}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={int(traced)}: not correct: {lines}")
        result, _ = run(workload, 1, 0, False, scale="tiny", corrupt=True)
        if result["correct"] or result["failed"] != 1:
            problems.append(f"{workload}: a corrupted assignment was not counted as failed "
                            f"({result['failed']} of {result['attempted']} failed)")
        log(f"self-test: {workload} done")
    for p in problems:
        log(f"self-test FAILED: {p}")
    if not problems:
        print("self-test passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        log(f"benchmark error: {e}")
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
