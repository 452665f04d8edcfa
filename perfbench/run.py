#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `buffy` CLI.

Run from the root of the repository:

    python3 perfbench/run.py --workload cd2dat-exhaustive --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload h263full-guided --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-test

The script builds `buffy` (and the layer replayer in `perfbench/replay`)
from source into `$CARGO_TARGET_DIR` (default `.bench_build`), writes its
inputs and outputs under `.bench_work/`, and prints as its last line one
JSON object: `{"correct", "attempted", "failed", "metrics"}`.

Workloads. Every graph comes from `buffy gallery`; every exploration is one
`buffy explore … --json` process with the default single worker thread,
run one process at a time (a closed loop with one client).

- `cd2dat-exhaustive`: the paper's section 9 algorithm on the multirate
  chain (612 HSDF nodes). Static certificates take most of the wall time;
  the state-space engine takes little.
- `satellite-guided`: the widest gallery graph (26 channels) under the
  default guided driver: about 1700 tiny analyses and 800 prunes, so the
  time goes to the per-candidate path (cheap certificates, dominance
  antichains, memo and warm-start probes, dependency replay). It is not
  listed in `BENCHMARK.json`: `StaticBounds::new` collects the ratio-graph
  edges in a randomly seeded `HashMap`, so Howard's iteration count, and
  with it the run time, changes from process to process (0.5-1.5 s), and
  about one process in a hundred meets an edge order on which Howard
  hits its round cap (`McmDidNotConverge`), taking up to 45 s.
- `h263full-guided`: the H.263 decoder with the authors' cycle counts
  restored (the gallery scales them down about 100x), capped at size
  1195. Every analysis simulates over a million time units, so the
  engine's time stepping dominates; `cd2dat-exhaustive` is its
  no-change control.

Seed. `--seed` relabels every actor and channel with a seed-derived
suffix. Relabelling leaves the graph's structure, and so the work of the
exploration, unchanged, which keeps figures from different seeds
comparable.

`--trace 0` reports the end-to-end metrics of untraced runs repeated for
`--seconds`: medians of `wall_s` and `cpu_s` over the runs, and of
`setup_s` over `buffy check` runs interleaved with them, each divided by
the host slowdown measured around it (see `CALIBRATION_REFERENCE_S`). `--trace
1` makes three untraced runs and one `--trace-json` run, then re-runs every layer
call the trace shows through the layers' public functions
(`perfbench/replay`) and reports the per-layer split in raw times, with
the host slowdown of the moment as `host.slowdown`.

A run fails when `buffy explore` exits non-zero, when its front differs
from the front pinned in `perfbench/expected/`, when a pinned front point
does not re-analyse (`buffy analyze --dist`) to its throughput, or when a
deterministic counter differs from the first run's.
"""

import argparse
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

WORKLOADS = {
    "cd2dat-exhaustive": {
        "gallery": "cd2dat",
        "mode": "exhaustive",
        "args": ["--algorithm", "exhaustive"],
    },
    "satellite-guided": {"gallery": "satellite", "mode": "guided", "args": []},
    "h263full-guided": {
        "gallery": "h263decoder",
        "mode": "guided",
        "args": ["--max-size", "1195"],
        # The authors' cycle counts (the gallery divides them by about 100).
        "execution_times": {"vld": 26018, "iq": 559, "idct": 486, "mc": 10958},
    },
}

# Expected derivation of h263full: repetition vector, lower-bound size and
# the exact throughput at the lower-bound distribution.
H263FULL_REPETITION = [1, 594, 594, 1]
H263FULL_LOWER_BOUND = 1189
H263FULL_LB_THROUGHPUT = "1/646262"

# ExplorationStats fields that must repeat exactly from run to run and
# across thread counts (wall-clock and warm-start tallies are excluded, as
# in the program's own stats equality).
DETERMINISTIC = ["evaluations", "cache_hits", "static_prunes", "dominance_prunes", "max_states"]

MIN_RUNS = 3
SETUP_PER_ROUND = 3
TRACE_SETUP_REPEATS = 11
# Untraced runs whose median wall time the per-layer shares divide by.
TRACE_UNTRACED_RUNS = 3

# About the seconds `perfbench-replay calibrate` takes on a quiet 2-vCPU
# Intel Xeon virtual machine. The machine is shared, and its speed drifts
# by up to 1.5x within minutes, alike for every CPU-bound process. The
# end-to-end times are therefore reported at this reference speed: each
# measured time is divided by the slowdown (calibration time / this
# constant), averaged over the calibrations just before and just after it.
CALIBRATION_REFERENCE_S = 0.2


class BenchError(Exception):
    """The benchmark itself could not run (build failure, bad input)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Builds `buffy` and the replayer; returns both executables."""
    if not (ROOT / "Cargo.toml").is_file():
        raise BenchError(f"no Cargo.toml at {ROOT}: run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "buffy-cli", "--bin", "buffy"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(BENCH / "replay" / "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise BenchError(f"{' '.join(cmd)} failed:\n{done.stderr}")
    release = target_dir() / "release"
    return release / "buffy", release / "perfbench-replay"


def run_text(cmd, cwd):
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def derive_graph(buffy, spec, seed, work):
    """Writes the workload's graph for `seed`; returns its path."""
    root = ET.fromstring(run_text([buffy, "gallery", spec["gallery"]], work))
    for props in root.iter("actorProperties"):
        time_units = spec.get("execution_times", {}).get(props.get("actor"))
        if time_units is not None:
            for et in props.iter("executionTime"):
                et.set("time", str(time_units))
    suffix = f"_{random.Random(seed).randrange(16 ** 6):06x}"
    renames = [
        ("actor", "name"), ("actorProperties", "actor"),
        ("channel", "name"), ("channel", "srcActor"), ("channel", "dstActor"),
        ("channelProperties", "channel"),
    ]
    for tag, attr in renames:
        for el in root.iter(tag):
            if el.get(attr) is not None:
                el.set(attr, el.get(attr) + suffix)
    path = work / "graph.xml"
    path.write_bytes(ET.tostring(root, encoding="utf-8", xml_declaration=True))
    return path


def analyze_throughput(buffy, graph, work, dist=None):
    cmd = [buffy, "analyze", graph]
    if dist is not None:
        cmd += ["--dist", ",".join(map(str, dist))]
    out = run_text(cmd, work)
    match = re.search(r"^throughput of \S+: (\S+)", out, re.M)
    if not match:
        raise BenchError(f"unexpected analyze output:\n{out}")
    return match.group(1)


def self_test_h263full(buffy, graph, work):
    """Checks the h263full derivation; returns a list of problems."""
    problems = []
    times = {
        props.get("actor").rsplit("_", 1)[0]: int(et.get("time"))
        for props in ET.parse(graph).getroot().iter("actorProperties")
        for et in props.iter("executionTime")
    }
    if times != WORKLOADS["h263full-guided"]["execution_times"]:
        problems.append(f"execution times {times}")
    info = run_text([buffy, "info", graph], work)
    rep = re.search(r"^repetition vector: (.*)$", info, re.M)
    rep = [int(v.rsplit("=", 1)[1]) for v in rep.group(1).split()] if rep else None
    if rep != H263FULL_REPETITION:
        problems.append(f"repetition vector {rep}")
    lb = re.search(r"^per-channel lower bounds: .*\(size (\d+)\)", info, re.M)
    if not lb or int(lb.group(1)) != H263FULL_LOWER_BOUND:
        problems.append(f"lower-bound size {lb.group(1) if lb else None}")
    thr = analyze_throughput(buffy, graph, work)
    if thr != H263FULL_LB_THROUGHPUT:
        problems.append(f"throughput at the lower bound {thr}")
    return problems


def expected_front(name):
    return json.loads((BENCH / "expected" / f"{name}.json").read_text())


def check_front_analyses(buffy, graph, work, front):
    """Re-analyses every pinned front point; returns a list of problems."""
    problems = []
    for point in front:
        thr = analyze_throughput(buffy, graph, work, point["distribution"])
        if thr != point["throughput"]:
            problems.append(f"{point['distribution']} re-analyses to {thr}, pinned {point['throughput']}")
    return problems


def explore(buffy, graph, spec, work, extra=()):
    """One `buffy explore` process: (wall_s, cpu_s, rss_mb, exit code, report)."""
    cmd = [str(buffy), "explore", str(graph), *spec["args"], *extra, "--json"]
    out_path = work / "explore.out"
    start = time.perf_counter()
    with open(out_path, "wb") as out, open(work / "explore.err", "wb") as err:
        proc = subprocess.Popen(cmd, cwd=work, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = None
    lines = out_path.read_text().splitlines()
    if proc.returncode == 0 and lines:
        try:
            report = json.loads(lines[0])
        except json.JSONDecodeError:
            report = None
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, report


def counters(report):
    return {k: report["stats"][k] for k in DETERMINISTIC}


def run_problems(code, report, front):
    """What is wrong with one explore run (empty when it is correct)."""
    if code != 0 or report is None:
        return [f"exit code {code}"]
    problems = []
    got = [{k: p[k] for k in ("size", "throughput", "distribution")} for p in report["pareto"]]
    if got != front:
        problems.append(f"front differs from the pinned front: {got}")
    if not report["completeness"]["exact"] or report["failures"]:
        problems.append("result is not exact")
    return problems


def check_times(buffy, graph, work, repeats):
    """Wall times of `repeats` runs of `buffy check <graph>`."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run([buffy, "check", graph], cwd=work,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise BenchError(f"buffy check exited {done.returncode}")
    return samples


def percentile(sorted_samples, q):
    """Nearest-rank percentile of already sorted samples."""
    if not sorted_samples:
        return 0.0
    return sorted_samples[max(0, math.ceil(q * len(sorted_samples)) - 1)]


def calibrate(replay, work):
    """Seconds the fixed calibration job takes on the host right now."""
    return int(run_text([replay, "calibrate"], work)) / 1e9


def measure_untraced(buffy, replay, graph, spec, work, seconds, front, fixed_problems):
    """Rounds of one explore run plus `SETUP_PER_ROUND` check runs, each
    round between two calibrations, until `seconds` have passed."""
    walls, cpus, rss, setups, slowdowns, rounds = [], [], [], [], [], []
    attempted = failed = 0
    reference = None
    before = calibrate(replay, work) / CALIBRATION_REFERENCE_S
    start = time.perf_counter()
    while attempted < MIN_RUNS or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        round_start = time.perf_counter()
        wall, cpu, mb, code, report = explore(buffy, graph, spec, work)
        checks = check_times(buffy, graph, work, SETUP_PER_ROUND)
        after = calibrate(replay, work) / CALIBRATION_REFERENCE_S
        rounds.append(time.perf_counter() - round_start)
        slowdown = (before + after) / 2
        before = after
        slowdowns.append(slowdown)
        setups += [c / slowdown for c in checks]
        attempted += 1
        problems = list(fixed_problems) + run_problems(code, report, front)
        if report is not None:
            if reference is None:
                reference = counters(report)
            elif counters(report) != reference:
                problems.append(f"counters {counters(report)} differ from the first run's {reference}")
        if problems:
            failed += 1
            log(f"run {attempted} failed: {'; '.join(problems)}")
        walls.append(wall)
        cpus.append(cpu)
        rss.append(mb)
    log(f"{attempted} runs: raw wall median {statistics.median(walls):.4f} s "
        f"(min {min(walls):.4f}, max {max(walls):.4f}); host slowdown median "
        f"{statistics.median(slowdowns):.3f} (min {min(slowdowns):.3f}, max {max(slowdowns):.3f}); "
        f"counters {reference}")
    return attempted, failed, {
        "wall_s": (statistics.median(w / s for w, s in zip(walls, slowdowns)), "s"),
        "cpu_s": (statistics.median(c / s for c, s in zip(cpus, slowdowns)), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }


def replay_plan(trace_path):
    """The replay plan of one trace, plus its evaluation events."""
    plan, evals, phase = [], [], None
    for line in trace_path.read_text().splitlines():
        event = json.loads(line)
        kind = event["event"]
        if kind == "phase":
            phase = "bounds" if event["phase"] == "bounds" else "search"
        elif kind == "evaluation":
            plan.append(f"eval {phase} {','.join(map(str, event['distribution']))}")
            evals.append(event)
        elif kind == "pruned" and event["kind"] == "static-bound":
            plan.append(f"static {','.join(map(str, event['distribution']))}")
    return "\n".join(plan) + "\n", evals


def measure_traced(buffy, replay, graph, spec, work, front, fixed_problems):
    attempted = failed = 0

    def judge(what, problems):
        nonlocal attempted, failed
        attempted += 1
        if problems:
            failed += 1
            log(f"{what} failed: {'; '.join(problems)}")

    setup = statistics.median(check_times(buffy, graph, work, TRACE_SETUP_REPEATS))
    slowdown = calibrate(replay, work) / CALIBRATION_REFERENCE_S
    walls = []
    for _ in range(TRACE_UNTRACED_RUNS):
        run_wall, _, _, code, report = explore(buffy, graph, spec, work)
        judge("untraced run", fixed_problems + run_problems(code, report, front))
        walls.append(run_wall)
    wall = statistics.median(walls)
    trace_path = work / "trace.jsonl"
    traced_wall, _, _, tcode, treport = explore(
        buffy, graph, spec, work, ["--trace-json", str(trace_path)])
    problems = fixed_problems + run_problems(tcode, treport, front)
    if report is None or treport is None:
        raise BenchError("no report to split into layers")
    stats = report["stats"]
    if counters(treport) != counters(report):
        problems.append("traced counters differ from untraced ones")

    plan, evals = replay_plan(trace_path)
    (work / "replay.plan").write_text(plan)
    samples = json.loads(run_text([replay, graph, work / "replay.plan", spec["mode"]], work))
    if len(evals) != stats["evaluations"]:
        problems.append(f"{len(evals)} evaluation events for {stats['evaluations']} evaluations")
    replayed = list(zip(samples["engine_throughput"], samples["engine_states"]))
    if replayed != [(e["throughput"], e["states"]) for e in evals]:
        problems.append("replayed analyses disagree with the traced ones")
    if max(samples["engine_states"], default=0) != stats["max_states"]:
        problems.append("replayed max_states differs from the run's")
    judge("traced run", problems)

    if spec["mode"] == "exhaustive":
        # Byte-identity invariant: stats repeat at any thread count.
        _, _, _, code2, report2 = explore(buffy, graph, spec, work, ["--threads", "2"])
        problems = fixed_problems + run_problems(code2, report2, front)
        if report2 is not None and counters(report2) != counters(report):
            problems.append(f"--threads 2 counters {counters(report2)} differ from {counters(report)}")
        judge("--threads 2 run", problems)

    layers = {}
    for name, key, setup_key in (("cert", "cert_ns", "cert_setup_ns"),
                                 ("engine", "engine_ns", None), ("deps", "deps_ns", None)):
        ns = sorted(samples[key])
        total = (sum(ns) + (samples[setup_key] if setup_key else 0)) / 1e9
        layers[name] = total
        log(f"{name}: {len(ns)} calls, p50 {percentile(ns, 0.5) / 1e3:.1f} us, "
            f"p90 {percentile(ns, 0.9) / 1e3:.1f} us (of {len(ns)} samples), total {total:.4f} s")
    cert_ns = sorted(samples["cert_ns"])
    engine_ns = sorted(samples["engine_ns"])
    time_units = sum(samples["engine_time_units"])
    other = wall - setup - sum(layers.values())
    metrics = {
        "cert.calls": (len(cert_ns), "count"),
        "cert.p50_us": (percentile(cert_ns, 0.5) / 1e3, "us"),
        "cert.p90_us": (percentile(cert_ns, 0.9) / 1e3, "us"),
        "cert.total_s": (layers["cert"], "s"),
        "cert.share": (layers["cert"] / wall, "ratio"),
        "cert.yield": (stats["static_prunes"] / len(cert_ns) if cert_ns else 0.0, "ratio"),
        "engine.calls": (len(engine_ns), "count"),
        "engine.p50_us": (percentile(engine_ns, 0.5) / 1e3, "us"),
        "engine.p90_us": (percentile(engine_ns, 0.9) / 1e3, "us"),
        "engine.total_s": (layers["engine"], "s"),
        "engine.share": (layers["engine"] / wall, "ratio"),
        "engine.max_states": (max(samples["engine_states"], default=0), "count"),
        "engine.time_units": (time_units, "count"),
        "engine.ns_per_time_unit": (sum(engine_ns) / time_units if time_units else 0.0, "ns"),
        "deps.calls": (len(samples["deps_ns"]), "count"),
        "deps.total_s": (layers["deps"], "s"),
        "deps.share": (layers["deps"] / wall, "ratio"),
        "bounds.ub_ms": (samples["ub_ns"] / 1e6, "ms"),
        "graph.parse_ms": (statistics.median(samples["parse_ns"]) / 1e6, "ms"),
        "pipeline.cache_hits": (stats["cache_hits"], "count"),
        "pipeline.static_prunes": (stats["static_prunes"], "count"),
        "pipeline.dominance_prunes": (stats["dominance_prunes"], "count"),
        "pipeline.warm_starts": (stats["warm_starts"], "count"),
        "driver.other_s": (other, "s"),
        "driver.share": (other / wall, "ratio"),
        "trace.overhead_s": (traced_wall - wall, "s"),
        "host.slowdown": (slowdown, "ratio"),
    }
    return attempted, failed, metrics


def prepare(buffy, name, seed):
    """Derives the workload's inputs; returns (spec, work, graph, front, problems)."""
    spec = WORKLOADS[name]
    work = ROOT / ".bench_work" / name
    work.mkdir(parents=True, exist_ok=True)
    graph = derive_graph(buffy, spec, seed, work)
    front = expected_front(name)
    problems = check_front_analyses(buffy, graph, work, front)
    if name == "h263full-guided":
        problems += self_test_h263full(buffy, graph, work)
    return spec, work, graph, front, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the h263full input derivation and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        buffy, replay = build()
        if args.self_test:
            _, _, _, _, problems = prepare(buffy, "h263full-guided", args.seed)
            for problem in problems:
                log(f"self-test: {problem}")
            print("self-test " + ("failed" if problems else "passed"))
            return 1 if problems else 0
        spec, work, graph, front, problems = prepare(buffy, args.workload, args.seed)
        if args.trace:
            attempted, failed, metrics = measure_traced(
                buffy, replay, graph, spec, work, front, problems)
        else:
            attempted, failed, metrics = measure_untraced(
                buffy, replay, graph, spec, work, args.seconds, front, problems)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"benchmark error: {e}")
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
