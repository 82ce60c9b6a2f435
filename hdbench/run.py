#!/usr/bin/env python3
"""The HDiff benchmark: one workload, one seed, one result line.

    python3 hdbench/run.py --workload oneshot|campaign|streams|serve \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside an HDiff source tree.  The first run builds the
`hdbench` program and the `hdiff` CLI into .bench_build/ at the tree's root.
The run repeats the workload's fixed unit of work (a pipeline pass, or a
whole campaign) about S seconds' worth, checks every output against the
built CLI or against another configuration that must agree byte for byte,
prints a human-readable report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced.
With --trace 1 every unit is paired with a traced twin and the metrics are
the per-layer ones.  A failed correctness check exits 1.  See README.md.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
ROUNDS = 10  # mutation rounds per campaign; round 0 is extra
# Busy threads: oneshot, campaign and streams run one process at JOBS
# threads; serve runs JOBS worker processes at one thread each.
JOBS = 4

# Histogram-backed layer metrics: reported name -> (hdbench histogram,
# which statistic).
HISTOGRAM_METRICS = {
    "net.observe_us_p50": ("net.observe_us", "p50"),
    "net.observe_us_tail": ("net.observe_us", "tail"),
    "net.forward_us_p50": ("net.forward_us", "p50"),
    "net.replay_us_p50": ("net.replay_us", "p50"),
    "net.direct_us_p50": ("net.direct_us", "p50"),
    "stream.observe_us_p50": ("stream.observe_us", "p50"),
    "stream.observe_us_tail": ("stream.observe_us", "tail"),
    "stream.messages_per_connection_p50":
        ("stream.messages_per_connection", "p50"),
}

# Per workload: the unit of work's rough cost on a 4-core host (seconds,
# set-up included) and the least number of units a run makes.  The unit
# count is fixed by --seconds alone, never by how fast the code runs, so a
# run's amount of work and its latency sample count are the same on every
# commit.
UNIT_COST = {"oneshot": 0.16, "campaign": 1.8, "streams": 1.6, "serve": 3.6}
MIN_UNITS = {"oneshot": 40, "campaign": 4, "streams": 4, "serve": 4}

# The traced round loop must account for the rounds it drives: its four
# phase calls cover at least this share of every traced round, and at least
# ENGINE_COVERAGE_MIN of the paired untraced CampaignEngine::run's rounds,
# pooled (which catches work the engine does outside the four hooks).
PHASE_COVERAGE_MIN = 0.95
ENGINE_COVERAGE_MIN = 0.90


class GateFailure(Exception):
    pass


def fail_early(message):
    print("hdbench: " + message, file=sys.stderr)
    sys.exit(2)


# ---- host and build ---------------------------------------------------------

def nproc():
    return len(os.sched_getaffinity(0))


def filesystem_of(path):
    """Filesystem type of the mount holding `path` (from mountinfo)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/self/mountinfo") as f:
        for line in f:
            left, _, right = line.partition(" - ")
            mount_point = left.split()[4]
            inside = path == mount_point or path.startswith(
                mount_point.rstrip("/") + "/")
            if inside and len(mount_point) >= len(best):
                best, fstype = mount_point, right.split()[0]
    return fstype


def compiler_and_build_type(build_dir):
    build_type = "unknown"
    cache = os.path.join(build_dir, "CMakeCache.txt")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip() or "unknown"
    compiler = "unknown"
    for path in glob.glob(os.path.join(build_dir, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        fields = {}
        with open(path) as f:
            for line in f:
                for key in ("CMAKE_CXX_COMPILER_ID",
                            "CMAKE_CXX_COMPILER_VERSION"):
                    if line.startswith("set(%s " % key):
                        fields[key] = line.split('"')[1]
        compiler = "%s %s" % (fields.get("CMAKE_CXX_COMPILER_ID", "?"),
                              fields.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    return compiler, build_type


def build():
    """Configure once, then let the build tool decide what is stale."""
    build_dir = os.path.join(BUILD, "hdbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", build_dir, "-j", str(nproc())])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail_early("build failed: " + " ".join(cmd))
    return (build_dir, os.path.join(build_dir, "hdbench"),
            os.path.join(build_dir, "hdiff", "tools", "hdiff"))


def run_checked(cmd, deadline):
    """Runs a child in its own process group and kills the whole group if
    it is still running at `deadline` (time.monotonic()), so no worker it
    forked outlives the benchmark."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise GateFailure("timed out after %.0fs: %s" %
                          (timeout, " ".join(cmd)))
    if proc.returncode != 0:
        raise GateFailure("exit %d from %s\n%s" %
                          (proc.returncode, " ".join(cmd), err[-2000:]))
    return out


# ---- correctness gates ------------------------------------------------------

def state_files(d):
    """The campaign's durable record: checkpoint, findings, corpus."""
    files = {"campaign.state": None, "findings.jsonl": None}
    corpus = os.path.join(d, "corpus")
    for name in sorted(os.listdir(corpus)):
        files["corpus/" + name] = None
    for rel in files:
        with open(os.path.join(d, rel), "rb") as f:
            files[rel] = f.read()
    return files


def same_state(a, b, what):
    fa, fb = state_files(a), state_files(b)
    if fa.keys() != fb.keys():
        raise GateFailure("%s: corpus file sets differ (%d vs %d files)" %
                          (what, len(fa), len(fb)))
    for rel in fa:
        if fa[rel] != fb[rel]:
            raise GateFailure("%s: %s differs" % (what, rel))


def findings_by_round(d):
    rounds = {}
    with open(os.path.join(d, "findings.jsonl")) as f:
        for line in f:
            rounds.setdefault(json.loads(line)["round"], []).append(line)
    return rounds


def same_findings_but_round0_order(a, b, what):
    """A permuted bootstrap changes which round-0 case first hits each
    fingerprint, and the config signature; nothing else."""
    ra, rb = findings_by_round(a), findings_by_round(b)
    fp = lambda lines: sorted(json.loads(l)["fingerprint"] for l in lines)
    if fp(ra.pop(0, [])) != fp(rb.pop(0, [])):
        raise GateFailure("%s: round-0 fingerprints differ" % what)
    if ra != rb:
        raise GateFailure("%s: findings of rounds >= 1 differ" % what)
    fa, fb = state_files(a), state_files(b)
    corpus = lambda files: {k: v for k, v in files.items()
                            if k.startswith("corpus/")}
    if corpus(fa) != corpus(fb):
        raise GateFailure("%s: corpus differs" % what)


ONESHOT_KEYS = ("matrix", "hrs_pairs", "hot_pairs", "cpdos_pairs",
                "violations", "pair_findings")


def canonical(value):
    if isinstance(value, list):
        return sorted(json.dumps(v, sort_keys=True) for v in value)
    return value


def gate(workload, seed, raw, hdiff, work, deadline):
    """Raises GateFailure on the first mismatch; returns what was checked."""
    if raw["errors"]:
        raise GateFailure("; ".join(raw["errors"]))
    checked = []
    units = raw["units"]
    if workload == "oneshot":
        ref = os.path.join(work, "cli-run.json")
        run_checked([hdiff, "run", "--jobs", str(JOBS), "--json", ref],
                    deadline)
        with open(ref) as f:
            want = json.load(f)
        with open(raw["export_path"]) as f:
            got = json.load(f)
        # Seed 0 keeps the CLI's fleet order, so the lists must match in
        # order too; other seeds permute the fleet and compare as sets.
        for key in ONESHOT_KEYS:
            a, b = got[key], want[key]
            if seed != 0:
                a, b = canonical(a), canonical(b)
            if a != b:
                raise GateFailure("oneshot %s differs from `hdiff run`" % key)
        checked.append("every pass agrees; violations, pairs and Table I "
                       "match `hdiff run --json`%s" %
                       ("" if seed == 0 else " (as sets)"))
        return checked

    first = units[0]["dir"]
    for u in units[1:]:
        same_state(first, u["dir"], "unit %s vs %s" % (u["dir"], first))
    checked.append("all %d units' state dirs byte-identical%s" %
                   (len(units), " (traced twins included)"
                    if any(u["traced"] for u in units) else ""))
    if workload == "streams":
        same_state(raw["reference_dir"], first, "streams jobs 1 vs jobs %d" %
                   JOBS)
        checked.append("state byte-identical to the same campaign at jobs 1")
        return checked
    ref = os.path.join(work, "cli-campaign")
    run_checked([hdiff, "campaign", "run", "--state-dir", ref, "--rounds",
                 str(ROUNDS), "--budget", "400", "--jobs", str(JOBS)],
                deadline)
    if workload == "serve" or seed == 0:
        same_state(ref, first, "%s vs `hdiff campaign run`" % workload)
        checked.append("state byte-identical to `hdiff campaign run`")
    else:
        same_findings_but_round0_order(ref, first,
                                       "campaign vs `hdiff campaign run`")
        checked.append("corpus and round>=1 findings byte-identical to "
                       "`hdiff campaign run`; round-0 fingerprints equal")
    return checked


# ---- metrics ----------------------------------------------------------------

def end_to_end(raw):
    units = [u for u in raw["units"] if not u["traced"]]
    walls = [u["wall_ns"] / 1e9 for u in units]
    rounds = [ns / 1e6 for u in units for ns in u["round_ns"]]
    p, tail_ms, n = stats.tail(rounds)
    values = {
        "setup_s": stats.median([u["setup_ns"] / 1e9 for u in units]),
        "wall_s": stats.median(walls),
        "cases_per_s": stats.median([u["cases"] / w
                                     for u, w in zip(units, walls)]),
        "findings_per_s": stats.median([u["findings"] / w
                                        for u, w in zip(units, walls)]),
        "latency_ms_p50": stats.median(rounds),
        "latency_ms_tail": tail_ms,
        "peak_rss_mb": raw["peak_rss_kib"] / 1024.0,
    }
    return values, (p, n)


def serve_spans(path):
    """serve:round durations and, per round, the slowest worker shard's
    worker:execute_round (ms), read from one stitched trace."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    rounds, slowest = [], {}
    for e in events:
        if e.get("ph") != "X":
            continue
        if e["name"] == "serve:round":
            rounds.append(e["dur"] / 1e3)
        elif e["name"] == "worker:execute_round":
            r = int(e["args"]["shard"].rsplit(" ", 1)[1])
            slowest[r] = max(slowest.get(r, 0.0), e["dur"] / 1e3)
    return rounds, sum(slowest.values())


def per_layer(workload, raw, names):
    units = raw["units"]
    traced = [u for u in units if u["traced"]]
    plain = [u for u in units if not u["traced"]]
    per_unit = []
    coverage, twin_rounds = [], []
    # Twins are written in pairs, so the i-th traced unit ran next to the
    # i-th untraced one on the same input.
    for u, twin in zip(traced, plain):
        v = dict(u["layers"])
        if u["phases_ns"]:
            phases = [[ns / 1e6 for ns in r] for r in u["phases_ns"]]
            split = [stats.attribute_round(r[0], r[1:]) for r in phases]
            for i, name in enumerate(stats.PHASES):
                key = ("core.execute_ms" if name == "execute"
                       else "campaign.%s_ms" % name)
                v[key] = sum(r[1 + i] for r in phases)
            v["campaign.plan_ms_last"] = phases[-1][1]
            v["campaign.commit_ms_last"] = phases[-1][4]
            v["campaign.unattributed_ms"] = sum(s[0] for s in split)
            coverage += [s[1] for s in split]
            twin_rounds.append(([r[1:] for r in phases],
                                [ns / 1e6 for ns in twin["round_ns"]]))
        per_unit.append(v)
    out = {}
    for name in names:
        if name in HISTOGRAM_METRICS:
            hist, which = HISTOGRAM_METRICS[name]
            counts = [v.get(hist + "#count", 0) for v in per_unit]
            n = int(stats.median(counts))
            p = 50.0 if which == "p50" else stats.tail_percentile(n)
            if n == 0 or p is None:
                out[name] = 0.0
                continue
            label = ("%g" % p)
            out[name] = stats.median([v[hist + "@" + label]
                                      for v in per_unit])
        else:
            out[name] = stats.median([v.get(name, 0.0) for v in per_unit])
    # Phase coverage reports its worst round.  Twins' rounds differ by
    # +-30% from host noise alone, so the engine comparison pools them.
    out["campaign.phase_coverage_min"] = min(coverage, default=0.0)
    out["campaign.engine_coverage"] = (stats.engine_coverage(twin_rounds)
                                       if twin_rounds else 0.0)
    if workload == "serve":
        round_ms, worker_ms, outside_ms = [], [], []
        for path in raw["serve_traces"]:
            rounds, slowest = serve_spans(path)
            round_ms += rounds
            worker_ms.append(slowest)
            outside_ms.append(sum(rounds) - slowest)
        out["serve.round_ms_p50"] = stats.median(round_ms)
        out["serve.worker_execute_ms"] = stats.median(worker_ms)
        out["serve.outside_worker_ms"] = stats.median(outside_ms)
    def unit_time(us):
        return stats.median([u["setup_ns"] + u["wall_ns"] for u in us])
    out["obs.trace_overhead_ratio"] = unit_time(traced) / unit_time(plain) - 1
    return out


def coverage_failures(values):
    """Why the traced round loop does not account for the rounds' time."""
    why = []
    if values["campaign.phase_coverage_min"] < PHASE_COVERAGE_MIN:
        why.append("round phases cover only %.1f%% of a traced round" %
                   (100 * values["campaign.phase_coverage_min"]))
    if values["campaign.engine_coverage"] < ENGINE_COVERAGE_MIN:
        why.append("round phases account for only %.1f%% of the untraced "
                   "CampaignEngine::run rounds" %
                   (100 * values["campaign.engine_coverage"]))
    return why


# ---- main -------------------------------------------------------------------

def load_metrics():
    """Workload names and metric units, read from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail_early("no BENCHMARK.json at %s" % ROOT)
    with open(path) as f:
        bench = json.load(f)
    units = lambda ms: {m["name"]: m["unit"] for m in ms}
    return ([w["name"] for w in bench["workloads"]],
            units(bench["end_to_end"]), units(bench["per_layer"]))


def main():
    workloads, e2e_units, layer_units = load_metrics()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail_early("--seed must be >= 0 and --seconds > 0")
    for need in ("CMakeLists.txt", "src/CMakeLists.txt",
                 "tools/hdiff_cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail_early("no HDiff source tree around %s (missing %s)" %
                       (HERE, need))

    cores = nproc()
    shards = JOBS if args.workload == "serve" else 1
    threads = 1 if args.workload == "serve" else JOBS
    if threads * shards > cores:
        fail_early("the %s workload runs %d threads x %d processes; this "
                   "host has nproc %d" % (args.workload, threads, shards,
                                          cores))

    build_dir, hdbench, hdiff = build()
    # Once built, the whole run ends within 180 s, gates included.
    deadline = time.monotonic() + 170
    compiler, build_type = compiler_and_build_type(build_dir)
    units = max(MIN_UNITS[args.workload],
                round(args.seconds / UNIT_COST[args.workload]))
    if args.trace:
        units = max(2, (units + 1) // 2)  # each unit gets a traced twin
    work = os.path.join(BUILD, "work", "%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    print("hdbench %s seed=%d trace=%d units=%d rounds=%d" %
          (args.workload, args.seed, args.trace, units, ROUNDS))
    print("host: nproc=%d build=%s compiler=%s state-fs=%s jobs=%d "
          "shards=%d" % (cores, build_type, compiler, filesystem_of(work),
                         threads, shards))

    try:
        started = time.monotonic()
        out_path = os.path.join(work, "raw.json")
        run_checked([hdbench, "--workload", args.workload, "--seed",
                     str(args.seed), "--units", str(units), "--trace",
                     str(args.trace), "--jobs", str(JOBS), "--rounds",
                     str(ROUNDS), "--work-dir", work, "--hdiff", hdiff,
                     "--out", out_path], deadline)
        with open(out_path) as f:
            raw = json.load(f)
        print("measured in %.1f s" % (time.monotonic() - started))
        checked, failures = [], []
        try:
            checked = gate(args.workload, args.seed, raw, hdiff, work,
                           deadline)
        except GateFailure as e:
            failures.append(str(e))
        plain = [u for u in raw["units"] if not u["traced"]]
        attempted = sum(u["cases"] for u in plain)
        failed = sum(u["failed"] for u in plain)
        if args.trace:
            values = per_layer(args.workload, raw, layer_units)
            if args.workload in ("campaign", "streams"):
                failures += coverage_failures(values)
            units_of = layer_units
            tail_note = ""
        else:
            values, (p, n) = end_to_end(raw)
            units_of = e2e_units
            tail_note = " (p%g of %d %s)" % (
                p, n, "passes" if args.workload == "oneshot" else "rounds")
        for line in checked:
            print("gate ok: " + line)
        for line in failures:
            print("GATE FAILED: " + line)
        for name, value in values.items():
            print("%-40s %.6g %s%s" % (name, value, units_of[name],
                                       tail_note if name == "latency_ms_tail"
                                       else ""))
        if not args.trace:
            print("%-40s %.6g (%d of %d cases)" %
                  ("fail_ratio", failed / attempted, failed, attempted))
        else:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            kept = os.path.join(traces, "%s-seed%d.json" %
                                (args.workload, args.seed))
            shutil.copyfile(raw["trace_path"], kept)
            print("chrome trace: %s" % os.path.relpath(kept, ROOT))
        correct = not failures
        record = {"correct": correct, "attempted": attempted,
                  "failed": failed,
                  "metrics": {k: {"value": v, "unit": units_of[k]}
                              for k, v in values.items()}}
        print(json.dumps(record))
        return 0 if correct else 1
    except GateFailure as e:
        print("hdbench: " + str(e), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
