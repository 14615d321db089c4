#!/usr/bin/env python3
"""Benchmark of the COCA reproduction: the figure batch, closed-loop live
control, and checkpointed backfill.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds `repro`, `coca-serve` and the
tracer (into $CARGO_TARGET_DIR, default `.bench_build`), generates its
inputs from the seed under `.perfbench/`, measures for about `--seconds`
seconds, checks every output against its reference, and prints one JSON
result as its last stdout line. `--trace 0` reports the end-to-end metrics
of the real binaries; `--trace 1` reports the per-layer metrics of a traced
run. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

import discipline  # noqa: E402
import verify  # noqa: E402

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")
STATE = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("batch_small", "serve_live", "serve_backfill")
YEAR = 8760
PEAK_SHARE = 0.5  # arrival peak as a share of fleet capacity
SERVE_FLAGS = ["--horizon", str(2 * YEAR), "--v", "100", "--frame", "24",
               "--queue-capacity", "64"]
# rec_total is about 90% of each fleet's two-year brown draw at V = 100.
FLEETS = {
    "serve_live": {"groups": 200, "servers_per_group": 1080, "rec_total": 1.35e8,
                   "checkpoint_every": None},
    "serve_backfill": {"groups": 40, "servers_per_group": 100, "rec_total": 2.8e6,
                       "checkpoint_every": 168},
}
# Each serve workload's canary: the first CANARY_SLOTS slots of year two for
# CANARY_SEED on the workload's own fleet, resumed from that seed's one-year
# checkpoint, answered as in refs/<workload>_canary.ndjson.
CANARY_SEED = 1
CANARY_SLOTS = 72
END = b'{"type":"end"'
SETUP_PROBES = 4
MATERIALIZE_REPS = 300  # per pass; one pass before and one after the batches
BATCH_WORKERS = 2
NOT_OBSERVED = -1.0

# Metric names and units come from the benchmark's declaration.
with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as _f:
    _DECLARED = json.load(_f)
E2E_UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def log(msg):
    print(f"[perfbench] {msg}", flush=True)


def mib(nbytes):
    return nbytes / (1024.0 * 1024.0)


# ---- build and run context --------------------------------------------------

def build():
    """Builds the binaries under test and the tracer; returns their paths."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "coca-scenarios", "-p", "coca-serve", "--bins"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "tracer", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(ROOT, target, "release")
    return {name: os.path.join(release, name)
            for name in ("repro", "coca-serve", "coca-perfbench-tracer")}


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest():
    """Digest of the sources the program is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "scenarios"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """HEAD of the checkout, or "unknown" when it is not a git work tree of
    its own."""
    done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != \
            os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def loadavg():
    with open("/proc/loadavg") as f:
        return " ".join(f.read().split()[:3])


def next_run_number():
    path = os.path.join(STATE, "runs.jsonl")
    if not os.path.exists(path):
        return 1
    with open(path) as f:
        return sum(1 for _ in f) + 1


# ---- process helpers ---------------------------------------------------------

def run_tool(cmd, stdin=None):
    """Runs a helper step to completion; returns its stdout bytes."""
    with open(stdin or os.devnull, "rb") as src:
        done = subprocess.run(cmd, stdin=src, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              check=False)
    if done.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[0])} {cmd[1]} failed "
                         f"({done.returncode}): {done.stderr.decode()[-400:]}")
    return done.stdout


def tool_json(cmd, stderr_path=None):
    """Runs a tracer subcommand; returns its JSON line. Its stderr goes to
    `stderr_path` (the batch runner's log spans) or is discarded."""
    with open(stderr_path or os.devnull, "wb") as err:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, check=False)
    if done.returncode != 0:
        raise BenchError(f"tracer {cmd[1]} failed ({done.returncode})")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def reap(proc):
    """Waits for `proc`; returns (exit code, CPU seconds used)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime


def peak_rss_mib(pid):
    """Peak resident set of a live process since its exec (VmHWM), or None
    once it has exited. (The rusage of a waited child would also count the
    memory of the forked benchmark process it was exec'd from.)"""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


class PeakRss(threading.Thread):
    """Polls a process's VmHWM until it exits; `peak` is the last reading."""

    def __init__(self, pid):
        super().__init__(daemon=True)
        self.pid, self.peak = pid, None
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(0.02):
            reading = peak_rss_mib(self.pid)
            if reading is None:
                break
            self.peak = reading


def median_of(values, what):
    if not values:
        raise BenchError(f"no samples for {what}")
    return statistics.median(values)


# ---- serve inputs ------------------------------------------------------------

def fleet_flags(workload, cadence=True):
    fleet = FLEETS[workload]
    flags = ["--groups", str(fleet["groups"]),
             "--servers-per-group", str(fleet["servers_per_group"]),
             "--rec-total", repr(fleet["rec_total"])] + SERVE_FLAGS
    if cadence and fleet["checkpoint_every"]:
        flags += ["--checkpoint-every", str(fleet["checkpoint_every"])]
    return flags


def serve_inputs(bins, workload, seed):
    """Generates (once per seed and binary) the two-year slot stream, the
    one-year resume checkpoint, and the year-two reference decisions of an
    uninterrupted run. Returns their paths."""
    fleet = FLEETS[workload]
    key = f"{workload}-seed{seed}-{file_digest(bins['coca-serve'])[:12]}"
    final = os.path.join(STATE, "inputs", key)
    paths = {name: os.path.join(final, name)
             for name in ("year2.ndjson", "resume.ckpt", "reference.ndjson")}
    if os.path.exists(os.path.join(final, "done")):
        return paths
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    at = lambda name: os.path.join(tmp, name)  # noqa: E731

    cap = tool_json([bins["coca-perfbench-tracer"], "capacity",
                     "--groups", str(fleet["groups"]),
                     "--servers-per-group", str(fleet["servers_per_group"])])
    replay = [bins["coca-serve"], "replay", "--synthetic", str(2 * YEAR), "--seed", str(seed),
              "--peak", repr(PEAK_SHARE * cap["max_capacity"])]
    stream = run_tool(replay)
    if run_tool(replay) != stream:
        raise BenchError(f"seed {seed}: two slot-stream generations differ")
    lines = stream.splitlines(keepends=True)
    slots = [json.loads(line) for line in lines if b'"slot"' in line]
    if len(slots) != 2 * YEAR:
        raise BenchError(f"seed {seed}: {len(slots)} slots generated, want {2 * YEAR}")
    peak = max(s["workload"] for s in slots)
    if peak > cap["max_servable"]:
        raise BenchError(f"seed {seed}: arrival peak {peak:.1f} exceeds the fleet's "
                         f"servable {cap['max_servable']:.1f}; refusing the input")
    with open(at("two.ndjson"), "wb") as f:
        f.write(stream)
    with open(at("year1.ndjson"), "wb") as f:
        f.writelines(lines[:YEAR])
    with open(at("year2.ndjson"), "wb") as f:
        f.writelines(lines[YEAR:])

    # Generation one: serve year one alone; its exit checkpoint is the
    # resume point.
    run_tool([bins["coca-serve"], "run", *fleet_flags(workload, cadence=False), "--quiet",
              "--checkpoint", at("resume.ckpt")], stdin=at("year1.ndjson"))
    # Generation two: serve both years uninterrupted, checkpointing every
    # year. Its checkpoint at slot 8760 must equal generation one byte for
    # byte, and its year-two decisions are the reference every session
    # (resumed from generation one) must reproduce.
    published = []
    with open(at("two.ndjson"), "rb") as src, open(at("reference.stderr"), "wb") as err:
        proc = subprocess.Popen(
            [bins["coca-serve"], "run", *fleet_flags(workload, cadence=False),
             "--checkpoint-every", str(YEAR), "--checkpoint", at("through.ckpt")],
            stdin=src, stdout=subprocess.PIPE, stderr=err)
        first_of_year_two = b'{"type":"decision","t":%d,' % YEAR
        for line in proc.stdout:
            if line.startswith(first_of_year_two):
                # Slot 8760 is decided only after the checkpoint at 8760 is
                # in place, and the next one is a year away.
                shutil.copyfile(at("through.ckpt"), at("resume-again.ckpt"))
            published.append(line)
        proc.stdout.close()
        code, _ = reap(proc)
    if code != 0:
        raise BenchError(f"seed {seed}: the uninterrupted reference run exited {code}")
    if file_digest(at("resume.ckpt")) != file_digest(at("resume-again.ckpt")):
        raise BenchError(f"seed {seed}: two one-year checkpoint generations differ")
    reference = verify.decision_lines(b"".join(published))
    if len(reference) != 2 * YEAR:
        raise BenchError(f"seed {seed}: reference run published {len(reference)} decisions")
    with open(at("reference.ndjson"), "wb") as f:
        f.writelines(reference[t] + b"\n" for t in range(YEAR, 2 * YEAR))
    for name in ("resume-again.ckpt", "through.ckpt", "two.ndjson", "year1.ndjson"):
        os.remove(at(name))
    with open(at("done"), "w") as f:
        f.write("ok\n")
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)
    return paths


def load_reference(path):
    with open(path, "rb") as f:
        return verify.decision_lines(f.read())


def canary(bins, workload):
    """Serves the workload's canary and checks every decision against the
    committed reference. Returns (slots attempted, slots failed)."""
    with open(os.path.join(REFS, f"{workload}_canary.ndjson"), "rb") as f:
        reference = verify.decision_lines(f.read())
    inputs = serve_inputs(bins, workload, CANARY_SEED)
    s = closed_loop_session(bins, workload, os.path.join(STATE, "work"), inputs,
                            year_two_slots(inputs)[:CANARY_SLOTS])
    return score_session(s, reference)


# ---- serve sessions ----------------------------------------------------------

def spawn_serve(bins, workload, ckpt, stdin):
    cmd = [bins["coca-serve"], "run", *fleet_flags(workload), "--checkpoint", ckpt, "--resume"]
    err = open(os.path.join(STATE, "work", f"{workload}.stderr"), "wb")
    proc = subprocess.Popen(cmd, stdin=stdin, stdout=subprocess.PIPE, stderr=err, bufsize=0)
    err.close()
    return proc


def closed_loop_session(bins, workload, work, inputs, slot_lines):
    """One closed-loop session: resume, then write slot t and read decision
    t before writing slot t + 1. Returns a dict of measurements."""
    ckpt = os.path.join(work, f"{workload}.ckpt")
    shutil.copyfile(inputs["resume.ckpt"], ckpt)
    start = time.perf_counter()
    proc = spawn_serve(bins, workload, ckpt, subprocess.PIPE)
    out = os.fdopen(proc.stdout.fileno(), "rb", buffering=1 << 16, closefd=False)
    fd = proc.stdin.fileno()
    latencies, decisions, first = [], [], None
    for line in slot_lines:
        sent = time.perf_counter()
        os.write(fd, line)
        decision = out.readline()
        got = time.perf_counter()
        if not decision:
            break
        if first is None:
            first = got - start
        latencies.append(got - sent)
        decisions.append(decision)
    proc.stdin.close()
    rss = None
    for line in out:  # the end message follows the exit checkpoint
        decisions.append(line)
        if line.startswith(END) and rss is None:
            rss = peak_rss_mib(proc.pid)
    out.close()
    proc.stdout.close()
    code, cpu = reap(proc)
    wall = time.perf_counter() - start
    return {"setup": first, "wall": wall, "rss": rss, "cpu": cpu, "code": code,
            "latencies": latencies, "blob": b"".join(decisions),
            "ckpt_bytes": os.path.getsize(ckpt), "slots": len(slot_lines)}


def backfill_session(bins, work, inputs):
    """One unpaced session: resume, then stream year two from a file with
    the checkpoint cadence on. Returns a dict of measurements."""
    ckpt = os.path.join(work, "serve_backfill.ckpt")
    shutil.copyfile(inputs["resume.ckpt"], ckpt)
    with open(inputs["year2.ndjson"], "rb") as src:
        start = time.perf_counter()
        proc = spawn_serve(bins, "serve_backfill", ckpt, src)
        fd = proc.stdout.fileno()
        chunks, first, rss = [], None, None
        while True:
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                break
            if first is None:
                first = time.perf_counter() - start
            if rss is None and b"\n" + END in (chunks[-1][-64:] if chunks else b"") + chunk:
                rss = peak_rss_mib(proc.pid)
            chunks.append(chunk)
        proc.stdout.close()
        code, cpu = reap(proc)
    wall = time.perf_counter() - start
    return {"setup": first, "wall": wall, "rss": rss, "cpu": cpu, "code": code,
            "latencies": [], "blob": b"".join(chunks),
            "ckpt_bytes": os.path.getsize(ckpt), "slots": YEAR}


def score(blob, reference, slots, exited_ok=True):
    """(slots attempted, slots failed) of one decision stream that answered
    the first `slots` slots of year two; a failed exit fails at least one."""
    wanted = {t: line for t, line in reference.items() if t < YEAR + slots}
    failed = len(wanted) - verify.count_correct(blob, wanted)
    return len(wanted), failed if exited_ok else max(failed, 1)


def score_session(s, reference):
    return score(s["blob"], reference, s["slots"], s["code"] == 0 and s["setup"] is not None)


def year_two_slots(inputs):
    with open(inputs["year2.ndjson"], "rb") as f:
        return [line for line in f if b'"slot"' in line]


def serve_untraced(bins, workload, inputs, seconds):
    work = os.path.join(STATE, "work")
    reference = load_reference(inputs["reference.ndjson"])
    slot_lines = year_two_slots(inputs)
    live = workload == "serve_live"
    attempted, failed = canary(bins, workload)
    setups = []
    # Extra cold starts: each resumes and answers one slot.
    for _ in range(SETUP_PROBES):
        s = closed_loop_session(bins, workload, work, inputs, slot_lines[:1])
        a, f = score_session(s, reference)
        attempted, failed = attempted + a, failed + f
        setups.append(s["setup"])
    sessions = []
    start = time.perf_counter()
    while not sessions or time.perf_counter() - start < seconds:
        s = (closed_loop_session(bins, workload, work, inputs, slot_lines) if live
             else backfill_session(bins, work, inputs))
        s["blob_score"] = score_session(s, reference)
        s["blob"] = None
        sessions.append(s)
    for s in sessions:
        attempted, failed = attempted + s["blob_score"][0], failed + s["blob_score"][1]
        if s["setup"] is not None:
            setups.append(s["setup"])
    return sessions, setups, attempted, failed


def serve_report(workload, sessions, setups):
    walls = [s["wall"] for s in sessions]
    latencies = [x for s in sessions for x in s["latencies"]]
    if workload == "serve_live":
        unit_wall = discipline.percentile(latencies, 50).value * 1e3
    else:
        unit_wall = median_of(walls, "session wall") / YEAR * 1e3
    metrics = {
        "setup_s": median_of(setups, "setup"),
        "unit_wall_ms": unit_wall,
        "cpu_s": median_of([s["cpu"] for s in sessions], "session CPU"),
        "ckpt_mb": mib(sessions[-1]["ckpt_bytes"]),
        "peak_rss_mb": median_of([s["rss"] for s in sessions if s["rss"]], "peak RSS"),
    }
    cpus = " ".join(f"{s['cpu']:.3f}" for s in sessions)
    notes = [f"sessions {len(sessions)}: wall_s {' '.join(f'{w:.4f}' for w in walls)}; "
             f"cpu_s {cpus}",
             f"setup_s median of {len(setups)} resumes",
             f"wall_s median {statistics.median(walls):.4f} fastest {min(walls):.4f}; "
             f"slots_per_s {YEAR / statistics.median(walls):.1f} (8760 / median wall)"]
    if workload == "serve_live":
        for q in (50, 99):
            notes.append(f"decision_p{q}_ms " + describe(latencies, q, 1e3, "ms"))
        notes.append("unit_wall_ms is decision_p50_ms")
    else:
        notes.append("unit_wall_ms is the median session wall / 8760 slots")
    return metrics, notes


def describe(samples, q, scale, unit):
    try:
        return discipline.percentile(samples, q).describe(scale, unit)
    except discipline.RefusedPercentile as e:
        return f"refused: {e}"


def percentile_or(samples, q, scale):
    try:
        return discipline.percentile(samples, q).value * scale
    except discipline.RefusedPercentile:
        return NOT_OBSERVED


def serve_traced(bins, workload, inputs, seconds):
    """Per-layer metrics: one untraced session as the overhead baseline,
    then traced sessions in-process."""
    work = os.path.join(STATE, "work")
    reference = load_reference(inputs["reference.ndjson"])
    live = workload == "serve_live"
    if live:
        base = closed_loop_session(bins, workload, work, inputs, year_two_slots(inputs))
    else:
        base = backfill_session(bins, work, inputs)
    attempted, failed = score_session(base, reference)
    a, f = canary(bins, workload)
    attempted, failed = attempted + a, failed + f

    traced_dir = os.path.join(work, "traced")
    shutil.rmtree(traced_dir, ignore_errors=True)
    os.makedirs(traced_dir)
    # The tracer takes `coca-serve run`'s fleet and controller flags.
    t = tool_json([bins["coca-perfbench-tracer"], "serve", "--mode", "live" if live else "backfill",
                   "--resume-ckpt", inputs["resume.ckpt"], "--input", inputs["year2.ndjson"],
                   "--work", traced_dir, "--seconds", repr(seconds), *fleet_flags(workload)])
    n = t["sessions"]
    for i in range(n):
        with open(os.path.join(traced_dir, f"traced-{i}.ndjson"), "rb") as f:
            a, fl = score(f.read(), reference, YEAR)
        attempted, failed = attempted + a, failed + fl
    if t["final_slot"] != 2 * YEAR:
        failed += 1

    per = lambda v: v / n  # noqa: E731  per-session average
    wall = median_of(t["wall_s"], "traced wall")
    attributed = (t["ckpt_read_s"] + t["restore_s"] + t["env_prep_s"] + t["engine_solve_s"]
                  + t["record_s"] + t["checkpoint_s"] + t["ckpt_write_s"])
    layers = zero_layers()
    layers.update({
        "core.symmetric.solves": per(t["solves"]),
        "core.symmetric.solve_s": per(sum(t["decide_s"])),
        "core.symmetric.solve_p50_us": percentile_or(t["decide_s"], 50, 1e6),
        "core.symmetric.iterations": per(t["iterations"]),
        "dcsim.slots": per(t["engine_slots"]),
        "dcsim.env_prep_s": per(t["env_prep_s"]),
        "dcsim.solve_s": per(t["engine_solve_s"]),
        "dcsim.record_s": per(t["record_s"]),
        "dcsim.source_wait_s": per(t["source_wait_s"]),
        "dcsim.push_block_s": per(t["push_block_s"]),
        "dcsim.restore_s": per(t["restore_s"]),
        "dcsim.checkpoint_s": per(t["checkpoint_s"]),
        "serve.lines": per(len(t["parse_s"])),
        "serve.parse_s": per(sum(t["parse_s"])),
        "serve.parse_p50_us": percentile_or(t["parse_s"], 50, 1e6),
        "serve.encode_s": per(t["sink_s"] - t["publish_s"]),
        "serve.publish_s": per(t["publish_s"]),
        "serve.decision_bytes": per(t["decision_bytes"]),
        "serve.decision_p50_ms": percentile_or(t["decision_s"], 50, 1e3) if live else 0.0,
        "serve.decision_p99_ms": percentile_or(t["decision_s"], 99, 1e3) if live else 0.0,
        "serve.ckpt_writes": per(t["ckpt_writes"]),
        "serve.ckpt_write_s": per(t["ckpt_write_s"]),
        "serve.ckpt_bytes_total": per(t["ckpt_bytes_total"]),
        "serve.ckpt_read_s": per(t["ckpt_read_s"]),
        "serve.rejected": per(t["rejected"]),
        "trace_overhead_pct": 100.0 * (wall / base["wall"] - 1.0),
        "unattributed_s": per(sum(t["wall_s"]) - attributed),
    })
    for name in ("core.gsd.solve_s", "core.gsd.bisection_evals", "core.gsd.cache_hit_ratio"):
        layers[name] = 0.0  # the service runs no GSD solver
    layers["core.gsd.proposals"] = per(t["invariant_checks"]["acceptance-probability"])
    notes = [f"untraced baseline session wall {base['wall']:.4f} s; traced sessions {n}: "
             + " ".join(f"{w:.4f}" for w in t["wall_s"]),
             "per-layer values are per traced session"]
    if live:
        notes.append("in-process decision round trip "
                     + describe(t["decision_s"], 99, 1e3, "ms"))
    notes += not_observed_notes(layers) + [layer_split(workload, layers)]
    return layers, notes, attempted, failed


# ---- batch -------------------------------------------------------------------

def batch_run(bins, out):
    """One `repro batch` into a fresh directory; returns measurements."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    with open(os.path.join(out, "stdout.txt"), "wb") as so, \
            open(os.path.join(out, "stderr.txt"), "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen([bins["repro"], "--scale", "small", "--workers",
                                 str(BATCH_WORKERS), "--out", out, "batch", "scenarios"],
                                stdin=subprocess.DEVNULL, stdout=so, stderr=se)
        rss = PeakRss(proc.pid)
        rss.start()
        code, cpu = reap(proc)
        wall = time.perf_counter() - start
        rss.done.set()
        rss.join()
    return {"wall": wall, "rss": rss.peak, "cpu": cpu, "code": code}


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


def score_batch(out, code):
    """(attempted, failed, problems): runs per status.json plus figure CSVs
    against the committed references."""
    attempted = failed = 0
    problems = []
    batch_dir = os.path.join(out, "batch")
    for spec in sorted(os.listdir(batch_dir)) if os.path.isdir(batch_dir) else []:
        with open(os.path.join(batch_dir, spec, "status.json")) as f:
            status = json.load(f)
        attempted += status["total"]
        failed += status["total"] - status["completed"] - status["skipped"]
    ref_dir = os.path.join(REFS, "batch_small")
    for name in sorted(os.listdir(ref_dir)):
        attempted += 1
        path = os.path.join(out, name)
        if not os.path.exists(path):
            failed, problems = failed + 1, problems + [f"{name}: missing"]
            continue
        with open(path) as a, open(os.path.join(ref_dir, name)) as b:
            diff = verify.compare_csv(a.read(), b.read())
        if diff:
            failed, problems = failed + 1, problems + [f"{name}: {diff[0]}"]
    if code != 0:
        failed += 1
        problems.append(f"repro exited {code}")
    return max(attempted, 1), failed, problems


def materialize_samples(bins):
    t = tool_json([bins["coca-perfbench-tracer"], "materialize", "--scenarios", "scenarios",
                   "--scale", "small", "--reps", str(MATERIALIZE_REPS)])
    return t["samples_s"], t


def batch_untraced(bins, seconds):
    # Set-up is timed in two passes half a minute apart, so the median
    # spans more than one state of a shared host.
    samples, shape = materialize_samples(bins)
    runs = []
    attempted = failed = 0
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        out = os.path.join(STATE, "work", "batch_small")
        r = batch_run(bins, out)
        a, f, problems = score_batch(out, r["code"])
        attempted, failed = attempted + a, failed + f
        r["ckpt_bytes"] = dir_bytes(os.path.join(out, "batch"))
        runs.append(r)
        for p in problems:
            log(f"output check: {p}")
    samples += materialize_samples(bins)[0]
    metrics = {
        "setup_s": median_of(samples, "materialize"),
        "unit_wall_ms": median_of([r["wall"] for r in runs], "batch wall") * 1e3,
        "cpu_s": median_of([r["cpu"] for r in runs], "batch CPU"),
        "ckpt_mb": mib(runs[-1]["ckpt_bytes"]),
        "peak_rss_mb": median_of([r["rss"] for r in runs if r["rss"]], "peak RSS"),
    }
    notes = [f"setup_s median of {len(samples)} materialisations of "
             f"{shape['specs']} specs / {shape['runs']} runs",
             f"batches {len(runs)}: wall_s " + " ".join(f"{r['wall']:.3f}" for r in runs)
             + "; repro CPU s " + " ".join(f"{r['cpu']:.3f}" for r in runs),
             "unit_wall_ms is the median batch wall",
             "ckpt_mb is the batch directory a --resume reads (manifests, status, run results)"]
    return metrics, notes, attempted, failed


DURATION = re.compile(r"([0-9.]+)(ns|µs|us|ms|s)\)\s*$")
SCALE = {"ns": 1e-9, "µs": 1e-6, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def log_seconds(line):
    m = DURATION.search(line)
    return float(m.group(1)) * SCALE[m.group(2)] if m else None


def batch_traced(bins, seconds):
    """Per-layer metrics: one untraced batch as the overhead baseline, then
    the traced in-process batch; the runner's own log spans supply the
    per-build, per-calibration and per-run durations it times internally."""
    out = os.path.join(STATE, "work", "batch_small")
    base = batch_run(bins, out)
    attempted, failed, problems = score_batch(out, base["code"])
    traced_out = os.path.join(STATE, "work", "batch_traced")
    shutil.rmtree(traced_out, ignore_errors=True)
    os.makedirs(traced_out)
    stderr_path = os.path.join(traced_out, "stderr.txt")
    t = tool_json([bins["coca-perfbench-tracer"], "batch", "--scenarios", "scenarios",
                   "--scale", "small", "--workers", str(BATCH_WORKERS), "--out", traced_out],
                  stderr_path)
    a, f, more = score_batch(traced_out, 0)
    attempted, failed, problems = attempted + a, failed + f + t["runs_failed"], problems + more

    layers = zero_layers()
    with open(stderr_path, encoding="utf-8", errors="replace") as f:
        for line in f:
            secs = log_seconds(line)
            if secs is None:
                continue
            if line.startswith("[setup]"):
                layers["experiments.setup_builds"] += 1
                layers["experiments.setup_build_s"] += secs
            elif line.startswith("[calibrate]"):
                layers["experiments.calibrations"] += 1
                layers["experiments.calibrate_s"] += secs
            elif line.startswith("[run ") and " done (" in line:
                run_id = line.split("]", 1)[1].split()[0]
                kind = t["run_kinds"].get(run_id)
                if kind is not None:
                    layers[f"scenarios.run_s.{kind}"] += secs
    layers.update({
        "scenarios.materialize_s": t["materialize_s"],
        "scenarios.run_busy_s": t["run_busy_s"],
        "scenarios.worker_idle_s": t["workers"] * t["runner_s"] - t["run_busy_s"],
        "core.gsd.proposals": float(t["invariant_checks"]["acceptance-probability"]),
        "trace_overhead_pct": 100.0 * (t["wall_s"] / base["wall"] - 1.0),
        "unattributed_s": t["wall_s"] - (t["materialize_s"] + t["runner_s"]
                                         + t["assemble_s"] + t["csv_s"]),
    })
    # The runner builds its engines and solvers itself (RunOptions.observer
    # is None), so no wrapper or counter reaches these from outside.
    for name in ("core.symmetric.solves", "core.symmetric.solve_s",
                 "core.symmetric.solve_p50_us", "core.symmetric.iterations",
                 "core.gsd.solve_s", "core.gsd.bisection_evals", "core.gsd.cache_hit_ratio",
                 "dcsim.slots", "dcsim.env_prep_s", "dcsim.solve_s", "dcsim.record_s",
                 "dcsim.restore_s", "dcsim.checkpoint_s"):
        layers[name] = NOT_OBSERVED
    for p in problems:
        log(f"output check: {p}")
    notes = [f"untraced baseline batch wall {base['wall']:.3f} s; traced {t['wall_s']:.3f} s",
             f"runs timed by the runner {t['runs_timed']}; figures {t['figures']}"]
    notes += not_observed_notes(layers) + [layer_split("batch_small", layers)]
    return layers, notes, attempted, failed


def zero_layers():
    return {name: 0.0 for name in LAYER_UNITS}


def not_observed_notes(layers):
    missing = [k for k, v in layers.items() if v == NOT_OBSERVED]
    if not missing:
        return []
    return [f"not observable from outside on this workload (reported as {NOT_OBSERVED:g}): "
            + ", ".join(missing)]


ENGINE_BUSY = ("dcsim.env_prep_s", "dcsim.solve_s", "dcsim.record_s", "dcsim.restore_s",
               "dcsim.checkpoint_s", "serve.ckpt_write_s", "serve.ckpt_read_s")


def layer_split(workload, layers):
    """Checks the layer split each workload was chosen for."""
    if workload == "batch_small":
        serve_idle = all(v == 0 for k, v in layers.items() if k.startswith("serve."))
        ok = serve_idle and layers["experiments.calibrations"] >= 6
        claim = "serve.* all zero and experiments.calibrations >= 6"
    elif workload == "serve_backfill":
        # The engine thread's busy layers (env_prep includes the source wait).
        top = max(ENGINE_BUSY, key=lambda k: layers[k])
        ok = top == "serve.ckpt_write_s"
        claim = f"serve.ckpt_write_s is the largest engine-thread layer (largest: {top})"
    else:
        ok = layers["serve.ckpt_writes"] == 1
        claim = "serve.ckpt_write_s covers only the exit checkpoint (one write per session)"
    return f"layer split {'confirmed' if ok else 'NOT confirmed'}: {claim}"


# ---- main --------------------------------------------------------------------

def measure(bins, args):
    if args.workload == "batch_small":
        if args.trace:
            return batch_traced(bins, args.seconds)
        return batch_untraced(bins, args.seconds)
    inputs = serve_inputs(bins, args.workload, args.seed)
    if args.trace:
        return serve_traced(bins, args.workload, inputs, args.seconds)
    sessions, setups, attempted, failed = serve_untraced(bins, args.workload, inputs,
                                                         args.seconds)
    metrics, notes = serve_report(args.workload, sessions, setups)
    return metrics, notes, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))
            and os.path.isdir(os.path.join(ROOT, "scenarios"))):
        sys.exit("perfbench: run from the repository root (Cargo.toml, crates/ and "
                 "scenarios/ are missing here)")
    try:
        os.makedirs(os.path.join(STATE, "work"), exist_ok=True)
        bins = build()
        run_no = next_run_number()
        before = loadavg()
        started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        values, notes, attempted, failed = measure(bins, args)
    except BenchError as e:
        sys.exit(f"perfbench: {e}")
    after = loadavg()
    units = LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    context = {"run": run_no, "started": started, "workload": args.workload,
               "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "commit": commit(), "source": source_digest(), "nproc": os.cpu_count(),
               "loadavg_before": before, "loadavg_after": after}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(STATE, "runs.jsonl"), "a") as f:
        f.write(json.dumps({"context": context, "notes": notes, "result": result}) + "\n")
    log(" ".join(f"{k}={v}" for k, v in context.items()))
    for note in notes:
        log(note)
    log(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for name, m in metrics.items():
        log(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
