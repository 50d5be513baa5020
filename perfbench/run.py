#!/usr/bin/env python3
"""SmartTrack pipeline benchmark: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload stb-ccs --seed 1 --seconds 10 --trace 0

It builds the shipped programs and the in-process helper from source
(Release, into .bench_build/), generates the workload's inputs from the
seed (into .bench_work/), runs the programs at their default options,
checks their outputs, and prints one metric per line followed by a final
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of the untraced programs.
--trace 1 replays the workload in process with spans around each layer and
reports the per-layer metrics. perfbench/README.md lists the workloads,
metrics and checks. Exit status: 0 when every check passed, 1 when a check
failed (the JSON line is still printed), 2 when the benchmark could not
run at all (no result is printed).
"""

import argparse
import hashlib
import json
import mmap
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
WORK_DIR = ".bench_work"
TARGETS = ["st-analyze", "st-serve", "perfbench-replay"]

# Workload definitions. Everything the programs see is generated from the
# seed; sizes are per run. "tiny" is for the benchmark's own self-test.
WORKLOADS = {
    "stb-ccs": {
        "kind": "cli",
        "gen": ["--profile", "xalan"],
        "suffix": ".stb",
        "events": {"full": 3_000_000, "tiny": 20_000},
        "analyses": ["FTO-WDC", "ST-WDC"],
        "cli_args": ["--analysis=FTO-WDC", "--analysis=ST-WDC"],
        "lint": False,
        "ndjson": False,
    },
    "text-lint-ndjson": {
        "kind": "cli",
        "gen": ["--random", "8,2000,16"],
        "suffix": ".trace",
        "events": {"full": 2_000_000, "tiny": 20_000},
        "analyses": ["ST-WDC"],
        "cli_args": ["--validate=warn", "--format=ndjson"],
        "lint": True,
        "ndjson": True,
    },
    "serve-open": {
        "kind": "serve",
        "profile": "tomcat",
        "analyses": ["ST-WDC"],
        "workers": 2,
        "connections": 2,
        "memory_budget": 1 << 30,
        "events_per_request": 1000,
        "rate": {"full": 400_000, "tiny": 40_000},
        "traced_requests": {"full": 300, "tiny": 20},
    },
}

END_TO_END = [
    ("events_per_s", "events/s"),
    ("service_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]

KINDS = ["FTO-WDC", "ST-WDC"]
PER_LAYER = (
    [
        ("trace.decode_ns_per_event", "ns"),
        ("trace.input_bytes_per_event", "B"),
        ("lint.ns_per_event", "ns"),
        ("lint.diagnostics", "count"),
        ("engine.self_ns_per_event", "ns"),
        ("engine.batches", "count"),
    ]
    + [
        (f"analysis.{k}.{m}", u)
        for k in KINDS
        for m, u in [
            ("ns_per_event", "ns"),
            ("nsea_frac", "fraction"),
            ("races", "count"),
            ("static_races", "count"),
            ("peak_footprint_mb", "MiB"),
        ]
    ]
    + [
        ("analysis.fto_over_st", "ratio"),
        ("report.sink_ns_per_race", "ns"),
        ("report.lines_out", "count"),
        ("report.bytes_out", "B"),
        ("tools.st-analyze.self_s", "s"),
        ("serve.req_p50_ms", "ms"),
        ("serve.req_p99_ms", "ms"),
        ("serve.connect_us", "us"),
        ("serve.hello_rtt_us", "us"),
        ("serve.upload_us", "us"),
        ("serve.summary_wait_us", "us"),
        ("serve.service_p50_us", "us"),
        ("serve.inproc_p50_us", "us"),
        ("serve.overhead_p50_us", "us"),
        ("serve.queue_p50_us", "us"),
        ("loadgen.late_frac", "fraction"),
        ("loadgen.achieved_over_offered", "ratio"),
        ("bench.trace_overhead_frac", "fraction"),
        ("bench.closure_err_frac", "fraction"),
    ]
)

# Tolerance on bench.closure_err_frac: the layers' self times must account
# for the traced wall time to within this share.
CLOSURE_TOLERANCE = 0.05

SETUP_REPS_CLI = 21
SETUP_RUNS_PER_JOB = 3
SETUP_REPS_SERVE = 16
MIN_TIMED_RUNS = 3
SERVE_SETTLE_S = 0.02


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


class Checks:
    """Counts operations and failed operations; remembers what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        return ok


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, what):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
        raise BenchError(f"{what} failed (exit {r.returncode})")
    return r.stdout


def build():
    """Configures (once) and builds the programs in Release."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("run from the repository root: its CMakeLists.txt "
                         "and src/ are missing")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        log(f"configuring {BUILD_DIR}")
        run_quiet(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + TARGETS,
              "cmake build")
    build_type = ""
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return {
        "st-analyze": os.path.join(BUILD_DIR, "smarttrack", "tools", "st-analyze"),
        "st-serve": os.path.join(BUILD_DIR, "smarttrack", "tools", "st-serve"),
        "helper": os.path.join(BUILD_DIR, "perfbench-replay"),
        "build_type": build_type,
    }


def helper(exe, args):
    out = run_quiet([exe] + args, "perfbench-replay " + args[0])
    return json.loads(out.decode().strip().splitlines()[-1])


def read_spawn_report(report):
    """(exit code, wall s, peak RSS MiB) that `perfbench-replay spawn`
    wrote for the program it ran."""
    with open(report) as f:
        r = json.load(f)
    return r["exit"], r["wall_s"], r["maxrss_kb"] / 1024.0


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def ndjson_race_section(path):
    """(sha256, size) of the race lines of an NDJSON report: everything
    before the trailing summary lines."""
    size = os.path.getsize(path)
    if size == 0:
        return hashlib.sha256(b"").hexdigest(), 0
    with open(path, "rb") as f, mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as m:
        if m[:17] == b'{"type":"summary"':
            end = 0
        else:
            end = m.find(b'\n{"type":"summary"')
            end = size if end < 0 else end + 1
        return hashlib.sha256(memoryview(m)[:end]).hexdigest(), end


def corrupt(path):
    """Deliberately breaks an input: truncates it mid-stream and appends
    bytes that are neither a valid STB record nor a DSL line."""
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.truncate(max(8, size * 2 // 3))
        f.seek(0, os.SEEK_END)
        f.write(b"\xff\xff\xff(\n")


def parse_text_counts(path):
    pat = re.compile(rb"^(\S+) over (\d+) events .*: (\d+) dynamic race\(s\), "
                     rb"(\d+) static site\(s\)$")
    counts = {}
    with open(path, "rb") as f:
        for line in f:
            m = pat.match(line.rstrip(b"\n"))
            if m:
                counts[m.group(1).decode()] = (int(m.group(3)), int(m.group(4)))
    return counts


def parse_ndjson_counts(path):
    counts = {}
    with open(path, "rb") as f:
        f.seek(max(0, os.path.getsize(path) - 8192))
        for line in f.read().splitlines():
            if line.startswith(b'{"type":"summary"'):
                try:
                    d = json.loads(line)
                except ValueError:
                    continue
                counts[d["analysis"]] = (d["dynamic_races"], d["static_races"])
    return counts


def zero_layers():
    return {name: 0.0 for name, _ in PER_LAYER}


def fill_layers(metrics, layers, analyses):
    """Per-layer metrics shared by every in-process replay."""
    ev = max(1, layers["events"])
    metrics["trace.decode_ns_per_event"] = layers["decode_ns"] / ev
    metrics["trace.input_bytes_per_event"] = layers["input_bytes"] / ev
    metrics["lint.ns_per_event"] = layers["lint_ns"] / ev
    metrics["lint.diagnostics"] = layers["diagnostics"]
    metrics["engine.self_ns_per_event"] = layers["engine_ns"] / ev
    metrics["engine.batches"] = layers["batches"]
    for name, ns in layers["analysis_ns"].items():
        metrics[f"analysis.{name}.ns_per_event"] = ns / ev
        metrics[f"analysis.{name}.peak_footprint_mb"] = layers["peak_footprint_mb"].get(name, 0.0)
    for a in analyses:
        metrics[f"analysis.{a['name']}.nsea_frac"] = a["nsea_frac"]
        metrics[f"analysis.{a['name']}.races"] = a["dynamic"]
        metrics[f"analysis.{a['name']}.static_races"] = a["static"]
    fto = metrics["analysis.FTO-WDC.ns_per_event"]
    st = metrics["analysis.ST-WDC.ns_per_event"]
    metrics["analysis.fto_over_st"] = fto / st if fto and st else 0.0
    calls = layers["sink_calls"]
    metrics["report.sink_ns_per_race"] = layers["sink_ns"] / calls if calls else 0.0
    metrics["report.lines_out"] = layers["lines_out"]
    metrics["report.bytes_out"] = layers["bytes_out"]
    metrics["bench.closure_err_frac"] = layers["closure_err_frac"]


# ---------------------------------------------------------------------------
# st-analyze workloads
# ---------------------------------------------------------------------------

def run_cli_workload(name, w, args, exe, checks, prov):
    wd = os.path.join(WORK_DIR, name)
    os.makedirs(wd, exist_ok=True)
    events = w["events"][args.size]
    inp = os.path.join(wd, "input" + w["suffix"])
    again = os.path.join(wd, "input.again" + w["suffix"])
    empty = os.path.join(wd, "empty" + w["suffix"])
    gen = ["gen"] + w["gen"] + ["--seed", str(args.seed)]

    g = helper(exe["helper"], gen + ["--events", str(events), "--out", inp,
                                     "--analyses", ",".join(w["analyses"])])
    helper(exe["helper"], gen + ["--events", str(events), "--out", again])
    digest = sha256(inp)
    checks.check(digest == sha256(again), "same seed gave different input bytes")
    os.remove(again)
    helper(exe["helper"], gen + ["--events", "0", "--out", empty])
    prov.update(events=g["events"], input_bytes=os.path.getsize(inp),
                input_sha256=digest,
                hardware_concurrency=g["hardware_concurrency"])
    expected = {a["name"]: (a["dynamic"], a["static"]) for a in g["expected"]}
    if args.inject == "wrong-expected":
        a0 = w["analyses"][0]
        expected[a0] = (expected[a0][0] + 1, expected[a0][1])
    if args.inject == "corrupt-input":
        corrupt(inp)
    expect_rc = 2 if any(d for d, _ in expected.values()) else 0

    cli = [exe["st-analyze"]] + w["cli_args"]
    out_path = os.path.join(wd, "cli.out")
    err_path = os.path.join(wd, "cli.err")
    report = os.path.join(wd, "spawn.json")

    def cli_run(path):
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            subprocess.run([exe["helper"], "spawn", report] + cli + [path],
                           stdout=out, stderr=err, check=True)
        return read_spawn_report(report)

    # In-process replay: the reference for the NDJSON bytes and, traced,
    # the per-layer numbers.
    replay_out = os.path.join(wd, "replay.ndjson")
    spans = os.path.join(wd, "spans.jsonl")
    if os.path.exists(spans):
        os.remove(spans)

    def replay(rep, footprint=False):
        cmd = ["replay", "--input", inp, "--analyses", ",".join(w["analyses"]),
               "--lint", "1" if w["lint"] else "0", "--trace", str(args.trace),
               "--rep", str(rep), "--footprint", "1" if footprint else "0",
               "--spans", spans]
        if w["ndjson"]:
            cmd += ["--out", replay_out]
        try:
            rp = helper(exe["helper"], cmd)
        except BenchError as e:
            checks.check(False, f"in-process replay: {e}")
            return None
        got = {a["name"]: (a["dynamic"], a["static"]) for a in rp["analyses"]}
        checks.check(got == expected, f"replay race counts {got} != generator {expected}")
        if w["ndjson"]:
            rp["ndjson"] = ndjson_race_section(replay_out)
            if args.trace:
                checks.check(ndjson_race_section(replay_out + ".traced") == rp["ndjson"],
                             "traced replay NDJSON differs from untraced replay")
        return rp

    first = replay(0, footprint=bool(args.trace))
    ref = first["ndjson"] if first and w["ndjson"] else None

    def checked_cli_run():
        rc, wall, rss = cli_run(inp)
        ok = checks.check(rc == expect_rc, f"st-analyze exited {rc}, expected {expect_rc}")
        if ok:
            counts = (parse_ndjson_counts if w["ndjson"] else parse_text_counts)(out_path)
            ok = checks.check(counts == expected,
                              f"st-analyze race counts {counts} != generator {expected}")
        if ok and w["ndjson"]:
            checks.check(ref is not None and ndjson_race_section(out_path) == ref,
                         "st-analyze NDJSON race lines differ from the in-process replay")
        return wall, rss

    if not args.trace:
        setup = []

        def setup_runs(n):
            for _ in range(n):
                rc, wall, _ = cli_run(empty)
                checks.check(rc == 0, f"st-analyze on an empty input exited {rc}")
                setup.append(wall)

        # Set-up runs are spread over the window, a few after each job, so
        # their median sees the same host as the jobs' does.
        walls, rss = [], []
        deadline = time.perf_counter() + args.seconds
        while len(walls) < MIN_TIMED_RUNS or time.perf_counter() < deadline:
            wall, peak = checked_cli_run()
            walls.append(wall)
            rss.append(peak)
            setup_runs(SETUP_RUNS_PER_JOB)
        setup_runs(max(0, SETUP_REPS_CLI - len(setup)))
        med = statistics.median(walls)
        prov["runs"] = len(walls)
        metrics = {
            "events_per_s": g["events"] / med,
            "service_p50_ms": med * 1e3,
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setup),
        }
    else:
        # CLI jobs and in-process replays alternate, so the CLI's own time
        # is taken from neighbouring pairs.
        pairs = []
        rep = 0
        deadline = time.perf_counter() + args.seconds
        rp = first
        while rp is not None:
            pairs.append((checked_cli_run()[0], rp))
            if len(pairs) >= MIN_TIMED_RUNS and time.perf_counter() >= deadline:
                break
            rep += 1
            rp = replay(rep)
        metrics = zero_layers()
        if pairs:
            # The pair whose traced wall is the median stands for the run.
            pairs.sort(key=lambda p: p[1]["traced_wall_ns"])
            mid = pairs[len(pairs) // 2][1]
            mid["layers"]["peak_footprint_mb"] = first["layers"]["peak_footprint_mb"]
            fill_layers(metrics, mid["layers"], mid["analyses"])
            metrics["tools.st-analyze.self_s"] = statistics.median(
                cli - p["wall_ns"] / 1e9 for cli, p in pairs)
            metrics["bench.trace_overhead_frac"] = statistics.median(
                p["traced_wall_ns"] / p["wall_ns"] - 1 for _, p in pairs)
            err = max(p["layers"]["closure_err_frac"] for _, p in pairs)
            metrics["bench.closure_err_frac"] = err
            checks.check(err <= CLOSURE_TOLERANCE,
                         f"closure error {err:.4f} above {CLOSURE_TOLERANCE}")
            prov["runs"] = len(pairs)
    return metrics


# ---------------------------------------------------------------------------
# st-serve workload
# ---------------------------------------------------------------------------

def wait_until_accepting(proc, path, timeout=10.0):
    """Polls until the unix socket accepts a connection; returns the time
    of acceptance. The probe closes without a HELLO, which the server
    counts as one protocol error."""
    deadline = time.perf_counter() + timeout
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            return time.perf_counter()
        except (FileNotFoundError, ConnectionRefusedError):
            if proc.poll() is not None or time.perf_counter() > deadline:
                raise BenchError("st-serve never accepted a connection")
            time.sleep(0.0002)
        finally:
            s.close()


def cpu_halves():
    """Disjoint CPU sets for the server and the load process. Sharing CPUs,
    their threads' placement changes from run to run, and the latency
    with it; on hosts with fewer than 4 CPUs both get every CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return set(cpus), set(cpus)
    half = len(cpus) // 2
    return set(cpus[:half]), set(cpus[half:])


def popen_on(cpus, cmd, **kw):
    """Starts cmd restricted to \p cpus: the child inherits this process's
    affinity, which is restored at once."""
    mine = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        return subprocess.Popen(cmd, **kw)
    finally:
        os.sched_setaffinity(0, mine)


def start_server(exe, w, wd, err, report=None):
    """Launches st-serve in \p wd (under the spawn launcher when \p report
    is given) and waits until it accepts; returns (process, setup s)."""
    sock = os.path.join(wd, "s.sock")
    cmd = [os.path.abspath(exe["st-serve"]), "--listen=unix:s.sock",
           f"--workers={w['workers']}", f"--memory-budget={w['memory_budget']}"]
    if report:
        cmd = [os.path.abspath(exe["helper"]), "spawn", report] + cmd
    t0 = time.perf_counter()
    p = popen_on(cpu_halves()[0], cmd, cwd=wd, stdout=subprocess.DEVNULL, stderr=err)
    try:
        ready = wait_until_accepting(p, sock)
    except BaseException:
        stop_server(p)
        raise
    return p, ready - t0


def stop_server(p):
    """SIGTERMs the server (or its launcher, which forwards the signal) and
    waits for it; returns its exit code."""
    p.send_signal(signal.SIGTERM)
    try:
        return p.wait(timeout=10)
    except subprocess.TimeoutExpired:
        p.kill()
        return p.wait()


def parse_server_stats(path):
    pat = re.compile(r"st-serve: (\d+) accepted, (\d+) completed, (\d+) evicted, "
                     r"(\d+) rejected, (\d+) protocol-error")
    with open(path) as f:
        for line in f:
            m = pat.search(line)
            if m:
                return dict(zip(["accepted", "completed", "evicted", "rejected",
                                 "protocol"], map(int, m.groups())))
    return None


def run_serve_workload(name, w, args, exe, checks, prov):
    wd = os.path.join(WORK_DIR, name)
    os.makedirs(wd, exist_ok=True)
    rate = w["rate"][args.size]
    prov.update(events_per_request=w["events_per_request"], rate=rate,
                connections=w["connections"], workers=w["workers"])

    setup = []

    def setup_runs(n):
        for _ in range(n if not args.trace else 0):
            with open(os.path.join(wd, "setup.err"), "wb") as err:
                p, t = start_server(exe, w, wd, err)
                # st-serve installs its SIGTERM handler just after it starts
                # accepting; a signal inside that window kills it outright.
                time.sleep(SERVE_SETTLE_S)
                rc = stop_server(p)
            checks.check(rc == 0, f"st-serve exited {rc} after SIGTERM")
            setup.append(t)

    # Half the set-up launches go before the open loop and half after it.
    setup_runs(SETUP_REPS_SERVE // 2)

    traced = w["traced_requests"][args.size] if args.trace else 0
    err_path = os.path.join(wd, "serve.err")
    report = "spawn.json"
    with open(err_path, "wb") as err:
        p, _ = start_server(exe, w, wd, err, report)
        try:
            cmd = [os.path.abspath(exe["helper"]), "serve", "--connect", "unix:s.sock",
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--rate", str(rate), "--connections", str(w["connections"]),
                   "--profile", w["profile"], "--analyses", ",".join(w["analyses"]),
                   "--events-per-request", str(w["events_per_request"]),
                   "--traced-requests", str(traced), "--spans", "spans.jsonl",
                   "--inject", args.inject]
            load = popen_on(cpu_halves()[1], cmd, cwd=wd, stdout=subprocess.PIPE)
            try:
                out, _ = load.communicate(timeout=args.seconds + 100)
            except subprocess.TimeoutExpired:
                load.kill()
                load.wait()
                raise BenchError("perfbench-replay serve timed out")
            if load.returncode != 0:
                raise BenchError(f"perfbench-replay serve failed (exit {load.returncode})")
            r = json.loads(out.decode().strip().splitlines()[-1])
        finally:
            stop_server(p)
    setup_runs(SETUP_REPS_SERVE - SETUP_REPS_SERVE // 2)
    rc, _, rss = read_spawn_report(os.path.join(wd, report))
    checks.check(rc == 0, f"st-serve exited {rc} after SIGTERM")
    prov["hardware_concurrency"] = r["hardware_concurrency"]
    prov["requests"] = r["requests"]
    prov["events"] = r["events_completed"]

    # Accounting: every scheduled request was sent, and each one either
    # completed or failed; each completed request's races and race lines
    # equal an in-process Session run on the same payload bytes.
    checks.attempted += r["scheduled"]
    checks.failed += r["errors"] + r["mismatches"]
    for what, n in [("request error(s)", r["errors"]),
                    ("request(s) differing from the in-process Session", r["mismatches"])]:
        if n:
            checks.messages.append(f"{n} {what}")
            print(f"CHECK FAILED: {n} {what}", file=sys.stderr)
    checks.check(r["requests"] == r["scheduled"],
                 f"loadgen sent {r['requests']} of {r['scheduled']} scheduled requests")
    checks.check(r["completed"] + r["errors"] == r["requests"],
                 "completed + errors != requests")
    checks.check(r["checked"] == r["completed"],
                 f"{r['checked']} of {r['completed']} completed requests were checked")
    closed = r.get("closed_loop")
    if closed:
        checks.attempted += closed["requests"]
        checks.failed += closed["failures"]
        if closed["failures"]:
            checks.messages.append(f"{closed['failures']} traced request(s) failed")
    stats = parse_server_stats(err_path)
    checks.check(stats is not None and
                 stats["completed"] == r["completed"] + (closed["requests"] - closed["failures"]
                                                         if closed else 0)
                 and stats["evicted"] == 0 and stats["rejected"] == 0,
                 f"server accounting {stats} disagrees with the client")

    if not args.trace:
        return {
            "events_per_s": r["achieved_events_per_s"],
            "service_p50_ms": r["service_p50_ns"] / 1e6,
            "peak_rss_mb": rss,
            "setup_s": statistics.median(setup),
        }
    metrics = zero_layers()
    layers = closed["layers"]
    fill_layers(metrics, layers, closed["analyses"])
    metrics.update({
        "serve.req_p50_ms": r["latency_p50_ns"] / 1e6,
        "serve.req_p99_ms": r["latency_p99_ns"] / 1e6,
        "serve.connect_us": closed["connect_ns"] / 1e3,
        "serve.hello_rtt_us": closed["hello_rtt_ns"] / 1e3,
        "serve.upload_us": closed["upload_ns"] / 1e3,
        "serve.summary_wait_us": closed["summary_wait_ns"] / 1e3,
        "serve.service_p50_us": closed["service_p50_ns"] / 1e3,
        "serve.inproc_p50_us": closed["inproc_p50_ns"] / 1e3,
        "serve.overhead_p50_us": closed["overhead_p50_ns"] / 1e3,
        "serve.queue_p50_us": r["queue_p50_ns"] / 1e3,
        "loadgen.late_frac": r["late_sends"] / max(1, r["requests"]),
        "loadgen.achieved_over_offered": r["achieved_events_per_s"] / r["offered_events_per_s"],
        "bench.trace_overhead_frac": layers["wall_ns"] / closed["plain_wall_ns"] - 1,
    })
    checks.check(layers["closure_err_frac"] <= CLOSURE_TOLERANCE,
                 f"closure error {layers['closure_err_frac']:.4f} above {CLOSURE_TOLERANCE}")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="input sizes; tiny is for perfbench/test_bench.py")
    ap.add_argument("--inject", choices=["none", "corrupt-input", "wrong-expected"],
                    default="none",
                    help="deliberately break one check (self-test only)")
    args = ap.parse_args()

    try:
        exe = build()
    except BenchError as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    checks = Checks()
    prov = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": len(os.sched_getaffinity(0)), "build_type": exe["build_type"],
    }
    if exe["build_type"] != "Release":
        prov["flag"] = "non-Release build: numbers are not comparable"
        log(f"WARNING: {prov['flag']}")
    try:
        run = run_cli_workload if w["kind"] == "cli" else run_serve_workload
        metrics = run(args.workload, w, args, exe, checks, prov)
    except BenchError as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 2

    units = dict(PER_LAYER if args.trace else END_TO_END)
    failed_frac = checks.failed / max(1, checks.attempted)
    prov.update(attempted=checks.attempted, failed=checks.failed,
                failed_frac=failed_frac, failures=checks.messages)
    with open(os.path.join(WORK_DIR, args.workload, f"result-trace{args.trace}.json"), "w") as f:
        json.dump({"provenance": prov, "metrics": metrics}, f, indent=1)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:.6g} {unit}")
    print(f"{'failed_frac':32s} {failed_frac:.6g} fraction")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
