#!/usr/bin/env python3
"""End-to-end benchmark of the `wasabi` CLI (see README.md in this directory).

    python3 perfbench/run.py --workload scan|repair|incremental --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere inside a source checkout. The first run builds the CLI
(the repository's own `wasabi_cli` target, Release) and this directory's
`perfbench_tool` under `.bench_build/`; later runs rebuild only when a source
file changed.

One client, closed loop: each item runs to completion, its verdicts are
checked against the known answer in expected.json, and only then does the next
item start. `--trace 0` prints the end-to-end metrics; `--trace 1` follows
each CLI item with the same item run in process by perfbench_tool and prints
the per-layer metrics. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. Exit code 1 means a verdict
was wrong; 2 means the benchmark could not run (nothing is printed on stdout).
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
CLI = BUILD / "repo" / "tools" / "wasabi"
TOOL = BUILD / "tool" / "perfbench_tool"
EXPECTED = BENCH / "expected.json"

WORKLOADS = ("scan", "repair", "incremental")
BASE_APPS = ("hacommon", "hdfs", "mapred", "yarn", "hbase", "hive", "cassandra", "elastic")
LABS = ("repairlab", "stormlab")
VARIANTS = 4          # scan and repair cover variants 1..4 of every base app.
JOBS = 4              # --jobs for test/repair: the host's nproc when defined.
SETUP_REPEATS = 3     # setup_s is the median of this many set-ups.
# Per-invocation limits, about 10x the slowest healthy item: a hung child is
# killed and its item counted as failed.
TIMEOUT_S = {"test": 10.0, "static": 10.0, "repair": 20.0}
OVERRUN_S = 30.0      # A loop starts no item this long past --seconds.
PROBE_TIMEOUT_S = 30.0
FILL_ATTEMPTS = 3
COVERAGE_BAR = 0.95   # Traced items below this span coverage are flagged.
OPTIMISED_BUILD_TYPES = ("Release", "RelWithDebInfo")

# (name, unit) of every metric; BENCHMARK.json lists the same names.
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("cpu_ms_per_item", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.process_ms", "ms"),
    ("lang.read_ms", "ms"), ("lang.parse_ms", "ms"), ("lang.index_ms", "ms"),
    ("lang.files", "count"), ("lang.bytes", "bytes"), ("lang.parse_mb_per_s", "MB/s"),
    ("vm.compile_ms", "ms"),
    ("interp.construct_ms.vm", "ms"), ("interp.construct_ms.tree", "ms"),
    ("testing.clean_suite_ms.vm", "ms"), ("testing.clean_suite_ms.tree", "ms"),
    ("identify.ms", "ms"), ("identify.structures", "count"), ("identify.llm_tokens", "count"),
    ("static.ms", "ms"), ("static.when_bugs", "count"), ("static.if_bugs", "count"),
    ("dynamic.ms", "ms"), ("dynamic.coverage_ms", "ms"), ("dynamic.campaign_ms", "ms"),
    ("dynamic.tests", "count"),
    ("campaign.planned_runs", "count"), ("campaign.naive_runs", "count"),
    ("campaign.runs_per_s", "1/s"), ("campaign.bug_yield", "ratio"),
    ("campaign.quarantined", "count"), ("exec.speedup_j4", "x"),
    ("cache.open_ms", "ms"), ("cache.flush_ms", "ms"), ("cache.loaded_entries", "count"),
    ("cache.store_bytes", "bytes"),
    ("cache.hit_ratio.q1", "ratio"), ("cache.hit_ratio.when", "ratio"),
    ("cache.hit_ratio.cov", "ratio"), ("cache.hit_ratio.camp", "ratio"),
    ("storm.profile_ms", "ms"), ("storm.edges", "count"), ("storm.sim_ms", "ms"),
    ("storm.attempts_per_s", "1/s"),
    ("repair.ms", "ms"), ("repair.validation_ms", "ms"), ("repair.confirmed", "count"),
    ("repair.fixed", "count"), ("repair.validation_hit_ratio", "ratio"),
    ("report.json_ms", "ms"), ("report.bytes", "bytes"),
    ("teardown.ms", "ms"), ("trace.coverage_min", "ratio"),
)
# Span names whose per-item self time is a per-layer "<name>" metric.
SPAN_METRICS = {
    "lang.read": "lang.read_ms", "lang.parse": "lang.parse_ms", "lang.index": "lang.index_ms",
    "vm.compile": "vm.compile_ms",
    "interp.construct.vm": "interp.construct_ms.vm",
    "interp.construct.tree": "interp.construct_ms.tree",
    "testing.clean_suite.vm": "testing.clean_suite_ms.vm",
    "testing.clean_suite.tree": "testing.clean_suite_ms.tree",
    "identify": "identify.ms", "static": "static.ms", "dynamic": "dynamic.ms",
    "cache.open": "cache.open_ms", "cache.flush": "cache.flush_ms",
    "storm.profile": "storm.profile_ms", "storm.sim": "storm.sim_ms",
    "repair": "repair.ms", "report.json": "report.json_ms", "teardown": "teardown.ms",
}
# Counters reported as their median over calls.
COUNT_METRICS = (
    "lang.files", "lang.bytes", "identify.structures", "identify.llm_tokens",
    "static.when_bugs", "static.if_bugs", "dynamic.coverage_ms", "dynamic.campaign_ms",
    "dynamic.tests", "campaign.planned_runs", "campaign.naive_runs", "campaign.quarantined",
    "cache.loaded_entries", "cache.store_bytes", "storm.edges", "repair.confirmed",
    "repair.fixed", "report.bytes",
)
BASELINE_SPANS = ("identify", "dynamic", "static", "storm.profile", "storm.sim")
DETECTABLE = {
    "unit-testing": {"WHEN/missing-cap", "WHEN/missing-delay", "HOW"},
    "llm-static": {"WHEN/missing-cap", "WHEN/missing-delay"},
    "codeql-static": {"IF/outlier"},
}
TECHNIQUES = {"test": ("unit-testing",), "static": ("llm-static", "codeql-static")}
REPAIR_TOTALS = ("confirmed", "fixed", "not_fixed", "regressed", "no_template")


class BenchError(Exception):
    """The benchmark cannot run at all (missing sources, failed build)."""


# --- Arithmetic -------------------------------------------------------------

def percentile(values, q):
    """q-th percentile (0..100) by linear interpolation between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def beyond(values, q):
    """How many samples lie strictly above the q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def self_times(spans):
    """Maps span id -> duration minus the part of it its children cover.

    `spans` is a list of dicts with id, parent, start and end (any time unit).
    Child intervals are clipped to the parent and merged, so overlapping or
    out-of-range children are never subtracted twice.
    """
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        covered = 0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = span["end"] - span["start"] - covered
    return result


def coverage_shares(spans):
    """Maps each "item" span's item id to the share of its wall time covered
    by named layer spans.

    Layer spans are the children of the item and of its cmd.* spans; the
    cmd.* spans themselves only group one CLI invocation's calls.
    """
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    shares = {}
    for item in (s for s in spans if s["name"] == "item"):
        layers = []
        for child in children.get(item["id"], ()):
            grouped = child["name"].startswith("cmd.")
            layers += children.get(child["id"], []) if grouped else [child]
        covered = sum(s["end"] - s["start"] for s in layers)
        duration = item["end"] - item["start"]
        shares[item["item"]] = covered / duration if duration > 0 else 1.0
    return shares


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# --- Known answers ----------------------------------------------------------

def read_truth(path):
    truth = []
    for line in Path(path).read_text().splitlines():
        bug_id, bug_type, file, coordinator = line.split("\t")
        truth.append((bug_id, bug_type, file, coordinator))
    return truth


def score(reports, truth, technique):
    """[true positives, false positives, false negatives] of one technique's
    reports against the seeded-bug manifest, matched by (type, file,
    coordinator) as src/core/scoring.cc matches them."""
    seeded = {(t, f, c) for _, t, f, c in truth if t in DETECTABLE[technique]}
    matched, false_positives = set(), set()
    for report in reports:
        if report["technique"] != technique:
            continue
        key = (report["type"], report["file"], report["coordinator"])
        (matched if key in seeded else false_positives).add(key)
    return [len(matched), len(false_positives), len(seeded) - len(matched)]


def verdict(command, stdout, truth):
    """The part of one CLI report the known answer pins down."""
    data = json.loads(stdout)
    if command == "repair":
        return {key: data["totals"][key] for key in REPAIR_TOTALS}
    degraded = isinstance(data, dict)
    bugs = data["bugs"] if degraded else data
    result = {technique: score(bugs, truth, technique) for technique in TECHNIQUES[command]}
    if degraded:
        result["degraded"] = True
    return result


class Checker:
    """Checks CLI outputs against expected.json; memoised per distinct output."""

    def __init__(self, expected):
        self.expected = expected
        self.memo = {}

    def check(self, command, app, stdout, truth_dir):
        """Returns None when the verdict matches the known answer, else why not."""
        key = (command, app, stdout)
        if key not in self.memo:
            want = self.expected.get(app, {}).get(command)
            try:
                got = verdict(command, stdout, read_truth(Path(truth_dir) / f"{app}.tsv"))
            except (ValueError, KeyError, TypeError) as error:
                got = f"unreadable report ({error})"
            self.memo[key] = None if got == want else f"{command} {app}: got {got}, want {want}"
        return self.memo[key]


# --- Children ---------------------------------------------------------------

class Child:
    def __init__(self, returncode, stdout, wall_s, cpu_s, maxrss_kb, timed_out):
        self.returncode = returncode
        self.stdout = stdout
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.maxrss_kb = maxrss_kb
        self.timed_out = timed_out

    @property
    def ok(self):
        return self.returncode == 0 and not self.timed_out


def run_child(argv, timeout_s, stderr_path):
    """Runs one child to completion; kills it after timeout_s seconds.

    Reaps it with wait4 so its own user+sys time and peak RSS are known.
    """
    start = time.perf_counter()
    with open(stderr_path, "ab") as err:
        proc = subprocess.Popen([str(a) for a in argv], stdout=subprocess.PIPE, stderr=err)
    fired = threading.Event()

    def kill():
        fired.set()
        proc.kill()

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return Child(proc.returncode, stdout, time.perf_counter() - start,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss, fired.is_set())


# --- Build and context ------------------------------------------------------

def source_digest():
    """Digest of every input of the two builds."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", BENCH / "CMakeLists.txt", BENCH / "tool.cc"]
    for top in ("src", "tools"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_logged(argv, log):
    argv = [str(a) for a in argv]
    with open(log, "ab") as out:
        failed = subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT).returncode
    if failed:
        tail = Path(log).read_text(errors="replace").splitlines()[-20:]
        raise BenchError("command failed: " + " ".join(argv) + "\n" + "\n".join(tail))


def build():
    for needed in ("CMakeLists.txt", "src/core/wasabi.h", "tools/wasabi_cli.cc"):
        if not (ROOT / needed).is_file():
            raise BenchError(f"no wasabi sources: {ROOT / needed} is missing")
    BUILD.mkdir(exist_ok=True)
    stamp = BUILD / "stamp"
    digest = source_digest()
    if CLI.exists() and TOOL.exists() and stamp.exists() and stamp.read_text() == digest:
        return digest
    stamp.unlink(missing_ok=True)
    log = BUILD / "build.log"
    jobs = str(JOBS)
    run_logged(["cmake", "-S", ROOT, "-B", BUILD / "repo", "-DCMAKE_BUILD_TYPE=Release"], log)
    run_logged(["cmake", "--build", BUILD / "repo", "--target", "wasabi_cli", "-j", jobs], log)
    run_logged(["cmake", "-S", BENCH, "-B", BUILD / "tool", "-DCMAKE_BUILD_TYPE=Release",
                f"-DWASABI_ROOT={ROOT}", f"-DWASABI_BUILD={BUILD / 'repo'}"], log)
    run_logged(["cmake", "--build", BUILD / "tool", "-j", jobs], log)
    stamp.write_text(digest)
    return digest


def context(digest):
    """Where and on what the numbers were measured. Refuses unoptimised builds."""
    info = json.loads(subprocess.run([str(TOOL), "info"], capture_output=True,
                                     check=True).stdout)
    build_type = ""
    for line in (BUILD / "repo" / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type not in OPTIMISED_BUILD_TYPES or not info["optimized"]:
        raise BenchError(f"refusing to report from a non-optimised build ({build_type!r})")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        commit = git.stdout.strip() or commit
    return {
        "hardware_concurrency": info["hardware_concurrency"],
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": build_type,
        "vm_dispatch": info["dispatch"],
        "git_commit": commit,
        "source_digest": digest[:16],
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "jobs": JOBS,
    }


# --- Workloads --------------------------------------------------------------

def app_id(base, variant):
    return base if variant == 1 else f"{base}_v{variant}"


def workload_apps(workload, seed):
    """The workload's apps in seeded order.

    The app set is fixed per workload; the seed orders it (and, for
    incremental, draws the edits). Variant costs differ by up to 2x, so a
    seeded draw of variants would make the seed, not the program, set most of
    the run-to-run spread.
    """
    variants = 2 if workload == "incremental" else VARIANTS
    apps = [app_id(base, v) for base in BASE_APPS for v in range(1, variants + 1)]
    if workload == "repair":
        apps += LABS
    random.Random(f"{workload}:{seed}").shuffle(apps)
    return apps


def edit_sequence(seed, files_by_app, count):
    """Seeded edits (app, file, comment), visiting the apps round-robin in a
    fresh seeded order each round; every comment is new to the store."""
    rng = random.Random(f"incremental-edits:{seed}")
    edits = []
    while len(edits) < count:
        apps = sorted(files_by_app)
        rng.shuffle(apps)
        for app in apps:
            step = len(edits)
            edits.append((app, rng.choice(files_by_app[app]),
                          f"perfbench edit seed {seed} step {step} "
                          f"nonce {rng.getrandbits(48):012x}"))
    return edits[:count]


def append_comment(path, comment):
    with open(path, "a") as out:
        out.write(f"// {comment}\n")


class Run:
    """One benchmark run: its directory, inputs and the CLI loop."""

    def __init__(self, workload, seed, expected):
        self.workload = workload
        self.seed = seed
        self.dir = BUILD / "run" / f"{workload}-{os.getpid()}"
        self.corpus = self.dir / "corpus"
        self.truth = self.dir / "truth"
        self.cache = self.dir / "cache"
        self.stderr = self.dir / "stderr.log"
        self.apps = workload_apps(workload, seed)
        self.checker = Checker(expected)
        self.reference = {}   # (command, app) -> unedited report (incremental)
        self.outputs = {}     # (command, app) -> first CLI report seen in the loop
        self.errors = []      # Wrong verdicts, as they occurred.
        self.edits = []
        self.setup_failures = 0  # Cold-fill children that crashed or hung.

    def cli(self, command, app, cache_dir=None):
        argv = [CLI, command, self.corpus / app, "--json"]
        if command != "static":
            argv += ["--jobs", JOBS]
        if cache_dir is not None:
            argv.append(f"--cache-dir={cache_dir}")
        return run_child(argv, TIMEOUT_S[command], self.stderr)

    def setup(self, repeats):
        """Generates the corpus (and, for incremental, fills the cache cold)
        `repeats` times, each into a directory of its own so no deletion runs
        between them, and keeps the last. Returns each set-up's wall seconds."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        times = []
        for k in range(repeats):
            work = self.dir / f"setup-{k}"
            self.corpus, self.truth, self.cache = work / "corpus", work / "truth", work / "cache"
            times.append(self.set_up_once())
        for k in range(repeats - 1):
            shutil.rmtree(self.dir / f"setup-{k}")
        if self.workload == "incremental":
            files = {app: sorted(str(p.relative_to(self.corpus / app))
                                 for p in (self.corpus / app).rglob("*.mj"))
                     for app in self.apps}
            self.edits = edit_sequence(self.seed, files, 20000)
        return times

    def set_up_once(self):
        start = time.perf_counter()
        gen = subprocess.run([str(TOOL), "gen", str(self.corpus), str(self.truth), *self.apps],
                             capture_output=True)
        if gen.returncode:
            raise BenchError("corpus generation failed: " + gen.stderr.decode(errors="replace"))
        if self.workload == "incremental":
            for app in self.apps:
                for command in ("test", "static"):
                    self.reference[(command, app)] = self.fill(command, app)
        return time.perf_counter() - start

    def fill(self, command, app):
        """One cold-fill invocation; returns its report. A child that crashes
        or is killed counts as a failed operation, like an item, and is run
        again, up to FILL_ATTEMPTS times; a wrong verdict ends the run."""
        for _ in range(FILL_ATTEMPTS):
            child = self.cli(command, app, self.cache / app)
            if child.ok:
                wrong = self.checker.check(command, app, child.stdout, self.truth)
                if wrong:
                    raise BenchError("cold cache fill: " + wrong)
                return child.stdout
            self.setup_failures += 1
            why = "killed by the timeout" if child.timed_out else f"exit {child.returncode}"
            print(f"set-up {command} {app} failed: {why}", file=sys.stderr)
        raise BenchError(f"cold cache fill: {command} {app} failed {FILL_ATTEMPTS} times")

    def item(self, seq):
        """Runs item `seq`; returns (app, [Child], wall seconds)."""
        if self.workload == "incremental":
            app, file, comment = self.edits[seq]
            start = time.perf_counter()
            append_comment(self.corpus / app / file, comment)
            children = [self.cli(c, app, self.cache / app) for c in ("test", "static")]
        elif self.workload == "scan":
            app = self.apps[seq % len(self.apps)]
            start = time.perf_counter()
            children = [self.cli(c, app) for c in ("test", "static")]
        else:
            app = self.apps[seq % len(self.apps)]
            fresh = self.dir / f"repair-cache-{seq}"
            start = time.perf_counter()
            children = [self.cli("repair", app, fresh)]
        wall = time.perf_counter() - start
        if self.workload == "repair":
            shutil.rmtree(fresh, ignore_errors=True)
        return app, children, wall

    def problem(self, app, children):
        """Why an item failed (exit, timeout or wrong verdict), or None."""
        commands = ("repair",) if self.workload == "repair" else ("test", "static")
        for command, child in zip(commands, children):
            if child.timed_out:
                return f"{command} {app}: killed by the timeout"
            if child.returncode != 0:
                return f"{command} {app}: exit {child.returncode}"
            self.outputs.setdefault((command, app), child.stdout)
            if self.workload == "incremental":
                if child.stdout != self.reference[(command, app)]:
                    wrong = f"{command} {app}: a comment-only edit changed the report"
                    self.errors.append(wrong)
                    return wrong
            else:
                wrong = self.checker.check(command, app, child.stdout, self.truth)
                if wrong:
                    self.errors.append(wrong)
                    return wrong
        return None

    def loop(self, seconds):
        """Closed loop for `seconds`. scan and repair finish the pass they are
        in, so every run covers whole passes of the same app mix, unless
        failures held the loop up for OVERRUN_S beyond that."""
        items = []
        start = time.perf_counter()
        seq = 0
        while True:
            elapsed = time.perf_counter() - start
            if seq and elapsed >= seconds and (self.workload == "incremental"
                                               or seq % len(self.apps) == 0
                                               or elapsed >= seconds + OVERRUN_S):
                break
            if seq == len(self.edits) and self.workload == "incremental":
                break
            app, children, wall = self.item(seq)
            problem = self.problem(app, children)
            if problem:
                print(f"item {seq} failed: {problem}", file=sys.stderr)
            items.append({"seq": seq, "app": app, "ms": wall * 1e3,
                          "cpu_ms": sum(c.cpu_s for c in children) * 1e3,
                          "rss_kb": max(c.maxrss_kb for c in children),
                          "failed": problem is not None})
            seq += 1
        return items


# --- End-to-end run ---------------------------------------------------------

def succeeded(items):
    """Items whose children all exited 0 in time with the right verdict.

    Timing metrics use only these: a hung child's time is the timeout, not
    the program's. Failures are reported by count instead.
    """
    ok = [i for i in items if not i["failed"]]
    if not ok:
        raise BenchError(f"all {len(items)} items failed")
    return ok


def end_to_end(items, setups):
    ok = succeeded(items)
    ms = [i["ms"] for i in ok]
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": len(ms) / (sum(ms) / 1e3),
        "item_ms_p50": percentile(ms, 50),
        "item_ms_p90": percentile(ms, 90),
        "cpu_ms_per_item": sum(i["cpu_ms"] for i in ok) / len(ok),
        "peak_rss_mb": max(i["rss_kb"] for i in ok) / 1024.0,
    }


# --- Traced run -------------------------------------------------------------

def read_trace(prefixes):
    """Spans and counters written by finished item and probe processes. Span
    ids are renumbered to be unique across processes; times stay relative to
    each process's own start, which is all self time needs."""
    spans, counters = [], []
    for prefix in prefixes:
        offset = len(spans)
        for line in Path(f"{prefix}.spans.tsv").read_text().splitlines():
            sid, parent, name, item, start, end = line.split("\t")
            spans.append({"id": int(sid) + offset,
                          "parent": int(parent) + offset if int(parent) >= 0 else -1,
                          "name": name, "item": item, "start": int(start), "end": int(end)})
        for line in Path(f"{prefix}.counters.tsv").read_text().splitlines():
            item, name, value = line.split("\t")
            counters.append((item, name, float(value)))
    return spans, counters


def item_app(item):
    return item.split(":", 2)[2]


def layer_metrics(spans, counters, cli_items):
    """Per-layer metrics from the traced run's spans and counters.

    `cli_items` are the successful CLI items ({"seq", "ms"}); cli.process_ms
    is the median, over items run both ways, of the CLI's time minus the
    in-process "item" span.

    A layer's time is the sum of its spans' self time within one item,
    reported as the median over items. Mirrored CLI items ("item:*") are used
    where they reach the layer; layers they never reach come from the probes
    ("probe:*"). Ratios are taken over the sums of the same items.
    """
    selfs = self_times(spans)
    per_item = {}      # name -> item -> ms
    for span in spans:
        ms = selfs[span["id"]] / 1e6
        bucket = per_item.setdefault(span["name"], {})
        bucket[span["item"]] = bucket.get(span["item"], 0.0) + ms

    def chosen(items):
        mirrored = [i for i in items if i.startswith("item:")]
        return mirrored or list(items)

    def layer(name):
        bucket = per_item.get(name, {})
        return {i: bucket[i] for i in chosen(bucket)}

    counts = {}        # name -> item -> [values]
    for item, name, value in counters:
        counts.setdefault(name, {}).setdefault(item, []).append(value)

    def counted(name):
        by_item = counts.get(name, {})
        return [v for i in chosen(by_item) for v in by_item[i]]

    def total(name, items=None):
        by_item = counts.get(name, {})
        return sum(v for i in (items if items is not None else chosen(by_item))
                   for v in by_item.get(i, ()))

    metrics = {}
    for span_name, metric in SPAN_METRICS.items():
        values = list(layer(span_name).values())
        metrics[metric] = statistics.median(values) if values else 0.0
    for name in COUNT_METRICS:
        values = counted(name)
        metrics[name] = statistics.median(values) if values else 0.0

    inproc_ms = {int(s["item"].split(":")[1]): (s["end"] - s["start"]) / 1e6
                 for s in spans if s["name"] == "item"}
    residuals = [i["ms"] - inproc_ms[i["seq"]] for i in cli_items if i["seq"] in inproc_ms]
    metrics["cli.process_ms"] = statistics.median(residuals) if residuals else 0.0

    parse = layer("lang.parse")
    metrics["lang.parse_mb_per_s"] = ratio(total("lang.bytes", list(parse)) / 1e6,
                                           sum(parse.values()) / 1e3)
    campaign_items = list(layer("dynamic"))
    metrics["campaign.runs_per_s"] = ratio(total("campaign.planned_runs", campaign_items),
                                           total("dynamic.campaign_ms", campaign_items) / 1e3)
    metrics["campaign.bug_yield"] = ratio(total("campaign.bugs", campaign_items),
                                          total("campaign.planned_runs", campaign_items))
    metrics["exec.speedup_j4"] = ratio(sum(per_item.get("dynamic.j1", {}).values()),
                                       sum(per_item.get("dynamic.jN", {}).values()))
    cache_items = list(layer("cache.flush"))
    for ns in ("q1", "when", "cov", "camp"):
        hits = total(f"cache.hits.{ns}", cache_items)
        metrics[f"cache.hit_ratio.{ns}"] = ratio(hits, hits + total(f"cache.misses.{ns}",
                                                                    cache_items))
    sim = layer("storm.sim")
    metrics["storm.attempts_per_s"] = ratio(total("storm.attempts", list(sim)),
                                            sum(sim.values()) / 1e3)
    hits = total("repair.validation_hits")
    metrics["repair.validation_hit_ratio"] = ratio(hits, hits + total("repair.validation_misses"))

    # Derived, not measured by a span: repair time minus the same app's
    # identify + dynamic + static + storm baseline.
    repair_by_app, baseline_by_app = {}, {}
    for item, ms in layer("repair").items():
        repair_by_app.setdefault(item_app(item), []).append(ms)
    for name in BASELINE_SPANS:
        for item, ms in per_item.get(name, {}).items():
            if item.startswith("probe:"):
                app = item_app(item)
                baseline_by_app[app] = baseline_by_app.get(app, 0.0) + ms
    validation = [statistics.median(ms) - baseline_by_app[app]
                  for app, ms in repair_by_app.items() if app in baseline_by_app]
    metrics["repair.validation_ms"] = statistics.median(validation) if validation else 0.0

    shares = coverage_shares(spans)
    metrics["trace.coverage_min"] = min(shares.values())
    return metrics, shares


def traced(run, seconds):
    """Runs each item on the CLI and right after it in process (one
    perfbench_tool process per item) for `seconds`, then the layer probes.
    Pairing the two makes cli.process_ms a difference of neighbours rather
    than of two stretches of a host whose speed drifts."""
    out = run.dir / "trace"
    out.mkdir()
    commands = ("repair",) if run.workload == "repair" else ("test", "static")
    timeout = sum(TIMEOUT_S[c] for c in commands)
    cli_items, finished, failed, mismatches = [], [], 0, []
    start = time.perf_counter()
    seq = 0
    while seq == 0 or time.perf_counter() - start < seconds:
        if run.workload == "incremental" and seq == len(run.edits):
            break
        app, children, wall = run.item(seq)
        problem = run.problem(app, children)
        if problem:
            print(f"item {seq} failed: {problem}", file=sys.stderr)
        cli_items.append({"seq": seq, "app": app, "ms": wall * 1e3, "failed": bool(problem)})

        extra = []
        if run.workload == "incremental":
            _, file, comment = run.edits[seq]
            extra = [run.cache / app, file, comment + " in process"]
        prefix = out / f"item-{seq}"
        child = run_child([TOOL, "item", run.workload, run.corpus, app, prefix,
                           f"item:{seq}:{app}", JOBS, *extra], timeout, run.stderr)
        reports = [run_child_result(child, Path(f"{prefix}.{c}.json")) for c in commands]
        problem = run.problem(app, reports)
        for command, report in zip(commands, reports):
            if problem is None and report.stdout != run.outputs[(command, app)]:
                problem = f"{command} {app}: in-process report differs from the CLI's"
                mismatches.append(problem)
        if problem:
            print(f"traced item {seq} failed: {problem}", file=sys.stderr)
            failed += 1
        else:
            finished.append(prefix)
        shutil.rmtree(f"{prefix}.cache", ignore_errors=True)
        seq += 1

    # Layers the workload's own calls never reach are probed once per base
    # app (and lab, for repair) so every per-layer metric is measured.
    kinds = ["exec", "baseline"] if run.workload == "repair" else ["exec", "baseline", "repair"]
    probes = BASE_APPS + (LABS if run.workload == "repair" else ())
    for p, app in enumerate(probes):
        prefix = out / f"probe-{p}"
        child = run_child([TOOL, "probe", run.corpus, app, prefix, f"probe:{p}:{app}", JOBS,
                           *kinds], PROBE_TIMEOUT_S, run.stderr)
        if child.ok:
            finished.append(prefix)
        else:
            print(f"probe {app} failed: exit {child.returncode}", file=sys.stderr)
            failed += 1
    if not any(p.name.startswith("item-") for p in finished):
        raise BenchError("every traced item failed")
    spans, counters = read_trace(finished)
    metrics, shares = layer_metrics(spans, counters, succeeded(cli_items))
    run.errors += mismatches
    return {"cli_items": cli_items, "attempted": 2 * seq + len(probes),
            "failed": sum(i["failed"] for i in cli_items) + failed, "metrics": metrics,
            "shares": shares, "mismatches": mismatches, "counters": counters}


def run_child_result(child, report):
    """One command's share of a finished in-process item, shaped like a CLI
    child so Run.problem can judge it."""
    if not child.ok:
        return child
    return Child(0, report.read_bytes(), child.wall_s, child.cpu_s, child.maxrss_kb, False)


# --- Output -----------------------------------------------------------------

def fmt(value):
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def print_growth(counters):
    """Store size and entries loaded at each app's first and last step, so
    growth of the incremental stores within a run stays visible."""
    series = {}   # (app, counter) -> values in step order
    for item, name, value in counters:
        if item.startswith("item:") and name in ("cache.store_bytes", "cache.loaded_entries"):
            series.setdefault((item_app(item), name), []).append(value)
    for (app, name), values in sorted(series.items()):
        print(f"{name} {app}: first {values[0]:.0f}, last {values[-1]:.0f} "
              f"({len(values)} flushes)")


def print_table(title, rows):
    print(title)
    width = max(len(name) for name, _, _ in rows)
    for name, unit, value in rows:
        print(f"  {name:<{width}}  {fmt(value):>12} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected.json from this build (review the diff)")
    args = parser.parse_args(argv)
    if not args.workload and not args.write_expected:
        parser.error("--workload is required")
    try:
        if args.write_expected:
            return write_expected()
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


def run_one(args):
    digest = build()
    ctx = context(digest)
    expected = json.loads(EXPECTED.read_text())["apps"]
    run = Run(args.workload, args.seed, expected)
    try:
        setups = run.setup(SETUP_REPEATS)
        result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "apps": run.apps, "context": ctx}
        print("context: " + json.dumps(ctx))
        if args.trace:
            trace = traced(run, args.seconds)
            attempted, failed, metrics = trace["attempted"], trace["failed"], trace["metrics"]
            for item, share in trace["shares"].items():
                flag = "  BELOW 95%" if share < COVERAGE_BAR else ""
                print(f"coverage {item}: {share:.1%}{flag}")
            if args.workload == "incremental":
                print_growth(trace["counters"])
            units = dict(PER_LAYER)
            print_table(f"{args.workload}: per-layer metrics (traced run)",
                        [(n, units[n], metrics[n]) for n, _ in PER_LAYER])
            result.update(items=trace["cli_items"], coverage=trace["shares"],
                          mismatches=trace["mismatches"])
        else:
            items = run.loop(args.seconds)
            attempted = len(items)
            failed = sum(i["failed"] for i in items)
            metrics = end_to_end(items, setups)
            ms = [i["ms"] for i in succeeded(items)]
            print_table(f"{args.workload}: end-to-end metrics ({len(ms)} timed items, p90 "
                        f"has {beyond(ms, 90)} samples beyond it; failed_ratio "
                        f"{failed / attempted:.4g} = {failed}/{attempted})",
                        [(n, u, metrics[n]) for n, u in END_TO_END])
            result.update(items=items, setups=setups)
        attempted += run.setup_failures
        failed += run.setup_failures
        units = dict(PER_LAYER if args.trace else END_TO_END)
        metrics = {name: {"value": metrics[name], "unit": units[name]} for name in units}
        line = {"correct": not run.errors, "attempted": attempted, "failed": failed,
                "metrics": metrics}
        result.update(line, errors=run.errors)
        results = BUILD / "results"
        results.mkdir(exist_ok=True)
        (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1))
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args):
    """One row per workload with every end-to-end metric; non-zero on any
    wrong verdict."""
    rows, status = [], 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", "0"], stdout=subprocess.PIPE, text=True)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            rows.append((workload, None))
            continue
        rows.append((workload, json.loads(lines[-1])))
    names = [n for n, _ in END_TO_END] + ["failed_ratio"]
    units = dict(END_TO_END, failed_ratio="ratio")
    print("workload     " + " ".join(f"{f'{n} ({units[n]})':>22}" for n in names))
    for workload, line in rows:
        if line is None:
            print(f"{workload:<12} did not run")
            continue
        values = {n: m["value"] for n, m in line["metrics"].items()}
        values["failed_ratio"] = line["failed"] / line["attempted"]
        print(f"{workload:<12} " + " ".join(f"{fmt(values[n]):>22}" for n in names)
              + ("" if line["correct"] else "  WRONG VERDICTS"))
    return status


def write_expected():
    """Known answers for every app a seed can draw, from the current build."""
    digest = build()
    run = Run("scan", 0, {})
    run.apps = [app_id(b, v) for b in BASE_APPS for v in range(1, VARIANTS + 1)] + list(LABS)
    try:
        run.setup(1)
        apps = {}
        for app in run.apps:
            truth = read_truth(run.truth / f"{app}.tsv")
            entry = apps.setdefault(app, {})
            for command in ("test", "static", "repair"):
                child = run.cli(command, app, run.dir / f"cache-{app}" if command == "repair"
                                else None)
                if not child.ok:
                    raise BenchError(f"{command} {app}: exit {child.returncode}")
                entry[command] = verdict(command, child.stdout, truth)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    EXPECTED.write_text(json.dumps({
        "comment": "Known answers: per app, unit-testing / llm-static / codeql-static scores "
                   "[true positives, false positives, false negatives] against the seeded-bug "
                   "manifest, and repair totals. Regenerate with --write-expected only for a "
                   "change that means to alter verdicts.",
        "source_digest": digest[:16],
        "apps": apps}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED} ({len(apps)} apps)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
