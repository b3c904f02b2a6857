"""The engelkit benchmark: run a workload, check every verdict, print metrics.

    python3 bench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists):

  corpus         the nine corpus/*.ek manifests at 64 samples, each checked
                 in a fresh process, pass after pass;
  corpus-dense   the same at 1024 samples;
  catalog-sweep  one long-lived process per pass, calling geometry_row on
                 the first 100 rows of a seeded draw of catalog inputs.

Load is closed-loop: one check at a time from one process tree.  With
`--trace 0` the last line of output is a JSON object with the end-to-end
metrics; with `--trace 1` the same object carries the per-layer metrics of
a traced run, interleaved with untraced work so that the tracing overhead
is measured too.  Every verdict is checked against an answer key that does
not come from engelkit: the manifests' expect lines, and the weight rule of
bench/sweep.py.  Exit status 2 means the harness itself could not run.

Every time is scaled to a nominal machine pace: each process times the
fixed task of bench/reference.py between its checks, and a time measured
while that task took r seconds is reported as time * NOMINAL_S / r.  The
shared machine this was built on drifts in speed by up to 2x over tens of
seconds; the scaling takes that drift out of the figures.
"""

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S, scaled
from tracer import add_totals, layer_metrics, layer_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKER_TIMEOUT = 150
SAMPLES = {"corpus": 64, "corpus-dense": 1024}
SWEEP_ROWS = 100       # sweep rows per process: ten whole blocks
# The corpus workloads sample at Halton indices seed * samples + i, and a
# Halton point costs one loop turn per digit of its index: at seed 9 the
# points cost 1.5x (1024 samples) to 1.9x (64 samples) what they cost at
# seed 0.  Sampling seeds of 100 + seed % 100 keep the digit count, and so
# the work, within 7% for every benchmark seed.
SAMPLING_SEED_BASE = 100

# a percentile is reported only with at least this many samples above it
MIN_ABOVE = 10
# the smallest sample count for which p90 has MIN_ABOVE samples above it
MIN_SAMPLES = 100

END_TO_END_UNITS = {"setup_s": "s", "checks_per_s": "1/s",
                    "check_s.p50": "s", "check_s.p90": "s",
                    "peak_rss_mb": "MB", "passed_frac": "ratio"}


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile, refused when
    under-sampled.

    A ValueError is raised unless at least MIN_ABOVE samples lie above the
    nearest rank, ceil(q/100 * n), so a tail figure is never read off a
    handful of points.  The estimate weights every order statistic by the
    Beta((n+1)p, (n+1)(1-p)) density, p = q/100, over its slot
    ((i-1)/n, i/n], taken at the slot's midpoint.  It averages the few
    order statistics around the rank instead of reading one of them: the
    slowest checks come in clusters, one per check, and the nearest-rank
    p90 jumped with the noise at a cluster's edge.
    """
    xs = sorted(values)
    n = len(xs)
    rank = max(1, math.ceil(q * n / 100))
    above = n - rank
    if above < MIN_ABOVE:
        raise ValueError(f"p{q:g} of {n} samples has {above} above it; "
                         f"{MIN_ABOVE} are needed")
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            for x in ((i + 0.5) / n for i in range(n))]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


class HarnessError(Exception):
    """The benchmark could not run; distinct from a failed check."""


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(*args):
    """Run one worker to completion; its JSON result plus set-up time."""
    cmd = [sys.executable, str(WORKER), *map(str, args)]
    t_spawn = clock()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker timed out: {' '.join(cmd[1:])}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker exited {proc.returncode}: "
                           f"{' '.join(cmd[1:])}\n{proc.stderr.strip()}")
    out = json.loads(lines[-1])
    out["setup_s"] = scaled(out["t_loaded"] - t_spawn, out["ref_s"])
    return out


class Tally:
    """Checks attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, check, why):
        self.attempted += 1
        if why is not None:
            self.fail(check, why)

    def fail(self, what, why):
        self.failed += 1
        self.notes.append(f"{what}: {why}")


def check(ident, seconds, text, why=None):
    """One check's record: id, time to verdict, report text, failure."""
    return {"id": ident, "seconds": seconds, "text": text, "why": why}


# ---------------------------------------------------------------------------
# workloads: each runs one pass of its checks and turns the process
# results into check records

def task_sections(text):
    """Each task's block of machine-report lines, keyed by task name."""
    out = {}
    name = None
    for line in text.splitlines():
        if name is None and line.startswith("task ") and " :: " in line:
            name = line[len("task "):].split(" :: ", 1)[0]
            out[name] = []
        if name is not None:
            out[name].append(line)
            if line == f"end {name}":
                name = None
    return {key: "\n".join(lines) for key, lines in out.items()}


def manifest_checks(label, result):
    """The check records of one manifest process.

    A task passes when the manifest ran to exit code 0 and every one of the
    task's expect lines matched.  A crash, or a nonzero exit code, fails
    every task of the manifest; tasks that never ran are named by index.
    """
    if result["error"] is not None:
        broken = f"raised {result['error']}"
    elif result["exit_code"] != 0:
        broken = f"exit code {result['exit_code']}"
    else:
        broken = None
    sections = task_sections(result["report"] or "")
    out = [check(f"{label}:{t['name']}", scaled(t["seconds"], t["ref_s"]),
                 sections.get(t["name"]),
                 broken or (None if t["matched"] else "expectation mismatch"))
           for t in result["tasks"]]
    out += [check(f"{label}:#{k}", None, None, broken or "never ran")
            for k in range(len(out), result["n_tasks"])]
    return out


class Corpus:
    """Every manifest in its own fresh process, one after another."""

    def __init__(self, manifests, seed, samples):
        self.manifests = manifests
        self.seed = SAMPLING_SEED_BASE + seed % SAMPLING_SEED_BASE
        self.samples = samples

    def run_pass(self, trace=False, spans=None, tag=""):
        results = []
        for path in self.manifests:
            extra = [spans, f"{tag}{path.name}"] if spans else []
            results.append(spawn("corpus", path, self.seed, self.samples,
                                 int(trace), *extra))
        return results

    def checks(self, results):
        return [rec for path, result in zip(self.manifests, results)
                for rec in manifest_checks(path.name, result)]

    def reports(self, results):
        return {path.name: result["report"] or ""
                for path, result in zip(self.manifests, results)}

    @staticmethod
    def checking_s(results):
        """Each task's scaled time, plus the rest of each process's
        checking time (expects, rendering) at the process's mean pace."""
        return sum(sum(scaled(t["seconds"], t["ref_s"]) for t in r["tasks"])
                   + scaled(r.get("rest_s", 0.0), r["ref_s"])
                   for r in results)


class Sweep:
    """The first SWEEP_ROWS rows of the draw, in one process per pass."""

    def __init__(self, seed):
        self.seed = seed

    def run_pass(self, trace=False, spans=None, tag=""):
        extra = [spans, tag] if spans else []
        return [spawn("sweep", self.seed, SWEEP_ROWS, int(trace), *extra)]

    def checks(self, results):
        return [check(f"row {i}", scaled(row["seconds"], row["ref_s"]),
                      row["line"],
                      None if row["ok"] else f"key {row['key']}, got "
                      f"{row['line']}")
                for i, row in enumerate(results[0]["rows"])]

    def reports(self, results):
        text = "\n".join(row["line"] for row in results[0]["rows"]) + "\n"
        return {f"rows 0-{SWEEP_ROWS - 1}": text}

    @staticmethod
    def checking_s(results):
        return sum(scaled(row["seconds"], row["ref_s"])
                   for row in results[0]["rows"])


def score(workload, passes, tally):
    """Tally every check of every pass.

    Besides its own answer key, a check fails when its report differs from
    the same check's report in the run's first pass.
    """
    reference = {}
    for results in passes:
        for rec in workload.checks(results):
            why = rec["why"]
            first = reference.setdefault(rec["id"], rec["text"])
            if why is None and rec["text"] != first:
                why = "report differs between passes"
            tally.add(rec["id"], why)


def pace_s(passes):
    """Median seconds of one reference() call over every process of a run."""
    return statistics.median(r["ref_s"] for p in passes for r in p)


def digests(reports):
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in reports.items()}


def end_to_end(workload, seconds, tally):
    """Passes until the time is up and p90 has enough samples."""
    deadline = clock() + seconds
    passes = []
    by_check = {}
    timed = 1
    while timed and (not passes or clock() < deadline
                     or sum(map(len, by_check.values())) < MIN_SAMPLES):
        passes.append(workload.run_pass())
        timed = 0
        for rec in workload.checks(passes[-1]):
            if rec["seconds"] is not None:
                by_check.setdefault(rec["id"], []).append(rec["seconds"])
                timed += 1
    pooled = [t for times in by_check.values() for t in times]
    if len(pooled) < MIN_SAMPLES:
        raise HarnessError(f"only {len(pooled)} checks ran to a verdict")
    score(workload, passes, tally)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for p in passes
                                     for r in p),
        "checks_per_s": len(pooled) / sum(workload.checking_s(p)
                                          for p in passes),
        "check_s.p50": percentile(pooled, 50),
        "check_s.p90": percentile(pooled, 90),
        "peak_rss_mb": max(r["rss_kb"] for p in passes for r in p) / 1024,
    }
    info = {"passes": len(passes), "pace_s": pace_s(passes),
            "digests": digests(workload.reports(passes[0]))}
    return metrics, info


def scaled_layers(result):
    """A traced process's layer totals, every time at the nominal pace."""
    return {key: scaled(value, result["ref_s"]) if key.endswith("_s")
            else value for key, value in result["layers"].items()}


def traced(workload, seconds, tally, spans):
    """Alternate untraced and traced passes; per-layer medians."""
    deadline = clock() + seconds
    untraced, wrapped = [], []
    while not wrapped or clock() < deadline:
        untraced.append(workload.run_pass())
        wrapped.append(workload.run_pass(trace=True, spans=spans,
                                         tag=f"pass{len(wrapped)}/"))
    score(workload, untraced + wrapped, tally)
    for plain, traced_pass in zip(untraced, wrapped):
        a, b = workload.reports(plain), workload.reports(traced_pass)
        for name in a:
            if a[name] != b[name]:
                tally.fail(name, "traced report differs from untraced")
    layers = [layer_metrics(add_totals(scaled_layers(r) for r in p))
              for p in wrapped]
    out = {key: statistics.median(m[key] for m in layers)
           for key in layers[0]}
    plain_s, traced_s = (
        statistics.median(sum(scaled(r["busy_s"], r["ref_s"]) for r in p)
                          for p in side) for side in (untraced, wrapped))
    out["trace.overhead_frac"] = traced_s / plain_s - 1
    info = {"passes": len(wrapped), "pace_s": pace_s(untraced + wrapped),
            "digests": digests(workload.reports(untraced[0]))}
    return out, info


def layer_unit(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


# ---------------------------------------------------------------------------

def run(workload, seed, seconds, trace, spans=None):
    if workload == "catalog-sweep":
        work = Sweep(seed)
    else:
        manifests = sorted((ROOT / "corpus").glob("*.ek"))
        if not manifests:
            raise HarnessError(f"no manifests under {ROOT / 'corpus'}")
        work = Corpus(manifests, seed, SAMPLES[workload])
    tally = Tally()
    if trace:
        metrics, info = traced(work, seconds, tally, spans)
        units = {name: layer_unit(name) for name in layer_names()}
    else:
        metrics, info = end_to_end(work, seconds, tally)
        metrics["passed_frac"] = 1 - tally.failed / tally.attempted
        units = END_TO_END_UNITS
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    return result, {**info, "failures": tally.notes}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["corpus", "corpus-dense", "catalog-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", default=None, metavar="FILE",
                        help="with --trace 1, append every span to FILE "
                             "as JSON lines")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the result and its details to FILE")
    args = parser.parse_args(argv)
    if args.spans:
        Path(args.spans).write_text("")
    try:
        result, info = run(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.spans)
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} checks attempted, {result['failed']} "
          f"failed, {info.get('passes', 1)} pass(es)")
    print(f"pace: reference() took {info['pace_s'] * 1e3:.4g} ms, "
          f"times are scaled to {NOMINAL_S * 1e3:g} ms")
    for note in info["failures"]:
        print(f"failed: {note}")
    for name, sha in info["digests"].items():
        print(f"digest {name} sha256 {sha}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "result": result, **info}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
