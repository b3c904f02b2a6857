"""One benchmark process: a manifest check, or one pass of the sweep.

    python3 bench/worker.py corpus MANIFEST SEED SAMPLES TRACE [SPANS TAG]
    python3 bench/worker.py sweep SEED ROWS TRACE [SPANS TAG]

Run by bench/run.py, one process per manifest so that every corpus check
starts from untouched process state, the way `engelkit run` does.  A sweep
process checks the first ROWS rows of the seeded draw, one after another.  The
worker keeps its own imports light until engelkit is loaded, because the
parent times set-up from spawn to that point.  It prints one JSON object
as its last line.  With TRACE 1 it wraps engelkit's layer functions after
import and adds per-layer totals; with SPANS it also appends every span
to that file as JSON lines, tagged with TAG.  Every process also times
bench/reference.py's task between its checks (before the first manifest
task and after each one, or after each sweep row), so the runner can scale
each check's time to a nominal machine pace.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# reference() calls per sample of the machine's pace
PACE_CALLS = 3


def clock():
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn stamp and the
    # worker's stamps share one time line
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def start_tracer():
    from tracer import Tracer
    tracer = Tracer()
    missing = tracer.install()
    if missing:
        print(f"tracer: not found: {', '.join(missing)}", file=sys.stderr)
    return tracer


def finish(out, tracer, spans_path, tag):
    import json
    import resource
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        from tracer import layer_totals
        out["layers"] = layer_totals(tracer)
        if spans_path:
            with open(spans_path, "a", encoding="utf-8") as fh:
                for i, span in enumerate(tracer.spans()):
                    fh.write(json.dumps({"tag": tag, "id": i, **span}) + "\n")
    print(json.dumps(out))


class Pacer:
    """The machine's pace, sampled between checks.

    A sample is the median time of PACE_CALLS calls of bench/reference.py's
    task.  sample() takes one and returns the mean of it and the sample
    before: the pace on both sides of the check that just ended.  `spent`
    is the time the samples after the first one took.
    """

    def __init__(self):
        from reference import pace
        self._pace = pace
        self.samples = [pace(PACE_CALLS)]
        self.spent = 0.0

    def sample(self):
        start = clock()
        self.samples.append(self._pace(PACE_CALLS))
        self.spent += clock() - start
        return (self.samples[-2] + self.samples[-1]) / 2

    def mean(self):
        return sum(self.samples) / len(self.samples)


def pace_ops(ops, pacer, calls):
    """Sample the pace after every task op of a manifest run.

    The sample falls inside the time the report gives the task, so each
    call appends (pace, sampling time) to `calls` for the caller to take
    back out.
    """
    def paced(op):
        def run_op(*args):
            try:
                return op(*args)
            finally:
                before = pacer.spent
                ref_s = pacer.sample()
                calls.append((ref_s, pacer.spent - before))
        return run_op

    for name, op in list(ops.items()):
        ops[name] = paced(op)


def run_corpus(path, seed, samples, trace, spans_path=None, tag=None):
    from engelkit import manifest, report, sampling
    t_imported = clock()
    tracer = start_tracer() if trace else None
    if tracer is not None:
        tracer.check = Path(path).name
    out = {"t_imported": t_imported, "n_tasks": 1, "tasks": [],
           "report": None, "exit_code": None, "error": None}
    pacer, calls = None, []
    try:
        mf = manifest.load_manifest(path)
        out["t_loaded"] = clock()
        out["n_tasks"] = len(mf.tasks)
        pacer = Pacer()
        if tracer is None:
            # a traced run keeps its spans free of pace samples
            pace_ops(report.OPS, pacer, calls)
        out["t_start"] = clock()
        policy = sampling.SamplingPolicy(seed=seed, n_samples=samples)
        rep = report.run_manifest(mf, policy)
        out["report"] = rep.machine_text()
        out["exit_code"] = rep.exit_code
    except Exception as err:
        # a crash inside the program is a failed check, not a failed run
        out["error"] = f"{type(err).__name__}: {err}"
        rep = None
    out["t_done"] = clock()
    out.setdefault("t_loaded", out["t_done"])
    out.setdefault("t_start", out["t_done"])
    pacer = pacer or Pacer()
    checking_s = out["t_done"] - out["t_start"]
    out["busy_s"] = checking_s - pacer.spent + out["t_loaded"] - t_imported
    if not calls:
        pacer.sample()
    out["ref_s"] = pacer.mean()
    if rep is not None:
        # each task's time without its pace sample, and the pace around it
        paced = iter(calls)
        out["tasks"] = []
        for res in rep.results:
            ref_s, spent = next(paced, (out["ref_s"], 0.0))
            out["tasks"].append(
                {"name": res.name, "seconds": res.seconds - spent,
                 "ref_s": ref_s,
                 "matched": all(ok for _, ok in res.expect_results)})
        # checking time outside the task ops: expects and rendering
        out["rest_s"] = checking_s - sum(res.seconds for res in rep.results)
    finish(out, tracer, spans_path, tag)


def run_sweep(seed, rows, trace, spans_path=None, tag=None):
    from itertools import islice
    from engelkit import catalog, cli
    import sweep as draws
    inputs = list(islice(draws.draw(seed), rows))
    t_loaded = clock()
    tracer = start_tracer() if trace else None
    out = {"t_imported": t_loaded, "t_loaded": t_loaded, "rows": []}
    pacer = Pacer()
    for i, (name, params) in enumerate(inputs):
        key = draws.expected(name, params)
        if tracer is not None:
            tracer.check = i
        start = clock()
        try:
            row = catalog.geometry_row(name, params)
        except Exception as err:
            row = {"error": f"{type(err).__name__}: {err}"}
        seconds = clock() - start
        ref_s = pacer.sample()
        if "error" in row:
            line = row["error"]
        else:
            line = cli.catalog_table([row]).splitlines()[1]
        out["rows"].append({"seconds": seconds, "ref_s": ref_s,
                            "ok": draws.check_row(row, key),
                            "line": line, "key": key})
    out["t_done"] = clock()
    out["ref_s"] = pacer.mean()
    out["busy_s"] = out["t_done"] - t_loaded - pacer.spent
    finish(out, tracer, spans_path, tag)


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "corpus":
        path, seed, samples, trace = rest[:4]
        run_corpus(path, int(seed), int(samples), trace == "1", *rest[4:6])
    elif mode == "sweep":
        seed, rows, trace = rest[:3]
        run_sweep(int(seed), int(rows), trace == "1", *rest[3:5])
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
