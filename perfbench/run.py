"""Benchmark runner for contactgeom: one workload per process.

    python3 perfbench/run.py --workload sweep --seed 42 --seconds 10 --trace 0

Run from the root of a checkout. The package is imported from ``src/``
and driven in-process through ``contactgeom.cli.main``, one job at a time.
Set-up (importing the package and writing the input families) is repeated
up to five times, while it has taken under three seconds in all, and its
median is reported. The job list is then repeated until ``--seconds`` have
passed, always at least once, and each timing is the median over the
passes.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics. With ``--trace 1`` the job list runs once untraced and
once traced, the layer wrappers in ``tracing.py`` record spans and
counters, and the JSON holds the per-layer metrics; the spans go to
``.bench_traces/``. Every job's output is checked in both modes. See
``perfbench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, Result,  # noqa: E402
                       digest_of)

DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 5
SETUP_BUDGET_S = 3.0  # no further set-up repeat once this much is spent


def _purge_modules():
    """Forget the package and its imports so set-up pays the import again."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("contactgeom", "networkx", "instances"):
            del sys.modules[name]


def set_up(workload, seed):
    """Import the package and write the inputs into the current directory;
    return the set-up time and the imported API."""
    _purge_modules()
    gc.collect()
    start = time.perf_counter()
    import contactgeom.cli
    from contactgeom.familyio import write_family
    from contactgeom.generators import GeneratorSpec, generate
    from contactgeom.geometry import CurveFamily
    import instances
    api = types.SimpleNamespace(
        cli=contactgeom.cli, write_family=write_family, generate=generate,
        GeneratorSpec=GeneratorSpec, CurveFamily=CurveFamily,
        instances=instances)
    workload.build(api, seed)
    return time.perf_counter() - start, api


def run_pass(api, jobs, tracer=None):
    """Run every job once, back to back; return their results."""
    results = []
    for job in jobs:
        gc.collect()  # each job starts from a collected heap, like a new CLI
        if tracer is not None:
            tracer.start_job(job.name)
        out, err = io.StringIO(), io.StringIO()
        error = ""
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = api.cli.main(list(job.argv))
        except SystemExit as e:  # argparse rejects the command line
            rc = e.code
        except Exception:
            rc, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
        results.append(Result(job, rc, seconds, out.getvalue(),
                              error or err.getvalue()))
    for r in results:
        for name in r.job.outputs:
            if os.path.exists(name):
                with open(name, "rb") as fh:
                    r.files[name] = fh.read()
    return results


def failures(workload, results, seed, digests):
    """Job name -> reason, for every job that failed or whose output is
    wrong."""
    failed = {}
    for r in results:
        missing = [n for n in r.job.outputs if n not in r.files]
        if r.rc != 0:
            failed[r.job.name] = f"exit {r.rc}: {r.error.strip()[-2000:]}"
        elif missing:
            failed[r.job.name] = f"missing outputs {missing}"
    if failed:
        return failed
    recorded = digests.get(workload.name, {})
    for r in results:
        if (seed == DEFAULT_SEED or not r.job.seeded) and \
                recorded.get(r.job.name) != digest_of(r):
            failed[r.job.name] = "output differs from the recorded digest"
    try:
        problems = workload.check({r.job.name: r for r in results}, seed)
    except Exception:  # malformed output: no job of the pass is trusted
        why = "output check raised: " + traceback.format_exc(limit=1)
        return {r.job.name: why for r in results}
    for name, problem in problems:
        failed.setdefault(name, problem)
    return failed


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import networkx
    return {"python": sys.version.split()[0], "networkx": networkx.__version__,
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store the outputs' digests at the default seed")
    args = ap.parse_args(argv)

    needed = (ROOT / "src" / "contactgeom" / "__init__.py",
              ROOT / "tests" / "instances.py")
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"perfbench: missing {', '.join(absent)}; run it from a "
              "contactgeom checkout", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        print(f"perfbench: digests are recorded at seed {DEFAULT_SEED}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    workload = WORKLOADS[args.workload]
    jobs = workload.jobs(args.seed)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        os.chdir(work)
        setups = []
        while len(setups) < SETUP_REPEATS and sum(setups) < SETUP_BUDGET_S:
            api = None  # drop the previous import so set-up can free it
            seconds, api = set_up(workload, args.seed)
            setups.append(seconds)
        env = environment()

        passes = []
        started = time.perf_counter()
        while not passes or (not args.trace and
                             time.perf_counter() - started < args.seconds):
            passes.append(run_pass(api, jobs))
        if args.trace:
            tracer = Tracer()
            modules = {n: m for n, m in sys.modules.items()
                       if n.split(".")[0] == "contactgeom"}
            uninstall = tracer.install(modules)
            try:
                passes.append(run_pass(api, jobs, tracer))
            finally:
                uninstall()
            tracer.counts["cli.report_bytes"] += sum(
                len(b) for r in passes[-1] for b in r.files.values())

        if args.record_digests:
            digests[workload.name] = {r.job.name: digest_of(r)
                                      for r in passes[0]}
            DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True)
                               + "\n")
        failed = [failures(workload, p, args.seed, digests) for p in passes]
        for name, why in sorted({k: v for f in failed
                                 for k, v in f.items()}.items()):
            print(f"FAIL {name}: {why}", file=sys.stderr)
        for r in passes[-1]:
            print(f"job {r.job.name} rc={r.rc} {r.seconds:.3f}s",
                  file=sys.stderr)
        attempted = sum(len(p) for p in passes)
        n_failed = sum(len(f) for f in failed)

        walls = [sum(r.seconds for r in p) for p in passes]
        if args.trace:
            metrics = tracer.metrics()
            metrics["trace.wall_s"] = metric(walls[-1], "s")
            metrics["trace.overhead_s"] = metric(walls[-1] - walls[0], "s")
            traces = ROOT / ".bench_traces"
            traces.mkdir(exist_ok=True)
            tracer.write_spans(
                traces / f"{args.workload}-seed{args.seed}.jsonl", env)
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "wall_s": metric(statistics.median(walls), "s"),
                "setup_s": metric(statistics.median(setups), "s"),
                "peak_rss_mib": metric(peak_kib / 1024, "MiB"),
                "ok_frac": metric((attempted - n_failed) / attempted,
                                  "ratio"),
            }
        job_max = max(r.seconds for p in passes for r in p)
        print(f"passes={len(passes)} setups={len(setups)} "
              f"job_max_s={job_max:.3f} fail_frac={n_failed / attempted:.4f}",
              file=sys.stderr)
        print("# env " + json.dumps(env, sort_keys=True))
        print(json.dumps({"correct": n_failed == 0, "attempted": attempted,
                          "failed": n_failed, "metrics": metrics}))
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
