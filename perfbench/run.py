#!/usr/bin/env python3
"""The hsplab benchmark: seeded workloads of real CLI jobs, answer-checked.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 50 --trace 0

Run it from the root of the repository.  Workloads (see workloads.py):
`analytic`, `enumerative` and `small-jobs`.  BENCHMARK.json lists only the
first two, with 50 s runs: on a shared 2-vCPU host the speed swings by 10-20%
between 30 s windows, and the time limit for all runs allows 50 s runs only
for two workloads.  `small-jobs` stays runnable by hand.

--trace 0 (end to end).  Each job is its own `python -m hsplab.cli ...`
process, run one at a time.  Passes over the workload's jobs repeat while the
next one fits into --seconds (at least one).  Every pass draws a new job order
and new point relabellings of its group files from the seed.  Metrics are
medians over passes:
  wall_s       wall time of one pass
  job_s.p50    median job wall time within a pass
  job_s.max    slowest job of a pass
  cpu_s        user plus sys CPU of the pass's job processes
  peak_rss_mb  largest max-RSS of a single job process in the pass (wait4)
  setup_s      median over fresh processes that import hsplab and resolve
               every distinct input of the workload (setup_probe.py)
A job fails if it exits non-zero, passes its timeout, or reports an answer
that differs from references.json.  fail_frac (failed over attempted) is
printed with the metrics and carried by the `failed` and `attempted` fields;
it is not an end-to-end metric because it is 0 on a correct program.

--trace 1 (per layer).  The same jobs are replayed in this process through
`hsplab.cli.main`, with every cache of the program cleared before each job as
a fresh process would have it.  Untraced and traced passes alternate; the
traced ones run with timing wrappers around the public functions of each
layer (tracing.py) and give the per-layer metrics, medians over traced passes.
trace.overhead_frac is (traced minus untraced pass time) over untraced.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The results (seed, environment, every
job with its answer check and report digest) go to perfbench/out/, and the
spans of a traced run to a trace file next to them.  The benchmark exits 2
without a result when the program's sources are not there.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import answers  # noqa: E402
import workloads  # noqa: E402

REL_WORK = f"{BENCH.name}/work"
WORK = ROOT / REL_WORK
OUT = BENCH / "out"
SRC = ROOT / "src"

SETUP_REPS = 5
JOB_TIMEOUT_S = 60.0
# Stop starting jobs after this long, so that a run ends within 180 s even
# when jobs hang.
DEADLINE_S = 150.0


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"
    return out.stdout.strip()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "git_commit": _git_commit(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# end to end: one process per job
# ---------------------------------------------------------------------------


def run_process(argv: list, timeout: float) -> dict:
    """Run one child to completion; wall time, its own rusage, its stdout."""
    out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
    killed = []

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=out, stderr=err)

        def kill():
            # os.kill, not proc.kill: Popen would reap the child and take its
            # rusage from the wait4 below.
            try:
                os.kill(proc.pid, signal.SIGKILL)
                killed.append(True)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "returncode": proc.returncode,
        "timed_out": bool(killed),
        "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
        "stderr": err_path.read_text(encoding="utf-8", errors="replace")[-2000:],
    }


def measure_setup(workload: str, deadline: float) -> tuple:
    """Median set-up time over fresh processes, and the kernel backend."""
    argv = [sys.executable, str(BENCH / "setup_probe.py")] + workloads.distinct_inputs(workload, REL_WORK)
    times, backend = [], None
    for rep in range(SETUP_REPS + 1):  # the first one warms the file cache
        res = run_process(argv, min(JOB_TIMEOUT_S, deadline - time.perf_counter()))
        if res["returncode"] != 0:
            raise RuntimeError(f"set-up probe failed: {res['stderr']}")
        probe = json.loads(res["stdout"].strip().splitlines()[-1])
        backend = probe["kernel_backend"]
        if rep:
            times.append(probe["setup_s"])
    return statistics.median(times), times, backend


def run_pass_processes(jobs: list, references: dict, deadline: float, pass_no: int) -> dict:
    records = []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            records.append(_record(job, pass_no, i, None, False, None, "not started: run deadline"))
            continue
        res = run_process([sys.executable, "-m", "hsplab.cli", *job.argv], min(JOB_TIMEOUT_S, remaining))
        if res["timed_out"]:
            ok, digest, reason = False, None, "timed out"
        else:
            ok, digest, reason = answers.check(job.key, res["returncode"], res["stdout"], references)
        if not ok and res["stderr"]:
            reason += f" | stderr: {res['stderr'].strip()[-300:]}"
        records.append(_record(job, pass_no, i, res, ok, digest, reason))
    wall = time.perf_counter() - t0
    done = [r for r in records if r["wall_s"] is not None]
    walls = [r["wall_s"] for r in done]
    return {
        "wall_s": wall,
        "job_s.p50": statistics.median(walls) if walls else 0.0,
        "job_s.max": max(walls, default=0.0),
        "cpu_s": sum(r["cpu_s"] for r in done),
        "peak_rss_mb": max((r["rss_mb"] for r in done), default=0.0),
        "jobs": records,
    }


def _record(job, pass_no, i, res, ok, digest, reason) -> dict:
    rec = {"pass": pass_no, "job": f"p{pass_no}-j{i}", "key": job.key, "argv": list(job.argv),
           "ok": ok, "reason": reason, "digest": digest,
           "wall_s": None, "cpu_s": None, "rss_mb": None, "returncode": None}
    if res is not None:
        for k in ("wall_s", "cpu_s", "rss_mb", "returncode"):
            rec[k] = res[k]
    return rec


def _another(t_measure: float, t_last: float, seconds: float, deadline: float) -> bool:
    """Whether one more pass, as long as the last one, ends within `seconds`."""
    now = time.perf_counter()
    return now + (now - t_last) <= min(t_measure + seconds, deadline)


def end_to_end(args, references: dict, t_start: float) -> dict:
    deadline = t_start + DEADLINE_S
    rng = random.Random(args.seed)
    jobs = workloads.materialize_pass(args.workload, rng, WORK, REL_WORK)
    setup_s, setup_all, backend = measure_setup(args.workload, deadline)
    passes = []
    t_measure = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        passes.append(run_pass_processes(jobs, references, deadline, len(passes)))
        if not _another(t_measure, t_pass, args.seconds, deadline):
            break
        jobs = workloads.materialize_pass(args.workload, rng, WORK, REL_WORK)
    metrics = {
        name: statistics.median(p[name] for p in passes)
        for name in ("wall_s", "job_s.p50", "job_s.max", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = setup_s
    units = {"wall_s": "s", "job_s.p50": "s", "job_s.max": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    return {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "jobs": [r for p in passes for r in p["jobs"]],
        "passes": [{k: v for k, v in p.items() if k != "jobs"} for p in passes],
        "setup_s_all": setup_all,
        "kernel_backend": backend,
    }


# ---------------------------------------------------------------------------
# per layer: in-process replay, untraced and traced
# ---------------------------------------------------------------------------


def _clear_program_caches() -> None:
    """Empty every module-level functools cache of the program."""
    for name, module in list(sys.modules.items()):
        if name == "hsplab" or name.startswith("hsplab."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def _cache_info():
    characters = sys.modules["hsplab.characters"]
    info = getattr(characters, "character_cache_info", None)
    return info() if info is not None else None


def run_pass_inprocess(cli, jobs, references, pass_no: int, tracer=None) -> dict:
    records = []
    stats = {"cache_hits": 0, "cache_misses": 0}
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        _clear_program_caches()
        before = _cache_info()
        if tracer is not None:
            tracer.job = f"p{pass_no}-j{i}"
            span = tracer.begin("cli.main")
        out = io.StringIO()
        tj = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(job.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash in the program is a failed job, not a crashed benchmark
            rc = 1
            out.write(traceback.format_exc())
        finally:
            if tracer is not None:
                tracer.end(span)
        wall = time.perf_counter() - tj
        after = _cache_info()
        if before is not None and after is not None:
            stats["cache_hits"] += after.hits - before.hits
            stats["cache_misses"] += after.misses - before.misses
        ok, digest, reason = answers.check(job.key, rc, out.getvalue(), references)
        rec = _record(job, pass_no, i, None, ok, digest, reason)
        rec.update(wall_s=wall, returncode=rc, traced=tracer is not None)
        records.append(rec)
    return {"wall_s": time.perf_counter() - t0, "jobs": records, **stats}


def per_layer(args, references: dict, t_start: float) -> dict:
    import tracing

    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    from hsplab import cli  # noqa: F401  (imports every layer)

    kernels = sys.modules.get("hsplab._kernels")
    backend = kernels.backend() if hasattr(kernels, "backend") else None
    deadline = t_start + DEADLINE_S
    rng = random.Random(args.seed)
    pairs = []
    all_jobs = []
    all_spans = []
    jobs = workloads.materialize_pass(args.workload, rng, WORK, REL_WORK)
    # An untimed pass first pays the program's lazy imports (sympy) and this
    # process's first-use costs, which would otherwise land in one timed pass.
    run_pass_inprocess(cli, jobs, references, -1)
    t_measure = time.perf_counter()
    while True:
        t_pair = time.perf_counter()
        pass_no = len(pairs)
        if pass_no:
            jobs = workloads.materialize_pass(args.workload, rng, WORK, REL_WORK)
        tracer = tracing.Tracer()
        result = {}
        for kind in (("plain", "traced") if pass_no % 2 == 0 else ("traced", "plain")):
            if kind == "traced":
                tracer.install()
                try:
                    result[kind] = run_pass_inprocess(cli, jobs, references, pass_no, tracer)
                finally:
                    tracer.uninstall()
            else:
                result[kind] = run_pass_inprocess(cli, jobs, references, pass_no)
        pairs.append(_layer_metrics(tracing, tracer, result["plain"]["wall_s"], result["traced"]))
        all_jobs += result["plain"]["jobs"] + result["traced"]["jobs"]
        all_spans += tracer.span_records()
        if not _another(t_measure, t_pair, args.seconds, deadline):
            break
    names = list(pairs[0]["metrics"])
    metrics = {
        k: {"value": statistics.median(p["metrics"][k]["value"] for p in pairs),
            "unit": pairs[0]["metrics"][k]["unit"]}
        for k in names
    }
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "spans": all_spans}) + "\n",
                          encoding="utf-8")
    return {
        "metrics": metrics,
        "jobs": all_jobs,
        "passes": [{k: v for k, v in p.items() if k != "metrics"} for p in pairs],
        "dropped": pairs[0]["dropped"],
        "kernel_backend": backend,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }


def _layer_metrics(tracing, tracer, plain_wall: float, traced: dict) -> dict:
    busy = tracer.busy()
    values, units = {}, {}

    def put(name, value, unit):
        values[name] = value
        units[name] = unit

    for stem in tracing.TIMED:
        put(f"{stem}_s", busy.get(stem, 0.0), "s")
    for name in tracing.COUNTERS:
        put(name, tracer.counts.get(name, 0), "count")
    kernel_rows = sum(tracer.counts.get(f"kernels.{k}_rows", 0) for k in ("census_rows", "canon_batch", "fix_count"))
    kernel_time = sum(busy.get(f"kernels.{k}", 0.0) for k in ("census_rows", "canon_batch", "fix_count"))
    put("kernels.rows_per_s", kernel_rows / kernel_time if kernel_time else 0.0, "1/s")
    hits, misses = traced["cache_hits"], traced["cache_misses"]
    put("characters.cache_hits", hits, "count")
    put("characters.cache_misses", misses, "count")
    put("characters.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
    self_times = tracer.self_times()
    for layer in tracing.LAYERS:
        put(f"{layer}.self_s", self_times.get(layer, 0.0), "s")
    attributed = sum(self_times.values())
    put("trace.unattributed_s", traced["wall_s"] - attributed, "s")
    put("trace.overhead_frac", (traced["wall_s"] - plain_wall) / plain_wall, "ratio")
    dropped = dict(tracer.dropped)
    if _cache_info() is None:
        dropped["characters.cache_*"] = "hsplab.characters.character_cache_info does not exist"
    return {
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in values},
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced["wall_s"],
        "attributed_s": attributed,
        "dropped": dropped,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    if not (SRC / "hsplab" / "cli.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'hsplab'})", file=sys.stderr)
        return 2
    references = answers.load_references()
    answers.self_test(references)
    WORK.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)
    env = environment()
    result = (per_layer if args.trace else end_to_end)(args, references, t_start)
    env["loadavg_after"] = os.getloadavg()
    env["kernel_backend"] = result.pop("kernel_backend")
    jobs = result["jobs"]
    failed = sum(1 for r in jobs if not r["ok"])
    results = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "environment": env, "attempted": len(jobs), "failed": failed,
               "fail_frac": failed / len(jobs), **result}
    out_path = OUT / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(result['passes'])} "
          f"jobs={len(jobs)} env={json.dumps(env)}")
    for rec in jobs:
        if not rec["ok"]:
            print(f"# FAILED {rec['job']} {' '.join(rec['argv'])}: {rec['reason']}")
    for name, m in result["metrics"].items():
        print(f"# {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"# {'fail_frac':42s} {failed / len(jobs):.6g} ratio ({failed} of {len(jobs)} jobs)")
    if args.trace:
        for p in result["passes"]:
            print(f"# pass: untraced {p['plain_wall_s']:.3f} s, traced {p['traced_wall_s']:.3f} s, "
                  f"attributed to layers {p['attributed_s']:.3f} s, "
                  f"unattributed {p['traced_wall_s'] - p['attributed_s']:.3f} s")
        for stem, reason in result["dropped"].items():
            print(f"# dropped {stem}: {reason} (reported as 0)")
        print(f"# spans: {result['trace_file']}")
    print(f"# results: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
