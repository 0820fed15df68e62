"""progvar benchmark: closed-loop batch runs of seeded CLI job lists.

    python3 bench/run.py --workload main-char --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client in one fresh process runs the jobs of a workload back to back.
Each job is a `progvar.cli.main([...])` call with `--format json` whose
output is captured and checked (see checks.py).  A run does, in order:

1. set-up: import progvar and build the default 1e7 PrimeTable, once in this
   process and SETUP_CHILDREN more times in fresh child processes;
2. a warm-up round of the tiny-size job list, checked but not timed;
3. with --trace 0, timed rounds for about --seconds, each round with its own
   seeded jobs and checked before the next; with --trace 1, round 0 untraced
   and then round 0 traced, whose outputs must be byte-identical.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json for
--trace 0, the per-layer metrics for --trace 1.  Lines before it list every
metric with its unit, the sample count behind each median and the failed-job
fraction with its base.  The traced run also writes its spans to
.bench_out/spans-<workload>-<seed>.json.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before anything imports numpy; children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PROGVAR_SIEVE_LIMIT", None)

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 0
SETUP_CHILDREN = 4

sys.path[:0] = [HERE, SRC]
import workloads  # noqa: E402  (stdlib only; progvar is imported by set-up)

# The set-up a user pays before the first job, timed from inside a process.
SETUP_PROBE = """
import resource, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import progvar.sieve
progvar.sieve.default_table()
print(time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _setup_here(tracer=None):
    """Import progvar and build the default table in this process; returns
    (seconds, MB).  A given tracer is installed around the table build."""
    t0 = time.perf_counter()
    import progvar.sieve
    if tracer:
        tracer.install()
        with tracer.job("setup"):
            progvar.sieve.default_table()
        tracer.uninstall()
    else:
        progvar.sieve.default_table()
    return time.perf_counter() - t0, _rss_mb()


def _setup_child() -> tuple[float, float]:
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC], check=True,
                         capture_output=True, text=True, timeout=120).stdout.split()
    return float(out[0]), float(out[1]) / 1024


def run_round(jobs, tracer=None):
    """Run jobs back to back; returns (wall seconds, outputs, errors).

    Only the CLI calls are inside the timed interval.  An exception or a
    non-zero exit is recorded as the job's error."""
    from progvar import cli

    outputs, errors = {}, {}
    t0 = time.perf_counter()
    for job in jobs:
        buf, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err), \
                    (tracer.job(job.id) if tracer else contextlib.nullcontext()):
                rc = cli.main(job.argv)
            if rc != 0:
                errors[job.id] = f"exit code {rc}: {err.getvalue().strip()}"
        except Exception:  # a failing job is counted, the run goes on
            errors[job.id] = traceback.format_exc()
        outputs[job.id] = buf.getvalue()
    return time.perf_counter() - t0, outputs, errors


def check_round(jobs, outputs, errors, reference, expected=None) -> list[str]:
    """One line `job-id: problems` per failed job.  `expected` holds outputs
    the jobs must reproduce byte for byte."""
    import checks

    failures = []
    for job in jobs:
        if job.id in errors:
            failures.append(f"{job.id}: {errors[job.id]}")
            continue
        summary, problems = checks.check(job, outputs[job.id])
        if reference is not None and job.id in reference:
            problems += checks.compare(summary, reference[job.id])
        if expected is not None and outputs[job.id] != expected[job.id]:
            problems.append("output differs from the untraced run")
        if problems:
            failures.append(f"{job.id}: " + "; ".join(problems))
    return failures


def load_reference(workload, seed, size):
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)[size][workload]


def _metric_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(workload, seed, seconds, trace, size="full"):
    """One benchmark run; returns (result dict, report lines, failures)."""
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
    samples = [] if trace else [_setup_child() for _ in range(SETUP_CHILDREN)]
    samples.append(_setup_here(tracer))
    setup_s, setup_rss = zip(*samples)

    reference = load_reference(workload, seed, size)
    attempted, failures = 0, []

    def play(round_no, job_size, tracer=None):
        nonlocal attempted
        jobs = workloads.jobs(workload, seed, round_no, job_size)
        attempted += len(jobs)
        return (jobs, *run_round(jobs, tracer))

    def judge(label, played, ref, expected=None):
        jobs, _, outputs, errors = played
        failures.extend(f"{label} {line}"
                        for line in check_round(jobs, outputs, errors, ref, expected))

    judge("warm-up", play(0, "tiny"), None)  # lazy imports, first allocations
    lines = []
    if trace:
        plain = play(0, size)
        tracer.install()
        try:
            traced = play(0, size, tracer)
        finally:
            tracer.uninstall()
        judge("untraced", plain, reference)
        judge("traced", traced, None, plain[2])
        names = _metric_names("per_layer")
        values = spans.layer_metrics(tracer.spans, [n for n in names if not n.startswith("trace.")])
        values["trace.overhead_frac"] = traced[1] / plain[1] - 1
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json"))
        lines.append(f"round 0 wall: untraced {plain[1]:.4f} s, traced {traced[1]:.4f} s "
                     f"(1 sample each)")
        counts = {}
    else:
        # Start another round while it is expected to end less than half a
        # round past --seconds of timed work, so a run measures about
        # --seconds in whole rounds.  Each round's outputs are checked, and
        # then dropped, before the next round.
        walls = []
        while not walls or sum(walls) + 0.5 * statistics.mean(walls) < seconds:
            played = play(len(walls), size)
            judge(f"round {len(walls)}", played, reference)
            walls.append(played[1])
        names = _metric_names("end_to_end")
        values = {"setup_s": statistics.median(setup_s),
                  "setup_rss_mb": statistics.median(setup_rss),
                  "wall_s": statistics.median(walls),
                  "peak_rss_mb": _rss_mb()}
        counts = {"setup_s": len(setup_s), "setup_rss_mb": len(setup_rss),
                  "wall_s": len(walls), "peak_rss_mb": 1}
        lines.append("round walls (s): " + " ".join(f"{w:.4f}" for w in walls))
    metrics = {n: {"value": values[n], "unit": u} for n, u in names.items()}
    for n, m in metrics.items():
        basis = f"median of {counts[n]}" if counts.get(n, 1) > 1 else "1 sample"
        lines.append(f"{n:<48} {m['value']:>14.6g} {m['unit']:<6} {basis}")
    lines.append(f"failed_frac = {len(failures)}/{attempted} jobs attempted "
                 f"(warm-up included) = {len(failures) / attempted:.4g}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, lines, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every job, for the self-tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "progvar", "__init__.py")):
        print(f"bench: no progvar sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        # One fresh process per workload, as the single-workload runs get.
        code = 0
        for w in workloads.WORKLOADS:
            print(f"== {w}", flush=True)
            rc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace), "--size", args.size]).returncode
            code = code or rc
        return code
    result, lines, failures = run(args.workload, args.seed, args.seconds, args.trace, args.size)
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
