"""splitbus benchmark: run one workload, check its outputs and print its metrics.

    python3 bench/run.py --workload freerun_private --seed 1 --seconds 55 --trace 0

Each training job runs in a fresh process (``bench/job.py``), one after
another, until ``--seconds`` of measuring have passed (at least
``MIN_RUNS`` jobs).  A job is one closed-loop training run: a worker takes
its next batch only when its in-flight window allows.  Inputs derive from
``--seed`` alone, so every job of one invocation trains on the same data.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each the
median over the untraced jobs.  ``--trace 1`` alternates untraced and
traced jobs and reports the per-layer metrics: medians over the traced
jobs, plus the serial reference and the tracing overhead (traced minus
untraced ``run_s``).  The serial reference runs once per invocation, outside
the measured loop, when the trace needs it or the workload is bit-exact.

Every job is checked; a failed check or a crashed job makes ``correct``
false and counts all of the job's batches as failed.  Human-readable lines
come first; the last line of standard output is the JSON result.  The full
record, with the environment and every job, goes to ``bench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread for this process and every job it starts; the machine's
# cores belong to the training threads.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB = os.path.join(HERE, "job.py")
MIN_RUNS = 3
# Job-level metrics printed on every invocation.  failed_batch_share is 0 at
# seed, so it is gated through the result's "failed" count, not as a metric.
E2E_PRINTED = ("train_rows_per_s", "run_s", "setup_s", "final_test_auc",
               "failed_batch_share", "peak_rss_mb")
# Every invocation must end within 180 s; stop starting jobs well before.
TIME_LIMIT_S = 165.0


def run_child(workload: str, seed: int, kind: str, timeout: float) -> dict | None:
    """Start one job and wait for it; None if it crashed, timed out or printed no result."""
    cmd = [sys.executable, JOB, "--workload", workload, "--seed", str(seed), "--kind", kind]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"# {kind} job timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"# {kind} job exited with code {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"# {kind} job printed no JSON result", file=sys.stderr)
        return None


def read_commit() -> str:
    """HEAD commit of the checkout when it is a git work tree, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "commit": read_commit(),
    }


def median_of(jobs: list[dict], key: str) -> float:
    return statistics.median(job[key] for job in jobs)


def check_job(job: dict, wl, ref: dict | None) -> list:
    """The job's own checks plus the cross-process bit-exactness check."""
    checks = list(job["checks"])
    if wl.bit_exact:
        same = ref is not None and job["losses_hex"] == ref["losses_hex"]
        detail = f"losses {job['losses_hex']} vs reference {ref['losses_hex'] if ref else None}"
        checks.append(["bit_exact_vs_reference", same, detail])
    return checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="splitbus benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # Exit through SystemExit on SIGTERM so subprocess.run kills and reaps the running job.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isdir(os.path.join(ROOT, "src", "splitbus")):
        print(f"no splitbus sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from job import WORKLOADS
    from stats import distribution, ratio

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    env = environment(args.seed)

    def remaining() -> float:
        return TIME_LIMIT_S - (time.perf_counter() - started)

    ref = None
    if args.trace or wl.bit_exact:
        ref = run_child(args.workload, args.seed, "reference", remaining())

    runs: list[dict] = []
    traced: list[dict] = []
    failures = 0  # jobs that crashed or printed nothing
    loop_start = time.perf_counter()
    iterations = 0
    kinds = ("run", "traced") if args.trace else ("run",)
    while True:
        for kind in kinds:
            job = run_child(args.workload, args.seed, kind, remaining())
            if job is None:
                failures += 1
            else:
                (traced if kind == "traced" else runs).append(job)
        iterations += 1
        elapsed = time.perf_counter() - loop_start
        per_iteration = elapsed / iterations
        if iterations >= MIN_RUNS and elapsed + per_iteration > args.seconds:
            break
        if per_iteration > remaining():
            break

    if not runs or (args.trace and (not traced or ref is None)):
        print("no job produced metrics; see the errors above", file=sys.stderr)
        return 1

    attempted = failed = 0
    correct = failures == 0
    failed_checks = []
    for job in runs + traced:
        batches = job["batches_completed"] + job["batches_skipped"]
        attempted += batches
        job["checks"] = check_job(job, wl, ref)
        bad = [c for c in job["checks"] if not c[1]]
        if bad:
            correct = False
            failed += batches
            failed_checks.extend(bad)
        else:
            failed += job["batches_skipped"]
    attempted += failures * wl.planned_batches()
    failed += failures * wl.planned_batches()

    epoch_walls = distribution([w for job in runs for w in job["epoch_wall_s"]])
    values = {name: median_of(runs, name) for name in E2E_PRINTED}
    if args.trace:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(job["layers"][name] for job in traced)
        skipped = sum(job["batches_skipped"] for job in runs)
        values.update({
            "reference.rows_per_s": ref["rows_per_s"],
            "runtime.rows_vs_reference": ratio(values["train_rows_per_s"], ref["rows_per_s"]),
            "runtime.failed_batch_share": ratio(
                skipped, sum(job["batches_completed"] for job in runs) + skipped),
            "trace.untraced_run_s": values["run_s"],
            "trace.overhead_s": median_of(traced, "run_s") - values["run_s"],
        })
        values.update({f"runtime.epoch_wall_s.{k}": v for k, v in epoch_walls.items()})

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(runs)} untraced, {len(traced)} traced, {failures} failed jobs")
    print(f"# why: {why.get(args.workload, 'not listed in BENCHMARK.json; run by hand')}")
    print(f"# env {json.dumps(env)}")
    per_job = {name: distribution([job[name] for job in runs]) for name in E2E_PRINTED}
    per_job["epoch_wall_s"] = epoch_walls
    for name, dist in per_job.items():
        tail = (f"p{dist['tail_pct']:g} {dist['tail']:.6g}" if dist["tail_pct"]
                else "no percentile with 10 samples beyond")
        unit = units.get(name, units.get(f"runtime.{name}", "s"))
        print(f"{name:<34} {dist['p50']:>14.6g} {unit:<8} (median; {tail}; n={dist['n']})")
    if args.trace:
        for name in sorted(values):
            if "." in name:
                print(f"{name:<34} {values[name]:>14.6g} {units[name]}")
    for name, ok, detail in failed_checks:
        print(f"# check {name} FAILED: {detail}")
    print(f"# checks: {'all passed' if correct else 'FAILED'}")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics missing from the benchmark: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    record = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, record), "w") as handle:
        json.dump({"env": env, "workload": args.workload, "reference": ref, "runs": runs,
                   "traced": traced, "values": values, "result": result}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
