"""Run one onerel benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cover-z --seed 1 --seconds 30 --trace 0

A closed loop sends one job at a time through the in-process
``onerel.cli.main(argv)``; whole passes over the seeded job list repeat, and
the run ends at the pass boundary nearest to ``--seconds``, after three
passes at least.  With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` spans are installed around every layer and the
per-layer rollup is reported instead.  Every job's output is checked after
the timed loop.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)         # import perfbench as a package, not its files
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import gen  # noqa: E402

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
TAIL_BEYOND = 10      # jobs that must lie beyond the reported tail percentile
MIN_PASSES = 3        # keeps job_tail_ms among the largest covers (see gen.py)


def _import_cli():
    try:
        import onerel.cli as cli
    except ImportError as exc:
        raise SystemExit(f"cannot import onerel from {ROOT / 'src'}: {exc}")
    if ROOT / "src" not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"onerel was imported from {cli.__file__}, not {ROOT / 'src'}")
    return cli


def _write_files(plan):
    for rel, text in plan.files.items():
        path = ROOT / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _run_job(cli, argv):
    """One closed-loop job: (seconds, (status, stdout, stderr))."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception:   # a traceback: recorded as the job's outcome
        status = "raised"
        err.write(traceback.format_exc())
    return time.perf_counter() - start, (status, out.getvalue(), err.getvalue())


class Loop:
    """Runs passes over the job list and keeps latencies and distinct outcomes."""

    def __init__(self, cli, jobs):
        self.cli, self.jobs = cli, jobs
        self.latencies = []
        self.outcomes = [Counter() for _ in jobs]
        self.attempted = 0

    def one_pass(self, record=True, on_job=None):
        start = time.perf_counter()
        for index, job in enumerate(self.jobs):
            if on_job:
                on_job(index)
            seconds, outcome = _run_job(self.cli, job.argv)
            self.outcomes[index][outcome] += 1
            self.attempted += 1
            if record:
                self.latencies.append(seconds)
        return time.perf_counter() - start


def _measure_setup(args):
    """Median wall time of fresh processes that do exactly the set-up.

    ``wait()`` without a timeout blocks in the kernel until the child exits;
    with a timeout it polls in steps of up to 50 ms, which would quantise the
    measurement.  A watchdog timer bounds the wait instead.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            status = child.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        if status != 0:
            raise SystemExit(f"set-up process failed with status {status}")
    return statistics.median(times)


def _check(loop, plan):
    """Check every distinct outcome; returns (failed, escapes, checker)."""
    from perfbench.checks import Checker
    checker = Checker()
    failed = escapes = 0
    reasons = Counter()
    for job, outcomes in zip(plan.jobs, loop.outcomes):
        for outcome, count in outcomes.items():
            verdict = checker.check(job, outcome)
            if verdict == "escape":
                escapes += count
                reasons[f"refusal escaped as a traceback: {' '.join(job.argv)}"] += count
            elif verdict != "ok":
                failed += count
                reasons[f"{verdict}: {' '.join(job.argv)}"] += count
    for reason, count in sorted(reasons.items()):
        print(f"check x{count}: {reason}")
    return failed, escapes, checker


def _print_profile(plan, checker):
    """Distribution of the cost-driving input properties over one pass."""
    values = defaultdict(list)
    for job in plan.jobs:
        for key, value in job.profile.items():
            values[key].append(value)
        if job.expect.get("check") == "complex":
            values["d2_nnz"].append(checker.reference(job.expect["cover"])["d2_nnz"])
    for key in sorted(values):
        vals = values[key]
        numeric = all(isinstance(v, int) for v in vals)
        if numeric and len(set(vals)) > 8:
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            text = (f"min {min(vals)}, q1 {q[0]:g}, median {q[1]:g}, q3 {q[2]:g}, "
                    f"max {max(vals)}")
        else:
            text = ", ".join(f"{v}: {c}" for v, c in sorted(Counter(vals).items(),
                                                             key=lambda kv: str(kv[0])))
        print(f"profile {key} ({len(vals)} jobs): {text}")


def _tail(latencies):
    """(ms, percentile) at the highest percentile with TAIL_BEYOND jobs beyond."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k] * 1e3, 100.0 * (k + 1) / len(ordered)


def _untraced(args, cli, plan):
    loop = Loop(cli, plan.jobs)
    walls = []
    # Stop at the pass boundary nearest to --seconds, so that a pass time close
    # to a divisor of it does not flip the run between n and n + 1 passes.
    while len(walls) < MIN_PASSES or sum(walls) + walls[-1] / 2 < args.seconds:
        walls.append(loop.one_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = _measure_setup(args)
    failed, escapes, checker = _check(loop, plan)
    _print_profile(plan, checker)
    tail_ms, percentile = _tail(loop.latencies)
    print(f"jobs: {loop.attempted} over {len(walls)} passes of {len(plan.jobs)}; "
          f"job_tail_ms is p{percentile:.2f} with {TAIL_BEYOND} jobs beyond it; "
          f"failed {failed}, refusal escapes {escapes}")
    metrics = {
        "jobs_per_s": (loop.attempted / sum(walls), "jobs/s"),
        "job_p50_ms": (statistics.median(loop.latencies) * 1e3, "ms"),
        "job_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return loop.attempted, failed, metrics


def _traced(args, cli, plan):
    from perfbench import spans
    loop = Loop(cli, plan.jobs)
    warm_up = loop.one_pass(record=False)    # lazy state fills untraced
    tracer = spans.Tracer()
    traced, untraced = [], []
    job_ms = 0.0
    base = len(plan.jobs)

    def set_job(index):
        tracer.job = (len(traced) + 1) * base + index

    while not traced or warm_up + sum(traced) + sum(untraced) < args.seconds:
        tracer.install()
        try:
            before = len(loop.latencies)
            traced.append(loop.one_pass(on_job=set_job))
            job_ms += sum(loop.latencies[before:]) * 1e3
        finally:
            tracer.uninstall()
        untraced.append(loop.one_pass(record=False))
    failed, escapes, checker = _check(loop, plan)
    _print_profile(plan, checker)
    passes = len(traced)
    metrics, totals = spans.layer_metrics(
        tracer, passes, sum(traced) / passes, sum(untraced) / len(untraced), job_ms)
    metrics["failed_ratio"] = (failed / loop.attempted, "ratio")
    metrics["cli.refusal_escapes"] = (escapes / (len(untraced) + passes + 1), "count")
    top = sorted(totals.items(), key=lambda kv: -kv[1]["self_ms"])[:12]
    print(f"traced passes {passes}, untraced passes {len(untraced)}; "
          "largest self times per pass:")
    for name, entry in top:
        print(f"  {name:40s} self {entry['self_ms'] / passes:10.2f} ms  "
              f"calls {entry['calls'] / passes:10.1f}")
    path = ROOT / gen.WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return loop.attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate and write the inputs, then exit")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    cli = _import_cli()
    if not args.setup_only:
        shutil.rmtree(ROOT / gen.WORK_DIR, ignore_errors=True)
    plan = gen.build(args.workload, args.seed)
    _write_files(plan)
    if args.setup_only:
        return 0
    print(f"onerel benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}, "
          f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
          f"in-process setup {time.perf_counter() - _PROCESS_T0:.3f} s")
    run = _traced if args.trace else _untraced
    attempted, failed, metrics = run(args, cli, plan)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
