"""zetalab benchmark: one closed-loop client running a seeded stream of CLI jobs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zeros-cold --seed 1 --seconds 20 --trace 0

Each job is one ``zetalab`` subcommand, run in this process through
``zetalab.cli.main(argv)`` with ``--workers 1``, into a fresh temporary output
directory and a fresh ``ZETALAB_CACHE``.  After the job an untimed check
compares its output with an independent route (see ``workloads.py``).
Job times are wall times scaled to a nominal host speed (see ``HostRef``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same stream
untraced and then traced, and reports the per-layer metrics.  Every metric is
printed by name with its unit; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of
every job (argv, outcome, time, check) and, when traced, every span goes to
``perfbench/results/``.
"""

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SETUP_PROBES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=("zeros-cold", "zeta-table", "haar-mc", "cross-checks"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0, help="work per run, in seconds on the 2-core box the blocks were sized on")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def nproc():
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """At most nproc BLAS threads; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        cap = nproc()
        os.environ[var] = str(min(int(current), cap) if current.isdigit() and int(current) > 0 else cap)


def setup(args):
    """Import the CLI and build the workload: the work counted in setup_s."""
    import workloads
    from zetalab import cli

    ctx = workloads.Context()
    jobs = workloads.make_stream(args.workload, args.seed, args.seconds, ctx)
    return cli, ctx, jobs


def probe_setup_s(args, host_ref):
    """(wall, host factor): seconds from starting a fresh process until its first job is
    ready, and the host factor from the reference kernel timed here just before the
    start and by the fresh process just after it is ready."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    before = host_ref()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        after = proc.stdout.read().split()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"set-up probe failed (exit {proc.returncode})")
    return ready, statistics.mean([before] + [float(t) for t in after]) / HostRef.NOMINAL_S


def _release_memory():
    """Collect garbage and hand free heap back to the OS between jobs, untimed, so that
    peak RSS reflects the jobs' live memory rather than the heap left by earlier ones."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: nothing to trim
        pass


def _bytes_under(path):
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) if path.exists() else 0


class HostRef:
    """A fixed reference kernel whose wall time tracks how fast this CPU runs right now.

    The box shares its cores with other machines: the same work takes 20-40 % longer
    or shorter from one second to the next, and each CPU drifts on its own.  The kernel
    mixes what the jobs do (LAPACK on small matrices, complex exp over an outer
    product, a Python loop).  It runs before and after every job and, in untraced
    passes, every ``INTERVAL_S`` inside it, so that each job's wall time can be divided
    by the host speed measured beside and during it.
    """

    NOMINAL_S = 0.025  # the kernel's time on a quiet 2-core x86-64 box
    INTERVAL_S = 0.5

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.mats = rng.standard_normal((24, 48, 48))
        self.s = 1j * np.linspace(100.0, 400.0, 24)
        self.logm = np.log(np.arange(1.0, 8001.0))
        self()  # warm-up

    def __call__(self):
        np = self.np
        start = time.perf_counter()
        np.linalg.qr(self.mats)
        np.linalg.eigvals(self.mats[:8])
        np.exp(-np.multiply.outer(self.s, self.logm)).sum(axis=-1)
        x = 0
        for i in range(120_000):
            x += i * i
        return time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self, on):
        """While the body runs, time the kernel every ``INTERVAL_S`` of wall time from a
        SIGALRM handler; yields the list of (when, kernel time, pause) it fills."""
        samples = []
        if not on:
            yield samples
            return

        def handler(signum, frame):
            start = time.perf_counter()
            kernel = self()
            samples.append((start, kernel, time.perf_counter() - start))

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def run_stream(cli, jobs, ctx, tmp_root, host_ref, tracer=None):
    """Run every job, one at a time; time each, then check it untimed.

    A job's ``job_s`` is its wall time ``wall_s`` (less the pauses for in-job samples)
    divided by the host speed factor: the mean of the reference kernel's times just
    before, during and just after the job, over ``HostRef.NOMINAL_S``.
    """
    records = []
    cache_before = os.environ.get("ZETALAB_CACHE")
    try:
        for i, job in enumerate(jobs):
            _release_memory()
            ref = host_ref()
            tmp = Path(tempfile.mkdtemp(prefix=f"job{i:03d}-", dir=tmp_root))
            (tmp / "cache").mkdir()
            os.environ["ZETALAB_CACHE"] = str(tmp / "cache")
            argv = ["--output-dir", str(tmp / "out")] + [a.replace("{tmp}", str(tmp)) for a in job.argv]
            rc, error, exc_tb = None, None, None
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    host_ref.sampling(tracer is None) as inside:
                if tracer is not None:
                    tracer.job = i
                start = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except Exception as exc:  # the stream goes on; the job counts as failed
                    error, exc_tb = f"{type(exc).__name__}: {exc}", exc.__traceback__
                end = time.perf_counter()
                if tracer is not None:
                    tracer.job = None
            inside = [(kernel, pause) for when, kernel, pause in inside if when < end]
            rec = {"job": i, "kind": job.kind, "argv": job.argv, "params": job.params,
                   "wall_s": end - start - sum(p for _, p in inside), "ref_s": [ref] + [r for r, _ in inside],
                   "rc": rc, "error": error, "bytes_written": _bytes_under(tmp / "out")}
            if error is None and rc == 0:
                verdict = job.check(job, tmp, ctx)
                rec.update(check_ok=verdict.ok, check=verdict.detail, mc=verdict.mc)
            else:
                rec.update(check_ok=None, check="not run", mc={}, stderr=err.getvalue()[-2000:],
                           traceback="".join(traceback.format_tb(exc_tb)) if exc_tb else None)
            rec["failed"] = rec["check_ok"] is not True
            records.append(rec)
            shutil.rmtree(tmp)
        afters = [r["ref_s"][0] for r in records[1:]] + [host_ref()]
        for rec, after in zip(records, afters):
            rec["host_factor"] = statistics.mean(rec["ref_s"] + [after]) / HostRef.NOMINAL_S
            rec["job_s"] = rec["wall_s"] / rec["host_factor"]
    finally:
        if cache_before is None:
            os.environ.pop("ZETALAB_CACHE", None)
        else:
            os.environ["ZETALAB_CACHE"] = cache_before
    return records


def tail(times):
    """(value, percentile): the time at the highest percentile with at least 10 jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def verdict(records):
    """(correct, failed): outputs that fail a deterministic check, a non-zero exit, an
    unexpected exception or more MC misses than chance allows make the run incorrect.
    A MissingZeroError is a known defect of the zero pipeline: it fails the job
    but produces no output to be wrong."""
    import workloads

    failed = sum(r["failed"] for r in records)
    misses = sum(r["mc"].get("misses", 0) for r in records)
    wrong = [r for r in records if r["check_ok"] is False and not r["mc"]]
    bad_exit = [r for r in records if r["error"] is None and r["rc"] != 0]
    unexpected = [r for r in records if r["error"] and not r["error"].startswith("MissingZeroError")]
    correct = not wrong and not bad_exit and not unexpected and misses <= workloads.MC_CHANCE_MISSES
    return correct, failed


def mc_s_to_1pct(records):
    """Median over MC jobs of wall x (relative SE / 1 %)^2: projected time to 1 % relative SE."""
    vals = [r["job_s"] * (r["mc"]["rel_se"] / 0.01) ** 2 for r in records if r["mc"]]
    return statistics.median(vals) if vals else 0.0


def environment():
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        "nproc": nproc(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "zetalab" / "cli.py").is_file() or not (ROOT / "tests" / "data").is_dir():
        print(f"no zetalab source tree (src/zetalab, tests/data) under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    cap_blas_threads()
    if args.probe:
        setup(args)
        print("ready", flush=True)
        host_ref = HostRef()
        print(host_ref(), host_ref())
        return 0

    host_ref = HostRef()
    setup_samples = [probe_setup_s(args, host_ref) for _ in range(SETUP_PROBES)]
    cli, ctx, jobs = setup(args)
    import tracing

    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    tmp_base = BENCH / "tmp"
    tmp_base.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=tmp_base))
    try:
        records = run_stream(cli, jobs, ctx, tmp_root, host_ref)
        run_s = sum(r["job_s"] for r in records)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced, spans, run_s_traced = [], [], 0.0
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_stream(cli, jobs, ctx, tmp_root, host_ref, tracer)
            finally:
                tracer.uninstall()
            spans = tracer.spans
            run_s_traced = sum(r["job_s"] for r in traced)
            wall_s_traced = sum(r["wall_s"] for r in traced)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            tmp_base.rmdir()

    correct, failed = verdict(records)
    times = [r["job_s"] for r in records]
    tail_s, tail_pct = tail(times)
    e2e = {
        "setup_s": (statistics.median(wall / factor for wall, factor in setup_samples), "s"),
        "run_s": (run_s, "s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    layer = {
        "fail_ratio": (failed / len(records), "ratio"),
        "mc_s_to_1pct": (mc_s_to_1pct(records), "s"),
    }
    if args.trace:
        layer.update(tracing.layer_metrics(spans, wall_s_traced))
        layer["cli.bytes_written"] = (sum(r["bytes_written"] for r in traced), "bytes")
        layer["bench.trace_overhead_ratio"] = (run_s_traced / run_s - 1.0, "ratio")

    for name, (value, unit) in {**e2e, **layer}.items():
        note = ""
        if name == "run_s":
            factors = [r["host_factor"] for r in records]
            note = (f"  (wall {sum(r['wall_s'] for r in records):.6g} s; host factor"
                    f" {min(factors):.3g}-{max(factors):.3g}, median {statistics.median(factors):.3g})")
        elif name == "job_s_tail":
            note = f"  (p{tail_pct:.1f} of {len(times)} jobs)"
        elif name == "fail_ratio":
            note = f"  ({failed} of {len(records)} jobs failed)"
        print(f"{name}: {value:.6g} {unit}{note}")
    for r in records:
        if r["failed"]:
            print(f"failed job {r['job']}: {' '.join(r['argv'])}: {r['error'] or r['check']}")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "setup_samples_s_and_host_factor": setup_samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **layer}.items()},
        "jobs": records, "traced_jobs": traced,
        "span_fields": ["name", "start", "end", "parent", "job", "work", "error"], "spans": spans,
    }
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, default=str) + "\n")
    print(f"record: {out.relative_to(ROOT)}")

    shown = layer if args.trace else e2e
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
