"""Run one fadeup benchmark workload and print its metrics.

    python3 perfbench/run.py --workload infer_c256 --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one client in one process sends its next
request when the previous one has completed.  Requests are timed with
tracing off; ``--trace 1`` runs a separate traced phase instead and
reports per-layer numbers.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The environment, checks, request counts and ``error_rate``
go to ``<out>/<workload>-seed<n>-trace<t>.json``; a traced run writes its
spans beside it.  ``--smoke`` uses tiny shapes for the tests.

The program is imported from ``src/`` beside this directory; without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 10  # set-ups per run, spread through the timed loop
MIN_REQUESTS = 100  # ten samples beyond the 90th percentile
MAX_STRETCH = 3  # a run may outlast --seconds by this factor to reach MIN_REQUESTS

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "requests_per_s": "1/s",
    "peak_alloc_mib": "MiB",
}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; call before numpy loads."""
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= cpus:
            os.environ[var] = str(cpus)
    return cpus


def blas_threads():
    """Threads the bundled OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def git_commit():
    """HEAD of the checkout's own .git directory, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, cpus: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    digest = hashlib.sha256()
    for path in sorted((SRC / "fadeup").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()},
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpus_available": cpus,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


class Runner:
    """Drives one workload: counts attempts and failures, times requests."""

    def __init__(self, workload):
        self.wl = workload
        self.cycle = len(workload.kinds)
        self.next_index = 0  # also the number of requests attempted
        self.errors: list[str] = []
        self.latency: dict[int, float] = {}  # request index -> seconds, successful requests only

    def one(self, tracer=None) -> None:
        """Run and check the next request; record its latency if it succeeded."""
        i = self.next_index
        self.next_index += 1
        self.wl.prepare(i)
        if tracer is not None:
            tracer.request = i
            sid = tracer.open("request")
        try:
            t0 = time.perf_counter()
            out = self.wl.request(i)
            elapsed = time.perf_counter() - t0
        except Exception:  # a failed request is counted, and the loop goes on
            self.errors.append(f"request {i}: {traceback.format_exc(limit=3)}")
            return
        finally:
            if tracer is not None:
                tracer.close(sid)
                tracer.request = None
        problem = self.wl.check(i, out)
        if problem:
            self.errors.append(f"request {i}: {problem}")
            return
        self.latency[i] = elapsed

    def loop(self, seconds: float, min_requests: int, tracer=None, give_up_after=None) -> list[int]:
        """Closed loop of whole kind cycles for ``seconds``, and for at least
        ``min_requests`` requests unless that takes ``give_up_after`` seconds
        (default ``MAX_STRETCH * seconds``).

        Returns the indices of the requests run.
        """
        if give_up_after is None:
            give_up_after = MAX_STRETCH * seconds
        gc.collect()
        indices = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            done = elapsed >= seconds and (len(indices) >= min_requests or elapsed >= give_up_after)
            if done and self.next_index % self.cycle == 0:
                return indices
            indices.append(self.next_index)
            self.one(tracer)

    def latencies(self, indices) -> list[float]:
        return [self.latency[i] for i in indices if i in self.latency]

    def p50_by_kind(self, indices) -> dict:
        by_kind = {}
        for i in indices:
            if i in self.latency:
                by_kind.setdefault(str(self.wl.kinds[i % self.cycle]), []).append(self.latency[i] * 1e3)
        return {kind: statistics.median(v) for kind, v in by_kind.items()}

    def peak_alloc(self) -> int:
        """Largest tracemalloc peak, in bytes, over one request of each kind."""
        peak = 0
        tracemalloc.start()
        try:
            for _ in range(self.cycle):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                self.one()
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        return peak


class NoResult(RuntimeError):
    """Not one request of a phase succeeded, so no metric can be computed."""


def require(latencies, runner):
    if not latencies:
        for line in runner.errors[:5]:
            print(line, file=sys.stderr)
        raise NoResult(f"all {len(runner.errors)} failed requests, no latency to report")
    return latencies


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def run(args, cpus: int) -> tuple[dict, dict]:
    import tracing
    import workloads

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, str(out_dir))
    runner = Runner(wl)
    min_requests = runner.cycle if args.smoke else MIN_REQUESTS
    details = {"environment": environment(args.seed, cpus), "workload": args.workload, "smoke": args.smoke}
    failures: list[str] = []
    metrics = {}
    try:
        if args.trace:
            # one traced set-up, so builds made there show in operators.build_ms
            tracer = tracing.Tracer()
            tracer.install(tracing.layer_targets())
            try:
                wl.setup()
            finally:
                failures += [f"not restored after set-up: {a}" for a in tracer.restore()]
        else:
            setup_times = [timed(wl.setup)]
        failures += workloads.golden_failures() + workloads.reconcile_failures(wl.operators())
        for _ in range(runner.cycle):  # warm-up: one request of each kind
            runner.one()

        if args.trace:
            # the traced phase reports no percentiles, so it needs no minimum count
            plain = require(runner.latencies(runner.loop(args.seconds / 2, runner.cycle)), runner)
            wl.tracer = tracer
            tracer.install(tracing.layer_targets())
            try:
                traced_indices = runner.loop(args.seconds / 2, runner.cycle, tracer)
            finally:
                wl.tracer = None
                failures += [f"not restored after the traced run: {a}" for a in tracer.restore()]
            tracemalloc.start()
            try:
                with tracing.ReassemblyPeak() as reassembly:
                    for _ in range(runner.cycle):
                        runner.one()
            finally:
                tracemalloc.stop()
            if not reassembly.restored:
                failures.append("not restored after the peak pass: assemble.reassemble")
            traced = require(runner.latencies(traced_indices), runner)
            overhead = statistics.median(traced) / statistics.median(plain)
            layer = tracing.layer_metrics(tracer, traced_indices, overhead, reassembly.peak)
            metrics = {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]} for k, v in layer.items()}
            spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
            tracer.write(spans_path)
            details.update(
                untraced_requests=len(plain),
                traced_requests=len(traced),
                spans=len(tracer.spans),
                spans_file=spans_path.name,
            )
        else:
            # the timed loop runs in segments with a set-up between them, so the
            # set-up times sample the whole run rather than its first second
            indices, spent = [], 0.0
            for segment in range(1, SETUP_REPEATS + 1):
                if segment > 1:
                    setup_times.append(timed(wl.setup))
                # aim at the totals so far, so that a segment's overshoot to a whole
                # cycle is taken from the ones after it
                t0 = time.perf_counter()
                due = args.seconds * segment / SETUP_REPEATS - spent
                left = SETUP_REPEATS - segment + 1
                need = -(-(min_requests - len(indices)) // left)
                indices += runner.loop(due, need, give_up_after=MAX_STRETCH * args.seconds / SETUP_REPEATS)
                spent += time.perf_counter() - t0
            lat = require(runner.latencies(indices), runner)
            peak = runner.peak_alloc()
            values = {
                "setup_s": statistics.median(setup_times),
                "latency_ms_p50": statistics.median(lat) * 1e3,
                "latency_ms_p90": percentile(lat, 90) * 1e3,
                "requests_per_s": len(lat) / sum(lat),
                "peak_alloc_mib": peak / tracing.MIB,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            details.update(
                timed_requests=len(lat),
                setup_s_all=setup_times,
                latency_ms_p50_by_kind=runner.p50_by_kind(indices),
            )
        failures += wl.final_checks()
    finally:
        wl.close()

    attempted, failed = runner.next_index, len(runner.errors)
    details.update(
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted,
        request_errors=runner.errors[:20],
        check_failures=failures,
    )
    result = {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details["result"] = result
    (out_dir / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json").write_text(
        json.dumps(details, indent=2) + "\n"
    )
    return result, details


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("infer_c256", "train_ablation", "cli_upsample"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny shapes and one cycle of requests")
    p.add_argument("--out", default=str(BENCH_DIR / "out"), help="directory for result and span files")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fadeup" / "__init__.py").is_file():
        print(f"error: no fadeup sources at {SRC}", file=sys.stderr)
        return 2
    cpus = limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import fadeup

    if Path(fadeup.__file__).resolve().parent != SRC / "fadeup":
        print(f"error: imported fadeup from {fadeup.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        result, details = run(args, cpus)
    except NoResult as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for line in details["check_failures"] + details["request_errors"]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
