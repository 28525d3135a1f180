"""Benchmark of the robust_miso toolkit: one workload, one run.

    python3 perfbench/run.py --workload table-study --seed 1 --seconds 30 --trace 0

Run from the repository root (or any checkout holding src/ and perfbench/).
The program is imported from src/ of that checkout; nothing is installed.

--trace 0 measures end to end: set-up time (median over several fresh
interpreters), then operations back to back for --seconds, each verified
between operations, outside the timed region. --trace 1 runs the same
operations twice, once without and once with spans around every call into
a layer, and reports per-layer metrics plus the tracing overhead.

Reported times are scaled to a reference host speed (see HostSpeed); the
raw wall-clock figures are printed alongside.

Human-readable lines go to stdout first; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
a result was printed.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy is first imported, in this process and in
# the set-up probes it starts (they inherit the environment).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ROBUST_MISO_THREADS", None)

import argparse
import collections
import ctypes
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

# Set-up samples: this process, then fresh interpreters started at even
# intervals through the timed phase (the clock is paused meanwhile), so the
# median spans the slow and fast spells of a shared machine.
SETUP_SAMPLES = 5
# Seed of the warm-up input, fixed so that set-up time measures the same
# work in every run whatever the workload seed.
WARMUP_SEED = 0
PROBE_TIMEOUT_S = 150
# Time of HostSpeed's reference kernel that reported times are scaled to:
# about what it takes on a quiet 2-vCPU Xeon (Sapphire Rapids) KVM guest,
# so reported times read as seconds on such a host.
REFERENCE_S = 0.002
END_TO_END = ("setup_s", "throughput_ops_per_s", "latency_p50_s", "peak_rss_mb")
UNITS = {
    "setup_s": "s",
    "throughput_ops_per_s": "ops/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def setup_sample(name: str, workdir: str):
    """Time `import robust_miso` plus one warm-up operation.

    The warm-up fills the program's cached index tables. Generating its
    input happens between the two timed parts and is not counted.
    """
    t0 = perf_counter()
    import robust_miso  # noqa: F401  (the import is what is timed)

    t1 = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name]()
    item = wl.inputs(WARMUP_SEED, workdir, 1)[0]
    t2 = perf_counter()
    output = wl.op(item)
    t3 = perf_counter()
    fails = wl.check(item, output).fails
    if fails:
        raise BenchError(f"warm-up operation failed verification: {fails}")
    return (t1 - t0) + (t3 - t2), wl


def probe_setup(name: str, seed: int) -> float:
    """One set-up sample in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def _openblas_libraries() -> list[str]:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if len(line.split()) >= 6}
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


def _openblas_state(path: str) -> dict | None:
    """Thread count and build string of one loaded OpenBLAS, if it says."""
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"threads": threads(), "config": config().decode()}
    return None


def environment() -> dict:
    """Machine and library record; raises if BLAS is not single-threaded."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    from robust_miso import harness

    blas = {os.path.basename(p): _openblas_state(p) for p in _openblas_libraries()}
    blas = {lib: state for lib, state in blas.items() if state is not None}
    bad = {lib: info["threads"] for lib, info in blas.items() if info["threads"] != 1}
    if bad:
        raise BenchError(f"BLAS thread pinning did not take effect: {bad}")
    if "ROBUST_MISO_THREADS" in os.environ or harness._study_workers() != 1:
        raise BenchError("ROBUST_MISO_THREADS is set; studies would use a process pool")
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas or "not found; pinned by environment only",
        "blas_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


class HostSpeed:
    """How fast the shared host runs right now, from a fixed kernel.

    A shared cloud host runs other tenants on the same cores. During their
    busy spells the same operation ran up to 1.8x slower on a 2-vCPU KVM
    guest, with CPU time tracking wall time and steal under 1%, so neither
    clock removes the effect. The
    kernel mixes a pure-Python loop with small dense eigen, product and
    Cholesky calls, like the solver's own mix. It does not use robust_miso,
    so no change to the program can move it. sample() times it; a wall time
    measured between two samples times REFERENCE_S / (their mean) gives
    seconds on a host where the kernel takes REFERENCE_S.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((32, 10, 10))
        self._stack = stack + stack.transpose(0, 2, 1)
        self._square = rng.standard_normal((120, 120))
        self._spd = self._square @ self._square.T + 120.0 * np.eye(120)
        self.samples: list[float] = []
        for _ in range(3):  # warm-up
            self.sample()
        self.samples.clear()

    def _kernel(self) -> float:
        np = self._np
        t0 = perf_counter()
        acc = 0
        for i in range(7000):
            acc += i * i % 7
        for _ in range(3):
            np.linalg.eigvalsh(self._stack)
            np.matmul(self._square, self._square)
            np.linalg.cholesky(self._spd)
        return perf_counter() - t0

    def sample(self) -> float:
        """Median of five kernel timings."""
        elapsed = statistics.median(self._kernel() for _ in range(5))
        self.samples.append(elapsed)
        return elapsed

    def factor(self, before: float, after: float) -> float:
        return REFERENCE_S / (0.5 * (before + after))


class Run:
    """Operations of one pass: latencies, verification, visible counts.

    latencies are raw wall times, scaled the same times at reference host
    speed, and busy the raw operation time so far (which sets run length).
    """

    def __init__(self, wl, items, host: HostSpeed, tracer=None):
        self.wl, self.items, self.host, self.tracer = wl, items, host, tracer
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.factors: list[float] = []
        self.busy = 0.0
        self.reasons: collections.Counter = collections.Counter()
        self.failed = 0
        self.window = collections.Counter()
        self.window_iterations: int | None = 0
        self.worst_margin_rel = float("-inf")
        self.report_bytes = 0

    def one(self, i: int) -> None:
        item = self.items[i % len(self.items)]
        before = self.host.samples[-1] if self.host.samples else self.host.sample()
        if self.tracer is not None:
            self.tracer.install()
            self.tracer.begin(i)
        t0 = perf_counter()
        try:
            output = self.wl.op(item)
        except Exception as exc:  # an operation that raises counts as failed
            output, error = None, exc
        t1 = perf_counter()
        if self.tracer is not None:
            self.tracer.end()
            self.tracer.uninstall()
        factor = self.host.factor(before, self.host.sample())
        self.latencies.append(t1 - t0)
        self.scaled.append((t1 - t0) * factor)
        self.factors.append(factor)
        self.busy += t1 - t0
        if output is None:
            fails = [("exception", f"{type(error).__name__}: {error}")]
        else:
            try:
                checked = self.wl.check(item, output)
            except Exception as exc:  # output too malformed to check
                checked = None
                fails = [("verify", f"{type(exc).__name__}: {exc}")]
            else:
                fails = checked.fails
            if checked is not None and i < self.wl.window:
                self._count(checked)
        if fails:
            self.failed += 1
            self.reasons.update(fails)

    def _count(self, checked) -> None:
        self.worst_margin_rel = max(self.worst_margin_rel, checked.worst_margin_rel)
        self.report_bytes += checked.report_bytes
        self.window["calls"] += checked.calls
        self.window["optimal"] += checked.optimal
        if checked.infeasible is not None:
            self.window["primal_infeasible"] += checked.infeasible
            self.window["numerical_failure"] += checked.failed_solves
        if checked.iterations is None or self.window_iterations is None:
            self.window_iterations = None
        else:
            self.window_iterations += checked.iterations

    def until(self, seconds: float) -> None:
        """Continue operations back to back until `seconds` of operation
        time have passed in total and the count window is complete."""
        while self.ops < self.wl.window or self.busy < seconds:
            self.one(self.ops)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def visible_counts(self) -> dict:
        counts = {f"conic.{k}" if k == "calls" else f"conic.status.{k}": v
                  for k, v in self.window.items()}
        if self.window_iterations is not None:
            counts["conic.iterations"] = self.window_iterations
        return counts


def tail(latencies: list[float], percentile: int | None):
    """(value, samples beyond) for the fixed tail percentile, or None when
    fewer than ten samples lie beyond it."""
    if percentile is None:
        return None
    ordered = sorted(latencies)
    beyond = len(ordered) - int(len(ordered) * percentile / 100.0)
    if beyond < 10:
        return None
    return statistics.quantiles(ordered, n=100, method="inclusive")[percentile - 1], beyond


def print_failures(run: Run) -> None:
    share = run.failed / run.ops
    print(f"failed_share          {share:.4f} ratio  ({run.failed} of {run.ops} ops)")
    for (status, message), count in sorted(run.reasons.items()):
        print(f"  failure {count:5d}  {status}: {message}")


def measure(args, wl, items, host: HostSpeed) -> tuple[dict, Run]:
    raw_setup = [args.setup_first]
    first = host.sample()
    setup = [args.setup_first * host.factor(first, first)]
    run = Run(wl, items, host)
    probes = SETUP_SAMPLES - 1
    for k in range(1, probes + 1):
        run.until(args.seconds * k / probes)
        before = host.sample()
        raw_setup.append(probe_setup(wl.name, args.seed))
        setup.append(raw_setup[-1] * host.factor(before, host.sample()))
    ok = run.ops - run.failed
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_ops_per_s": ok / sum(run.scaled),
        "latency_p50_s": statistics.median(run.scaled),
        "peak_rss_mb": rss,
    }
    raw = {
        "setup_s": statistics.median(raw_setup),
        "throughput_ops_per_s": ok / run.busy,
        "latency_p50_s": statistics.median(run.latencies),
        "peak_rss_mb": rss,
    }
    print(f"workload {wl.name} seed {args.seed}: {run.ops} ops, {run.busy:.3f} s of "
          f"operations (closed loop, 1 client, 1 process)")
    print(f"host speed: reference kernel {statistics.median(host.samples) * 1e3:.3f} ms median "
          f"(min {min(host.samples) * 1e3:.3f}, max {max(host.samples) * 1e3:.3f}) "
          f"against {REFERENCE_S * 1e3:.3f} ms")
    print("setup_s samples      " + " ".join(f"{s:.4f}" for s in setup))
    print(f"{'metric':<21} {'reported':>12}  {'raw wall clock':>14}")
    for name in END_TO_END:
        print(f"{name:<21} {metrics[name]:>12.6g}  {raw[name]:>14.6g} {UNITS[name]}")
    t = tail(run.scaled, wl.tail_percentile)
    if t is None:
        print(f"latency_tail_s        n/a (no percentile above p75 has 10 of {run.ops} samples beyond it)")
    else:
        print(f"latency_tail_s        {t[0]:.6g} s  (p{wl.tail_percentile}, {t[1]} of {run.ops} samples beyond)")
    print_failures(run)
    print(f"window (first {wl.window} ops): " + json.dumps(run.visible_counts()))
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, run


def per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def traced(args, wl, items, host: HostSpeed) -> tuple[dict, list[Run]]:
    import robust_miso
    from tracing import Tracer, layer_metrics

    # Each operation runs twice back to back, once with wrappers installed
    # and once without, alternating which goes first, so that slow spells
    # of a shared machine hit both sides of the overhead ratio alike.
    tracer = Tracer(robust_miso)
    plain, spanned = Run(wl, items, host), Run(wl, items, host, tracer)
    i = 0
    while i < wl.window or plain.busy < args.seconds / 2.0:
        first, second = (plain, spanned) if i % 2 == 0 else (spanned, plain)
        first.one(i)
        second.one(i)
        i += 1

    span_file = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.dump(span_file)

    layers, shapes = layer_metrics(tracer.spans, wl.window, spanned.factors)
    layers["formulations.worst_margin_rel"] = spanned.worst_margin_rel
    layers["cli.report_bytes"] = spanned.report_bytes
    layers["trace.overhead_share"] = sum(spanned.scaled) / sum(plain.scaled) - 1.0

    # Tracing must not change what the program computes.
    visible = plain.visible_counts()
    mismatch = {k: (v, layers[k]) for k, v in visible.items() if layers[k] != v}
    if mismatch:
        spanned.failed += 1
        spanned.reasons[("trace", f"traced counts differ from untraced: {mismatch}")] += 1

    print(f"workload {wl.name} seed {args.seed}: {plain.ops} ops untraced in "
          f"{plain.busy:.3f} s, the same ops traced in {spanned.busy:.3f} s; "
          f"{tracer.wrapped} module attributes wrapped, {len(tracer.spans)} spans -> "
          f"{span_file.relative_to(ROOT)}")
    print(f"per-layer metrics over the first {wl.window} ops:")
    for name, value in layers.items():
        shown = f"{value:.6g}" if math.isfinite(value) else "n/a (no exact margin checked)"
        print(f"  {name:<34} {shown}")
    for shape, row in shapes.items():
        print(f"  shape {shape}: " + json.dumps(row))
    print_failures(plain)
    print_failures(spanned)

    units = per_layer_units()
    missing = set(units) - set(layers)
    if missing:
        raise BenchError(f"per-layer metrics not computed: {sorted(missing)}")
    return {k: {"value": layers[k], "unit": u} for k, u in units.items()}, [plain, spanned]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        try:
            args.setup_first, wl = setup_sample(args.workload, workdir)
        except (ImportError, KeyError) as exc:
            raise BenchError(f"cannot load workload {args.workload!r}: {exc!r}") from exc
        if args.setup_probe:
            print(repr(args.setup_first))
            return 0
        items = wl.inputs(args.seed, workdir, wl.pool)
        env = environment()
        print("env: " + json.dumps(env))
        host = HostSpeed()
        if args.trace:
            metrics, runs = traced(args, wl, items, host)
        else:
            metrics, run = measure(args, wl, items, host)
            runs = [run]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.ops for r in runs)
    failed = sum(r.failed for r in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
