#!/usr/bin/env python3
"""stablecov benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload {build-measure,series-queries,cli-mix}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; the library is imported from ``src/`` next to this
directory.  One client drives the library in a closed loop from this one
process (each op starts when the previous one returns), with BLAS pinned to
one thread.  Every answer is checked outside the op's timed interval; a
wrong answer stops the run with exit 1.

--trace 0 prints the end-to-end metrics: set-up time (median of fresh
interpreters that import stablecov and build the workload's fixed models),
throughput and p50/p90 latency of the ops run in ``--seconds`` of op time,
and peak RSS.  Op and set-up times are corrected for host speed (see
``HostSpeed`` and ``measure_setup``); the raw figures are printed on a
``#`` line.  --trace 1 runs a fixed number of ops twice, untraced then
traced, and prints the per-layer metrics, import times and the tracing
overhead.  The last stdout line is always one JSON object.
"""

import os

_PINNED = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = _PINNED

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("build-measure", "series-queries", "cli-mix")
SETUP_SPAWNS = 5
IMPORT_SPAWNS = 3
MIN_OPS = 110  # p90 then has at least ten samples beyond it
CHILD_TIMEOUT_S = 60
REFERENCE_KERNEL_S = 0.002  # kernel time that defines "reference host speed"
REFERENCE_SPAWN_S = 0.6  # reference interpreter's time at reference host speed
# The reference interpreter imports what stablecov imports from outside the
# repository, so its time follows the host as the set-up probe's does.
REFERENCE_SPAWN = "import numpy; from scipy import integrate, special"
RECALIBRATE_AFTER_S = 0.25  # op time between two timings of the kernel


def _median(values):
    return statistics.median(values)


def _percentile(sorted_values, q):
    # Nearest rank: the value with at least q of the samples at or below it.
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _stamp(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(_PINNED),
    }


class HostSpeed:
    """Scale factor from measured times to times at reference host speed.

    A shared host can change speed by more than half within a minute, far
    more than the changes the benchmark should resolve.  So the process
    times a fixed kernel of small numpy calls and Python arithmetic, close
    to the library's own mix and free of library code, between ops, and an
    op time t is reported as t * REFERENCE_KERNEL_S / kernel time.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.array([0.6, 0.8])
        self._y = np.array([0.6, 0.8 + 1e-9])
        self._v = np.linspace(0.0, 1.0, 4096)

    def _kernel_s(self) -> float:
        np, x, y = self._np, self._x, self._y
        start = perf_counter()
        hits = 0
        for _ in range(400):
            if np.all(np.abs(x - y) <= 1e-12):
                hits += 1
            hits += len(format(float(x[0]), ".17g"))
        float(np.sum(np.sin(self._v) * self._v))
        return perf_counter() - start

    def factor(self) -> float:
        # Median of five timings, so a preempted timing does not count.
        return REFERENCE_KERNEL_S / _median([self._kernel_s() for _ in range(5)])


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def _spawn_s(argv: list[str]) -> float:
    """Seconds from spawning ``argv`` until the clock reading it prints last."""
    start = perf_counter()
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=_child_env(), timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"spawn failed: {proc.stderr.strip()[-500:]}")
    # perf_counter is the system-wide monotonic clock, shared by both sides.
    return float(proc.stdout.split()[-1]) - start


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until stablecov is imported
    and the workload's fixed models are built; making the inputs is not
    counted, and the op schedule is not made.

    Returns the times at reference host speed and as measured.  A fresh
    interpreter is not covered by the op-time kernel, so each probe is
    bracketed by two spawns of a reference interpreter (REFERENCE_SPAWN, no
    library code) and scaled by REFERENCE_SPAWN_S / their mean time.
    """
    probe = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
             "--setup-probe"]
    reference = [sys.executable, "-c", f"{REFERENCE_SPAWN}; import time; print(time.perf_counter())"]
    corrected, raw = [], []
    before = _spawn_s(reference)
    for _ in range(SETUP_SPAWNS):
        t = _spawn_s(probe)
        after = _spawn_s(reference)
        raw.append(t)
        corrected.append(t * REFERENCE_SPAWN_S / (0.5 * (before + after)))
        before = after
    return corrected, raw


def measure_imports() -> dict[str, float]:
    """Cumulative import times of stablecov and of scipy under -X importtime."""
    pkg, sci = [], []
    for _ in range(IMPORT_SPAWNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import stablecov"],
            capture_output=True, text=True, env=_child_env(), timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        lines = []
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", line)
            if m:
                lines.append((int(m.group(2)), len(m.group(3)) // 2, m.group(4)))
        # Lines come children first; walk them parents first and sum each
        # scipy module that no other scipy module imported.
        ancestors: list[str] = []
        scipy_us = 0
        for cumulative, depth, name in reversed(lines):
            del ancestors[depth:]
            is_scipy = name == "scipy" or name.startswith("scipy.")
            if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for a in ancestors):
                scipy_us += cumulative
            if name == "stablecov":
                pkg.append(cumulative / 1e6)
            ancestors.append(name)
        sci.append(scipy_us / 1e6)
    return {"import.stablecov_s": _median(pkg), "import.scipy_s": _median(sci)}


class Loop:
    """Runs ops closed-loop, times each, checks each outside its interval."""

    def __init__(self, workload, tracer=None, speed: HostSpeed | None = None):
        self.w = workload
        self.tracer = tracer
        self.speed = speed
        self.latencies: list[float] = []
        self.busy = 0.0
        self.corrected: list[float] = []  # latencies at reference host speed
        self._pending: list[float] = []  # latencies since the last kernel timing
        self._factor = 1.0
        self._since_factor = math.inf
        self.codes: Counter = Counter()  # typed errors by code
        self.statuses: Counter = Counter()  # "refused" / "failed" op counts

    def recalibrate(self) -> None:
        """Time the kernel; ops since the last timing get the mean factor of
        the two timings that bracket them (1 without a HostSpeed)."""
        factor = self.speed.factor() if self.speed is not None else 1.0
        mean = 0.5 * (self._factor + factor)
        self.corrected.extend(t * mean for t in self._pending)
        self._pending.clear()
        self._factor = factor
        self._since_factor = 0.0

    def run_op(self, i: int) -> None:
        w, tracer = self.w, self.tracer
        k = i % len(w.ops)
        if self._since_factor >= RECALIBRATE_AFTER_S:
            self.recalibrate()
        if tracer is not None:
            tracer.op = i
            tracer.active = True
        start = perf_counter()
        outcome = w.op(k)
        end = perf_counter()
        if tracer is not None:
            tracer.active = False
        self.latencies.append(end - start)
        self.busy += end - start
        self._pending.append(end - start)
        self._since_factor += end - start
        verdict = w.check(k, outcome)
        if tracer is not None:
            tracer.counts["cli.bytes_out"] += getattr(w, "bytes_out", 0)
        if verdict is not None:
            status, code = verdict
            self.statuses[status] += 1
            self.codes[code] += 1

    def run_for(self, seconds: float, wall_cap: float) -> None:
        """Ops until their summed time reaches ``seconds`` (at least MIN_OPS)."""
        t0 = perf_counter()
        i = 0
        while (self.busy < seconds or i < MIN_OPS) and perf_counter() - t0 < wall_cap:
            self.run_op(i)
            i += 1
        self.recalibrate()

    def run_n(self, start: int, n: int, wall_cap: float = math.inf) -> None:
        t0 = perf_counter()
        for i in range(start, start + n):
            if perf_counter() - t0 >= wall_cap:
                break
            self.run_op(i)
        self.recalibrate()

    @property
    def failed(self) -> int:
        return self.statuses["failed"]

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ops_per_s(self) -> float:
        """Throughput at reference host speed (raw without a HostSpeed)."""
        return len(self.corrected) / sum(self.corrected)


def _warm_up(w) -> None:
    # Ops from the tail of the schedule, which the measured ops never reach.
    Loop(w).run_n(len(w.ops) - w.warmup_ops, w.warmup_ops)


def _make_workload(name: str, seed: int, workdir: Path):
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS[name]
    w = cls(seed, cls.fixed_inputs(seed, str(workdir)))
    w.schedule()
    return w


def end_to_end(args, workdir: Path) -> tuple[Loop, dict]:
    setup, setup_raw = measure_setup(args.workload, args.seed)
    w = _make_workload(args.workload, args.seed, workdir)
    _warm_up(w)
    loop = Loop(w, speed=HostSpeed())
    loop.run_for(args.seconds, wall_cap=3.0 * args.seconds + 30.0)

    def times(setup_s, latencies):
        lat = sorted(latencies)
        return {
            "setup_s": (_median(setup_s), "s"),
            "ops_per_s": (len(lat) / sum(lat), "ops/s"),
            "op_p50_ms": (1e3 * _percentile(lat, 0.5), "ms"),
            "op_p90_ms": (1e3 * _percentile(lat, 0.9), "ms"),
        }

    metrics = times(setup, loop.corrected)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    raw = times(setup_raw, loop.latencies)
    n = loop.attempted
    print(f"# ops {n} (p90 has {n - math.ceil(0.9 * n)} beyond it); raw, before the host "
          "speed correction: " + ", ".join(f"{k} {v!r}" for k, (v, _) in raw.items()))
    return loop, metrics


def traced(args, workdir: Path) -> tuple[Loop, dict]:
    from perfbench.spans import Tracer, layer_metrics, unit_of

    imports = measure_imports()
    w = _make_workload(args.workload, args.seed, workdir)
    _warm_up(w)
    # Ops [0, n) untraced, then ops [n, 2n) traced: same mix, no repeats, and
    # a fixed op count, so the counts repeat exactly for a seed.
    n = max(10, math.ceil(w.nominal_ops_per_s * args.seconds / 2.0))
    cap = 2.0 * args.seconds + 20.0  # only a much slower library hits this
    speed = HostSpeed()  # so the overhead ratio does not follow the host
    plain = Loop(w, speed=speed)
    plain.run_n(0, n, cap)
    tracer = Tracer()
    w.span = tracer.span
    tracer.install()
    try:
        loop = Loop(w, tracer, speed)
        loop.run_n(n, n, cap)
    finally:
        tracer.uninstall()
    sizes = {i: w.size(i % len(w.ops)) for i in range(n, 2 * n)} if hasattr(w, "size") else None
    layer = layer_metrics(tracer, sizes)
    values = {
        **imports,
        **layer,
        "trace.overhead_ratio": loop.ops_per_s() / plain.ops_per_s(),
        "trace.spans": len(tracer.spans),
        # Ops ending in a typed StableError, verified refusals included.
        "ops.fail_ratio": sum(loop.statuses.values()) / loop.attempted,
    }
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    print(f"# traced {n} ops; at reference host speed untraced {plain.ops_per_s():.4f} ops/s, "
          f"traced {loop.ops_per_s():.4f} ops/s")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(str(spans_path), _stamp(args))
    print(f"# spans written to {spans_path.relative_to(ROOT)}")
    return loop, metrics


def setup_probe(args) -> int:
    """Import stablecov, build the workload's fixed models and print the
    clock, less the time spent making the models' inputs."""
    from perfbench.workloads import WORKLOADS

    workdir = OUT_DIR / f"probe-{os.getpid()}"
    cls = WORKLOADS[args.workload]
    try:
        start = perf_counter()
        fixed = cls.fixed_inputs(args.seed, str(workdir))
        making_inputs = perf_counter() - start
        cls(args.seed, fixed)
        print(perf_counter() - making_inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stablecov" / "__init__.py").is_file():
        print(f"error: no stablecov sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.setup_probe:
        return setup_probe(args)

    from perfbench.workloads import WrongAnswer

    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    try:
        loop, metrics = (traced if args.trace else end_to_end)(args, workdir)
    except WrongAnswer as exc:
        print(f"error: wrong answer in {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# stamp " + json.dumps(_stamp(args)))
    if loop.codes:
        print("# typed errors by code " + json.dumps(dict(sorted(loop.codes.items()))))
    if getattr(loop.w, "limit_not_passed", 0):
        print(f"# limit checks reporting passed = false: {loop.w.limit_not_passed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": True,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
