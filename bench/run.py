#!/usr/bin/env python3
"""panelctrl benchmark.

Run from the repository root:

    python3 bench/run.py --workload app-jackknife --seed 1 --seconds 55 --trace 0

One workload runs in a closed loop (one process, one operation at a time)
for about ``--seconds``. Every operation's output is checked outside its
timed section. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, where operation times are given in units of a
fixed reference computation timed next to each operation; with
``--trace 1`` untraced and traced operations alternate on the workload's
first input and the per-layer metrics are reported. Earlier lines give the
machine facts and a readable summary.

OpenBLAS runs one thread: the host gives the process two vCPUs shared with
other tenants, and a second BLAS thread would time the neighbours as much
as the program.

The library is imported from ``src/`` beside this directory. Without it the
script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, install, layer_metrics, unit_of

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("app-jackknife", "mc-desk")
SETUP_REPEATS = 7
BLAS_THREADS = "1"
REFERENCE_PASSES = 3  # one pass takes 8-15 ms on a shared Xeon vCPU


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Tally:
    """Attempted and failed panels; a failed check fails the whole operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, panels, problems, dropped):
        self.attempted += panels
        self.failed += panels if problems else min(dropped, panels)

    @property
    def ok_ratio(self):
        return (self.attempted - self.failed) / self.attempted


def timed(fn, arg):
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        result = fn(arg)
    except Exception as exc:  # a failed operation is counted, not fatal to the run
        traceback.print_exc(file=sys.stderr)
        result = exc
    return result, time.perf_counter() - wall0, time.process_time() - cpu0


def run_op(workload, inp, tally, tracer=None):
    """Run, time and check one operation; returns (wall, cpu) seconds."""
    restore = install(tracer) if tracer is not None else None
    try:
        result, wall, cpu = timed(workload.run, inp)
    finally:
        if restore is not None:
            restore()
    problems = workload.check(inp, result)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    dropped = 0 if problems else workload.dropped(result)
    tally.record(workload.panels_per_op, problems, dropped)
    return wall, cpu


def closed_loop(seconds, step):
    """Call ``step(i)`` while one more call would likely end nearer ``seconds``.

    A run then lasts ``seconds`` on average whatever the call length, instead
    of losing up to a whole call to rounding down.
    """
    start = last = time.perf_counter()
    durations = []
    while True:
        step(len(durations))
        now = time.perf_counter()
        durations.append(now - last)
        last = now
        if now - start + statistics.fmean(durations) / 2 > seconds:
            return


def high_percentile(values):
    """(percentile, value) of the highest percentile with 10 samples above it.

    None until that percentile lies above the median.
    """
    if len(values) < 21:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


class Reference:
    """A fixed computation, timed before the first operation and after each.

    The host's speed changes from second to second and from minute to minute
    (it shares its vCPUs with other tenants), by up to 1.8x. One pass of the
    reference is two loops of small NumPy calls, like the library's solvers:
    a power iteration on a 64x64 matrix, and projected gradient descent on
    the unit simplex with an 89x50 design, as in an SCM solve. The run's
    mean operation time divided by its mean reference time keeps the
    program's cost and drops most of the host's. The reference never calls
    the library, so a change to the library cannot move it.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.square = rng.standard_normal((64, 64))
        self.design = rng.standard_normal((89, 50))
        self.target = rng.standard_normal(89)
        self.step = 1.0 / np.linalg.norm(self.design, 2) ** 2
        self.ranks = np.arange(1, 51)

    def _pass(self):
        np = self.np
        x = np.ones(64)
        for _ in range(1000):
            x = self.square @ x
            x /= np.linalg.norm(x)
        w = np.full(50, 1.0 / 50)
        for _ in range(200):
            v = w - self.step * (self.design.T @ (self.design @ w - self.target))
            u = np.sort(v)[::-1]
            css = np.cumsum(u) - 1.0
            k = np.flatnonzero(u > css / self.ranks)[-1]
            w = np.maximum(v - css[k] / (k + 1), 0.0)

    def seconds(self):
        """Mean seconds of one pass over ``REFERENCE_PASSES`` passes."""
        t0 = time.perf_counter()
        for _ in range(REFERENCE_PASSES):
            self._pass()
        return (time.perf_counter() - t0) / REFERENCE_PASSES


def per_reference(times, refs):
    """The mean of ``times`` in units of the mean of ``refs``.

    Means, not medians: the operations of a run work on different panels
    whose cost varies by a fifth either way, and over six seeds the ratio of
    means spread half as much as the median of per-operation ratios.
    """
    return statistics.fmean(times) / statistics.fmean(refs)


def end_to_end(workload, inputs, seconds, tally):
    reference = Reference()
    refs = [reference.seconds()]
    walls, cpus = [], []

    def step(i):
        wall, cpu = run_op(workload, inputs[i % len(inputs)], tally)
        refs.append(reference.seconds())
        walls.append(wall)
        cpus.append(cpu)

    closed_loop(seconds, step)
    reps_per_s = len(walls) * workload.panels_per_op / math.fsum(walls)
    line = f"{len(walls)} operations; analysis_s median {statistics.median(walls):.4f} s"
    pct = high_percentile(walls)
    if pct is not None:
        line += f", p{pct[0]:.0f} {pct[1]:.4f} s"
    print(f"{line}; reps_per_s {reps_per_s:.4f} 1/s")
    print(
        f"cpu_s median {statistics.median(cpus):.4f} s; "
        f"reference mean {statistics.fmean(refs):.6f} s over {len(refs)} samples"
    )
    return {
        "analysis_ref": (per_reference(walls, refs), "ratio"),
        "cpu_ref": (per_reference(cpus, refs), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_ratio": (tally.ok_ratio, "ratio"),
    }


def per_layer(workload, inputs, seconds, tally):
    inp = inputs[0]
    untraced, traced, layers = [], [], []

    def step(i):
        untraced.append(run_op(workload, inp, tally)[0])
        tracer = Tracer()
        traced.append(run_op(workload, inp, tally, tracer)[0])
        layers.append(layer_metrics(tracer, workload.rows_per_panel))

    closed_loop(seconds, step)
    print(f"{len(traced)} traced and {len(untraced)} untraced operations on input 0")
    out = {name: (statistics.median(m[name] for m in layers), unit_of(name)) for name in layers[0]}
    ratio = statistics.median(traced) / statistics.median(untraced)
    out["trace.overhead_ratio"] = (ratio, unit_of("trace.overhead_ratio"))
    return out


def _openblas_call(name, restype):
    """Call an OpenBLAS query function of the loaded library; None if absent."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def machine_facts():
    import ctypes

    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        facts["cpu_model"] = models[0] if models else None
    except OSError:
        pass
    facts["blas_threads"] = _openblas_call("get_num_threads", ctypes.c_int)
    config = _openblas_call("get_config", ctypes.c_char_p)
    facts["blas"] = config.decode() if config is not None else None
    return facts


def fresh_import_seconds(src):
    """Seconds a new interpreter takes to import the library and its CLI."""
    code = "import time; t = time.perf_counter(); import panelctrl.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return float(out.stdout)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "panelctrl" / "__init__.py").is_file():
        print(f"error: no panelctrl sources under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy loads; fresh imports inherit it
    sys.path.insert(0, str(src))
    import panelctrl
    from workloads import WORKLOADS

    if Path(panelctrl.__file__).resolve().parent != src / "panelctrl":
        print(f"error: imported panelctrl from {panelctrl.__file__}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)

        def set_up():
            """Seconds of one complete set-up, and the inputs it made."""
            import_s = fresh_import_seconds(src)
            t0 = time.perf_counter()
            inputs = workload.setup(args.seed, str(workdir))
            return import_s + time.perf_counter() - t0, inputs

        # Set-ups are timed before and after the operations, so that setup_s
        # samples the host's speed at both ends of the run.
        setups = []
        for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
            seconds, inputs = set_up()
            setups.append(seconds)

        print("machine " + json.dumps(machine_facts(), sort_keys=True))
        tally = Tally()
        if args.trace:
            metrics = per_layer(workload, inputs, args.seconds, tally)
        else:
            metrics = end_to_end(workload, inputs, args.seconds, tally)
            setups += [set_up()[0] for _ in range(SETUP_REPEATS // 2)]
            metrics["setup_s"] = (statistics.median(setups), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    print(f"fail_ratio {tally.failed}/{tally.attempted} panels")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
