"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bulk-k1 --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The process pins itself to one core with one BLAS thread. Set-up builds
every input from ``--seed``; then one warm-up operation runs, and a closed
loop with one client times operations for ``--seconds``, with a calibration
probe timed between operations (see ``Probe``). Peak RSS is measured apart,
in a fresh process (see ``measure_rss``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
spends the first third of the time untraced and the rest with the layer
hooks of ``spans.py`` installed, and reports the per-layer metrics, each per
traced operation unless its name says otherwise, plus the tracing overhead
(traced over untraced median latency, minus one).

Standard output: one line per metric (name, value, unit), a ``DETAIL`` line
with the JSON run record (environment, checks, sample counts, layer edges),
and last the one-line JSON result. Exit code 2, with no result, when the
library cannot be imported.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 9
SETUP_REF_PROBE_S = 0.085
RSS_OPS = 2
MAX_NOTES = 5
TRACE_UNTRACED_SHARE = 1 / 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_LOOP = 15_000
PROBE_STREAM = 500_000

SETUP_CHILD = """
import time
start = time.perf_counter()
import sys
from tnshap import cli, model_io
model, _ = model_io.load_model(sys.argv[1])
parse = getattr(cli, "_read_instances_csv", None)
if parse is not None and len(sys.argv) > 2:
    parse(sys.argv[2], model.n)
print(time.perf_counter() - start)
"""

# set-up and RSS_OPS operations of one workload in a fresh process without
# transparent huge pages; prints its peak RSS in MB
RSS_CHILD = """
import ctypes, resource, sys
if ctypes.CDLL(None).prctl(41, 1, 0, 0, 0) != 0:  # PR_SET_THP_DISABLE
    raise OSError("prctl(PR_SET_THP_DISABLE) failed")
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import logging
logging.basicConfig(level=logging.ERROR)
from workloads import WORKLOADS
wl = WORKLOADS[sys.argv[3]](Path(sys.argv[4]), int(sys.argv[5]))
wl.setup()
for i in range(int(sys.argv[6])):
    wl.op(i)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""

# the same heavy imports as the set-up child, without tnshap
IMPORT_PROBE_CHILD = """
import time
start = time.perf_counter()
import csv, json
import numpy
print(time.perf_counter() - start)
"""


def p90(values) -> float:
    """90th percentile by ``statistics.quantiles`` (its default method, the
    one ``runset.py`` uses for quartiles); a single sample is its own p90."""
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                fn = lib[sym]
            except AttributeError:
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    import tnshap

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    cores = os.cpu_count() or 1
    get_budget = getattr(tnshap, "get_worker_budget", None)
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": cores,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "tnshap_worker_budget": get_budget() if get_budget else None,
        "machine": platform.machine(),
        "processor": platform.processor() or None,
    }
    env["note"] = (f"nproc={cores}; the run is pinned to one core with one BLAS thread, so "
                   "thread-pool and BLAS thread scaling are not measured"
                   + (" (with 2 cores they cannot be measured meaningfully: ROADMAP item 4 limit)"
                      if cores <= 2 else ""))
    return env


def pin_one_core() -> None:
    """Run the client on one core with one BLAS thread.

    On a small shared host a second core mostly adds noise: cross-core
    wake-ups (pool hand-offs, BLAS workers) made run-to-run latency spread
    wider than any bound the benchmark could set. Pinning also puts each
    operation on the same core as the calibration probes around it. Must
    run before numpy is first imported; a BLAS thread count already set in
    the environment wins.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")


class Probe:
    """Calibration work that does not involve tnshap: an interpreter loop, a
    small BLAS product and a 4 MB streaming update, a few milliseconds in
    all. Timed next to every operation, it measures how fast the core and
    its memory run at that moment."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((4000, 16))
        self.b = rng.standard_normal((16, 64))
        self.stream = rng.standard_normal(PROBE_STREAM)
        self.out = np.empty_like(self.stream)

    def __call__(self) -> float:
        import numpy as np

        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        prod = self.a @ self.b
        np.einsum("br,br->b", prod, prod)
        np.multiply(self.stream, 1.0001, out=self.out)
        np.add(self.out, self.stream, out=self.out)
        return time.perf_counter() - start


def measure_setup(wl) -> tuple:
    """Set-up time of fresh processes: importing tnshap, loading the
    workload's model and parsing its instance file, timed inside the child
    from its first statement, so interpreter start-up is left out.

    Host drift moves set-up time by tens of percent between runs, so each
    set-up is divided by the mean of the import probes (fresh processes that
    import numpy, json and csv, but not tnshap) just before and after it.
    Returns the median ratio scaled by ``SETUP_REF_PROBE_S``, the probe's
    median time on the reference host (a 2-core 2.0 GHz Xeon VM), i.e. the
    set-up time at the reference host's speed; then the raw medians of the
    set-up and the probe times.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def child(code, *args) -> float:
        proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env, check=True,
                              timeout=120, capture_output=True, text=True)
        return float(proc.stdout.split()[-1])

    args = [str(wl.model_path)] + ([str(wl.instances_path)] if wl.instances_path else [])
    probes, setups = [child(IMPORT_PROBE_CHILD)], []
    for _ in range(SETUP_REPEATS):
        setups.append(child(SETUP_CHILD, *args))
        probes.append(child(IMPORT_PROBE_CHILD))
    ratios = [t / (0.5 * (a + b)) for t, a, b in zip(setups, probes, probes[1:])]
    return (statistics.median(ratios) * SETUP_REF_PROBE_S, statistics.median(setups),
            statistics.median(probes))


def measure_rss(wl, workdir: Path) -> float:
    """Peak RSS in MB of a fresh process that sets the workload up from the
    same seed and runs ``RSS_OPS`` operations.

    Not read in the timed process: numpy asks the kernel for transparent huge
    pages on large arrays, and that marks the malloc heap too, so the kernel
    collapses heap pages into huge pages at moments of its own choosing. In
    the timed process peak RSS on ``fit-als`` read 79 MB in some runs and
    87 MB in others. The fresh process turns huge pages off for itself;
    the timed process keeps them, as the program runs by default.
    """
    rss_dir = workdir / "rss"
    rss_dir.mkdir()
    proc = subprocess.run([sys.executable, "-c", RSS_CHILD, str(SRC), str(Path(__file__).resolve().parent),
                           wl.name, str(rss_dir), str(wl.seed), str(RSS_OPS)],
                          cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
    return float(proc.stdout.split()[-1])


class Loop:
    """Closed loop with one client; records latency and check outcomes."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.instances = 0
        self.forwards = 0
        self.max_rel_err = None
        self.train_r2 = None
        self.notes = []
        self.warnings = 0
        self.warning_notes = []

    def restart(self) -> None:
        """Start a new sample: per-instance tallies cover timed operations only."""
        self.instances = 0
        self.forwards = 0

    def once(self):
        """Run and check one operation; return its latency in seconds."""
        i = self.index
        self.index += 1
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = self.wl.op(i)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            elapsed = time.perf_counter() - start
            self._fail(f"op {i}: {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            out = self.wl.check(result)
        except Exception as exc:  # noqa: BLE001 - an unreadable output fails its check
            self._fail(f"check {i}: {type(exc).__name__}: {exc}")
            return elapsed
        self.instances += out.instances
        self.forwards += out.forwards
        if out.warning:
            self.warnings += 1
            if len(self.warning_notes) < MAX_NOTES:
                self.warning_notes.append(f"op {i}: {out.warning}")
        if out.rel_err is not None:
            self.max_rel_err = max(self.max_rel_err or 0.0, out.rel_err)
        if out.train_r2 is not None:
            self.train_r2 = out.train_r2
        if not out.ok:
            self._fail(f"op {i}: {out.note or 'value outside tolerance'}")
        return elapsed

    def run_for(self, seconds: float, probe) -> tuple:
        """Time operations for ``seconds``. Returns the latencies, each latency
        divided by the mean of the probes just before and after it, and the
        probe times."""
        latencies, normalized, probes = [], [], [probe()]
        deadline = time.perf_counter() + seconds
        while True:
            latency = self.once()
            probes.append(probe())
            latencies.append(latency)
            normalized.append(latency / (0.5 * (probes[-2] + probes[-1])))
            if time.perf_counter() >= deadline:
                return latencies, normalized, probes

    def _fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_NOTES:
            self.notes.append(note)


def end_to_end(wl, loop: Loop, lat: list, norm: list, setup_s: float, rss_mb: float) -> tuple:
    lat_ms = [x * 1e3 for x in lat]
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_probes": (statistics.median(norm), "probe"),
        "latency_p90_probes": (p90(norm), "probe"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    # reported and recorded, but outside the gated set (see perfbench/README.md)
    extra = {
        "latency_ms_p50": (statistics.median(lat_ms), "ms"),
        "latency_ms_p90": (p90(lat_ms), "ms"),
        "fail_frac": (loop.failed / loop.attempted, "ratio"),
    }
    if wl.name in ("bulk-k1", "fit-als"):
        extra["wall_s"] = (statistics.median(lat), "s")
    if loop.instances:
        extra["instances_per_s"] = (loop.instances / sum(lat), "1/s")
    if loop.max_rel_err is not None:
        extra["max_rel_err"] = (loop.max_rel_err, "ratio")
    if loop.train_r2 is not None:
        extra["train_r2"] = (loop.train_r2, "ratio")
    return metrics, extra


def per_layer(tracer, loop: Loop, ops: int, overhead: float) -> dict:
    ops = max(ops, 1)
    L = tracer.layer

    def ratio(a, b):
        return a / b if b else 0.0

    load, emit, lft = L("model_io.load"), L("attribute.emit"), L("lift")
    env, fwd, exp = L("tensor_net.env"), L("tensor_net.forward"), L("attribute.explain")
    batch, plan, solve = L("attribute.batch"), L("attribute.plan"), L("attribute.solve")
    transform, build, als, lstsq = (L("attribute.transform"), L("fit.build"),
                                    L("fit.als"), L("fit.lstsq"))
    return {
        "model_io.load_s": (ratio(load.busy_s, load.calls), "s"),
        "attribute.emit_s": (emit.busy_s / ops, "s"),
        "attribute.emit_rows": (emit.sums.get("rows", 0) / ops, "count"),
        "lift.calls": (lft.calls / ops, "count"),
        "lift.busy_s": (lft.busy_s / ops, "s"),
        "tensor_net.env_calls": (env.calls / ops, "count"),
        "tensor_net.env_busy_s": (env.busy_s / ops, "s"),
        "tensor_net.env_rows": (env.sums.get("rows", 0) / ops, "count"),
        "tensor_net.forward_calls": (fwd.calls / ops, "count"),
        "tensor_net.forward_busy_s": (fwd.busy_s / ops, "s"),
        "tensor_net.forward_rows": (fwd.sums.get("rows", 0) / ops, "count"),
        "tensor_net.forward_peak_rows": (fwd.maxima.get("peak_rows", 0), "count"),
        "tensor_net.forward_bytes_in": (fwd.sums.get("bytes_in", 0) / ops, "bytes"),
        "attribute.explain_calls": (exp.calls / ops, "count"),
        "attribute.explain_self_s": (exp.self_s / ops, "s"),
        "attribute.batch_workers": (ratio(batch.sums.get("workers", 0), batch.calls), "count"),
        "attribute.batch_busy_s": (batch.busy_s / ops, "s"),
        "attribute.batch_parallelism": (ratio(batch.sums.get("explain_s", 0.0), batch.busy_s), "ratio"),
        "attribute.plan_calls": (plan.calls / ops, "count"),
        "attribute.plan_s": (plan.busy_s / ops, "s"),
        "attribute.transform_s": (transform.busy_s / ops, "s"),
        "attribute.solve_calls": (solve.calls / ops, "count"),
        "attribute.solve_s": (solve.busy_s / ops, "s"),
        "attribute.solve_columns": (solve.sums.get("columns", 0) / ops, "count"),
        "attribute.solve_max_residual": (solve.maxima.get("max_residual", 0.0), "ratio"),
        "attribute.flagged_frac": (ratio(exp.sums.get("flagged", 0), exp.sums.get("subsets", 0)), "ratio"),
        # spent forwards (model counters) and what explain reports it spent
        "attribute.forwards_per_instance": (ratio(loop.forwards, loop.instances), "count"),
        "attribute.reported_forwards_per_instance": (
            ratio(exp.sums.get("forwards", 0), exp.sums.get("instances", 0)), "count"),
        "fit.build_s": (build.busy_s / ops, "s"),
        "fit.teacher_forwards": (ratio(build.sums.get("teacher_forwards", 0), build.calls), "count"),
        "fit.als_s": (als.busy_s / ops, "s"),
        "fit.sweeps": (ratio(als.sums.get("sweeps", 0), als.calls), "count"),
        "fit.lstsq_calls": (lstsq.calls / ops, "count"),
        "fit.lstsq_s": (lstsq.busy_s / ops, "s"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.ops": (ops, "count"),
        "trace.hooks_absent": (len(tracer.absent), "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    pin_one_core()
    if not (SRC / "tnshap" / "__init__.py").is_file():
        print(f"error: no tnshap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    logging.basicConfig(level=logging.ERROR)
    try:
        import spans  # noqa: E402 - the benchmark's own modules
        from workloads import WORKLOADS  # noqa: E402

        from tnshap import model_io  # noqa: E402
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    workdir = ROOT / "perfbench" / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](workdir, args.seed)
        wl.setup()
        loop = Loop(wl)
        loop.once()  # warm-up: checked, not timed into the sample
        loop.restart()
        record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment()}
        probe = Probe()
        if args.trace == 0:
            setup_s, setup_wall_s, setup_probe_s = measure_setup(wl)
            rss_mb = measure_rss(wl, workdir)
            lat, norm, probes = loop.run_for(args.seconds, probe)
            metrics, extra = end_to_end(wl, loop, lat, norm, setup_s, rss_mb)
            extra["probe_ms"] = (statistics.median(probes) * 1e3, "ms")
            extra["setup_wall_s"] = (setup_wall_s, "s")
            extra["setup_probe_s"] = (setup_probe_s, "s")
            record["samples"] = len(lat)
            record["samples_beyond_p90"] = sum(x > metrics["latency_p90_probes"][0] for x in norm)
        else:
            plain, _, _ = loop.run_for(args.seconds * TRACE_UNTRACED_SHARE, probe)
            loop.restart()
            tracer = spans.Tracer()
            tracer.install()
            try:
                for _ in range(3):  # the explain requests load no model themselves
                    model_io.load_model(wl.model_path)
                traced, _, _ = loop.run_for(args.seconds * (1 - TRACE_UNTRACED_SHARE), probe)
            finally:
                tracer.uninstall()
            overhead = statistics.median(traced) / statistics.median(plain) - 1.0
            metrics = per_layer(tracer, loop, len(traced), overhead)
            extra = {}
            record["samples"] = {"untraced": len(plain), "traced": len(traced)}
            record["latency_ms_p50"] = {"untraced": statistics.median(plain) * 1e3,
                                        "traced": statistics.median(traced) * 1e3}
            record["absent_hooks"] = tracer.absent
            record["layer_edges_per_op"] = tracer.edge_report(len(traced))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(attempted=loop.attempted, failed=loop.failed, failure_notes=loop.notes,
                  warnings=loop.warnings, warning_notes=loop.warning_notes,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()})
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{wl.name:<12} {name:<34} {value:>16.6g} {unit}")
    print(f"{wl.name:<12} {'samples':<34} {json.dumps(record['samples']):>16}")
    print("DETAIL " + json.dumps(record))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
