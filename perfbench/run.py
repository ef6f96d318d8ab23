"""geoloop benchmark: one closed-loop client drives one workload and checks it.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Workloads: certify, trajectory, sweep, cli (see workloads.py and README.md).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with per-layer spans and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The full result, with the environment
record, is also written to .perfbench/ at the repository root, and a traced
run writes its spans there as a TSV file.

Exit codes: 0 all ops passed their checks, 1 some op failed its check,
2 the benchmark could not run (for example, src/geoloop is missing).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7  # processes that import geoloop and build the inputs

WINDOW_S = 1.0  # least op time in a window of whole input cycles
REFERENCE_EVERY_S = 0.25  # the reference loop is timed this often, between ops
REFERENCE_S = 1e-3  # op times are scaled to a host where the reference takes this
# One fixed tail percentile for every workload, so op_tail_ms stays
# comparable across runs and changes; README.md says why it is not higher.
TAIL_PERCENTILE = 90.0


class BenchError(Exception):
    """The benchmark cannot run here; maps to exit code 2."""


def load(workload: str, seed: int, workdir: Path, sizes: dict):
    """Import geoloop from the checkout and build the workload's inputs.

    Returns (workload instance, import ms, set-up seconds).
    """
    if not (SRC / "geoloop" / "__init__.py").is_file():
        raise BenchError(f"no geoloop package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import geoloop

    t1 = time.perf_counter()
    if Path(geoloop.__file__).resolve().parent != SRC / "geoloop":
        raise BenchError(f"imported geoloop from {geoloop.__file__}, not {SRC}")
    import workloads

    inst = workloads.WORKLOADS[workload](seed, workdir, root=ROOT, **sizes)
    return inst, (t1 - t0) * 1e3, time.perf_counter() - t0


def reference_work() -> int:
    """Fixed pure-Python and small-numpy work that never touches geoloop."""
    import numpy as np

    counts: dict[int, float] = {}
    for k in range(3000):
        counts[k % 61] = counts.get(k % 61, 0.0) + k * 0.5
    a, b = np.eye(4), np.full((4, 4), 0.2)
    for _ in range(150):
        a = a @ b + np.eye(4)
    return len(counts)


def reference_time() -> float:
    """Best of three timings of reference_work: how fast the host runs now."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


class Ops:
    """Per-op records of one run, kept in flat arrays so bookkeeping stays small."""

    def __init__(self):
        import workloads

        self.check_failed = workloads.CheckFailed
        self.index = array("q")
        self.start = array("d")
        self.seconds = array("d")
        self.traced = array("b")
        self.reference = array("d")  # reference loop seconds around each op
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, inst, i: int, api, tracer=None) -> bool:
        """Run op i; record its time if its checks pass."""
        self.attempted += 1
        t0 = tracer.begin_op(i) if tracer else time.perf_counter()
        try:
            inst.op(i, api)
        except self.check_failed as exc:
            self.failures.append(f"op {i}: check failed: {exc}")
            return False
        except Exception:  # a raising op is a failed op; keep measuring
            self.failures.append(f"op {i}: raised\n{traceback.format_exc()}")
            return False
        finally:
            t1 = time.perf_counter()
            if tracer:
                tracer.end_op(t0)
        self.index.append(i)
        self.start.append(t0)
        self.seconds.append(t1 - t0)
        self.traced.append(tracer is not None)
        return True


def closed_loop(inst, seconds: float, plain, traced=None, tracer=None) -> Ops:
    """One client, one op in flight: whole input cycles until `seconds` pass.

    The first cycle warms caches and is checked but not timed; at least two
    cycles are timed. Between ops, every REFERENCE_EVERY_S, the reference
    loop is timed; each op is paired with the mean of the reference times
    just before and just after it. In a traced run, timed cycles alternate
    between the traced and the plain api, starting traced, so tracing
    overhead is measured against interleaved untraced ops.
    """
    ops = Ops()
    for i in range(inst.cycle):
        ops.run(inst, i, plain)
    del ops.index[:], ops.start[:], ops.seconds[:], ops.traced[:]
    ref_before, ref_at = reference_time(), time.perf_counter()
    deadline = ref_at + seconds
    i = inst.cycle
    while True:
        use_trace = traced is not None and (i // inst.cycle) % 2 == 1
        ops.run(inst, i, traced if use_trace else plain, tracer if use_trace else None)
        i += 1
        now = time.perf_counter()
        done = i % inst.cycle == 0 and i >= 3 * inst.cycle and now >= deadline
        if done or now - ref_at >= REFERENCE_EVERY_S:
            ref_after = reference_time()
            paired = (ref_before + ref_after) / 2
            ops.reference.extend([paired] * (len(ops.seconds) - len(ops.reference)))
            ref_before, ref_at = ref_after, time.perf_counter()
        if done:
            return ops


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def windows(ops: Ops, cycle: int) -> list[range]:
    """Group the timed ops into whole input cycles holding WINDOW_S of op time.

    Every window holds the workload's full input mix. A short remainder
    joins the last window.
    """
    out, first, busy = [], 0, 0.0
    for k, t in enumerate(ops.seconds):
        busy += t
        if (ops.index[k] + 1) % cycle == 0 and busy >= WINDOW_S:
            out.append(range(first, k + 1))
            first, busy = k + 1, 0.0
    if first < len(ops.seconds):
        if out:
            out[-1] = range(out[-1].start, len(ops.seconds))
        else:
            out.append(range(first, len(ops.seconds)))
    return out


def end_to_end(ops: Ops, cycle: int) -> tuple[dict, list[str]]:
    """Contention-corrected throughput and latency of one run.

    Each op's wall time is scaled by REFERENCE_S over the reference loop's
    time around it, which cancels how much the shared host slowed
    everything down while the op ran. Rates count op time only; in a closed
    loop with one client the gaps between ops are the loop's own few
    microseconds and the reference timings.
    """
    if not ops.seconds:
        return {}, ["no op passed its checks"]
    scaled = [t * REFERENCE_S / r for t, r in zip(ops.seconds, ops.reference)]
    groups = windows(ops, cycle)
    rates = [len(w) / sum(scaled[k] for k in w) for w in groups]
    medians = [statistics.median(scaled[k] for k in w) for w in groups]
    tail = percentile(scaled, TAIL_PERCENTILE)
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(medians) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
    }
    raw = list(ops.seconds)
    notes = [
        f"{len(raw)} timed ops in {len(groups)} windows of at least {WINDOW_S:g} s",
        f"op_tail_ms is p{TAIL_PERCENTILE:g} over {len(raw)} timed ops, "
        f"{sum(1 for t in scaled if t > tail)} beyond it",
        f"reference loop {statistics.median(ops.reference) * 1e3:.4g} ms median "
        f"({min(ops.reference) * 1e3:.4g}-{max(ops.reference) * 1e3:.4g}); "
        f"uncorrected: ops_per_s {len(raw) / sum(raw):.6g}, "
        f"op_p50_ms {statistics.median(raw) * 1e3:.6g}, "
        f"op_tail_ms {percentile(raw, TAIL_PERCENTILE) * 1e3:.6g}",
    ]
    return metrics, notes


def setup_samples(workload: str, seed: int, first: tuple) -> list:
    """(import ms, set-up s, reference loop s) from this process and
    SETUP_REPEATS - 1 fresh ones."""
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        samples.append((probe["import_ms"], probe["setup_s"], probe["reference_s"]))
    return samples


def per_layer(tracer, ops: Ops, alloc: dict, import_ms: float) -> dict:
    from tracing import LAYER_FUNCTIONS
    import workloads

    busy: dict[str, list[float]] = {}
    child_s: dict[int, float] = {}
    op_s: dict[int, float] = {}
    for sid, name, t0, t1, parent, _op in tracer.spans:
        if name == "op":
            op_s[sid] = t1 - t0
            continue
        busy.setdefault(name, []).append(t1 - t0)
        child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)
    metrics = {}
    for name in LAYER_FUNCTIONS:
        spans = busy.get(name, [])
        metrics[f"{name}.calls"] = (len(spans), "count")
        metrics[f"{name}.busy_ms"] = (sum(spans) * 1e3, "ms")
    for kind in dict.fromkeys(workloads.Cli.KINDS):
        spans = busy.get(f"cli.{kind}", [])
        metrics[f"cli.{kind}.calls"] = (len(spans), "count")
        metrics[f"cli.{kind}.wall_ms"] = (
            statistics.median(spans) * 1e3 if spans else 0.0, "ms"
        )
    sums, maxima = tracer.sums, tracer.maxima
    export_calls = max(metrics["cli.export-path.calls"][0], 1)
    metrics.update({
        "gates.compare_gates.max_dev": (maxima.get("gates.compare_gates.max_dev", 0.0), "1"),
        "phases.sample_path.points": (sums.get("phases.sample_path.points", 0), "count"),
        "phases.sample_path.alloc_peak_kb": (alloc["phases.sample_path"], "kB"),
        "phases.solid_angle.max_residual": (
            maxima.get("phases.solid_angle.max_residual", 0.0), "rad"),
        "noise.fidelity_sweep.trials": (sums.get("noise.fidelity_sweep.trials", 0), "count"),
        "noise.fidelity_sweep.alloc_peak_kb": (alloc["noise.fidelity_sweep"], "kB"),
        "schedule_io.serialize_schedule.bytes": (
            sums.get("schedule_io.serialize_schedule.bytes", 0), "bytes"),
        "schedule_io.parse_schedule.bytes": (
            sums.get("schedule_io.parse_schedule.bytes", 0), "bytes"),
        "cli.export-path.out_bytes": (
            sums.get("cli.export-path.out_bytes", 0) / export_calls, "bytes"),
        "setup.import_ms": (import_ms, "ms"),
        "bench.op.self_ms": (
            sum(d - child_s.get(sid, 0.0) for sid, d in op_s.items()) * 1e3, "ms"),
    })
    traced = [t for t, on in zip(ops.seconds, ops.traced) if on]
    plain = [t for t, on in zip(ops.seconds, ops.traced) if not on]
    metrics["trace.ops_per_s"] = (len(traced) / sum(traced), "1/s")
    metrics["trace.overhead_pct"] = (
        (sum(traced) / len(traced)) / (sum(plain) / len(plain)) * 100 - 100, "%"
    )
    return metrics


def alloc_peaks(seed: int, workdir: Path, sizes: dict) -> dict:
    """tracemalloc peak of one sample_path and one fidelity_sweep call (kB)."""
    import workloads
    from tracing import LAYER_FUNCTIONS

    traj = workloads.Trajectory(seed, workdir, **sizes)
    sweep = workloads.Sweep(seed, workdir, **sizes)
    calls = {
        "phases.sample_path": lambda: LAYER_FUNCTIONS["phases.sample_path"](
            *traj.inputs(0), traj.samples),
        "noise.fidelity_sweep": lambda: LAYER_FUNCTIONS["noise.fidelity_sweep"](
            *sweep.inputs(0)),
    }
    peaks = {}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / 1024
        finally:
            tracemalloc.stop()
    return peaks


def environment(seed: int) -> dict:
    import numpy

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        sha = ref
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


@contextlib.contextmanager
def scratch_dir():
    """A per-process directory under .perfbench/ for the files ops write."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"work-{os.getpid()}"
    path.mkdir()
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: dict | None = None) -> dict:
    """One benchmark run; returns the result record (see main for its use)."""
    sizes = sizes or {}
    with scratch_dir() as workdir:
        inst, import_ms, setup_s = load(workload, seed, workdir, sizes)
        setup_ref = reference_time()
        import workloads
        from tracing import Api, Tracer

        env = environment(seed)
        tracer = Tracer() if trace else None
        traced_api = Api(tracer) if trace else None
        ops = closed_loop(inst, seconds, Api(), traced_api, tracer)
        rss_who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(rss_who).ru_maxrss / 1024
        result = {"workload": workload, "env": env, "notes": []}
        attempted, failures = ops.attempted, list(ops.failures)
        if trace:
            # Every per-layer metric is measured on every traced run: one
            # traced cycle of each other workload reaches the layers this one
            # does not drive.
            for other, cls in workloads.WORKLOADS.items():
                if other == workload:
                    continue
                extra = Ops()
                other_inst = cls(seed, workdir, root=ROOT, **sizes)
                for i in range(other_inst.cycle):
                    extra.run(other_inst, i, traced_api, tracer)
                attempted += extra.attempted
                failures += extra.failures
            alloc = alloc_peaks(seed, workdir, sizes)
        samples = setup_samples(workload, seed, (import_ms, setup_s, setup_ref))
        if trace:
            metrics = per_layer(tracer, ops, alloc,
                                statistics.median(s[0] for s in samples))
            spans_file = OUT / f"spans-{workload}-seed{seed}.tsv"
            tracer.write(spans_file)
            result["spans"] = str(spans_file.relative_to(ROOT))
        else:
            metrics, notes = end_to_end(ops, inst.cycle)
            result["notes"] += notes
            metrics["setup_s"] = (
                statistics.median(s * REFERENCE_S / ref for _, s, ref in samples), "s")
            result["notes"].append(
                f"setup_s uncorrected: {statistics.median(s for _, s, _ in samples):.6g} s")
            metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        env["loadavg_end"] = os.getloadavg()
        result.update({
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "timed_ops": len(ops.seconds),
            "failed_ops_ratio": len(failures) / attempted,
            "failures": failures[:20],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        })
        return result


def setup_probe(workload: str, seed: int) -> None:
    with scratch_dir() as workdir:
        _, import_ms, setup_s = load(workload, seed, workdir, {})
    print(json.dumps({"import_ms": import_ms, "setup_s": setup_s,
                      "reference_s": reference_time()}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "trajectory", "sweep", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=2) + "\n")
    for failure in result["failures"]:
        print(failure, file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"failed_ops_ratio {result['failed_ops_ratio']:.6g} "
          f"({result['failed']} failed of {result['attempted']} ops attempted)")
    for note in result["notes"]:
        print(note)
    for key, m in result["metrics"].items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(result["env"]))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
