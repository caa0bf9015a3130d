#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer metrics of three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 45 --trace 0

``--trace 0`` measures untraced and prints the end-to-end metrics;
``--trace 1`` runs untraced / traced / traced / untraced repetitions and
prints the per-layer metrics (self time per layer from spans wrapped
around the program's public entry points, deterministic work counters,
tracing overhead) and writes ``perfbench/out/trace-<workload>.json`` in
Chrome Trace Event format.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Every pass's outputs are checked against ``perfbench/reference.json`` (the
recorded outputs of each program seed) and every run also proves the check
rejects one-value-corrupted copies.  ``--record`` re-records the reference
of the selected seed instead of checking it.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

NPROC = len(os.sched_getaffinity(0))
#: BLAS/OpenMP threads (at most ``NPROC``).  One thread: on a small shared VM
#: a second BLAS thread waits on a contended sibling CPU, which tripled the
#: run-to-run spread of the batched-inference timings.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, NPROC))

#: Set-up samples per run (this process plus fresh probe processes).
SETUP_SAMPLES = {"campaign": 5, "serve": 2}

#: Counters that must repeat exactly between the two traced repetitions.
DETERMINISTIC = (
    "core.run_batch_calls",
    "core.run_calls",
    "snn.train_variant_steps",
    "snn.infer_lane_steps",
    "snn.scalar_steps",
    "snn.stdp_calls",
    "snn.encode_calls",
    "attacks.faults",
    "analog.steps",
    "analog.assemblies",
    "analog.factorizations",
    "analog.lu_reuses",
    "analog.frozen_accepts",
    "analog.frozen_rejects",
    "exec.tasks",
    "exec.cache_hits",
    "exec.microbatches",
)


#: Latency samples needed for a p99 with ten samples beyond it.
TAIL_MIN_SAMPLES = 1000


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _tail(latencies) -> float:
    """The 99th percentile, when at least ten samples lie beyond it.

    With fewer than ``TAIL_MIN_SAMPLES`` samples no tail percentile has ten
    samples beyond it, so the median stands in for it.
    """
    if len(latencies) >= TAIL_MIN_SAMPLES:
        return _percentile(latencies, 99)
    return statistics.median(latencies)


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def load_reference(workload, seed: int):
    """The recorded entry of each of the workload's parts, or ``None``."""
    from workloads import REFERENCE_PATH

    if not REFERENCE_PATH.exists():
        return None
    with open(REFERENCE_PATH) as handle:
        document = json.load(handle)
    entries = {
        part: document.get(part, {}).get(str(seed)) for part in workload.reference_parts
    }
    return None if None in entries.values() else entries


def store_reference(seed: int, entries) -> None:
    from workloads import REFERENCE_PATH

    document = {}
    if REFERENCE_PATH.exists():
        with open(REFERENCE_PATH) as handle:
            document = json.load(handle)
    for part, entry in entries.items():
        document.setdefault(part, {})[str(seed)] = entry
    tmp = REFERENCE_PATH.with_suffix(".tmp")
    with open(tmp, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, REFERENCE_PATH)


class Checker:
    """Counts checked operations and failures over a run."""

    def __init__(self, workload, reference) -> None:
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.self_test_ok = True
        self.notes = []

    def check(self, result) -> None:
        if self.reference is None:
            self.attempted += 1
            self.failed += 1
            self.notes.append("no recorded reference for this seed")
            return
        verdicts = self.workload.check(result.outputs, self.reference)
        bad = sorted(name for name, ok in verdicts.items() if not ok)
        self.attempted += len(verdicts)
        self.failed += len(bad)
        if bad:
            self.notes.append(f"output check failed: {', '.join(bad[:8])}")
        for corrupted in self.workload.corrupt(result.outputs):
            if all(self.workload.check(corrupted, self.reference).values()):
                self.self_test_ok = False
                self.notes.append("self-test: a corrupted output passed the check")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.self_test_ok


def setup_probe_samples(args, count: int) -> list:
    """Set-up time of ``count`` fresh processes (imports included)."""
    samples = []
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    if args.held_out:
        command.append("--held-out")
    for _ in range(count):
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True
        )
        samples.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def measure(args, workload, seed: int) -> tuple:
    """Untraced run: end-to-end metrics."""
    reference = None if args.record else load_reference(workload, seed)
    checker = Checker(workload, reference)
    setup_samples, passes = [], []
    for index in range(workload.passes(args.seconds)):
        state = workload.setup(seed)
        if index == 0:
            setup_samples.append(time.perf_counter() - _T0)
        result = workload.run_pass(state, budget_s=args.seconds)
        workload.teardown(state)
        passes.append(result)
        if args.record:
            store_reference(seed, workload.record(result.outputs))
            print(f"recorded {workload.name} reference for program seed {seed}")
            return None, None
        checker.check(result)
    setup_samples += setup_probe_samples(args, SETUP_SAMPLES[workload.name] - 1)

    latencies = [lat for result in passes for lat in result.latencies_s]
    walls = [wall for result in passes for wall in result.walls_s]
    # Throughput over the whole run: a mean, not a median of bursts, so
    # that it moves smoothly with the share of time the machine ran slow.
    closed_ops = sum(result.closed_ops for result in passes)
    closed_s = sum(result.closed_s for result in passes)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "p50_ms": (_percentile(latencies, 50) * 1e3, "ms"),
        "p99_ms": (_tail(latencies) * 1e3, "ms"),
        "capacity_rps": (closed_ops / closed_s, "ops/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    print(
        f"{workload.name}: {len(passes)} pass(es), {closed_ops} closed-loop "
        f"operation(s), {len(latencies)} latency sample(s), setup samples "
        f"{[round(s, 3) for s in setup_samples]}, walls {[round(w, 3) for w in walls]}, "
        f"error_rate {checker.failed / max(checker.attempted, 1):.6f}"
    )
    return checker, metrics


def trace(workload, seed: int) -> tuple:
    """Traced run: per-layer metrics, counter repeat check, overhead."""
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    checker = Checker(workload, load_reference(workload, seed))
    walls = {"untraced": [], "traced": []}
    traced = []
    for mode in ("untraced", "traced", "traced", "untraced"):
        if mode == "traced":
            tracer.install()
            tracer.reset()
        else:
            tracer.uninstall()
        begin = time.perf_counter()
        state = workload.setup(seed)
        result = workload.run_pass(state, tracer=tracer if mode == "traced" else None)
        wall = time.perf_counter() - begin
        workload.teardown(state)
        walls[mode].append(wall)
        checker.check(result)
        if mode == "traced":
            metrics = tracer.layer_metrics(wall)
            metrics.update(result.counters)
            deterministic = (
                metrics if result.deterministic is None else result.deterministic
            )
            if not traced:
                tracer.write_chrome_trace(
                    workloads.OUT_DIR / f"trace-{workload.name}.json", begin
                )
            traced.append((metrics, deterministic))
    tracer.uninstall()

    (first, first_det), (second, second_det) = traced
    drift = [
        key for key in DETERMINISTIC
        if first_det.get(key, 0.0) != second_det.get(key, 0.0)
    ]
    if drift:
        checker.failed += 1
        checker.attempted += 1
        checker.notes.append(
            "deterministic counters differ between traced runs: "
            + ", ".join(f"{k} {first_det.get(k)} != {second_det.get(k)}" for k in drift)
        )
        print("STEADINESS GUARD FAILED: " + checker.notes[-1], file=sys.stderr)
    metrics = dict(first)
    metrics["trace.overhead_pct"] = (
        (min(walls["traced"]) / min(walls["untraced"]) - 1.0) * 100.0
    )
    tasks, hits = metrics.get("exec.tasks", 0.0), metrics.get("exec.cache_hits", 0.0)
    metrics["exec.cache_hit_ratio"] = hits / (hits + tasks) if hits + tasks else 0.0
    print(
        f"{workload.name} traced: wall {first['trace.wall_s']:.3f} s, named layers "
        f"{first['trace.named_share'] * 100:.1f}%, overhead "
        f"{metrics['trace.overhead_pct']:.1f}%, {int(first['trace.spans'])} spans"
    )
    return checker, metrics


def per_layer_names() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="use the held-out program seed instead of --seed")
    parser.add_argument("--record", action="store_true",
                        help="record this seed's reference outputs (no checks)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, program_seed

    workload = WORKLOADS[args.workload]
    seed = program_seed(args.seed, args.held_out)

    if args.setup_probe:
        state = workload.setup(seed)
        elapsed = time.perf_counter() - _T0
        workload.teardown(state)
        print(json.dumps({"setup_s": elapsed}))
        return 0

    print("machine: " + json.dumps(machine_facts()))
    print(f"workload {args.workload}, --seed {args.seed} -> program seed {seed}")
    if args.trace:
        checker, values = trace(workload, seed)
        units = per_layer_names()
        metrics = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        }
    else:
        checker, values = measure(args, workload, seed)
        if checker is None:
            return 0
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    for note in checker.notes:
        print(note, file=sys.stderr)
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
