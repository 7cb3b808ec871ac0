"""The regulus benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 42 --trace 0

Run from the repository root; the package is imported from ``src/``. The
load is a closed loop: this process runs the workload's (problem, solver)
cells back to back through ``regulus.SOLVERS``, one pass after another,
while the next pass still fits in ``--seconds``. Every cell is checked from
outside after each pass, off its timing; a failed check exits with code 1.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` runs traced passes, then one untraced reference pass, and
reports the per-layer metrics; every cell's ``n_f``/``n_g`` must match
between the two.
``--workload all`` runs every workload, each in its own process.

The last line of standard output is the result object; the line before it
holds the run's context and one record per cell.
"""

import os

# Threaded BLAS reorders reductions, which changes trajectories and so n_f;
# pin it to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("grid", "large-n", "logistic")
SETUP_REPEATS = 8
TRACED_SHARE = 0.75


def set_up(name: str, seed: int):
    """The fastest of ``SETUP_REPEATS`` imports of regulus plus builds of the
    workload's inputs, and the last build.

    Each repeat drops the regulus modules and re-imports them, so every
    repeat pays what a fresh process pays apart from numpy itself. Modules
    imported earlier (``cells``, ``tracer``) keep the regulus they were
    imported with; the inputs they are given are plain arrays and callables."""
    times = []
    for _ in range(SETUP_REPEATS):
        workload = None  # drop the previous inputs before building new ones
        stale = [m for m in sys.modules if m == "workloads" or m.split(".")[0] == "regulus"]
        for mod in stale:
            del sys.modules[mod]
        gc.collect()  # the dropped modules and inputs hold reference cycles
        t0 = time.perf_counter()
        workloads = importlib.import_module("workloads")
        workload = workloads.WORKLOADS[name](seed)
        times.append(time.perf_counter() - t0)
    return min(times), workload


class Pass(NamedTuple):
    wall: float
    records: List[dict]
    summary: Optional[dict]
    setup: Optional[float]


def one_pass(workload, tracer=None, setup: Optional[float] = None) -> Pass:
    """Every cell once, then the checks, off the timing. The pass's wall
    time is the sum of its cells' (the probes between cells are left out).
    Only the records (and span summary) are kept; the reports hold
    n-vectors."""
    import cells
    import tracer as tracing

    if tracer is not None:
        tracer.reset()
    gc.collect()
    results = cells.run_pass(workload, tracer)
    wall = sum(r.wall_s for r in results)
    records = [r.record(cells.check_cell(r, workload.config)) for r in results]
    summary = tracing.summarize(tracer.spans) if tracer is not None else None
    return Pass(wall, records, summary, setup)


def repeat(seconds: float, step: Callable[[], Pass]) -> List[Pass]:
    """``step()`` while the next call still fits in ``seconds``; at least once."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(step())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return passes


def untraced_passes(name: str, seed: int, seconds: float) -> List[Pass]:
    """A set-up burst before every pass, so that set-up, like the cells, is
    sampled across the whole run rather than in one moment of it. Each pass
    runs on the inputs of its own burst; only one build is alive at a time."""

    def step():
        setup_s, workload = set_up(name, seed)
        return one_pass(workload, setup=setup_s)

    return repeat(seconds, step)


def repeat_key(records: List[dict]) -> list:
    """What must repeat exactly between passes of one run."""
    return [(r["problem"], r["solver"], r["status"], r["n_f"], r["n_g"]) for r in records]


def check_repeats(passes: List[Pass], reference: Pass) -> None:
    """Every pass must repeat the reference pass's status, ``n_f`` and
    ``n_g`` in every cell."""
    import cells

    want = repeat_key(reference.records)
    for p in passes:
        got = repeat_key(p.records)
        if got != want:
            a, b = next((a, b) for a, b in zip(want, got) if a != b)
            raise cells.CheckError(f"cell {a[:2]} repeated as {b[2:]}, expected {a[2:]}")


def cell_medians(passes: List[Pass]) -> List[float]:
    """Each cell's median wall time over the passes."""
    return [statistics.median(p.records[i]["wall_s"] for p in passes)
            for i in range(len(passes[0].records))]


def in_probes(p: Pass) -> float:
    """The pass's wall time in units of the workload's probe time.

    Each cell's time is divided by the time of the probes on either side of
    it; the pass's figure is the sum of the cells' times over their
    time-weighted mean probe time. On a shared host the speed of one process
    changes by up to 1.75x from one minute to the next. The probe does the
    same kind of work as the cells and slows with them, so the ratio holds
    still where the seconds do not."""
    walls = [r["wall_s"] for r in p.records]
    weighted = sum(w * r["probe_s"] for w, r in zip(walls, p.records))
    return sum(walls) ** 2 / weighted


def end_to_end(passes: List[Pass]) -> dict:
    records = passes[0].records
    return {
        "wall_probes": (statistics.median(in_probes(p) for p in passes), "probes"),
        "setup_s": (min(p.setup for p in passes), "s"),
        "nf_total": (sum(r["n_f"] for r in records), "count"),
        "ng_total": (sum(r["n_g"] for r in records), "count"),
        "converged_frac": (sum(r["converged"] for r in records) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(traced: Pass, untraced_wall: float, absent: List[str]) -> dict:
    """Per-layer metrics of one traced pass, from its span summary."""
    import tracer

    summary, records, wall = traced.summary, traced.records, traced.wall

    def layer_self(layer):
        return sum(v["self_s"] for k, v in summary.items() if k.startswith(layer + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    iterations = sum(r["iterations"] for r in records)
    two_loop = summary["direction.two_loop_direction"]["calls"]
    push = summary["curvature.push"]
    search = summary["linesearch.strong_wolfe_search"]
    accept = summary["solvers.accept_step_rlbfgs"]
    kept = push["calls"] - push["returned_false"] - push["raised"]
    accepted = accept["calls"] - accept["raised"]
    return {
        "solvers.self_s": (layer_self("solvers"), "s"),
        "solvers.iterations": (iterations, "count"),
        "solvers.inner_iterations": (sum(r["inner_iterations"] for r in records), "count"),
        "direction.self_s": (layer_self("direction"), "s"),
        "direction.calls": (two_loop, "count"),
        "direction.calls_per_iter": (ratio(two_loop, iterations), "ratio"),
        "curvature.self_s": (layer_self("curvature"), "s"),
        "curvature.kept_frac": (ratio(kept, push["calls"]), "ratio"),
        "step_control.self_s": (layer_self("step_control"), "s"),
        "step_control.accept_frac": (ratio(accepted, accept["evaluate_children"]), "ratio"),
        "linesearch.self_s": (layer_self("linesearch"), "s"),
        "linesearch.evals_per_call": (ratio(search["evaluate_children"], search["calls"]), "ratio"),
        "linesearch.failures": (search["raised"], "count"),
        "core.evaluate_self_s": (summary["core.evaluate"]["self_s"], "s"),
        "core.termination_self_s": (summary["core.check_termination"]["self_s"], "s"),
        "objective.self_s": (layer_self("objective"), "s"),
        "objective.value_calls": (summary[tracer.OBJECTIVE_VALUE]["calls"], "count"),
        "objective.gradient_calls": (summary[tracer.OBJECTIVE_GRADIENT]["calls"], "count"),
        "trace.pass_s": (wall, "s"),
        "trace.overhead_frac": (wall / untraced_wall - 1.0, "ratio"),
        "trace.self_sum_frac": (ratio(sum(v["self_s"] for v in summary.values()), wall), "ratio"),
        "trace.absent": (len(absent), "count"),
    }


def context(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cache": cache_sizes(),
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cache_sizes() -> dict:
    """Unified/data cache sizes of cpu0 by level, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                level = (index / "level").read_text().strip()
                sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def as_metrics(values: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    if args.trace:
        # Set up before cells and tracer are imported, so that the tracer
        # patches the regulus modules that cells calls.
        _, workload = set_up(args.workload, args.seed)
    import cells
    import tracer as tracing

    absent: List[str] = []
    try:
        if args.trace:
            # The untraced reference pass comes last, after the traced passes
            # have warmed the allocator and caches, like the passes it is
            # compared with.
            tracer = tracing.Tracer()
            with tracer.installed():
                absent = list(tracer.absent)
                passes = repeat(TRACED_SHARE * args.seconds, lambda: one_pass(workload, tracer))
            reference = one_pass(workload)
        else:
            passes = untraced_passes(args.workload, args.seed, args.seconds)
            reference = passes[0]
        check_repeats(passes, reference)
    except cells.CheckError as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    if args.trace:
        per_pass = [per_layer(p, reference.wall, absent) for p in passes]
        metrics = {
            name: (statistics.median(p[name][0] for p in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()
        }
    else:
        metrics = end_to_end(passes)
    for name in absent:
        print(f"entry point absent, not traced: {name}", file=sys.stderr)

    cells_record = [dict(r, wall_s=t) for r, t in zip(passes[0].records, cell_medians(passes))]
    print(json.dumps({"context": context(args), "pass_walls": [p.wall for p in passes],
                      "setups": [p.setup for p in passes],
                      "cells": cells_record}))
    attempted = len(cells_record) * len(passes)
    failed = sum(not r["converged"] for r in cells_record) * len(passes)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": as_metrics(metrics)}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = status or proc.returncode or 1
            if not lines:
                continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:28s} {m['value']:.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "regulus" / "__init__.py").is_file():
        print(f"regulus sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
