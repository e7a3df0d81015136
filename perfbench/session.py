"""One workload in a fresh single-threaded Python process.

``run.py`` starts this script with ``src`` on the path and a private
work directory as the current directory. It first times set-up:
importing ``qsdsim.cli`` (numpy and scipy included) and resolving the
first stage's config. Then it runs the workload's subcommand sequence
in a closed loop until ``--seconds`` have passed and writes one JSON
result to ``result.json``. With ``--trace 1`` the loop alternates an
untraced and a traced sequence, so the per-layer figures come with the
tracing overhead beside them. With ``--setup-samples N`` a fresh probe
process times set-up again after each untraced pass, until there are
``N`` set-up samples. With ``--reference RESULT`` every pass must write
the artifacts that an earlier run's first pass wrote.

``--setup-only`` stops after set-up and prints its raw seconds and the
reference-loop times taken around it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracer import Tracer, counts, installed, layer_metrics
from workloads import (SEQUENCE, WORKLOADS, Workload, check_stage, combined_digest,
                       config_text, digests, read_json, stage_argv, write_configs)


# Seconds each reference loop takes on the nominal machine. Timings are
# reported as nominal seconds: raw seconds over the machine's slowness, the
# reference-loop times measured beside them relative to these (NOTES.md).
REF_PY_S = 0.02
REF_NP_S = 0.0065
# Reference loops timed on each side of a set-up.
SETUP_REFS = 3
PROBE_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class _Cell:
    items: tuple


def _gc_off(loop: Callable[[], float]) -> Callable[[], float]:
    """Run a reference loop with the cyclic collector off, so the size of
    the program's heap does not leak into its time."""
    def timed() -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return loop()
        finally:
            if enabled:
                gc.enable()

    return timed


@_gc_off
def python_reference_seconds() -> float:
    """Time a fixed allocation-heavy loop: how fast this machine runs Python.

    The loop builds small frozen dataclasses, tuples and dicts, like the
    simulator does, but runs no qsdsim code, so no change to the program
    can speed it up.
    """
    t0 = time.perf_counter()
    cell = _Cell(())
    for i in range(10_000):
        grown = cell.items + ((i % 13) * 0.5, i)
        cell = _Cell(grown[-8:])
        table = dict(zip(range(8), grown))
        table[i % 8] = len(table)
    return time.perf_counter() - t0


@_gc_off
def numpy_reference_seconds() -> float:
    """Time a fixed loop of array sweeps: how fast this machine runs numpy.

    Each round is a cumulative sum and a search over 8,000 weights, like
    one FV selection, and four 120 x 120 matrix-vector products, like
    oracle power-iteration sweeps. It runs no qsdsim code.
    """
    import numpy as np

    weights = np.linspace(0.5, 1.5, 8000)
    matrix = np.full((120, 120), 1.0 / 120)
    vector = np.ones(120)
    t0 = time.perf_counter()
    for _ in range(120):
        cumulative = np.cumsum(weights)
        np.searchsorted(cumulative, 0.37 * cumulative[-1])
        for _ in range(4):
            vector = matrix @ vector
    return time.perf_counter() - t0


def nominal(raw_s: float, refs: dict[str, list[float]], numpy_share: float) -> float:
    """Raw seconds over the machine's slowness against the nominal machine.

    Slowness is each loop's mean time over its nominal time, weighted by
    the share of the timed work that is numpy array code.
    """
    slowness = (1.0 - numpy_share) * statistics.fmean(refs["py"]) / REF_PY_S
    if numpy_share:
        slowness += numpy_share * statistics.fmean(refs["np"]) / REF_NP_S
    return raw_s / slowness


def timed_setup(workload: Workload, seed: int) -> dict:
    """Raw seconds to import ``qsdsim.cli`` and resolve the first stage's config.

    The Python reference loop is timed on each side of it, so the set-up
    can be scaled to nominal seconds by the machine's speed at that moment.
    """
    refs = [python_reference_seconds() for _ in range(SETUP_REFS)]
    t0 = time.perf_counter()
    import qsdsim.cli  # noqa: F401
    from qsdsim.config import parse_config_text, resolve_config

    resolve_config(parse_config_text(config_text(workload, "simulate", seed)))
    raw_s = time.perf_counter() - t0
    refs += [python_reference_seconds() for _ in range(SETUP_REFS)]
    return {"raw_s": raw_s, "ref_s": refs}


def probe_setup(workload: Workload, seed: int) -> dict:
    """``timed_setup`` in a fresh process started from this script."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_sequence(workload: Workload, tracer: Tracer | None = None) -> dict:
    """One pass of the subcommand sequence in the current directory.

    Returns per-stage seconds, exit statuses, problems found by the
    checks, artifact digests and the total artifact bytes. Only the
    ``main`` calls are timed; clearing the output and checking it are not.
    An untraced pass runs the reference loops before every stage and keeps
    their times in ``ref_s``, so machine speed is sampled across the pass.
    """
    from qsdsim.cli import main

    out = Path("out")
    shutil.rmtree(out, ignore_errors=True)
    seconds: dict[str, float] = {}
    statuses: dict[str, int] = {}
    ref_s: dict[str, list[float]] = {"py": [], "np": []}
    for stage in SEQUENCE:
        if tracer is None:
            ref_s["py"].append(python_reference_seconds())
            ref_s["np"].append(numpy_reference_seconds())
        argv = stage_argv(workload, stage)
        span = (tracer.span(f"cli.{stage}", "cli") if tracer is not None
                else contextlib.nullcontext())
        with contextlib.redirect_stdout(io.StringIO()), span:
            t0 = time.perf_counter()
            try:
                statuses[stage] = main(argv)
            except Exception:  # a crash is one failed operation, not a failed run
                traceback.print_exc()
                statuses[stage] = -1
            seconds[stage] = time.perf_counter() - t0
    problems = {s: check_stage(workload, s, statuses[s], out) for s in SEQUENCE}
    return {
        "seconds": seconds,
        "ref_s": ref_s,
        "problems": problems,
        "digests": {s: digests(out / s) for s in SEQUENCE if (out / s).is_dir()},
        "artifact_bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
    }


def _artifact_facts() -> dict[str, float]:
    """Per-layer figures the artifacts of the last sequence record."""
    orc = read_json("out/oracle/oracle.json")
    return {
        "qsd.fv_distinct_configs": sum(
            1 for line in Path("out/qsd-fv/qsd_sample.csv").read_text().splitlines()
            if line and not line.startswith("#")) - 1,
        "qsd.yaglom_survivors": read_json("out/qsd-yaglom/qsd.json")["particles"],
        "qsd.tv_to_oracle": read_json("out/compare/compare.json")["tv"],
        "oracle.iterations": orc["iters"],
        "oracle.residual": orc["residual"],
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, setup: dict,
            setup_samples: int = 0, reference: dict | None = None) -> dict:
    """Run passes until ``seconds`` pass; summarise them.

    ``scale`` turns raw seconds into nominal seconds: the median over
    untraced passes of one over that pass's slowness (``nominal``).
    ``wall_s`` is the median over untraced passes of the pass's wall time
    in nominal seconds. ``setup_s`` is the median nominal set-up: this
    process's own (``setup``) and one probe's after each untraced pass,
    each scaled by the Python loop's times around it and in the pass
    beside it.
    """
    plain, traced, failures = [], [], []
    setups = [setup]
    first_digests = reference["digests"] if reference else None
    start = time.perf_counter()
    while (not plain or time.perf_counter() - start < seconds
           or len(setups) < setup_samples):
        for tracer in (None, Tracer()) if trace else (None,):
            if tracer is None:
                run = run_sequence(workload)
                plain.append(run)
                if len(setups) < setup_samples:
                    setups.append({**probe_setup(workload, seed), "pass_ref_s": run["ref_s"]})
            else:
                with installed(tracer):
                    run = run_sequence(workload, tracer)
                run["layers"] = layer_metrics(tracer.root)
                run["counts"] = counts(tracer.root)
                run["facts"] = _artifact_facts()
                traced.append(run)
            # Every pass of one seed, traced or not, must write the same bytes.
            first_digests = first_digests or run["digests"]
            for stage in SEQUENCE:
                problems = list(run["problems"][stage])
                if run["digests"].get(stage) != first_digests.get(stage):
                    problems.append(f"{stage} artifacts differ from the first pass")
                failures.append(problems)

    setup["pass_ref_s"] = plain[0]["ref_s"]
    walls = [sum(r["seconds"].values()) for r in plain]
    scales = [nominal(1.0, r["ref_s"], workload.numpy_share) for r in plain]
    result = {
        "attempted": len(failures),
        "failed": sum(1 for p in failures if p),
        "problems": sorted({msg for p in failures for msg in p}),
        "digests": plain[0]["digests"],
        "walls": walls,
        "scale": statistics.median(scales),
        "wall_s": statistics.median(w * k for w, k in zip(walls, scales)),
        "setup_raw_s": [s["raw_s"] for s in setups],
        "setup_s": statistics.median(
            nominal(s["raw_s"], {"py": s["ref_s"] + s["pass_ref_s"]["py"]}, 0.0)
            for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        first = traced[0]
        if any(r["counts"] != first["counts"] for r in traced[1:]):
            result["failed"] += 1
            result["problems"].append("traced passes disagree on call counts")
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in first["layers"]}
        for stage in SEQUENCE:
            layers[f"cli.{stage}_s"] = statistics.median(r["seconds"][stage] for r in plain)
        layers["cli.artifact_bytes"] = first["artifact_bytes"]
        layers.update(first["facts"])
        layers["trace.wall_s"] = statistics.median(
            sum(r["seconds"].values()) for r in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(walls)
        result["layers"] = layers
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-samples", type=int, default=0)
    parser.add_argument("--reference", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    setup = timed_setup(workload, args.seed)
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    write_configs(workload, args.seed, Path.cwd())
    reference = read_json(args.reference) if args.reference else None
    result = measure(workload, args.seed, args.seconds, bool(args.trace), setup,
                     args.setup_samples, reference)
    result["digest"] = combined_digest(result["digests"])
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
