"""Benchmark runner: one workload, one seed, one JSON line of results.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 25 --trace 0

The runner runs the workload in a fresh single-threaded Python process
(``session.py``) that imports qsdsim from ``src``. With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json: the median wall time
of the subcommand sequence and the median of five cold set-ups, both in
nominal seconds (scaled by reference loops timed beside them, so that
a shared machine changing speed does not move them; NOTES.md), and the
workload process's peak resident memory. With ``--trace 1`` it reports
the per-layer metrics instead, from traced passes and from
``python -X importtime``. Either way a second fresh process then runs
one pass of the same seed, which must write the same artifacts. The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``. Scratch files live under ``.perfbench_work`` in the
checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
DEADLINE_S = 170.0
IMPORT_SUFFIX = ".import_s"


class BenchError(Exception):
    """The workload could not be run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], cwd: Path, deadline: float) -> subprocess.CompletedProcess:
    """Run Python on ``argv``; on timeout kill its whole process group."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(argv))
    with subprocess.Popen([sys.executable, *argv], cwd=cwd, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out: {' '.join(argv)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n{stderr[-2000:]}")
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_times(work: Path, deadline: float) -> dict[str, float]:
    """Median cumulative import seconds of each ``<module>.import_s`` metric."""
    samples: dict[str, list[float]] = {
        m["name"][:-len(IMPORT_SUFFIX)]: [] for m in load_spec()["per_layer"]
        if m["name"].endswith(IMPORT_SUFFIX)}
    for _ in range(IMPORT_SAMPLES):
        proc = run_child(["-X", "importtime", "-c", "import qsdsim.cli"], work, deadline)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if name.strip() in samples and cumulative.strip().isdigit():
                samples[name.strip()].append(int(cumulative) * 1e-6)
    missing = [m for m, v in samples.items() if len(v) != IMPORT_SAMPLES]
    if missing:
        raise BenchError(f"no import time for {', '.join(missing)}")
    return {m + IMPORT_SUFFIX: statistics.median(v) for m, v in samples.items()}


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    session = [str(HERE / "session.py"), "--workload", workload, "--seed", str(seed)]
    run_child([*session, "--seconds", str(seconds), "--trace", str(int(trace)),
               "--setup-samples", str(0 if trace else SETUP_SAMPLES)], work, deadline)
    result = json.loads((work / "result.json").read_text())
    # A second process, with its own string-hash seed and addresses, must
    # write the same bytes; its operations count like the first one's.
    check = work / "check"
    check.mkdir()
    run_child([*session, "--reference", str(work / "result.json")], check, deadline)
    other = json.loads((check / "result.json").read_text())
    result["attempted"] += other["attempted"]
    result["failed"] += other["failed"]
    result["problems"] += [f"second process: {p}" for p in other["problems"]]
    if trace:
        result["layers"].update(import_times(work, deadline))
    return result


def report(result: dict, trace: bool) -> dict:
    spec = load_spec()
    values = result["layers"] if trace else result
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsdsim" / "cli.py").is_file():
        print(f"error: no qsdsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
        line = report(result, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(f"artifacts of the first pass: sha256 {result['digest']}")
    print(f"{args.workload} seed {args.seed}: {line['failed']}/{line['attempted']}"
          f" operations failed; untraced passes took"
          f" {' '.join(f'{w:.3f}' for w in result['walls'])} raw s;"
          f" nominal s = raw s x {result['scale']:.4f}; set-ups took"
          f" {' '.join(f'{s:.3f}' for s in result['setup_raw_s'])} raw s")
    for name, metric in line["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
