"""The three benchmark workloads and the checks on their artifacts.

A workload is a model plus one config per subcommand. Every workload
runs the same closed-loop sequence through ``qsdsim.cli.main``: each
subcommand starts after the previous one returns, with one caller and
``run.threads = 1``. The sequence ends by comparing the workload's main
estimate with the oracle's eigenvector. NOTES.md says why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

SEQUENCE = ("simulate", "survival", "qsd-yaglom", "qsd-fv", "oracle", "validate",
            "compare")

# The validate battery's martingale and mean-decay checks are 3-sigma
# tests with no multiplicity correction, so 1-2% of seeds FAIL by chance
# (NOTES.md, finding 4).
# Like the repository's own statistical tests, it runs at one fixed seed:
# the product default.
VALIDATE_SEED = 1


@dataclass(frozen=True)
class Workload:
    """Config keys shared by all stages, per-stage overrides, and gates.

    ``estimate`` names the stage whose ``qsd.json`` is compared with
    ``oracle.json``; ``tv_tol`` and ``theta_tol`` are that comparison's
    tolerances, sized to the estimate's sample (NOTES.md).
    ``min_survivors`` guards the Yaglom stage against a near-empty sample.
    ``numpy_share`` is the share of a traced pass spent in numpy array
    code (FV selection, the oracle solve); it weights the two reference
    loops that turn raw seconds into nominal ones (NOTES.md).
    """

    name: str
    model: dict[str, str]
    stages: dict[str, dict[str, str]]
    estimate: str
    tv_tol: str
    theta_tol: str
    min_survivors: int
    numpy_share: float


UNIFORM = {"model.kind": "uniform", "model.lambda": "2.0", "model.b": "1.0",
           "model.rho": "0.3"}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="ensemble",
        model=UNIFORM,
        stages={
            # A singleton start dies after a few events (NOTES.md, finding 3).
            "simulate": {"run.initial_mass": "30", "run.horizon": "4.0",
                         "run.engine": "thinning"},
            "survival": {"run.replicas": "20000", "run.horizon": "3.0"},
            "qsd-yaglom": {"run.replicas": "40000", "run.horizon": "3.0"},
            # burn_in must stay below horizon (NOTES.md, finding 1).
            "qsd-fv": {"run.particles": "200", "run.burn_in": "5.0",
                       "run.horizon": "15.0"},
            "oracle": {"run.truncation": "60"},
            "validate": {"run.replicas": "1000"},
        },
        estimate="qsd-yaglom", tv_tol="0.08", theta_tol="0.15", min_survivors=500,
        numpy_share=0.0,
    ),
    Workload(
        name="particles",
        model={"model.kind": "logistic", "model.b": "1.0", "model.rho": "0.3",
               "model.d": "2.0", "model.c": "0.5", "kernel.family": "truncated_gaussian",
               "kernel.scale": "0.05"},
        stages={
            "simulate": {"run.initial_mass": "5", "run.horizon": "4.0",
                         "run.engine": "thinning"},
            "survival": {"run.replicas": "2000", "run.horizon": "3.0"},
            "qsd-yaglom": {"run.replicas": "1500", "run.horizon": "1.5"},
            "qsd-fv": {"run.particles": "8000", "run.burn_in": "0.6",
                       "run.horizon": "1.1"},
            "oracle": {"run.truncation": "120"},
            "validate": {"run.replicas": "400"},
        },
        estimate="qsd-fv", tv_tol="0.06", theta_tol="0.1", min_survivors=30,
        numpy_share=0.7,
    ),
    Workload(
        name="crowded",
        model={"model.kind": "logistic", "model.b": "2.0", "model.rho": "0.3",
               "model.d": "1.0", "model.c": "0.01", "kernel.family": "truncated_gaussian",
               "kernel.scale": "0.02", "run.initial_mass": "100"},
        stages={
            "simulate": {"run.horizon": "4.0", "run.engine": "thinning"},
            "survival": {"run.replicas": "20", "run.horizon": "1.0"},
            "qsd-yaglom": {"run.replicas": "150", "run.horizon": "1.5"},
            "qsd-fv": {"run.particles": "20", "run.burn_in": "0.5",
                       "run.horizon": "1.0"},
            "oracle": {"run.truncation": "250"},
            "validate": {"run.replicas": "200"},
        },
        estimate="qsd-yaglom", tv_tol="0.45", theta_tol="0.1", min_survivors=150,
        numpy_share=0.2,
    ),
)}


def stage_config(workload: Workload, stage: str, seed: int) -> dict[str, str]:
    """Config-file keys for one stage of the sequence."""
    if stage == "compare":
        keys = {"run.tv_tol": workload.tv_tol, "run.theta_tol": workload.theta_tol}
    else:
        keys = {**workload.model, "run.threads": "1", **workload.stages[stage],
                "run.seed": str(VALIDATE_SEED if stage == "validate" else seed)}
    keys["output.directory"] = f"out/{stage}"
    return keys


def config_text(workload: Workload, stage: str, seed: int) -> str:
    """The stage's config as config-file lines."""
    return "".join(f"{k} = {v}\n" for k, v in stage_config(workload, stage, seed).items())


def write_configs(workload: Workload, seed: int, workdir: Path) -> None:
    """One config file per stage under ``workdir/cfg``."""
    (workdir / "cfg").mkdir(parents=True, exist_ok=True)
    for stage in SEQUENCE:
        (workdir / "cfg" / f"{stage}.cfg").write_text(config_text(workload, stage, seed))


def stage_argv(workload: Workload, stage: str) -> list[str]:
    """CLI arguments for one stage, relative to the work directory."""
    argv = [stage, "--config", f"cfg/{stage}.cfg"]
    if stage == "compare":
        argv += [f"out/{workload.estimate}/qsd.json", "out/oracle/oracle.json"]
    return argv


def digests(stage_dir: Path) -> dict[str, str]:
    """sha256 of every artifact a stage wrote."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(stage_dir.iterdir()) if p.is_file()}


def combined_digest(stage_digests: dict[str, dict[str, str]]) -> str:
    """One sha256 over every stage's artifact digests, in a fixed order."""
    return hashlib.sha256(json.dumps(stage_digests, sort_keys=True).encode()).hexdigest()


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def _is_law(vector: list[float]) -> bool:
    return all(x >= 0.0 for x in vector) and abs(math.fsum(vector) - 1.0) <= 1e-9


def check_stage(workload: Workload, stage: str, status: int, out: Path) -> list[str]:
    """Problems with one stage's exit status and artifacts; empty if none."""
    if status != 0:
        return [f"{stage} exited {status}"]
    try:
        return _check_artifacts(workload, stage, out / stage)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"{stage} artifacts unreadable: {exc!r}"]


def _check_artifacts(workload: Workload, stage: str, d: Path) -> list[str]:
    if stage == "simulate":
        summary = read_json(d / "trajectory.json")
        rows = [line for line in (d / "trajectory.csv").read_text().splitlines()
                if line and not line.startswith("#")][1:]
        problems = []
        if summary["event_count"] != len(rows) or not rows:
            problems.append(f"simulate logged {len(rows)} rows for"
                            f" {summary['event_count']} events")
        elif int(rows[-1].rsplit(",", 1)[1]) != summary["final_mass"]:
            problems.append("simulate final mass disagrees with its event log")
        return problems
    if stage == "survival":
        s = read_json(d / "ensemble.json")["survival"]
        ok = all(0.0 <= x <= 1.0 for x in s) and all(b <= a for a, b in zip(s, s[1:]))
        return [] if ok else ["survival curve leaves [0, 1] or increases"]
    if stage in ("qsd-yaglom", "qsd-fv"):
        est = read_json(d / "qsd.json")
        problems = [] if _is_law(est["mass_marginal"]) else [f"{stage} marginal is not a law"]
        if stage == "qsd-yaglom" and est["particles"] < workload.min_survivors:
            problems.append(f"only {est['particles']} Yaglom survivors,"
                            f" want {workload.min_survivors}")
        return problems
    if stage == "oracle":
        orc = read_json(d / "oracle.json")
        tol = float(workload.stages["oracle"].get("run.eigen_tol", "1e-10"))
        ok = (_is_law(orc["nu"]) and orc["residual"] <= tol and orc["nu"][-1] < 1e-12
              and orc["theta"] >= 0.0)
        return [] if ok else ["oracle eigenpair unconverged or truncation too low"]
    if stage == "validate":
        failed = [c["check"] for c in read_json(d / "validate.json")["checks"] if not c["pass"]]
        return [f"validate FAIL: {', '.join(failed)}"] if failed else []
    return [] if read_json(d / "compare.json")["pass"] else ["compare FAIL"]
