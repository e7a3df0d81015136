"""Command-line front end.

Seven subcommands cover single trajectories, survival ensembles, the
two quasi-stationary estimators, the finite-state oracle, the
validation battery, and artifact comparison. Flags override config-file
keys, defaults fill the rest; every artifact embeds the hash of the
fully resolved config plus seed and tool version, and reruns with the
same inputs are byte-identical. Exit codes: 0 success, 1 usage or
configuration problems, 2 a failed validate/compare check.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from . import __version__
from .config import SCHEMA, ExperimentConfig, parse_config_text, resolve_config
from .errors import (ConfigError, InvalidRegime, NoSingletonMass, QsdsimError,
                     WindowTooSmall)
from .oracle import (build_mass_chain, check_truncation, eigenpair_report,
                     principal_left_eigenpair)
from .qsd import (decay_rate_from_singletons, decay_rate_from_survival,
                  estimate_report, fleming_viot_estimate, tv_distance,
                  write_sample_csv, yaglom_estimate)
from .rates import UniformModel
from .simulator import ENGINES, survival_curve, write_trajectory_csv
from .streams import RandomStream, Uniforms
from .validation import run_validation_checks

# What the imports built (scipy's modules above all) lives as long as the
# process, so the cyclic collector is told to stop walking it on every
# full collection. A library import of qsdsim does not load this module.
gc.freeze()

_FLAGGED = tuple(key for key in SCHEMA if key.flag is not None)
_FLAGS = frozenset(key.flag for key in _FLAGGED)


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message: str):
        raise ConfigError(message)


def _build_parser(names: tuple[str, ...]) -> _Parser:
    """The argument parser, with a subparser for each of ``names``."""
    parser = _Parser(prog="qsdsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in names:
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", metavar="PATH")
        for key in _FLAGGED:
            sub.add_argument(key.flag, dest=key.name, metavar=key.name)
        if name == "compare":
            sub.add_argument("file_a", metavar="FILE_A")
            sub.add_argument("file_b", metavar="FILE_B")
    return parser


def _joined(argv: list[str]) -> list[str]:
    """argv with a flag's separated value like -1e-3 or -inf joined to it by '='.

    argparse reads a value that starts with one '-' and is no plain
    decimal as an option; joined, it reaches its key's own check.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _FLAGS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _definite(obj):
    """JSON cannot carry infinities; unreached times become null."""
    if isinstance(obj, dict):
        return {k: _definite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_definite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _artifact(cfg: ExperimentConfig, name: str) -> tuple[Path, dict]:
    """The path of artifact ``name`` in the output directory, and its provenance keys."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name, {"config_hash": cfg.config_hash(), "seed": cfg.seed,
                        "tool_version": __version__}


def _write_json(cfg: ExperimentConfig, name: str, payload: dict) -> None:
    """Write JSON artifact ``name``, ``payload`` plus the provenance keys."""
    path, meta = _artifact(cfg, name)
    path.write_text(json.dumps(_definite({**payload, **meta}), sort_keys=True, indent=2)
                    + "\n")


@contextmanager
def _csv_artifact(cfg: ExperimentConfig, name: str) -> Iterator[IO[str]]:
    """Open CSV artifact ``name`` for writing, its ``# key=value`` provenance lines first."""
    path, meta = _artifact(cfg, name)
    with path.open("w") as out:
        for key, value in meta.items():
            out.write(f"# {key}={value}\n")
        yield out


def _run_simulate(cfg: ExperimentConfig) -> int:
    model = cfg.build_model()
    trajectory = ENGINES[cfg.engine](model, cfg.build_initial(), cfg.horizon,
                                     Uniforms(RandomStream(cfg.seed).generator()))
    with _csv_artifact(cfg, "trajectory.csv") as fh:
        write_trajectory_csv(trajectory, fh)
    _write_json(cfg, "trajectory.json", {
        "engine": cfg.engine,
        "event_count": len(trajectory.events),
        "final_mass": trajectory.final.total_mass,
        "extinction_time": trajectory.extinction_time,
        "first_mutation_time": trajectory.first_mutation_time,
        "replacement_time": trajectory.replacement_time,
        "thinning_candidates": trajectory.candidate_count,
        "thinning_accepted": trajectory.accepted_count,
        "model": cfg.model_block(),
    })
    print(f"simulated {len(trajectory.events)} events to t={cfg.horizon}"
          f" (final mass {trajectory.final.total_mass})")
    return 0


def _run_survival(cfg: ExperimentConfig) -> int:
    model = cfg.build_model()
    if not cfg.grid:
        raise ConfigError(f"run.grid: the default grid 0.5, 1.0, ... has no point up to"
                          f" run.horizon = {cfg.horizon}; set run.grid")
    curve = survival_curve(model, cfg.build_initial(), cfg.grid, cfg.replicas,
                           RandomStream(cfg.seed))
    theta_hat = theta_se = None
    try:
        theta_hat, theta_se = decay_rate_from_survival(curve)
    except WindowTooSmall:
        pass
    _write_json(cfg, "ensemble.json", {
        "model": cfg.model_block(),
        "replicas": cfg.replicas,
        "grid": list(curve.grid),
        "survival": list(curve.survival),
        "stderr": list(curve.stderr),
        "theta_hat": theta_hat,
        "theta_stderr": theta_se,
        "events": curve.events,
    })
    with _csv_artifact(cfg, "survival.csv") as fh:
        fh.write("t,survival,stderr\n")
        for t, p, se in curve:
            fh.write(f"{t:.17g},{p:.17g},{se:.17g}\n")
    if theta_hat is None:
        print(f"survival curve over {len(curve)} grid points; no admissible window"
              " for a decay-rate fit")
    else:
        print(f"survival curve over {len(curve)} grid points; theta_hat ="
              f" {theta_hat:.6g} +- {theta_se:.2g}")
    return 0


def _write_estimate(cfg: ExperimentConfig, model, est, label: str) -> None:
    try:
        theta_singleton = decay_rate_from_singletons(model, est)
    except NoSingletonMass:
        theta_singleton = None
    _write_json(cfg, "qsd.json", {
        **estimate_report(est),
        "estimator": label,
        "theta_singleton": theta_singleton,
        "model": cfg.model_block(),
    })
    with _csv_artifact(cfg, "qsd_sample.csv") as fh:
        write_sample_csv(est, fh)
    theta_text = "none" if theta_singleton is None else f"{theta_singleton:.6g}"
    print(f"{label} estimate over {len(est.configurations)} configurations"
          f" (ess {est.ess:.1f}, singleton theta {theta_text})")


def _qsd_model(cfg: ExperimentConfig):
    """The model of a QSD estimate or of the oracle; a uniform one needs lambda > b for a QSD."""
    model = cfg.build_model()
    if isinstance(model, UniformModel) and model.lam <= model.b:
        raise InvalidRegime(f"no quasi-stationary law for model.lambda = {model.lam!r}"
                            f" <= model.b = {model.b!r}: the mass is not subcritical")
    return model


def _run_qsd_yaglom(cfg: ExperimentConfig) -> int:
    model = _qsd_model(cfg)
    est = yaglom_estimate(model, cfg.build_initial(), cfg.horizon, cfg.replicas,
                          RandomStream(cfg.seed))
    _write_estimate(cfg, model, est, "yaglom")
    return 0


def _run_qsd_fv(cfg: ExperimentConfig) -> int:
    model = _qsd_model(cfg)
    if not 0.0 <= cfg.burn_in < cfg.horizon:
        raise InvalidRegime(f"need 0 <= run.burn_in < run.horizon, got {cfg.burn_in!r} and"
                            f" {cfg.horizon!r}; run.burn_in is set in a config file")
    est = fleming_viot_estimate(model, cfg.particles, cfg.burn_in, cfg.horizon,
                                RandomStream(cfg.seed),
                                snapshot_interval=cfg.snapshot_interval)
    _write_estimate(cfg, model, est, "fleming-viot")
    return 0


def _run_oracle(cfg: ExperimentConfig) -> int:
    model = _qsd_model(cfg)
    chain = build_mass_chain(model, cfg.truncation)
    result = principal_left_eigenpair(chain, tol=cfg.eigen_tol)
    check = check_truncation(model, chain, result, cfg.eigen_tol)
    for warning in check.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _write_json(cfg, "oracle.json", {**eigenpair_report(chain, result),
                                     "tail_mass": check.tail_mass,
                                     "theta_2N": check.theta_2N,
                                     "model": cfg.model_block()})
    with _csv_artifact(cfg, "oracle.csv") as fh:
        fh.write("mass,nu\n")
        for k in range(1, chain.N + 1):
            fh.write(f"{k},{result.nu[k]:.17g}\n")
    print(f"oracle N={chain.N}: theta = {result.theta:.10g}"
          f" (residual {result.residual:.2g})")
    return 0


def _run_validate(cfg: ExperimentConfig) -> int:
    model = cfg.build_model()
    checks = run_validation_checks(model, RandomStream(cfg.seed), replicas=cfg.replicas)
    _write_json(cfg, "validate.json", {"checks": checks})
    for check in checks:
        verdict = "pass" if check["pass"] else "FAIL"
        print(f"{verdict:4s} {check['check']}: statistic {check['statistic']:.4g}"
              f" vs threshold {check['threshold']:.4g}")
    return 0 if all(check["pass"] for check in checks) else 2


def _read_artifact(path: Path) -> tuple[list[float], float | None, object]:
    """The probability vector, decay rate and model block of a JSON artifact.

    The file may come from anywhere, so its shape is checked here: a
    JSON object whose vector is a list of nonnegative finite numbers and
    whose theta, if any, is a positive finite number. :func:`tv_distance`
    checks the vector's sum.
    """
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        raise ConfigError(f"{path}: not a JSON file ({exc})") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    vector = payload.get("nu", payload.get("mass_marginal"))
    if vector is None:
        raise ConfigError(f"{path}: no nu or mass_marginal vector to compare")
    if not isinstance(vector, list) or not all(type(x) in (int, float) for x in vector):
        raise ConfigError(f"{path}: the vector to compare must be a list of numbers")
    for x in vector:
        if not 0.0 <= x < math.inf:
            raise ConfigError(f"{path}: the vector to compare must have nonnegative finite "
                              f"entries, got {x!r}")
    theta = payload.get("theta", payload.get("theta_singleton"))
    if theta is not None and not (type(theta) in (int, float) and 0.0 < theta < math.inf):
        raise ConfigError(f"{path}: theta must be a positive finite number, got {theta!r}")
    return vector, theta, payload.get("model")


def _run_compare(cfg: ExperimentConfig) -> int:
    if cfg.compare_a is None or cfg.compare_b is None:
        raise ConfigError("compare needs compare.a and compare.b")
    vec_a, theta_a, model_a = _read_artifact(Path(cfg.compare_a))
    vec_b, theta_b, model_b = _read_artifact(Path(cfg.compare_b))
    if model_a is not None and model_b is not None and model_a != model_b:
        raise ConfigError(f"{cfg.compare_a} and {cfg.compare_b} are of different models:"
                          f" {model_a} and {model_b}")
    tv = tv_distance(vec_a, vec_b)
    ok = tv <= cfg.tv_tol
    delta = None
    if theta_a is not None and theta_b is not None:
        delta = abs(theta_a - theta_b) / max(theta_a, theta_b)
        ok = ok and delta <= cfg.theta_tol
    _write_json(cfg, "compare.json", {
        "a": cfg.compare_a, "b": cfg.compare_b,
        "tv": tv, "tv_tol": cfg.tv_tol,
        "theta_a": theta_a, "theta_b": theta_b,
        "theta_rel_delta": delta, "theta_tol": cfg.theta_tol,
        "pass": ok,
    })
    delta_text = "n/a" if delta is None else f"{delta:.4g}"
    print(f"tv = {tv:.4g} (tol {cfg.tv_tol}), theta delta = {delta_text}"
          f" (tol {cfg.theta_tol}): {'pass' if ok else 'FAIL'}")
    return 0 if ok else 2


_RUNNERS = {
    "simulate": _run_simulate,
    "survival": _run_survival,
    "qsd-yaglom": _run_qsd_yaglom,
    "qsd-fv": _run_qsd_fv,
    "oracle": _run_oracle,
    "validate": _run_validate,
    "compare": _run_compare,
}

SUBCOMMANDS = tuple(_RUNNERS)


def run_subcommand(name: str, config: ExperimentConfig) -> int:
    """Dispatch a validated config to a subcommand; returns the exit status."""
    if name not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {name!r}")
    return _RUNNERS[name](config)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a known subcommand needs only its own subparser; anything else gets
    # them all, for argparse's usage errors and --version
    names = (argv[0],) if argv and argv[0] in SUBCOMMANDS else SUBCOMMANDS
    try:
        args = _build_parser(names).parse_args(_joined(argv))
        raw = {}
        if args.config is not None:
            raw = parse_config_text(Path(args.config).read_text())
        overrides = {key.name: getattr(args, key.name)
                     for key in _FLAGGED if getattr(args, key.name) is not None}
        if args.command == "compare":
            overrides["compare.a"] = args.file_a
            overrides["compare.b"] = args.file_b
        cfg = resolve_config(raw, overrides)
        return run_subcommand(args.command, cfg)
    except QsdsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
