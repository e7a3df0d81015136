"""Experiment configuration: parsing, validation, and resolution.

Config files are flat ``key.path = value`` lines with ``#`` comments.
One table, :data:`SCHEMA`, lists every key with its parser, default,
CLI flag and whether it is hashed; the fields of
:class:`ExperimentConfig`, the defaults, the argparse flags, the config
hash and the artifacts' model block all follow from it.
Every key is validated before anything runs; unknown or malformed keys
fail naming the offending key. CLI flags override file values, defaults
fill the rest, and the fully resolved mapping is what gets hashed into
artifacts, so a hash pins the entire experiment.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import make_dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .configuration import Configuration, parse_configuration
from .errors import ConfigError
from .rates import LogisticModel, RateModel, UniformModel
from .simulator import ENGINES
from .trait_space import MutationKernel, make_kernel


def parse_config_text(text: str) -> dict[str, str]:
    """Key-value lines to a dict; malformed or duplicate lines fail."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw.strip()!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        values[key] = value
    return values


def _int(minimum: int) -> Callable[[str, str], int]:
    def parse(key: str, value: str) -> int:
        try:
            out = int(value)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {value!r}") from None
        if out < minimum:
            raise ConfigError(f"{key}: must be at least {minimum}, got {out}")
        return out
    return parse


def _float(minimum: float | None = None, strict: bool = False) -> Callable[[str, str], float]:
    def parse(key: str, value: str) -> float:
        try:
            out = float(value)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {value!r}") from None
        if not math.isfinite(out):
            raise ConfigError(f"{key}: must be finite, got {value!r}")
        if minimum is not None and (out < minimum or (strict and out == minimum)):
            bound = "above" if strict else "at least"
            raise ConfigError(f"{key}: must be {bound} {minimum}, got {out}")
        return out
    return parse


_positive = _float(0.0, strict=True)


def _one_process(key: str, value: str) -> int:
    # everything runs in one process; the key stays, hashed at 1, so that
    # configs that set it and the hashes of existing artifacts still hold
    if _int(1)(key, value) != 1:
        raise ConfigError(f"{key}: only 1 is supported, got {value!r}")
    return 1


def _one_of(*choices: str) -> Callable[[str, str], str]:
    def parse(key: str, value: str) -> str:
        if value not in choices:
            raise ConfigError(f"{key}: expected {' or '.join(choices)}, got {value!r}")
        return value
    return parse


def _grid(key: str, value: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(part) for part in value.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated numbers, got {value!r}") from None
    if not all(map(math.isfinite, grid)):
        raise ConfigError(f"{key}: grid times must be finite, got {value!r}")
    if not grid or any(t <= 0.0 for t in grid) \
            or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{key}: grid must be positive and strictly increasing")
    return grid


def _initial(key: str, value: str) -> str:
    try:
        parse_configuration(value)
    except Exception as exc:
        raise ConfigError(f"{key}: {exc}") from None
    return value


def _text(key: str, value: str) -> str:
    return value


class Key(NamedTuple):
    """One config key.

    ``field`` is the :class:`ExperimentConfig` field it declares and
    ``parse(name, text)`` turns its text into that value or raises a
    :class:`ConfigError` naming the key. Keys without a default stay
    None when unset. ``flag`` is the CLI option that overrides it, and
    ``hashed`` whether it enters :meth:`ExperimentConfig.config_hash`.
    """

    name: str
    field: str
    parse: Callable[[str, str], object]
    default: str | None = None
    flag: str | None = None
    hashed: bool = True


# cross-key rule: the model keys each kind requires; the rest it forbids
MODEL_KEYS = {
    "uniform": ("model.lambda", "model.b", "model.rho"),
    "logistic": ("model.b", "model.rho", "model.d", "model.c"),
}

SCHEMA = (
    Key("model.kind", "kind", _one_of(*MODEL_KEYS), flag="--kind"),
    Key("model.lambda", "lam", _positive, flag="--lambda"),
    Key("model.b", "b", _positive, flag="--b"),
    Key("model.rho", "rho", _float(), flag="--rho"),
    Key("model.d", "d", _positive, flag="--d"),
    Key("model.c", "c", _positive, flag="--c"),
    Key("kernel.family", "kernel_family", _one_of("uniform", "truncated_gaussian"),
        "uniform", "--kernel"),
    Key("kernel.scale", "kernel_scale", _positive, flag="--scale"),
    Key("run.seed", "seed", _int(0), "1", "--seed"),
    Key("run.replicas", "replicas", _int(1), "10000", "--replicas"),
    Key("run.horizon", "horizon", _positive, "10.0", "--t-max"),
    Key("run.grid", "grid", _grid),
    Key("run.particles", "particles", _int(2), "2000", "--particles"),
    Key("run.burn_in", "burn_in", _float(0.0), "20.0"),
    Key("run.truncation", "truncation", _int(2), "60", "--truncation"),
    Key("run.eigen_tol", "eigen_tol", _positive, "1e-10"),
    Key("run.tv_tol", "tv_tol", _positive, "0.05"),
    Key("run.theta_tol", "theta_tol", _positive, "0.1"),
    Key("run.snapshot_interval", "snapshot_interval", _positive, "0.5"),
    Key("run.threads", "threads", _one_process, "1"),
    Key("run.engine", "engine", _one_of(*ENGINES), "gillespie", "--engine"),
    Key("run.initial", "initial_text", _initial),
    Key("run.initial_mass", "initial_mass", _int(1), "1"),
    Key("output.directory", "out_dir", _text, "out", "--out", hashed=False),
    Key("compare.a", "compare_a", _text, hashed=False),
    Key("compare.b", "compare_b", _text, hashed=False),
)

_NAMES = frozenset(key.name for key in SCHEMA)


def _render(value: object) -> str:
    """A parsed value as canonical config text: floats by repr, grids joined."""
    if isinstance(value, tuple):
        return ",".join(repr(t) for t in value)
    return repr(value) if isinstance(value, float) else str(value)


class ExperimentConfig(make_dataclass("ExperimentFields",
                                      [key.field for key in SCHEMA], frozen=True)):
    """A fully resolved, validated experiment description.

    One frozen field per :data:`SCHEMA` key, in its order, named by the
    key's ``field``. The model block is optional at resolution time
    because comparing existing artifacts needs no model; anything that
    simulates calls :meth:`build_model`, which insists on it.
    """

    def canonical_items(self) -> list[tuple[str, str]]:
        """The hashed keys that are set, as sorted config-file lines.

        Output plumbing (directory, compare inputs) stays out: the hash
        identifies what was computed, not where it landed.
        """
        return sorted((key.name, _render(getattr(self, key.field))) for key in SCHEMA
                      if key.hashed and getattr(self, key.field) is not None)

    def config_hash(self) -> str:
        payload = "\n".join(f"{k} = {v}" for k, v in self.canonical_items())
        return hashlib.sha256(payload.encode()).hexdigest()

    def model_block(self) -> dict:
        """The model and kernel keys that are set, named as their CLI flags."""
        return {key.flag[2:]: getattr(self, key.field) for key in SCHEMA
                if key.name.startswith(("model.", "kernel."))
                and getattr(self, key.field) is not None}

    def build_kernel(self) -> MutationKernel:
        return make_kernel(self.kernel_family, self.kernel_scale)

    def build_model(self) -> RateModel:
        if self.kind is None:
            raise ConfigError("missing required key model.kind")
        kernel = self.build_kernel()
        if self.kind == "uniform":
            return UniformModel(lam=self.lam, b=self.b, rho=self.rho, kernel=kernel)
        return LogisticModel(b=self.b, rho=self.rho, d=self.d, c=self.c, kernel=kernel)

    def build_initial(self) -> Configuration:
        if self.initial_text is not None:
            return parse_configuration(self.initial_text)
        return Configuration.from_pairs(((0.5, self.initial_mass),))


def resolve_config(raw: Mapping[str, str],
                   overrides: Mapping[str, str] | None = None) -> ExperimentConfig:
    """Merge defaults, file values, and overrides into a validated config."""
    given: dict[str, str] = {}
    for source in (raw, overrides or {}):
        for name, value in source.items():
            if name not in _NAMES:
                raise ConfigError(f"unknown config key {name}")
            given[name] = value
    values = {}
    for key in SCHEMA:
        text = given.get(key.name, key.default)
        values[key.field] = None if text is None else key.parse(key.name, text)

    kind = values["kind"]
    required = MODEL_KEYS.get(kind, ())
    for name in given:
        if name.startswith("model.") and name != "model.kind" and name not in required:
            raise ConfigError(f"{name} given without model.kind" if kind is None
                              else f"{name} does not apply to model.kind = {kind}")
    for name in required:
        if name not in given:
            raise ConfigError(f"missing required key {name} for model.kind = {kind}")

    gaussian = values["kernel_family"] == "truncated_gaussian"
    if gaussian and values["kernel_scale"] is None:
        raise ConfigError(
            "missing required key kernel.scale for kernel.family = truncated_gaussian")
    if not gaussian and values["kernel_scale"] is not None:
        raise ConfigError("kernel.scale does not apply to kernel.family = uniform")

    if values["seed"] >= 2 ** 64:
        raise ConfigError(f"run.seed: must fit in 64 bits, got {values['seed']}")
    if values["grid"] is None:
        values["grid"] = tuple(float(t) for t in np.arange(0.5, values["horizon"] + 1e-9, 0.5))
    return ExperimentConfig(**values)
