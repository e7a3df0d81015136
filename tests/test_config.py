import dataclasses
import re
from pathlib import Path

import pytest

from qsdsim.config import MODEL_KEYS, SCHEMA, ExperimentConfig, parse_config_text, resolve_config
from qsdsim.configuration import Configuration
from qsdsim.errors import ConfigError
from qsdsim.rates import LogisticModel, UniformModel
from qsdsim.simulator import ENGINES
from qsdsim.trait_space import TruncatedGaussianKernel, UniformKernel

UNIFORM_LINES = {
    "model.kind": "uniform",
    "model.lambda": "2.0",
    "model.b": "1.0",
    "model.rho": "0.3",
}

LOGISTIC_LINES = {
    "model.kind": "logistic",
    "model.b": "1.0",
    "model.rho": "0.3",
    "model.d": "2.0",
    "model.c": "0.5",
}


def test_parse_lines_comments_and_spacing():
    text = """
    # experiment
    model.kind = uniform   # inline comment
    model.lambda=2.0

    model.b =  1.0
    """
    assert parse_config_text(text) == {
        "model.kind": "uniform", "model.lambda": "2.0", "model.b": "1.0"}


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("model.kind uniform")
    with pytest.raises(ConfigError, match="empty key or value"):
        parse_config_text("model.kind =")
    with pytest.raises(ConfigError, match="empty key or value"):
        parse_config_text("= uniform")
    with pytest.raises(ConfigError, match="duplicate key model.b"):
        parse_config_text("model.b = 1\nmodel.b = 2")


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="unknown config key model.mu"):
        resolve_config({**UNIFORM_LINES, "model.mu": "1"})


def test_missing_model_parameters_are_named():
    missing = dict(UNIFORM_LINES)
    del missing["model.lambda"]
    with pytest.raises(ConfigError, match="model.lambda"):
        resolve_config(missing)
    with pytest.raises(ConfigError, match="expected uniform or logistic"):
        resolve_config({"model.kind": "exotic"})
    with pytest.raises(ConfigError, match="model.b given without model.kind"):
        resolve_config({"model.b": "1.0"})


def test_fields_and_choices_follow_from_their_tables():
    # one row per key, one table per choice list: nothing to keep in step by hand
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
        key.field for key in SCHEMA]
    for kind, required in MODEL_KEYS.items():
        cfg = resolve_config({"model.kind": kind, **{name: "0.5" for name in required}})
        assert cfg.kind == kind
    for engine in ENGINES:
        assert resolve_config({"run.engine": engine}).engine == engine


def test_model_block_is_optional_until_built():
    # comparing artifacts needs no model; building one does
    cfg = resolve_config({})
    assert cfg.kind is None
    with pytest.raises(ConfigError, match="model.kind"):
        cfg.build_model()


def test_cross_kind_keys_are_rejected():
    with pytest.raises(ConfigError, match="model.d does not apply"):
        resolve_config({**UNIFORM_LINES, "model.d": "2.0"})
    with pytest.raises(ConfigError, match="model.lambda does not apply"):
        resolve_config({**LOGISTIC_LINES, "model.lambda": "2.0"})


def test_kernel_scale_rules():
    with pytest.raises(ConfigError, match="kernel.scale does not apply"):
        resolve_config({**UNIFORM_LINES, "kernel.scale": "0.1"})
    with pytest.raises(ConfigError,
                       match="kernel.scale for kernel.family = truncated_gaussian"):
        resolve_config({**UNIFORM_LINES, "kernel.family": "truncated_gaussian"})
    with pytest.raises(ConfigError, match="kernel.family"):
        resolve_config({**UNIFORM_LINES, "kernel.family": "cauchy"})
    cfg = resolve_config({**UNIFORM_LINES, "kernel.family": "truncated_gaussian",
                          "kernel.scale": "0.2"})
    assert isinstance(cfg.build_kernel(), TruncatedGaussianKernel)


def test_defaults_fill_unset_keys():
    cfg = resolve_config(UNIFORM_LINES)
    assert cfg.seed == 1
    assert cfg.replicas == 10_000
    assert cfg.horizon == 10.0
    assert cfg.particles == 2000
    assert cfg.burn_in == 20.0
    assert cfg.truncation == 60
    assert cfg.eigen_tol == 1e-10
    assert cfg.engine == "gillespie"
    assert cfg.threads == 1
    assert cfg.out_dir == "out"
    assert isinstance(cfg.build_kernel(), UniformKernel)


def test_default_grid_spans_horizon():
    cfg = resolve_config({**UNIFORM_LINES, "run.horizon": "3.0"})
    assert cfg.grid == (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    explicit = resolve_config({**UNIFORM_LINES, "run.grid": "0.5, 2.0, 7.5"})
    assert explicit.grid == (0.5, 2.0, 7.5)
    with pytest.raises(ConfigError, match="run.grid"):
        resolve_config({**UNIFORM_LINES, "run.grid": "2.0, 1.0"})
    with pytest.raises(ConfigError, match="run.grid"):
        resolve_config({**UNIFORM_LINES, "run.grid": "0.0, 1.0"})


def test_value_validation_messages():
    with pytest.raises(ConfigError, match="run.seed"):
        resolve_config({**UNIFORM_LINES, "run.seed": "-1"})
    with pytest.raises(ConfigError, match="run.seed"):
        resolve_config({**UNIFORM_LINES, "run.seed": str(2 ** 64)})
    with pytest.raises(ConfigError, match="run.replicas"):
        resolve_config({**UNIFORM_LINES, "run.replicas": "0"})
    with pytest.raises(ConfigError, match="run.horizon"):
        resolve_config({**UNIFORM_LINES, "run.horizon": "0"})
    with pytest.raises(ConfigError, match="run.particles"):
        resolve_config({**UNIFORM_LINES, "run.particles": "1"})
    with pytest.raises(ConfigError, match="run.engine"):
        resolve_config({**UNIFORM_LINES, "run.engine": "exact"})
    with pytest.raises(ConfigError, match="model.b"):
        resolve_config({**UNIFORM_LINES, "model.b": "zero"})


# every key parsed as one float
FLOAT_KEYS = [key.name for key in SCHEMA if key.parse.__qualname__.startswith("_float.")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "Infinity"])
@pytest.mark.parametrize("name", [*FLOAT_KEYS, "run.grid"])
def test_non_finite_values_are_refused_naming_the_key(name, value):
    lines = {**(LOGISTIC_LINES if name in ("model.d", "model.c") else UNIFORM_LINES),
             "kernel.family": "truncated_gaussian", "kernel.scale": "0.1"}
    if name == "run.grid":
        value = f"0.5, {value}"
    with pytest.raises(ConfigError, match=f"^{re.escape(name)}: .*finite"):
        resolve_config({**lines, name: value})


def test_the_finite_check_covers_every_float_key():
    assert len(FLOAT_KEYS) == 12


def test_build_model_both_kinds():
    uniform = resolve_config(UNIFORM_LINES).build_model()
    assert isinstance(uniform, UniformModel)
    assert (uniform.lam, uniform.b, uniform.rho) == (2.0, 1.0, 0.3)
    logistic = resolve_config(LOGISTIC_LINES).build_model()
    assert isinstance(logistic, LogisticModel)
    assert (logistic.b, logistic.d, logistic.c) == (1.0, 2.0, 0.5)


def test_build_initial_default_and_explicit():
    cfg = resolve_config({**UNIFORM_LINES, "run.initial_mass": "4"})
    assert cfg.build_initial() == Configuration.from_pairs(((0.5, 4),))
    cfg = resolve_config({**UNIFORM_LINES, "run.initial": "2@0.25;1@0.75"})
    assert cfg.build_initial() == Configuration.from_pairs(((0.25, 2), (0.75, 1)))
    with pytest.raises(ConfigError, match="run.initial"):
        resolve_config({**UNIFORM_LINES, "run.initial": "not-a-configuration"})


def test_hash_ignores_output_plumbing():
    base = resolve_config(UNIFORM_LINES)
    moved = resolve_config({**UNIFORM_LINES, "output.directory": "elsewhere",
                            "compare.a": "a.json", "compare.b": "b.json"})
    assert base.config_hash() == moved.config_hash()


def test_hash_tracks_experiment_inputs():
    base = resolve_config(UNIFORM_LINES)
    reseeded = resolve_config({**UNIFORM_LINES, "run.seed": "2"})
    reparametrized = resolve_config({**UNIFORM_LINES, "model.rho": "0.4"})
    assert base.config_hash() != reseeded.config_hash()
    assert base.config_hash() != reparametrized.config_hash()
    assert base.config_hash() == resolve_config(dict(UNIFORM_LINES)).config_hash()
    assert len(base.config_hash()) == 64


def test_overrides_win_over_file_values():
    cfg = resolve_config({**UNIFORM_LINES, "run.seed": "5"},
                         overrides={"run.seed": "9"})
    assert cfg.seed == 9
    with pytest.raises(ConfigError, match="unknown config key"):
        resolve_config(UNIFORM_LINES, overrides={"run.bogus": "1"})


def test_defaults_are_complete_and_known():
    # every default must itself resolve cleanly
    hashed = dict(resolve_config(LOGISTIC_LINES).canonical_items())
    for key in SCHEMA:
        if key.default is not None:
            assert (key.name in hashed) == key.hashed


# config_hash() digests that existing artifacts already carry; no change to
# the schema or its rendering may move them
GOLDEN_HASHES = [
    (UNIFORM_LINES,
     "d9713c18e7e3afe65b2aa4394c594bf42b6d8b4159608a8ffa397e5e61a91390"),
    ({"model.kind": "logistic", "model.b": "1.0", "model.rho": "0.3",
      "model.d": "2.0", "model.c": "0.5", "kernel.family": "truncated_gaussian",
      "kernel.scale": "0.05"},
     "192649c54d96e889c8f9db85bd4a085d0a70822eb03574c0e82d5455ac4c606d"),
    ({"model.kind": "logistic", "model.b": "2.0", "model.rho": "0.3",
      "model.d": "1.0", "model.c": "0.01", "kernel.family": "truncated_gaussian",
      "kernel.scale": "0.02", "run.initial_mass": "100"},
     "f5b20129c202cd2dbbff08dee696f6d81f77ba3ec799f320454b374f6be34567"),
    ({**UNIFORM_LINES, "run.grid": "0.5, 2.0, 7.5"},
     "fdbf7dac3a46cd157c8e8a55365a2f7645d2ed50fe4e1c943f7d626848d35113"),
    ({**UNIFORM_LINES, "run.initial": "2@0.25;1@0.75"},
     "8eed722b0f5292253ecb59bfc409e6b7a517b7e6b497860d8defd1eaa1315e49"),
    # the default grid is empty below horizon 0.5; such configs still resolve
    ({**UNIFORM_LINES, "run.horizon": "0.3"},
     "0dbfdc00db80dc8ff408bc52a88db23fb84652101ae94bf71a981bd7c7003bd5"),
    ({}, "90ed8409e9c5b3bc1548b9d3e17c3cca85e18d58591ead005eabd5c8bfca06d3"),
]


@pytest.mark.parametrize("raw, digest", GOLDEN_HASHES)
def test_config_hash_is_pinned(raw, digest):
    assert resolve_config(raw).config_hash() == digest


def test_model_block_names_the_set_model_keys():
    cfg = resolve_config({**LOGISTIC_LINES, "kernel.family": "truncated_gaussian",
                          "kernel.scale": "0.2"})
    assert cfg.model_block() == {"kind": "logistic", "b": 1.0, "rho": 0.3, "d": 2.0,
                                 "c": 0.5, "kernel": "truncated_gaussian",
                                 "scale": 0.2}
    assert resolve_config(UNIFORM_LINES).model_block() == {
        "kind": "uniform", "lambda": 2.0, "b": 1.0, "rho": 0.3, "kernel": "uniform"}


def test_readme_documents_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for key in SCHEMA:
        assert f"`{key.name}`" in readme
        if key.flag is not None:
            assert f"`{key.flag}`" in readme
