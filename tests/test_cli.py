import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qsdsim import __version__, cli
from qsdsim.cli import main
from qsdsim.config import SCHEMA, resolve_config

UNIFORM_FLAGS = ["--kind", "uniform", "--lambda", "2.0", "--b", "1.0",
                 "--rho", "0.3"]


def _read_json(path):
    return json.loads(path.read_text())


def test_usage_errors_exit_one(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_horizon_is_a_config_error(value, tmp_path, capsys):
    # without run.grid the default grid spans the horizon; with it a
    # Yaglom stage at horizon nan would have returned its start
    assert main(["survival", *UNIFORM_FLAGS, "--t-max", value, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: run.horizon: ")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"run.horizon = {value}\nrun.grid = 0.5, 1.0\n")
    assert main(["qsd-yaglom", *UNIFORM_FLAGS, "--config", str(cfg),
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: run.horizon: ")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_missing_model_lambda_is_named(tmp_path, capsys):
    status = main(["oracle", "--kind", "uniform", "--b", "1.0", "--rho", "0.3",
                   "--out", str(tmp_path)])
    assert status == 1
    assert "model.lambda" in capsys.readouterr().err


def test_model_kind_required_to_simulate(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path)]) == 1
    assert "model.kind" in capsys.readouterr().err


def test_run_threads_takes_only_one_and_has_no_flag(tmp_path, capsys):
    # everything runs in one process; the key stays for the configs that set it to 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("run.threads = 2\n")
    assert main(["oracle", *UNIFORM_FLAGS, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: run.threads: ")
    assert main(["oracle", *UNIFORM_FLAGS, "--threads", "1", "--out", str(tmp_path)]) == 1
    assert "--threads" in capsys.readouterr().err
    cfg.write_text("run.threads = 1\n")
    assert main(["oracle", *UNIFORM_FLAGS, "--config", str(cfg), "--truncation", "30",
                 "--out", str(tmp_path)]) == 0


def test_missing_config_file_exits_one(tmp_path, capsys):
    status = main(["oracle", "--config", str(tmp_path / "absent.cfg")])
    assert status == 1
    assert "error:" in capsys.readouterr().err


def test_oracle_artifacts(tmp_path):
    out = tmp_path / "oracle"
    assert main(["oracle", *UNIFORM_FLAGS, "--truncation", "40",
                 "--out", str(out)]) == 0
    payload = _read_json(out / "oracle.json")
    assert payload["N"] == 40
    assert abs(payload["theta"] - 1.0) <= 1e-6
    assert len(payload["nu"]) == 40
    assert payload["residual"] <= 1e-10
    assert payload["iters"] == 1
    assert payload["tail_mass"] == payload["nu"][-1]
    assert abs(payload["theta_2N"] - payload["theta"]) <= 1e-6
    assert payload["model"]["kind"] == "uniform"
    assert payload["seed"] == 1
    assert payload["tool_version"] == __version__
    assert len(payload["config_hash"]) == 64
    lines = (out / "oracle.csv").read_text().splitlines()
    meta = [line for line in lines if line.startswith("# ")]
    assert any(line.startswith("# config_hash=") for line in meta)
    assert lines[len(meta)] == "mass,nu"
    assert len(lines) == len(meta) + 1 + 40


def test_oracle_warns_on_a_truncation_that_is_too_low(tmp_path, capsys):
    assert main(["oracle", *UNIFORM_FLAGS, "--truncation", "60",
                 "--out", str(tmp_path / "ok")]) == 0
    assert "warning" not in capsys.readouterr().err
    # lambda = 1.1 is near-critical: the limit law is too wide for N = 20
    assert main(["oracle", "--kind", "uniform", "--lambda", "1.1", "--b", "1.0",
                 "--rho", "0.3", "--truncation", "20", "--out", str(tmp_path / "low")]) == 0
    err = capsys.readouterr().err
    assert "warning: nu[N]" in err
    assert "at 2N; raise the truncation" in err
    assert _read_json(tmp_path / "low" / "oracle.json")["tail_mass"] > 1e-12


@pytest.mark.parametrize("engine", ["gillespie", "thinning"])
def test_simulate_artifacts(tmp_path, engine, capsys):
    out = tmp_path / engine
    assert main(["simulate", *UNIFORM_FLAGS, "--engine", engine,
                 "--t-max", "2.0", "--seed", "7", "--out", str(out)]) == 0
    assert "simulated" in capsys.readouterr().out
    payload = _read_json(out / "trajectory.json")
    assert payload["engine"] == engine
    assert payload["final_mass"] >= 0
    csv_lines = (out / "trajectory.csv").read_text().splitlines()
    header = [line for line in csv_lines if not line.startswith("# ")][0]
    assert header == "time,event_kind,parent_trait,child_trait,total_mass_after"
    body = [line for line in csv_lines
            if not line.startswith("# ") and line != header]
    assert len(body) == payload["event_count"]
    if engine == "thinning":
        assert payload["thinning_candidates"] >= payload["thinning_accepted"]
        assert payload["thinning_accepted"] == payload["event_count"]
    else:
        assert payload["thinning_candidates"] is None
        assert payload["thinning_accepted"] is None


def test_simulate_unreached_times_serialize_as_null(tmp_path):
    out = tmp_path / "short"
    assert main(["simulate", *UNIFORM_FLAGS, "--t-max", "0.01", "--seed", "3",
                 "--out", str(out)]) == 0
    payload = _read_json(out / "trajectory.json")
    assert payload["replacement_time"] is None or \
        payload["replacement_time"] <= 0.01


def test_config_file_with_explicit_initial(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "model.kind = uniform\n"
        "model.lambda = 2.0\n"
        "model.b = 1.0\n"
        "model.rho = 0.3\n"
        "run.initial = 2@0.25;1@0.75  # three individuals\n"
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--t-max", "1e-9",
                 "--out", str(out)]) == 0
    payload = _read_json(out / "trajectory.json")
    assert payload["final_mass"] == 3
    assert payload["event_count"] == 0


def test_survival_artifacts(tmp_path):
    out = tmp_path / "survival"
    assert main(["survival", *UNIFORM_FLAGS, "--replicas", "400",
                 "--t-max", "3.0", "--out", str(out)]) == 0
    payload = _read_json(out / "ensemble.json")
    assert payload["grid"] == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    assert len(payload["survival"]) == 6
    assert payload["replicas"] == 400
    assert payload["theta_hat"] is not None
    assert all(0.0 <= p <= 1.0 for p in payload["survival"])
    # every replica extinct by the horizon jumped at least once
    assert isinstance(payload["events"], int)
    assert payload["events"] >= round(400 * (1.0 - payload["survival"][-1]))
    lines = (out / "survival.csv").read_text().splitlines()
    assert "t,survival,stderr" in lines
    assert len([l for l in lines if not l.startswith("# ")]) == 1 + 6


def test_survival_reports_no_decay_rate_once_every_replica_is_extinct(tmp_path, capsys):
    # at lambda = 50 every replica dies before the first grid point
    out = tmp_path / "extinct"
    assert main(["survival", "--kind", "uniform", "--lambda", "50", "--b", "1",
                 "--rho", "0.3", "--replicas", "200", "--t-max", "3",
                 "--out", str(out)]) == 0
    payload = _read_json(out / "ensemble.json")
    assert payload["survival"] == [0.0] * 6
    assert payload["theta_hat"] is None and payload["theta_stderr"] is None
    assert "no admissible window" in capsys.readouterr().out


def test_survival_reports_no_decay_rate_while_no_replica_has_died(tmp_path, capsys):
    # all three replicas outlive the horizon, so the curve stays at 1
    out = tmp_path / "alive"
    assert main(["survival", "--kind", "uniform", "--lambda", "2", "--b", "1",
                 "--rho", "0.3", "--replicas", "3", "--t-max", "1", "--seed", "4",
                 "--out", str(out)]) == 0
    payload = _read_json(out / "ensemble.json")
    assert payload["survival"] == [1.0] * len(payload["grid"])
    assert payload["theta_hat"] is None and payload["theta_stderr"] is None
    assert "no admissible window" in capsys.readouterr().out


def test_survival_needs_a_grid_point_within_the_horizon(tmp_path, capsys):
    # the default grid 0.5, 1.0, ... has no point up to a horizon of 0.3
    status = main(["survival", *UNIFORM_FLAGS, "--t-max", "0.3",
                   "--out", str(tmp_path)])
    assert status == 1
    assert "error: run.grid" in capsys.readouterr().err
    config = tmp_path / "grid.cfg"
    config.write_text("run.grid = 0.1, 0.3\n")
    assert main(["survival", "--config", str(config), *UNIFORM_FLAGS, "--t-max", "0.3",
                 "--replicas", "50", "--out", str(tmp_path)]) == 0
    assert _read_json(tmp_path / "ensemble.json")["grid"] == [0.1, 0.3]


def test_yaglom_artifacts(tmp_path, capsys):
    out = tmp_path / "yaglom"
    assert main(["qsd-yaglom", *UNIFORM_FLAGS, "--replicas", "2000",
                 "--t-max", "1.0", "--out", str(out)]) == 0
    assert "yaglom estimate" in capsys.readouterr().out
    payload = _read_json(out / "qsd.json")
    assert payload["estimator"] == "yaglom"
    assert abs(sum(payload["mass_marginal"]) - 1.0) <= 1e-9
    assert payload["theta_singleton"] is not None
    assert payload["burn_in"] == 0.0
    assert isinstance(payload["events"], int)
    assert payload["events"] >= 2000 - payload["particles"]
    assert "resurrections" not in payload
    lines = (out / "qsd_sample.csv").read_text().splitlines()
    assert "weight,configuration" in lines


@pytest.mark.parametrize("subcommand", ["qsd-yaglom", "qsd-fv", "oracle"])
def test_qsd_estimates_need_a_subcritical_uniform_model(tmp_path, capsys, subcommand):
    for lam in ("1.0", "0.5"):
        status = main([subcommand, "--kind", "uniform", "--lambda", lam, "--b", "1.0",
                       "--rho", "0.3", "--replicas", "20", "--particles", "4",
                       "--t-max", "1.0", "--out", str(tmp_path / lam)])
        assert status == 1
        err = capsys.readouterr().err
        assert "error: no quasi-stationary law" in err
        assert "model.lambda" in err and "model.b" in err
        assert not list((tmp_path / lam).glob("*.json"))
    # survival is still allowed there
    assert main(["survival", "--kind", "uniform", "--lambda", "1.0", "--b", "1.0",
                 "--rho", "0.3", "--replicas", "20", "--t-max", "1.0",
                 "--out", str(tmp_path / "survival")]) == 0


def test_validate_needs_two_replicas_for_its_standard_errors(tmp_path, capsys):
    assert main(["validate", *UNIFORM_FLAGS, "--replicas", "1",
                 "--out", str(tmp_path)]) == 1
    assert "error: validate needs at least 2 replicas" in capsys.readouterr().err
    assert not (tmp_path / "validate.json").exists()


def test_validate_at_two_replicas_reports_a_zero_standard_error(tmp_path, capsys):
    # two replicas that end at one mass give a zero SE (seeds 1, 2, 4 and 7)
    failed = set()
    for seed in range(1, 9):
        out = tmp_path / str(seed)
        status = main(["validate", *UNIFORM_FLAGS, "--replicas", "2", "--seed", str(seed),
                       "--out", str(out)])
        assert status in (0, 2)
        assert "Traceback" not in capsys.readouterr().err
        checks = {c["check"]: c for c in _read_json(out / "validate.json")["checks"]}
        decay = checks["mean_mass_decay"]
        assert isinstance(decay["statistic"], float)
        assert status == (0 if all(c["pass"] for c in checks.values()) else 2)
        if not decay["pass"]:
            failed.add(seed)
    assert {1, 2, 4, 7} <= failed


@pytest.mark.parametrize("flag, value, error", [
    ("--rho", "-1e-3", "error: rho must lie in (0, 1), got -0.001\n"),
    ("--t-max", "-inf", "error: run.horizon: must be finite, got '-inf'\n"),
    ("--rho", "-x", "error: model.rho: expected a number, got '-x'\n"),
], ids=["rho", "t-max", "not-a-number"])
def test_a_separated_value_like_minus_inf_reaches_its_key(flag, value, error, tmp_path, capsys):
    # argparse reads a value that starts with '-' and is no plain decimal as
    # an option; the last --rho wins over UNIFORM_FLAGS' own
    base = ["simulate", *UNIFORM_FLAGS, "--out", str(tmp_path)]
    assert main([*base, flag, value]) == 1
    assert capsys.readouterr().err == error
    assert main([*base, f"{flag}={value}"]) == 1
    assert capsys.readouterr().err == error


def test_fleming_viot_artifacts(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "model.kind = uniform\n"
        "model.lambda = 2.0\n"
        "model.b = 1.0\n"
        "model.rho = 0.3\n"
        "run.burn_in = 1.0\n"
    )
    out = tmp_path / "fv"
    assert main(["qsd-fv", "--config", str(config), "--particles", "50",
                 "--t-max", "6.0", "--out", str(out)]) == 0
    payload = _read_json(out / "qsd.json")
    assert payload["estimator"] == "fleming-viot"
    assert payload["particles"] == 50
    assert payload["events"] > 0
    assert 0 < payload["resurrections"] <= payload["events"]
    assert payload["burn_in"] == 1.0


def test_fleming_viot_at_its_defaults_names_the_burn_in_key(tmp_path, capsys):
    # run.burn_in defaults to 20 and run.horizon to 10, and burn_in has no flag
    assert main(["qsd-fv", *UNIFORM_FLAGS, "--particles", "4",
                 "--out", str(tmp_path / "fv")]) == 1
    err = capsys.readouterr().err
    assert "error: need 0 <= run.burn_in < run.horizon, got 20.0 and 10.0" in err
    assert "run.burn_in is set in a config file" in err
    assert not (tmp_path / "fv" / "qsd.json").exists()


def test_validate_exit_status_and_report(tmp_path, capsys):
    out = tmp_path / "validate"
    assert main(["validate", *UNIFORM_FLAGS, "--replicas", "300",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "pass mass_generator_identity" in stdout
    payload = _read_json(out / "validate.json")
    assert all(check["pass"] for check in payload["checks"])
    assert "config_hash" in payload


def test_compare_pass_and_fail(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["oracle", *UNIFORM_FLAGS, "--truncation", "60",
                 "--out", str(a)]) == 0
    assert main(["oracle", *UNIFORM_FLAGS, "--truncation", "40",
                 "--out", str(b)]) == 0
    out = tmp_path / "cmp"
    status = main(["compare", str(a / "oracle.json"), str(b / "oracle.json"),
                   "--out", str(out)])
    assert status == 0
    payload = _read_json(out / "compare.json")
    assert payload["pass"] is True
    assert payload["tv"] <= 1e-9
    assert payload["theta_rel_delta"] <= 1e-6

    yag = tmp_path / "yag"
    assert main(["qsd-yaglom", *UNIFORM_FLAGS, "--replicas", "2000",
                 "--t-max", "1.0", "--out", str(yag)]) == 0
    tight = tmp_path / "tight.cfg"
    tight.write_text("run.tv_tol = 1e-6\n")
    status = main(["compare", "--config", str(tight),
                   str(yag / "qsd.json"), str(a / "oracle.json"),
                   "--out", str(tmp_path / "cmp2")])
    assert status == 2
    assert "FAIL" in capsys.readouterr().out


def test_compare_needs_a_vector(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}\n")
    status = main(["compare", str(empty), str(empty),
                   "--out", str(tmp_path / "out")])
    assert status == 1
    assert "no nu or mass_marginal" in capsys.readouterr().err


@pytest.mark.parametrize("text, error", [
    ("not json\n", "not a JSON file"),
    ("[1, 2]\n", "expected a JSON object, got list"),
    ('{"nu": "abc"}\n', "the vector to compare must be a list of numbers"),
    ('{"mass_marginal": [0.5, "0.5"]}\n', "the vector to compare must be a list of numbers"),
    ('{"nu": [1.0], "theta": 0}\n', "theta must be a positive finite number, got 0"),
    ('{"nu": [1.0], "theta": -1.5}\n', "theta must be a positive finite number, got -1.5"),
    ('{"nu": [1.0], "theta": NaN}\n', "theta must be a positive finite number, got nan"),
    ('{"nu": [1.0], "theta": Infinity}\n', "theta must be a positive finite number, got inf"),
    ('{"nu": [1.0], "theta_singleton": "1"}\n',
     "theta must be a positive finite number, got '1'"),
], ids=["not-json", "list", "nu-text", "text-entry", "theta-zero", "theta-negative",
        "theta-nan", "theta-inf", "theta-text"])
def test_compare_refuses_a_file_that_is_no_artifact(text, error, tmp_path, capsys):
    # compare reads files from outside the program; each of these once ended
    # in a traceback, a division by zero or a pass
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "out"
    assert main(["compare", str(bad), str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: {error}")
    assert not out.exists()


@pytest.mark.parametrize("bad_is", ["a", "b"])
@pytest.mark.parametrize("entries, shown", [("[NaN, 1.0]", "nan"), ("[-0.5, 1.5]", "-0.5"),
                                            ("[Infinity, 0.0]", "inf")],
                         ids=["nan", "negative", "inf"])
def test_compare_names_the_file_behind_a_bad_vector_entry(entries, shown, bad_is, tmp_path,
                                                          capsys):
    # tv_distance refuses these too, but its error named neither file; and
    # abs(nan - 1) > 1e-9 is False, so its sum check alone once let NaN through
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"nu": [0.5, 0.5]}\n')
    bad.write_text(f'{{"nu": {entries}}}\n')
    pair = (bad, good) if bad_is == "a" else (good, bad)
    out = tmp_path / "out"
    assert main(["compare", *map(str, pair), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {bad}: the vector to compare must have nonnegative finite entries, got {shown}")
    assert not out.exists()


def test_compare_refuses_artifacts_of_different_models(tmp_path, capsys):
    # lambda / b is 2 in both, so the two oracles share nu, and their thetas
    # of 1 and 1.1 lie within the default tolerance: only the model blocks differ
    a, b = tmp_path / "a" / "oracle.json", tmp_path / "b" / "oracle.json"
    assert main(["oracle", *UNIFORM_FLAGS, "--out", str(a.parent)]) == 0
    assert main(["oracle", "--kind", "uniform", "--lambda", "2.2", "--b", "1.1",
                 "--rho", "0.3", "--out", str(b.parent)]) == 0
    capsys.readouterr()
    out = tmp_path / "cmp"
    assert main(["compare", str(a), str(b), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {a} and {b} are of different models")
    assert not out.exists()
    # a file without a model block is compared as before
    bare = tmp_path / "bare.json"
    payload = _read_json(b)
    del payload["model"]
    bare.write_text(json.dumps(payload))
    assert main(["compare", str(a), str(bare), "--out", str(out)]) == 0


# the documented flag of each key that has one
FLAGS = {
    "model.kind": "--kind", "model.lambda": "--lambda", "model.b": "--b",
    "model.rho": "--rho", "model.d": "--d", "model.c": "--c",
    "kernel.family": "--kernel", "kernel.scale": "--scale", "run.seed": "--seed",
    "run.replicas": "--replicas", "run.horizon": "--t-max",
    "run.particles": "--particles", "run.truncation": "--truncation",
    "run.engine": "--engine", "output.directory": "--out",
}

# a full config of each kind whose values differ from every default
FLAG_FILES = (
    {"model.kind": "uniform", "model.lambda": "2.5", "model.b": "1.25",
     "model.rho": "0.35"},
    {"model.kind": "logistic", "model.b": "1.5", "model.rho": "0.4",
     "model.d": "2.75", "model.c": "0.125", "kernel.family": "truncated_gaussian",
     "kernel.scale": "0.0625", "run.seed": "11", "run.replicas": "123",
     "run.horizon": "4.5", "run.particles": "77", "run.truncation": "33",
     "run.engine": "thinning", "output.directory": "elsewhere"},
)


@pytest.mark.parametrize("key", SCHEMA, ids=lambda key: key.name)
def test_each_flag_sets_its_key(key, tmp_path, monkeypatch):
    # a flag must resolve to the same config as its key in a file
    assert key.flag == FLAGS.get(key.name)
    if key.flag is None:
        return
    full = next(lines for lines in FLAG_FILES if key.name in lines)
    assert full[key.name] != key.default
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{name} = {value}\n" for name, value in full.items()
                              if name != key.name))
    seen = []
    monkeypatch.setattr(cli, "run_subcommand", lambda name, cfg: seen.append(cfg) or 0)
    assert main(["oracle", "--config", str(config), FLAGS[key.name], full[key.name]]) == 0
    assert seen == [resolve_config(full)]


@pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
def test_every_subcommand_accepts_each_of_its_flags(subcommand, tmp_path, monkeypatch):
    # main builds the invoked subcommand's parser alone; it must still take every flag
    config = tmp_path / "empty.cfg"
    config.write_text("")
    flagged = [key for key in SCHEMA if key.flag is not None]
    argv = [subcommand, "--config", str(config)]
    for k, key in enumerate(flagged):
        argv += [key.flag, f"value{k}"]
    expected = {key.name: f"value{k}" for k, key in enumerate(flagged)}
    if subcommand == "compare":
        argv += ["a.json", "b.json"]
        expected.update({"compare.a": "a.json", "compare.b": "b.json"})
    seen = []
    monkeypatch.setattr(cli, "resolve_config", lambda raw, overrides: overrides)
    monkeypatch.setattr(cli, "run_subcommand",
                        lambda name, cfg: seen.append((name, cfg)) or 0)
    assert main(argv) == 0
    assert seen == [(subcommand, expected)]


def test_reruns_are_byte_identical(tmp_path):
    def run_all(out):
        assert main(["oracle", *UNIFORM_FLAGS, "--truncation", "30",
                     "--out", str(out)]) == 0
        assert main(["qsd-yaglom", *UNIFORM_FLAGS, "--replicas", "500",
                     "--t-max", "1.0", "--seed", "9", "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    first = run_all(tmp_path / "one")
    second = run_all(tmp_path / "two")
    assert first == second
    assert set(first) == {"oracle.json", "oracle.csv", "qsd.json",
                          "qsd_sample.csv"}


def test_every_csv_artifact_opens_with_its_provenance(tmp_path):
    runs = {("trajectory.csv", "trajectory.json"): ["simulate", "--t-max", "1.0"],
            ("survival.csv", "ensemble.json"): ["survival", "--replicas", "50",
                                                "--t-max", "1.0"],
            ("qsd_sample.csv", "qsd.json"): ["qsd-yaglom", "--replicas", "200",
                                             "--t-max", "1.0"],
            ("oracle.csv", "oracle.json"): ["oracle", "--truncation", "20"]}
    for (csv, report), (command, *flags) in runs.items():
        out = tmp_path / command
        assert main([command, *UNIFORM_FLAGS, *flags, "--seed", "5", "--out", str(out)]) == 0
        lines = (out / csv).read_text().splitlines()
        assert lines[:3] == [f"# config_hash={_read_json(out / report)['config_hash']}",
                             "# seed=5", f"# tool_version={__version__}"], csv
        assert not lines[3].startswith("#"), csv


def test_every_json_artifact_carries_its_provenance(tmp_path):
    fv = tmp_path / "fv.cfg"
    fv.write_text("run.burn_in = 0.5\n")
    oracle = tmp_path / "oracle" / "oracle.json"
    runs = {"simulate": ["--t-max", "1.0"],
            "survival": ["--replicas", "50", "--t-max", "1.0"],
            "qsd-yaglom": ["--replicas", "200", "--t-max", "1.0"],
            "qsd-fv": ["--config", str(fv), "--particles", "20", "--t-max", "1.0"],
            "oracle": ["--truncation", "20"],
            "validate": ["--replicas", "20"],
            "compare": [str(oracle), str(oracle)]}
    assert tuple(runs) == cli.SUBCOMMANDS
    for command, flags in runs.items():
        out = tmp_path / command
        assert main([command, *UNIFORM_FLAGS, *flags, "--seed", "5", "--out", str(out)]) == 0
        reports = sorted(out.glob("*.json"))
        assert reports, command
        hashes = set()
        for report in reports:
            payload = _read_json(report)
            assert (payload["seed"], payload["tool_version"]) == (5, __version__), report
            hashes.add(payload["config_hash"])
        assert len(hashes) == 1 and len(hashes.pop()) == 64, command


def test_importing_the_cli_loads_every_module_the_benchmark_times():
    # perfbench/run.py --trace 1 fails outright when a timed module goes missing
    root = Path(__file__).resolve().parents[1]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    timed = {m["name"][:-len(".import_s")] for m in spec["per_layer"]
             if m["name"].endswith(".import_s")}
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qsdsim.cli"],
                          env=env, capture_output=True, text=True, check=True)
    imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert timed and timed <= imported, sorted(timed - imported)


@pytest.mark.parametrize("module, frozen", [("qsdsim.cli", True), ("qsdsim", False)])
def test_only_the_cli_freezes_the_heap_its_imports_built(module, frozen):
    # the CLI owns its process; a library import leaves the collector alone
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = f"import gc, {module}; print(gc.get_freeze_count())"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert (int(proc.stdout) > 0) is frozen


def _finite_json(path):
    def refuse(constant):
        raise AssertionError(f"{path} holds {constant}")
    return json.loads(path.read_text(), parse_constant=refuse)


_SMALL = st.floats(0.05, 2.0)
_MODEL_KEYS = st.one_of(
    st.fixed_dictionaries({"model.kind": st.just("uniform"), "model.lambda": _SMALL,
                           "model.b": _SMALL}),
    st.fixed_dictionaries({"model.kind": st.just("logistic"), "model.b": _SMALL,
                           "model.d": _SMALL, "model.c": _SMALL}))
_KERNEL_KEYS = st.one_of(
    st.just({"kernel.family": "uniform"}),
    st.fixed_dictionaries({"kernel.family": st.just("truncated_gaussian"),
                           "kernel.scale": st.floats(1e-3, 10.0)}))
# a small config of either model and kernel; rho and burn_in may fall
# outside their regimes, and every run key is bounded so that a run stays short
_RUN_KEYS = st.fixed_dictionaries({
    "model.rho": st.floats(0.0, 1.0),
    "run.seed": st.integers(0, 2**32 - 1),
    "run.replicas": st.integers(1, 60),
    "run.horizon": st.floats(0.01, 1.5),
    "run.particles": st.integers(2, 30),
    "run.burn_in": st.floats(0.0, 1.5),
    "run.snapshot_interval": st.floats(0.05, 1.0),
    "run.truncation": st.integers(2, 80),
    "run.tv_tol": st.floats(1e-6, 1.0),
    "run.theta_tol": st.floats(1e-6, 1.0),
    "run.engine": st.sampled_from(["gillespie", "thinning"]),
    "run.initial_mass": st.integers(1, 5),
}, optional={"run.grid": st.lists(st.floats(0.01, 1.5), min_size=1, max_size=3,
                                  unique=True).map(lambda ts: ", ".join(map(repr, sorted(ts))))})
_SWEEP_CONFIGS = st.tuples(_MODEL_KEYS, _KERNEL_KEYS, _RUN_KEYS).map(
    lambda parts: {k: v for part in parts for k, v in part.items()})


@seed(33)
@settings(max_examples=150, deadline=None)
@given(subcommand=st.sampled_from(cli.SUBCOMMANDS), keys=_SWEEP_CONFIGS)
def test_every_subcommand_ends_in_a_result_or_a_named_error(subcommand, keys):
    # exit 0, a FAIL verdict of validate or compare (2), or one error: line
    # (1); never a traceback, and never a NaN or an infinity in an artifact
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = root / "run.cfg"
        config.write_text("".join(f"{name} = {value}\n" for name, value in keys.items()))
        argv = [subcommand, "--config", str(config), "--out", str(root / "out")]
        if subcommand == "compare":
            # an oracle against one of a different truncation
            for name, truncation in (("a", "2"), ("b", str(keys["run.truncation"]))):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    main(["oracle", "--config", str(config), "--truncation", truncation,
                          "--out", str(root / name)])
            argv += [str(root / "a" / "oracle.json"), str(root / "b" / "oracle.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(argv)
        if status == 1:
            assert any(line.startswith("error: ") for line in err.getvalue().splitlines())
        else:
            assert status == 0 or (status == 2 and subcommand in ("validate", "compare"))
        for path in root.rglob("*.json"):
            _finite_json(path)
