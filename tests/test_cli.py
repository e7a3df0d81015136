import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # lambda = 0.5 < b is supercritical: the mass escapes to the truncation
    assert main(["oracle", "--kind", "uniform", "--lambda", "0.5", "--b", "1.0",
                 "--rho", "0.3", "--out", str(tmp_path / "low")]) == 0
    err = capsys.readouterr().err
    assert "warning: nu[N]" in err
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
    lines = (out / "qsd_sample.csv").read_text().splitlines()
    assert "weight,configuration" in lines


@pytest.mark.parametrize("subcommand", ["qsd-yaglom", "qsd-fv"])
def test_qsd_estimates_need_a_subcritical_uniform_model(tmp_path, capsys, subcommand):
    for lam in ("1.0", "0.5"):
        status = main([subcommand, "--kind", "uniform", "--lambda", lam, "--b", "1.0",
                       "--rho", "0.3", "--replicas", "20", "--particles", "4",
                       "--t-max", "1.0", "--out", str(tmp_path / lam)])
        assert status == 1
        err = capsys.readouterr().err
        assert "error: no quasi-stationary law" in err
        assert "model.lambda" in err and "model.b" in err
        assert not (tmp_path / lam / "qsd.json").exists()
    # survival is still allowed there
    assert main(["survival", "--kind", "uniform", "--lambda", "1.0", "--b", "1.0",
                 "--rho", "0.3", "--replicas", "20", "--t-max", "1.0",
                 "--out", str(tmp_path / "survival")]) == 0


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
    assert payload["burn_in"] == 1.0


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


# the documented flag of each key that has one
FLAGS = {
    "model.kind": "--kind", "model.lambda": "--lambda", "model.b": "--b",
    "model.rho": "--rho", "model.d": "--d", "model.c": "--c",
    "kernel.family": "--kernel", "kernel.scale": "--scale", "run.seed": "--seed",
    "run.replicas": "--replicas", "run.horizon": "--t-max",
    "run.particles": "--particles", "run.truncation": "--truncation",
    "run.threads": "--threads", "run.engine": "--engine", "output.directory": "--out",
}

# a full config of each kind whose values differ from every default
FLAG_FILES = (
    {"model.kind": "uniform", "model.lambda": "2.5", "model.b": "1.25",
     "model.rho": "0.35"},
    {"model.kind": "logistic", "model.b": "1.5", "model.rho": "0.4",
     "model.d": "2.75", "model.c": "0.125", "kernel.family": "truncated_gaussian",
     "kernel.scale": "0.0625", "run.seed": "11", "run.replicas": "123",
     "run.horizon": "4.5", "run.particles": "77", "run.truncation": "33",
     "run.threads": "3", "run.engine": "thinning", "output.directory": "elsewhere"},
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
