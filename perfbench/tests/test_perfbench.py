"""Tests of the benchmark harness itself: configs, tracer, runner guard.

The traced-sequence tests run each workload's model at small sizes, so
every patched layer is exercised in a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from session import SETUP_REFS, measure, run_sequence, timed_setup  # noqa: E402
from tracer import Tracer, counts, installed, layer_metrics  # noqa: E402
from workloads import SEQUENCE, WORKLOADS, stage_config, write_configs  # noqa: E402

SMALL = {
    "ensemble": {
        "survival": {"run.replicas": "300"},
        "qsd-yaglom": {"run.replicas": "2000"},
        "qsd-fv": {"run.particles": "50", "run.burn_in": "1.0", "run.horizon": "3.0"},
        "validate": {"run.replicas": "30"},
    },
    "particles": {
        "survival": {"run.replicas": "200"},
        "qsd-yaglom": {"run.replicas": "300"},
        "qsd-fv": {"run.particles": "300", "run.burn_in": "0.3", "run.horizon": "0.6"},
        "oracle": {"run.truncation": "40"},
        "validate": {"run.replicas": "30"},
    },
    "crowded": {
        "simulate": {"run.horizon": "0.5"},
        "survival": {"run.replicas": "3", "run.horizon": "0.5"},
        "qsd-yaglom": {"run.replicas": "5", "run.horizon": "0.5"},
        "qsd-fv": {"run.particles": "5", "run.burn_in": "0.2", "run.horizon": "0.4"},
        "validate": {"run.replicas": "30"},
    },
}

COUNTED = ("streams.generator_calls", "simulator.events", "simulator.replicas",
           "simulator.thinning_candidates", "configuration.add_calls",
           "configuration.remove_calls", "configuration.individual_trait_calls",
           "rates.jump_rate_calls", "trait_space.sample_calls",
           "trait_space.density_calls", "qsd.fv_events", "validation.replicas",
           "validation.generator_apply_calls")


def small(name: str):
    w = WORKLOADS[name]
    stages = {s: {**keys, **SMALL[name].get(s, {})} for s, keys in w.stages.items()}
    return dataclasses.replace(w, stages=stages)


def traced_pass(workload) -> tuple[dict, Tracer]:
    tracer = Tracer()
    with installed(tracer):
        run = run_sequence(workload, tracer)
    return run, tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_stage_config_resolves(name):
    from qsdsim.config import resolve_config

    for stage in SEQUENCE:
        cfg = resolve_config(stage_config(WORKLOADS[name], stage, seed=7))
        assert cfg.threads == 1
        if stage != "compare":
            cfg.build_model()
            assert cfg.seed == (1 if stage == "validate" else 7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_is_transparent_and_counts_repeat(name, tmp_path, monkeypatch):
    from qsdsim.configuration import Configuration
    from qsdsim import cli

    monkeypatch.chdir(tmp_path)
    workload = small(name)
    write_configs(workload, 3, tmp_path)
    originals = (Configuration.add, cli.resolve_config)

    plain = run_sequence(workload)
    first, tracer_a = traced_pass(workload)
    second, tracer_b = traced_pass(workload)

    assert (Configuration.add, cli.resolve_config) == originals
    assert set(plain["digests"]) == set(SEQUENCE)
    for run in (first, second):
        assert run["digests"] == plain["digests"]
        assert run["problems"] == plain["problems"]
        assert run["artifact_bytes"] == plain["artifact_bytes"]
    assert counts(tracer_a.root) == counts(tracer_b.root)
    layers_a, layers_b = layer_metrics(tracer_a.root), layer_metrics(tracer_b.root)
    for key in COUNTED:
        assert layers_a[key] == layers_b[key], key
    assert layers_a["simulator.thinning_candidates"] > 0
    assert layers_a["qsd.fv_events"] > 0
    assert 0.99 < sum(layers_a[f"share.{layer}"] for layer in
                      ("cli", "config", "streams", "simulator", "configuration",
                       "rates", "trait_space", "qsd", "oracle", "validation")) <= 1.0 + 1e-9


def test_a_pass_must_match_the_reference_artifacts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # The small sizes keep about 50 Yaglom survivors.
    workload = dataclasses.replace(small("ensemble"), min_survivors=1)
    write_configs(workload, 3, tmp_path)
    setup = timed_setup(workload, 3)
    assert setup["raw_s"] > 0 and len(setup["ref_s"]) == 2 * SETUP_REFS

    first = measure(workload, 3, 0.0, False, dict(setup))
    assert (first["attempted"], first["failed"]) == (len(SEQUENCE), 0), first["problems"]
    assert first["setup_s"] > 0
    again = measure(workload, 3, 0.0, False, dict(setup), reference=first)
    assert again["failed"] == 0 and again["digests"] == first["digests"]
    wrong = {"digests": {stage: {} for stage in SEQUENCE}}
    assert measure(workload, 3, 0.0, False, dict(setup), reference=wrong)["failed"] == len(SEQUENCE)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ensemble",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_file_names_every_workload_and_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
