"""Execution options: one frozen value, validated once, scoped by a
context manager, inherited by the experiments that enter it."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ExecutionError, MachineError
from repro.experiments.config import ExperimentConfig
from repro.machine.engine import ENGINES
from repro.options import (
    ENGINE_NAMES,
    ExecOptions,
    current_options,
    override_options,
    use_options,
)


def test_engine_names_match_the_engine_table():
    assert set(ENGINE_NAMES) == {"auto", *ENGINES}


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("engine", "bogus", MachineError),
        ("stream", "bogus", ExecutionError),
        ("chunk_accesses", 0, ValueError),
        ("chunk_accesses", "5", ValueError),
        ("chunk_accesses", 2.5, ValueError),
        ("shards", 0, MachineError),
        ("shards", 2.5, MachineError),
        ("shards", True, MachineError),
        ("shards", "2", MachineError),
        ("cores", 0, MachineError),
        ("cores", 2.0, MachineError),
        ("cores", True, MachineError),
        ("spot_check", 0.0, ValueError),
        ("spot_check", 1.5, ValueError),
        ("predict_tolerance", -0.1, ValueError),
    ],
)
def test_every_option_is_validated_when_built(field, value, error):
    with pytest.raises(error):
        ExecOptions(**{field: value})
    with pytest.raises(error):
        dataclasses.replace(ExperimentConfig(), **{field: value})
    with pytest.raises(error):
        ExperimentConfig.from_json({field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("scale", 0),
        ("scale", -8),
        ("scale", "x"),
        ("scale", 2.5),
        ("scale", True),
        ("array_cache_factor", 0),
        ("array_cache_factor", 4.0),
    ],
)
def test_experiment_config_needs_positive_int_sizes(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        ExperimentConfig.from_json({field: value})


def test_experiment_config_from_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="'coers'"):
        ExperimentConfig.from_json({"coers": 4, "engine": "reference"})
    config = ExperimentConfig(engine="reference", cores=4, scale=64)
    assert ExperimentConfig.from_json(config.to_json()) == config


def test_use_options_scopes_and_resets_on_error():
    assert current_options() == ExecOptions()
    with pytest.raises(RuntimeError):
        with use_options(ExecOptions(engine="reference", cores=4)):
            assert current_options().engine == "reference"
            raise RuntimeError("boom")
    assert current_options() == ExecOptions()


def test_override_options_keeps_unset_and_equal_values():
    with use_options(ExecOptions(shards=2)) as active:
        assert override_options() is active
        assert override_options(shards=None, cores=1) is active
        changed = override_options(cores=3, engine=None)
        assert (changed.shards, changed.cores) == (2, 3)
        with pytest.raises(MachineError):
            override_options(cores=0)


def test_experiment_config_is_the_options_plus_scale():
    data = ExperimentConfig().to_json()
    options = {f.name for f in dataclasses.fields(ExecOptions)}
    assert set(data) == options | {"scale", "array_cache_factor", "sim_cache_dir"}
    assert len(data) == 13


def test_experiment_resets_options_even_when_it_fails():
    from types import SimpleNamespace

    from repro.experiments.report import Table
    from repro.experiments.result import experiment

    seen = []

    @experiment("probe")
    def probe(config, fail=False):
        seen.append(current_options())
        if fail:
            raise RuntimeError("boom")
        return SimpleNamespace(table=lambda: Table("probe", ("x",)))

    cfg = ExperimentConfig(scale=256, predict=True, plan=True)
    assert probe(cfg).config["plan"] is True
    with pytest.raises(RuntimeError):
        probe(cfg, fail=True)
    assert seen == [cfg, cfg]
    assert current_options() == ExecOptions()
