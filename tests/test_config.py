"""Config loading: schema, unknown keys, defaults, value types, stable hashes."""

import json
from pathlib import Path

import pytest

from driftwatch.config import (
    CONFIG_SCHEMA,
    DetectorConfig,
    EnvConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)
from driftwatch.errors import ConfigurationError

ROOT = Path(__file__).resolve().parents[1]


def doc(**sections):
    return {"schema": CONFIG_SCHEMA, **sections}


def test_default_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    save_config(default_config(), path)
    assert load_config(path) == default_config()
    assert config_from_dict(config_to_dict(default_config())) == default_config()


@pytest.mark.parametrize("schema", [None, "driftwatch-config-v0", 1])
def test_schema_mismatch_rejected(schema):
    bad = doc()
    if schema is None:
        del bad["schema"]
    else:
        bad["schema"] = schema
    with pytest.raises(ConfigurationError, match="schema"):
        config_from_dict(bad)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown keys.*'seeds'"):
        config_from_dict(doc(seeds=3))


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigurationError, match=r"unknown keys.*'env\.speed'"):
        config_from_dict(doc(env={"speed": 3.0}))


def test_absent_section_takes_its_defaults():
    cfg = config_from_dict(doc(env={"max_steps": 40}))
    assert cfg.env == EnvConfig(max_steps=40)
    assert cfg.detectors == DetectorConfig()
    assert cfg.master_seed == 0


@pytest.mark.parametrize("section, key, value", [
    ("detectors", "calibrate_tau", "false"),
    ("detectors", "calibrate_tau", 0),
    ("env", "max_steps", 20.5),
    ("gnss", "n_sats", 8.5),
    ("train", "hidden", [64.0, 64]),
    ("env", "bounds", [1000.0, 1000.0]),
    ("eval", "attack_target", [0.0, 0.0]),
    ("env", "dt", True),
    ("gnss", "noise_sigma", "2"),
    ("eval", "n_nominal", 20.0),
    ("train", "obs_scales", 1000.0),
    ("env", "bounds", None),
])
def test_wrongly_typed_value_rejected(section, key, value):
    with pytest.raises(ConfigurationError, match=f"{section}\\.{key}"):
        config_from_dict(doc(**{section: {key: value}}))


def test_wrongly_typed_master_seed_and_section_rejected():
    with pytest.raises(ConfigurationError, match="master_seed"):
        config_from_dict(doc(master_seed="0"))
    with pytest.raises(ConfigurationError, match="env"):
        config_from_dict(doc(env=[]))


def test_out_of_range_value_names_its_section():
    with pytest.raises(ConfigurationError, match="gnss: n_sats must be >= 4"):
        config_from_dict(doc(gnss={"n_sats": 3}))


def test_int_in_a_float_field_is_kept_as_an_int():
    cfg = config_from_dict(doc(env={"dt": 1}, gnss={"noise_sigma": 2}))
    assert cfg.env.dt == 1 and type(cfg.env.dt) is int
    assert type(cfg.gnss.noise_sigma) is int
    # the hash sees the value as written, so "dt": 1 and "dt": 1.0 differ
    assert config_to_dict(cfg)["env"]["dt"] == 1
    assert config_hash(cfg) != config_hash(config_from_dict(doc(
        env={"dt": 1.0}, gnss={"noise_sigma": 2})))


def test_tuple_fields_load_as_tuples():
    cfg = config_from_dict(doc(env={"bounds": [900, 900.0, 250.0]}))
    assert cfg.env.bounds == (900, 900.0, 250.0)
    assert isinstance(cfg.env.bounds, tuple)


@pytest.mark.parametrize("path, digest", [
    ("configs/default.json",
     "24065e3f1742d59a0d1f35f4e140f1883ef96138f89f55e4e22977a51f9e03f4"),
    ("perfbench/configs/study_default.json",
     "24065e3f1742d59a0d1f35f4e140f1883ef96138f89f55e4e22977a51f9e03f4"),
    ("perfbench/configs/study_nominal.json",
     "c0ace5b7dffce96eebdcc21093655881ea9415cc0f01e4bb2d99549ece1b2c4b"),
    ("perfbench/configs/train.json",
     "b57ed8f7d74a83fd8f5019c4a2708239256d9ba4783d27b4cbe1bea28cdc3022"),
    ("perfbench/configs/train_explore.json",
     "5ded17339ac7836e72d9717caeff58c36cca038bab83076f356a88ca365b1c0b"),
])
def test_committed_config_hash_is_pinned(path, digest):
    cfg = load_config(ROOT / path)
    assert config_hash(cfg) == digest
    again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert config_hash(again) == config_hash(cfg)
