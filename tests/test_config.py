"""Config loading: schema, unknown keys, defaults, value types, stable hashes,
and the one JSON document reader the config shares with the profiles."""

import json
import math
import re
from pathlib import Path

import pytest

from driftwatch.config import (
    CONFIG_SCHEMA,
    DetectorConfig,
    EnvConfig,
    EvalConfig,
    ExperimentConfig,
    GnssConfig,
    config_hash,
    load_config,
)
from driftwatch.detectors import AgeProfile, NominalProfile, bocpd_init
from driftwatch.errors import ConfigurationError
from driftwatch.harness import _BankParameters

ROOT = Path(__file__).resolve().parents[1]


def doc(**sections):
    return {"schema": CONFIG_SCHEMA, **sections}


@pytest.fixture
def load(tmp_path):
    """Load a config document as a user does: written to a file first."""
    path = tmp_path / "cfg.json"

    def load(document):
        path.write_text(json.dumps(document))
        return load_config(path)

    return load


def test_default_round_trip(tmp_path, load):
    path = tmp_path / "saved.json"
    ExperimentConfig().save(path)
    assert load_config(path) == ExperimentConfig()
    assert load(ExperimentConfig().to_dict()) == ExperimentConfig()


@pytest.mark.parametrize("schema", [None, "driftwatch-config-v0", 1])
def test_schema_mismatch_rejected(schema, load):
    bad = doc()
    if schema is None:
        del bad["schema"]
    else:
        bad["schema"] = schema
    with pytest.raises(ConfigurationError, match="schema"):
        load(bad)


def test_unknown_top_level_key_rejected(load):
    with pytest.raises(ConfigurationError, match="unknown keys.*'seeds'"):
        load(doc(seeds=3))


def test_unknown_section_key_rejected(load):
    with pytest.raises(ConfigurationError, match=r"unknown keys.*'env\.speed'"):
        load(doc(env={"speed": 3.0}))


def test_absent_section_takes_its_defaults(load):
    cfg = load(doc(env={"max_steps": 40}))
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
def test_wrongly_typed_value_rejected(section, key, value, load):
    with pytest.raises(ConfigurationError, match=f"{section}\\.{key}"):
        load(doc(**{section: {key: value}}))


def test_wrongly_typed_master_seed_and_section_rejected(load):
    with pytest.raises(ConfigurationError, match="master_seed"):
        load(doc(master_seed="0"))
    with pytest.raises(ConfigurationError, match="env"):
        load(doc(env=[]))


def test_out_of_range_value_names_its_section(load):
    with pytest.raises(ConfigurationError, match=r"gnss\.n_sats must be >= 4"):
        load(doc(gnss={"n_sats": 3}))
    # refused at load, not only once the constellation is laid out
    with pytest.raises(ConfigurationError,
                       match=r"gnss\.radius must be >= 10000000\.0, got 5000000\.0"):
        load(doc(gnss={"radius": 5e6}))


BANK = dict(tau=5, warmup=50, hazard=0.022, prune=1e-8, ph_delta=0.01,
            ph_lambda=1.0, residual_threshold=6.0, residual_jump_gate=50.0)
PRIOR = AgeProfile(means=(0.0,), variances=(1.0,), noise_var=1.0,
                   level_var=1.0, n_samples=10)


def changepoint_entries(key, value):
    """(name, build) of each entry that takes the changepoint number `key`:
    the config's detectors section, the bank, and for the hazard the
    posterior's constructor."""
    entries = [(f"bocpd_{key}", lambda: DetectorConfig(**{f"bocpd_{key}": value})),
               (key, lambda: _BankParameters(**{**BANK, key: value}))]
    if key == "hazard":
        entries.append((key, lambda: bocpd_init([PRIOR], value)))
    return entries


@pytest.mark.parametrize("key, value", [
    ("tau", 0), ("warmup", -1), ("hazard", 0.0), ("hazard", 1.0),
    ("hazard", math.nan), ("prune", -1e-9), ("prune", 1e-3),
])
def test_every_entry_refuses_the_same_changepoint_values(key, value):
    """The config, `bank.json` and `bocpd_init` each refuse an out-of-range
    changepoint number, under the name that entry gives it."""
    for name, build in changepoint_entries(key, value):
        with pytest.raises(ConfigurationError, match=rf"^{name} must be"):
            build()


@pytest.mark.parametrize("key, value", [
    ("tau", 1), ("warmup", 0), ("hazard", 1e-9), ("hazard", 0.999),
    ("prune", 0.0), ("prune", 9.99e-4),
])
def test_every_entry_takes_the_same_edge_values(key, value):
    """...and each takes the values just inside those bounds."""
    for _, build in changepoint_entries(key, value):
        build()


# A "section: message" entry below is the message that section's
# constructor raises; loading names its key dotted from the top, as
# `section.message`.
@pytest.mark.parametrize("document, message", [
    (doc(master_seed=-2), "master_seed must be >= 0, got -2"),
    (doc(gnss={"constellation_seed": -1}),
     "gnss: constellation_seed must be >= 0, got -1"),
    # the reset's fix is never spoofed
    (doc(eval={"attack_t_start": 0}), "eval: attack_t_start must be >= 1, got 0"),
    (doc(train={"batch_size": 0}), r"train: batch_size must be >= 1, got 0"),
    (doc(train={"batch_size": 32, "buffer_capacity": 31}),
     r"train: buffer_capacity must be >= batch_size \(32\), got 31"),
    (doc(train={"hidden": [64, 0]}),
     r"train: hidden sizes must be >= 1, got \(64, 0\)"),
    (doc(train={"actor_lr": -1e-3}), "train: actor_lr must be > 0, got -0.001"),
    (doc(train={"critic_lr": 0.0}), "train: critic_lr must be > 0, got 0.0"),
    (doc(detectors={"ae_hidden": 0}), "detectors: ae_hidden must be >= 1, got 0"),
    (doc(detectors={"ae_bottleneck": 0}),
     "detectors: ae_bottleneck must be >= 1, got 0"),
    (doc(eval={"n_nominal": -5, "n_attacked": 10}),
     "eval: n_nominal must be >= 0, got -5"),
    (doc(eval={"n_nominal": 3, "n_attacked": -1}),
     "eval: n_attacked must be >= 0, got -1"),
    (doc(train={"noise_start": -0.3, "noise_end": -0.1}),
     "train: noise_start must be >= 0, got -0.3"),
    (doc(train={"noise_end": -0.1}), "train: noise_end must be >= 0, got -0.1"),
    (doc(eval={"profile_episodes": 2}),
     r"eval\.profile_episodes must be >= 3 when detectors\.calibrate_tau is"
     r" true \(leave-one-out tau calibration\), got 2"),
    (doc(eval={"profile_episodes": 1}, detectors={"calibrate_tau": False}),
     "eval: profile_episodes must be >= 2, got 1"),
    # a negative limit turns away from the command, a zero one never turns
    (doc(env={"heading_rate_limit_deg": -30.0}),
     "env: heading_rate_limit_deg must be > 0, got -30.0"),
    (doc(env={"heading_rate_limit_deg": 0}),
     "env: heading_rate_limit_deg must be > 0, got 0"),
])
def test_value_no_stage_can_fly_rejected(document, message, load):
    """numpy's generators take only seeds >= 0, an attack needs an onset
    after the reset, a net a unit in each layer, a training update a full
    batch and a descent step a positive rate, an episode count is never
    negative, exploration noise has a scale >= 0, the same-age profile pools
    at least two profile flights, a leave-one-out calibration holds out
    one of at least three and the heading turns toward the command: the
    config says so before any stage runs, and each fault begins with its
    key, dotted from the top as a wrongly typed value's is."""
    message = re.sub(r"^(gnss|env|train|detectors|eval): ", r"\1\\.", message)
    with pytest.raises(ConfigurationError, match=r"bad value \(" + message):
        load(document)


def test_few_profile_flights_load_with_a_fixed_tau(load):
    cfg = load(doc(eval={"profile_episodes": 2},
                   detectors={"calibrate_tau": False}))
    assert cfg.eval.profile_episodes == 2


def test_seeds_and_onset_checked_when_built():
    with pytest.raises(ConfigurationError, match="master_seed"):
        ExperimentConfig(master_seed=-1)
    with pytest.raises(ConfigurationError, match="constellation_seed"):
        GnssConfig(constellation_seed=-1)
    assert EvalConfig(attack_t_start=1).attack_t_start == 1


def test_int_in_a_float_field_is_kept_as_an_int(load):
    cfg = load(doc(env={"dt": 1}, gnss={"noise_sigma": 2}))
    assert cfg.env.dt == 1 and type(cfg.env.dt) is int
    assert type(cfg.gnss.noise_sigma) is int
    # the hash sees the value as written, so "dt": 1 and "dt": 1.0 differ
    assert cfg.to_dict()["env"]["dt"] == 1
    assert config_hash(cfg) != config_hash(load(doc(
        env={"dt": 1.0}, gnss={"noise_sigma": 2})))


def test_tuple_fields_load_as_tuples(load):
    cfg = load(doc(env={"bounds": [900, 900.0, 250.0]}))
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
def test_committed_config_hash_is_pinned(path, digest, load):
    cfg = load_config(ROOT / path)
    assert config_hash(cfg) == digest
    again = load(json.loads(json.dumps(cfg.to_dict())))
    assert config_hash(again) == config_hash(cfg)


DOCUMENTS = {
    "config": ExperimentConfig(),
    "profile": NominalProfile(mu0=1.0, sigma0_sq=0.5, n_samples=100),
    "age_profile": AgeProfile(means=(1.0, 2.0), variances=(0.5, 0.5),
                              noise_var=0.25, level_var=0.5, n_samples=200),
}


def _write_fault(path, document, fault):
    saved = document.to_dict()
    if fault == "not UTF-8":
        path.write_bytes(json.dumps(saved).encode() + b" \xe9")
    elif fault == "directory":
        path.mkdir()
    elif fault == "array":
        path.write_text(json.dumps([saved]))
    elif fault == "schema":
        path.write_text(json.dumps({**saved, "schema": "driftwatch-other-v1"}))
    else:
        path.write_text(json.dumps({**saved, "extra": 1}))


@pytest.mark.parametrize("fault, message", [
    ("not UTF-8", "as UTF-8 JSON: 'utf-8' codec can't decode"),
    ("directory", "cannot read"),
    ("array", "not a JSON object"),
    ("schema", "has schema 'driftwatch-other-v1'"),
    ("unknown key", "unknown keys ['extra']"),
])
@pytest.mark.parametrize("name", DOCUMENTS)
def test_every_document_reads_its_faults_alike(tmp_path, name, fault,
                                               message):
    """The config and both profiles go through one reader: each fault is a
    ConfigurationError naming the file, and only a file that `driftwatch
    profile` writes tells the user to rerun it."""
    document = DOCUMENTS[name]
    path = tmp_path / f"{name}.json"
    document.save(path)
    assert type(document).load(path) == document
    path.unlink()
    _write_fault(path, document, fault)
    with pytest.raises(ConfigurationError) as err:
        type(document).load(path)
    text = str(err.value)
    assert str(path) in text and message in text
    assert ("driftwatch profile" in text) == (name != "config")
