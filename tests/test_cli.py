"""CLI contract tests: exit codes, artifacts, rerun determinism.

The full-chain fixtures run train -> profile -> eval on a deliberately tiny
configuration so the whole module stays in the couple-of-seconds range.
"""

import dataclasses
import json
import shutil

import numpy as np
import pytest

from driftwatch import cli, harness
from driftwatch.cli import main
from driftwatch.config import ExperimentConfig
from driftwatch.ddpg import load_checkpoint, save_checkpoint
from driftwatch.nets import Mlp


def tiny_config():
    base = ExperimentConfig()
    return dataclasses.replace(
        base,
        master_seed=5,
        env=dataclasses.replace(
            base.env, goal_distance_range=(150.0, 200.0), max_steps=40
        ),
        train=dataclasses.replace(
            base.train, episodes=3, warmup_episodes=1, batch_size=16,
            hidden=(16, 16),
        ),
        detectors=dataclasses.replace(
            base.detectors, ae_window=8, ae_epochs=30
        ),
        eval=dataclasses.replace(
            base.eval, n_nominal=2, n_attacked=2, profile_episodes=50,
            attack_t_start=10, attack_drift_duration=5,
        ),
    )


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    tiny_config().save(path)
    return path


def run_chain(cfg_path, out):
    for command in ("train", "profile", "eval"):
        rc = main([command, "--config", str(cfg_path), "--seed", "5",
                   "--out", str(out)])
        assert rc == 0, command
    return out


def no_stage(*args, **kwargs):
    raise AssertionError("a stage ran")


# what `eval` and `run` read of the profile stage's output
BANK_FILES = ("bank.json", "age_profile.json", "ae.npz")


def copy_bank(chain, out):
    for name in BANK_FILES:
        shutil.copy(chain / name, out / name)


@pytest.fixture(scope="module")
def chain(cfg_path, tmp_path_factory):
    return run_chain(cfg_path, tmp_path_factory.mktemp("chain_a"))


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "usage:" in err

    def test_unknown_flag(self, capsys):
        assert main(["train", "--bogus"]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_missing_config_names_path(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["train", "--config", str(missing)]) == 1
        assert str(missing) in capsys.readouterr().err

    def test_config_that_is_a_directory_names_path(self, capsys, tmp_path):
        """An unreadable config path exits 1 naming it, as a missing one
        does, instead of exiting 2 as a runtime error."""
        rc = main(["profile", "--config", str(tmp_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err

    def test_non_utf8_config_names_path(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"master_seed": "caf\xe9"}')
        rc = main(["profile", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and "UTF-8" in err

    def test_wrongly_typed_config_value_names_the_key(self, capsys, tmp_path):
        doc = tiny_config().to_dict()
        doc["detectors"]["calibrate_tau"] = "false"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main(["profile", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "detectors.calibrate_tau" in err

    @pytest.mark.parametrize("command", ["profile", "run"])
    def test_negative_seed_flag_exits_with_error(self, capsys, tmp_path,
                                                 cfg_path, chain, command):
        """numpy's generators take only seeds >= 0: the flag is refused as
        it is parsed, instead of ending in a numpy traceback."""
        rc = main([command, "--config", str(cfg_path), "--seed", "-1",
                   "--checkpoint", str(chain / "checkpoint.npz"),
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section, key, value", [
        (None, "master_seed", -2),
        ("gnss", "constellation_seed", -1),
        ("eval", "attack_t_start", 0),
        ("train", "batch_size", 0),
        ("train", "buffer_capacity", 8),
        ("train", "hidden", [0, 16]),
        ("train", "actor_lr", -1e-3),
        ("detectors", "ae_hidden", 0),
        ("eval", "n_nominal", -1),
        ("train", "noise_start", -0.3),
        ("eval", "profile_episodes", 2),
        ("env", "heading_rate_limit_deg", -30.0),
        ("gnss", "radius", 5e6),
    ])
    def test_config_value_no_stage_can_run_exits_before_it(
            self, capsys, tmp_path, chain, section, key, value):
        doc = tiny_config().to_dict()
        (doc if section is None else doc[section])[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main(["profile", "--config", str(path),
                   "--checkpoint", str(chain / "checkpoint.npz"),
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        name = key if section is None else f"{section}.{key}"
        assert err.startswith("error:") and str(path) in err
        assert f"bad value ({name} " in err  # the dotted key leads
        assert "Traceback" not in err
        assert not (tmp_path / "bank.json").exists()

    @pytest.mark.parametrize("section, key, index, value", [
        ("gnss", "noise_sigma", None, float("nan")),
        ("gnss", "radius", None, float("inf")),
        ("train", "obs_scales", 3, float("inf")),
        ("env", "bounds", 2, float("nan")),
        ("env", "clock_bias_range", 0, float("-inf")),
        ("eval", "attack_target", 1, float("nan")),
    ])
    def test_non_finite_config_float_exits_before_flying(
            self, capsys, tmp_path, chain, monkeypatch, section, key, index,
            value):
        """JSON as Python reads it allows NaN and Infinity.  A float field
        holding one is refused at load, naming the key, before any flight:
        a NaN noise_sigma would fly a noiseless receiver, since NaN > 0 is
        false, and an infinite observation scale would zero part of the
        observation."""
        doc = tiny_config().to_dict()
        if index is None:
            doc[section][key] = value
            name = f"{section}.{key}"
        else:
            doc[section][key][index] = value
            name = f"{section}.{key}[{index}]"
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(cli, "run_episode", no_stage)
        rc = main(["run", "--config", str(path), "--attack",
                   "--checkpoint", str(chain / "checkpoint.npz"),
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert f"{name} must be finite, got {value!r}" in err
        assert "Traceback" not in err

    def test_one_profile_flight_exits_before_flying(self, capsys, tmp_path,
                                                    chain, monkeypatch):
        """The same-age profile pools at least two flights: one profile
        flight is refused at load, even with a fixed tau, and none flies."""
        doc = tiny_config().to_dict()
        doc["eval"]["profile_episodes"] = 1
        doc["detectors"]["calibrate_tau"] = False
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(cli, "profile_pipeline", no_stage)
        rc = main(["profile", "--config", str(path),
                   "--checkpoint", str(chain / "checkpoint.npz"),
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert "eval.profile_episodes must be >= 2, got 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "bank.json").exists()

    @pytest.mark.parametrize("command", ["train", "profile"])
    def test_unusable_out_exits_before_any_stage(self, capsys, tmp_path,
                                                 cfg_path, chain, monkeypatch,
                                                 command):
        """An --out that cannot be a directory is a bad flag: exit 1 naming
        it, before any training or flight."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(cli, "train", no_stage)
        monkeypatch.setattr(cli, "profile_pipeline", no_stage)
        for out in (blocker, blocker / "sub"):
            rc = main([command, "--config", str(cfg_path), "--out", str(out)]
                      + (["--checkpoint", str(chain / "checkpoint.npz")]
                         if command == "profile" else []))
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"--out {out}:" in err
            assert "Traceback" not in err
        assert blocker.read_text() == ""

    def test_missing_checkpoint_points_at_train(self, capsys, tmp_path):
        rc = main(["profile", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "checkpoint" in err and "driftwatch train" in err

    def test_eval_without_bank_points_at_profile(self, capsys, tmp_path,
                                                 cfg_path, chain):
        # borrow the trained checkpoint but point at a bank-less out dir
        rc = main(["eval", "--config", str(cfg_path),
                   "--checkpoint", str(chain / "checkpoint.npz"),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "driftwatch profile" in capsys.readouterr().err

    def test_malformed_bank_exits_with_error(self, capsys, tmp_path,
                                             cfg_path, chain):
        for key in ("tau", "residual_threshold"):
            doc = json.loads((chain / "bank.json").read_text())
            del doc[key]
            (tmp_path / "bank.json").write_text(json.dumps(doc))
            rc = main(["eval", "--config", str(cfg_path),
                       "--checkpoint", str(chain / "checkpoint.npz"),
                       "--out", str(tmp_path)])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err
            assert "driftwatch profile" in err

    @pytest.mark.parametrize("key, value", [
        ("tau", -3), ("prune", 0.5), ("hazard", 2.0)])
    def test_out_of_range_bank_value_exits_before_any_flight(
            self, capsys, tmp_path, cfg_path, chain, monkeypatch, key, value):
        copy_bank(chain, tmp_path)
        doc = json.loads((tmp_path / "bank.json").read_text())
        doc[key] = value
        (tmp_path / "bank.json").write_text(json.dumps(doc))
        played = []
        monkeypatch.setattr(harness, "run_episode",
                            lambda *args, **kwargs: played.append(args))
        rc = main(["eval", "--config", str(cfg_path),
                   "--checkpoint", str(chain / "checkpoint.npz"),
                   "--out", str(tmp_path)])
        assert rc == 1 and played == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bank.json" in err and key in err
        assert "driftwatch profile" in err

    @pytest.mark.parametrize("name, key", [
        ("age_profile.json", "means"),
        ("age_profile.json", None),
    ])
    def test_bad_bank_document_exits_with_error(self, capsys, tmp_path,
                                                cfg_path, chain, name, key):
        copy_bank(chain, tmp_path)
        if key is None:
            (tmp_path / name).unlink()
        else:
            doc = json.loads((tmp_path / name).read_text())
            del doc[key]
            (tmp_path / name).write_text(json.dumps(doc))
        rc = main(["eval", "--config", str(cfg_path),
                   "--checkpoint", str(chain / "checkpoint.npz"),
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert key is None or key in err
        assert "driftwatch profile" in err

    @pytest.mark.parametrize("fault", [
        "weight_shape", "window", "std_zero", "threshold_nan",
        "threshold_negative"])
    def test_malformed_ae_model_exits_with_error(self, capsys, tmp_path,
                                                 cfg_path, chain, fault):
        """A window test the model could not run is refused, and so are
        scalars that would silence it or flag every window: with a std of
        0 or a NaN threshold no window ever flags, and a threshold below 0,
        which no reconstruction error is, flags every window."""
        copy_bank(chain, tmp_path)
        data = dict(np.load(tmp_path / "ae.npz"))
        if fault == "weight_shape":
            data["w0"] = data["w0"][:, :-1]
        elif fault == "window":
            data["window"] = data["window"] + 1
        else:
            key, value = fault.split("_")
            data[key] = np.array({"zero": 0.0, "nan": np.nan,
                                  "negative": -1.0}[value])
        np.savez(tmp_path / "ae.npz", **data)
        rc = main(["eval", "--config", str(cfg_path),
                   "--checkpoint", str(chain / "checkpoint.npz"),
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ae.npz" in err
        assert "failed to load" in err
        assert not (tmp_path / "summary.json").exists()

    def test_first_bank_schema_exits_naming_it(self, capsys, tmp_path,
                                               cfg_path, chain, monkeypatch):
        """A bank.json of the first schema, which named its documents' files
        and kept the residual test's k and noise apart, is refused before
        any flight, naming both schemas and the rerun."""
        copy_bank(chain, tmp_path)
        doc = json.loads((tmp_path / "bank.json").read_text())
        doc["schema"] = "driftwatch-bank-v1"
        del doc["residual_threshold"]
        doc.update(profile_file="profile.json", ae_file="ae.npz",
                   age_profile_file="age_profile.json", residual_k_sigma=3.0,
                   residual_noise_sigma=2.0)
        (tmp_path / "bank.json").write_text(json.dumps(doc))
        monkeypatch.setattr(harness, "run_episode", no_stage)
        rc = main(["eval", "--config", str(cfg_path),
                   "--checkpoint", str(chain / "checkpoint.npz"),
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bank.json" in err
        assert ("has schema 'driftwatch-bank-v1', expected "
                "'driftwatch-bank-v2' (rerun `driftwatch profile`)") in err

    @pytest.mark.parametrize("fault", [
        "zero_scale", "negated_scales", "two_valued_critic",
        "wide_critic_input"])
    def test_checkpoint_this_package_cannot_fly_exits_before_flying(
            self, capsys, tmp_path, cfg_path, chain, monkeypatch, fault):
        """A checkpoint whose observation scales are not all finite and > 0,
        or whose critic does not map observation and action to one value,
        is refused as it loads, before any flight."""
        agent = load_checkpoint(chain / "checkpoint.npz")
        if fault == "zero_scale":
            agent.obs_scales[0] = 0.0
        elif fault == "negated_scales":
            agent.obs_scales = -agent.obs_scales
        else:
            sizes = ([12, 16, 16, 2] if fault == "two_valued_critic"
                     else [13, 16, 16, 1])
            agent.critic = Mlp(sizes, ["relu", "relu", "linear"],
                               np.random.default_rng(0))
            agent.target_critic = agent.critic.copy()
        save_checkpoint(agent, tmp_path / "checkpoint.npz")
        monkeypatch.setattr(cli, "run_episode", no_stage)
        rc = main(["run", "--config", str(cfg_path), "--seed", "0",
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "checkpoint" in err
        assert "failed to load" in err and "Traceback" not in err


class TestChainArtifacts:
    def test_train_artifacts(self, chain):
        assert (chain / "checkpoint.npz").exists()
        curve = (chain / "training_curve.csv").read_text().splitlines()
        assert curve[0] == "episode,reward,moving_avg_10"
        assert len(curve) == 1 + 3

    def test_profile_artifacts(self, chain):
        """The bank's three files, and the pooled profile as the stage's
        report; bank.json holds its schema and eight numbers."""
        for name in BANK_FILES + ("profile.json",):
            assert (chain / name).exists(), name
        bank = json.loads((chain / "bank.json").read_text())
        assert bank["schema"] == "driftwatch-bank-v2"
        assert sorted(bank) == sorted([
            "schema", "tau", "warmup", "hazard", "prune", "ph_delta",
            "ph_lambda", "residual_threshold", "residual_jump_gate"])
        profile = json.loads((chain / "profile.json").read_text())
        assert profile["schema"] == "driftwatch-profile-v1"
        assert profile["source_episodes"] == list(range(50))

    def test_bank_files_alone_score_like_the_profile_output(
            self, cfg_path, chain, tmp_path):
        """`eval` reads only the bank's three files: in a directory holding
        them alone it writes the report the full profile output gave, byte
        for byte."""
        copy_bank(chain, tmp_path)
        rc = main(["eval", "--config", str(cfg_path), "--seed", "5",
                   "--checkpoint", str(chain / "checkpoint.npz"),
                   "--out", str(tmp_path)])
        assert rc == 0
        for name in ("summary.json", "q_traces.csv", "q_histograms.csv",
                     "detector_bars.csv", "detector_bars.svg"):
            assert (tmp_path / name).read_bytes() == \
                (chain / name).read_bytes(), name

    def test_eval_report(self, chain):
        doc = json.loads((chain / "summary.json").read_text())
        assert doc["schema"] == "driftwatch-summary-v1"
        assert doc["n_episodes"] == 4
        for name in ("q_histograms.csv", "q_traces.csv",
                     "detector_bars.csv", "detector_bars.svg"):
            assert (chain / name).exists(), name

    def test_run_writes_episode_log(self, cfg_path, chain, capsys):
        rc = main(["run", "--config", str(cfg_path), "--seed", "3",
                   "--out", str(chain)])
        assert rc == 0
        assert (chain / "episode_3.csv").exists()
        rc = main(["run", "--config", str(cfg_path), "--seed", "3",
                   "--out", str(chain), "--attack"])
        assert rc == 0
        attacked = chain / "episode_3_attacked.csv"
        assert attacked.exists()
        header_meta = attacked.read_text().splitlines()[:6]
        assert any("t_start" in ln for ln in header_meta)

    def test_run_keeps_the_per_step_trace(self, cfg_path, chain, monkeypatch,
                                          tmp_path):
        """`run` plays its episode with the per-step trace its CSV writes,
        where the study stages keep none."""
        logs = []
        write = cli.write_episode_csv
        monkeypatch.setattr(cli, "write_episode_csv",
                            lambda log, *args: logs.append(log) or write(log, *args))
        rc = main(["run", "--config", str(cfg_path), "--seed", "3", "--attack",
                   "--checkpoint", str(chain / "checkpoint.npz"),
                   "--out", str(tmp_path)])
        assert rc == 0
        [log] = logs
        n = log.n_steps
        for name, width in (("true_pos", 3), ("phi", 9), ("action", 3),
                            ("rewards", 4)):
            assert getattr(log, name).shape == (n, width), name
            assert np.isfinite(getattr(log, name)).all(), name


    def test_profile_with_a_fixed_threshold(self, chain, tmp_path, capsys):
        """calibrate_tau false: the bank keeps bocpd_tau, and profile prints
        the calibration rate as nan and exits 0."""
        cfg = tiny_config()
        cfg = dataclasses.replace(cfg, detectors=dataclasses.replace(
            cfg.detectors, calibrate_tau=False, bocpd_tau=9))
        path = tmp_path / "fixed.json"
        cfg.save(path)
        capsys.readouterr()
        rc = main(["profile", "--config", str(path), "--seed", "5",
                   "--out", str(tmp_path),
                   "--checkpoint", str(chain / "checkpoint.npz")])
        assert rc == 0
        assert ("frozen run-length threshold: 9 "
                "(nominal false-flag episode rate nan)"
                in capsys.readouterr().out)
        assert json.loads((tmp_path / "bank.json").read_text())["tau"] == 9


class TestDeterminism:
    def test_chain_rerun_is_byte_identical(self, cfg_path, chain,
                                           tmp_path_factory):
        other = run_chain(cfg_path, tmp_path_factory.mktemp("chain_b"))
        names = [
            "training_curve.csv", "bank.json", "profile.json",
            "summary.json", "q_histograms.csv", "q_traces.csv",
            "detector_bars.csv", "detector_bars.svg",
            "checkpoint.npz", "ae.npz", "age_profile.json",
        ]
        for name in names:
            assert (chain / name).read_bytes() == \
                (other / name).read_bytes(), name
