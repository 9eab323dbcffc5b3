"""CLI contract tests: exit codes, artifacts, rerun determinism.

The full-chain fixtures run train -> profile -> eval on a deliberately tiny
configuration so the whole module stays in the couple-of-seconds range.
"""

import dataclasses
import json
import shutil

import pytest

from driftwatch.cli import main
from driftwatch.config import default_config, save_config


def tiny_config():
    base = default_config()
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
    save_config(tiny_config(), path)
    return path


def run_chain(cfg_path, out):
    for command in ("train", "profile", "eval"):
        rc = main([command, "--config", str(cfg_path), "--seed", "5",
                   "--out", str(out)])
        assert rc == 0, command
    return out


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
        for key in ("tau", "age_profile_file"):
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

    @pytest.mark.parametrize("name, key", [
        ("age_profile.json", "means"),
        ("age_profile.json", None),
        ("profile.json", None),
    ])
    def test_bad_bank_document_exits_with_error(self, capsys, tmp_path,
                                                cfg_path, chain, name, key):
        for bank_file in ("bank.json", "profile.json", "age_profile.json",
                          "ae.npz"):
            shutil.copy(chain / bank_file, tmp_path / bank_file)
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


class TestOracleCheck:
    def test_passes_and_reports_divergence(self, capsys):
        rc = main(["oracle-check", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max total variation" in out
        assert "PASS" in out


class TestChainArtifacts:
    def test_train_artifacts(self, chain):
        assert (chain / "checkpoint.npz").exists()
        curve = (chain / "training_curve.csv").read_text().splitlines()
        assert curve[0] == "episode,reward,moving_avg_10"
        assert len(curve) == 1 + 3

    def test_profile_artifacts(self, chain):
        for name in ("bank.json", "profile.json", "ae.npz",
                     "age_profile.json"):
            assert (chain / name).exists(), name
        bank = json.loads((chain / "bank.json").read_text())
        assert bank["schema"] == "driftwatch-bank-v1"
        assert bank["age_profile_file"] == "age_profile.json"

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


    def test_profile_with_a_fixed_threshold(self, chain, tmp_path, capsys):
        """calibrate_tau false: the bank keeps bocpd_tau, and profile prints
        the calibration rate as nan and exits 0."""
        cfg = tiny_config()
        cfg = dataclasses.replace(cfg, detectors=dataclasses.replace(
            cfg.detectors, calibrate_tau=False, bocpd_tau=9))
        path = tmp_path / "fixed.json"
        save_config(cfg, path)
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
