"""Report artifact tests: schemas, conservation checks, determinism."""

import dataclasses
import json
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from driftwatch.detectors import AgeProfile, WindowAutoencoder
from driftwatch.harness import (
    DETECTOR_ORDER,
    DetectorBank,
    EpisodeLog,
    compute_metrics,
    write_episode_csv,
)
from driftwatch.nets import Mlp
from driftwatch.report import (
    emit_report,
    write_q_histogram_csv,
    write_q_traces_csv,
    write_summary_json,
    write_training_curve_csv,
)
from driftwatch.spoofing import AttackConfig


def make_log(n, onset=None, flag_rows=(), seed=1, q_shift=0.0):
    rng = np.random.default_rng(seed)
    q = -5.0 + 0.5 * rng.normal(size=n)
    flags = np.zeros((n, len(DETECTOR_ORDER)), dtype=bool)
    for r in flag_rows:
        flags[r, :] = True
    attack = None
    alpha = np.zeros(n)
    if onset is not None:
        attack = AttackConfig(t_start=onset, drift_duration=10,
                              target=(0.0, 0.0, 0.0))
        q[onset:] -= q_shift
        alpha[onset:] = np.minimum(
            1.0, (np.arange(onset, n) - onset) / 10.0
        )
    return EpisodeLog(
        seed=seed,
        terminal_event="timeout",
        attack=attack,
        true_pos=np.zeros((n, 3)),
        est_pos=np.zeros((n, 3)),
        residual_rms=np.zeros(n),
        phi=np.zeros((n, 9)),
        action=np.zeros((n, 3)),
        rewards=np.zeros((n, 4)),
        q=q,
        alpha=alpha,
        flags=flags,
        stats=np.zeros((n, len(DETECTOR_ORDER))),
    )


def make_bank() -> DetectorBank:
    """A detector bank of small documents, its AE untrained."""
    net = Mlp([4, 2, 4], ["relu", "linear"], np.random.default_rng(0))
    return DetectorBank(
        age_profile=AgeProfile(means=(-3.0,), variances=(0.25,),
                               noise_var=0.25, level_var=0.25, n_samples=800),
        ae=WindowAutoencoder(net=net, window=4, mean=0.0, std=1.0,
                             threshold=1.0),
        tau=5, warmup=10, hazard=0.01, prune=1e-8, ph_delta=0.0025,
        ph_lambda=25.0, residual_threshold=6.0, residual_jump_gate=50.0,
    )


@pytest.fixture(scope="module")
def logs():
    out = [make_log(60, seed=s) for s in range(3)]
    out += [make_log(80, onset=30, flag_rows=[35, 36], seed=10 + s,
                     q_shift=3.0) for s in range(3)]
    return out


@pytest.fixture(scope="module")
def metrics(logs):
    return compute_metrics(logs)


class TestSummaryJson:
    def test_round_trips_with_schema(self, metrics, tmp_path):
        path = tmp_path / "summary.json"
        write_summary_json(metrics, path, config_hash="cafe", master_seed=3,
                           n_episodes=6)
        doc = json.loads(path.read_text())
        assert doc["schema"] == "driftwatch-summary-v1"
        assert doc["config_hash"] == "cafe"
        assert doc["n_episodes"] == 6
        assert set(doc["detectors"]) == set(DETECTOR_ORDER)
        d = doc["detectors"]["bocpd"]
        assert set(d) >= {
            "accuracy", "false_positive_rate", "false_negative_rate",
            "step_miss_rate", "detection_delay", "n_detected",
        }

    def test_undetected_delay_serializes_as_null(self, tmp_path):
        quiet = [make_log(50, onset=10, seed=9)]  # no flags at all
        m = compute_metrics(quiet)
        path = tmp_path / "s.json"
        write_summary_json(m, path, config_hash="", master_seed=0,
                           n_episodes=1)
        doc = json.loads(path.read_text())
        assert doc["detectors"]["bocpd"]["detection_delay"]["mean"] is None


class TestHistograms:
    def test_counts_sum_to_total_steps(self, logs, tmp_path):
        path = tmp_path / "hist.csv"
        write_q_histogram_csv(logs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,nominal,attacked_pre,attacked_post"
        total = 0
        per_series = [0, 0, 0]
        for ln in lines[1:]:
            parts = ln.split(",")
            for k in range(3):
                per_series[k] += int(parts[2 + k])
            total += sum(int(c) for c in parts[2:])
        assert total == sum(log.n_steps for log in logs)
        assert per_series[0] == 3 * 60
        assert per_series[1] == 3 * 30
        assert per_series[2] == 3 * 50

    def test_empty_logs_give_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_q_histogram_csv([], path)
        assert path.read_text().splitlines() == [
            "bin_left,bin_right,nominal,attacked_pre,attacked_post"
        ]


class TestCurveAndTraces:
    def test_training_curve_moving_average(self, tmp_path):
        history = list(range(1, 26))
        path = tmp_path / "curve.csv"
        write_training_curve_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "episode,reward,moving_avg_10"
        assert len(lines) == 26
        first = lines[1].split(",")
        assert first == ["0", "1.0", "1.0"]
        row9 = lines[10].split(",")
        assert float(row9[2]) == pytest.approx(5.5)
        row24 = lines[25].split(",")
        assert float(row24[2]) == pytest.approx(20.5)

    def test_traces_cover_every_step(self, logs, metrics, tmp_path):
        paths = emit_report(metrics, logs, tmp_path,
                            config_hash="h", master_seed=1)
        lines = paths["q_traces"].read_text().splitlines()
        assert lines[0] == "scenario,episode_seed,t,q,attack_alpha"
        assert len(lines) == 1 + sum(log.n_steps for log in logs)
        scenarios = {ln.split(",")[0] for ln in lines[1:]}
        assert scenarios == {"nominal", "attacked"}


class TestBarsAndDeterminism:
    def test_bars_csv_layout(self, logs, metrics, tmp_path):
        paths = emit_report(metrics, logs, tmp_path,
                            config_hash="h", master_seed=1)
        lines = paths["detector_bars"].read_text().splitlines()
        assert lines[0] == "detector,metric,mean,std"
        assert len(lines) == 1 + len(DETECTOR_ORDER) * 3
        assert lines[1].startswith("bocpd,accuracy,")

    def test_svg_is_valid_xml_with_bars(self, logs, metrics, tmp_path):
        paths = emit_report(metrics, logs, tmp_path,
                            config_hash="h", master_seed=1)
        text = paths["detector_bars_svg"].read_text()
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        rects = text.count("<rect")
        assert rects == 1 + 3 * len(DETECTOR_ORDER)

    def test_regeneration_is_byte_identical(self, logs, metrics, tmp_path):
        a = emit_report(metrics, logs, tmp_path / "a",
                        config_hash="h", master_seed=1)
        b = emit_report(metrics, logs, tmp_path / "b",
                        config_hash="h", master_seed=1)
        assert set(a) == set(b)
        for name in a:
            assert a[name].read_bytes() == b[name].read_bytes(), name

    @pytest.mark.parametrize("name", ["summary.json", "q_traces.csv",
                                      "episode.csv", "bank.json"])
    def test_io_errors_carry_path_context(self, name, logs, metrics, tmp_path):
        """A whole-text write, both streamed writes and the detector bank's
        JSON write raise OSError naming the file: into a missing directory,
        or for the bank, onto a directory in the file's place."""
        victim = tmp_path / "missing_dir" / name
        (tmp_path / "bank" / "bank.json").mkdir(parents=True)
        write = {
            "summary.json": lambda: write_summary_json(
                metrics, victim, config_hash="", master_seed=0, n_episodes=0),
            "q_traces.csv": lambda: write_q_traces_csv(logs, victim),
            "episode.csv": lambda: write_episode_csv(logs[-1], victim, "h"),
            "bank.json": lambda: make_bank().save(tmp_path / "bank"),
        }[name]
        with pytest.raises(OSError, match=f"failed to write .*{name}"):
            write()


def random_log(n, seed, onset=None):
    """A log whose every float column holds full-precision values."""
    rng = np.random.default_rng(seed)
    log = make_log(n, onset=onset, seed=seed, q_shift=1.0)
    return dataclasses.replace(
        log, true_pos=rng.normal(size=(n, 3)) * 500.0,
        est_pos=rng.normal(size=(n, 3)) * 500.0, phi=rng.normal(size=(n, 9)),
        action=rng.normal(size=(n, 3)), rewards=rng.normal(size=(n, 4)),
        flags=rng.random((n, len(DETECTOR_ORDER))) < 0.3,
        stats=rng.normal(size=(n, len(DETECTOR_ORDER))))


def traced_peak(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHistogramMemory:
    def test_histogram_bins_views_of_each_stream(self, tmp_path):
        """The histogram bins each log's value stream, or its two sides of
        the onset, as views: its peak allocation stays under a quarter of
        the values' bytes, where pooling the series first would copy every
        value twice.  The counts and edges are those of the pooled series."""
        logs = [make_log(3000, onset=1000 if s % 2 else None, seed=s,
                         q_shift=2.0) for s in range(40)]
        path = tmp_path / "hist.csv"
        peak = traced_peak(lambda: write_q_histogram_csv(logs, path))
        q_bytes = sum(log.q.nbytes for log in logs)
        assert peak < q_bytes / 4, (peak, q_bytes)
        series = [np.concatenate([log.q for log in logs if not log.attacked]),
                  np.concatenate([log.q[:1000] for log in logs if log.attacked]),
                  np.concatenate([log.q[1000:] for log in logs if log.attacked])]
        pooled = np.concatenate(series)
        edges = np.linspace(pooled.min(), pooled.max(), 41)
        counts = [np.histogram(values, bins=edges)[0] for values in series]
        assert path.read_text().splitlines()[1:] == [
            f"{float(edges[i])!r},{float(edges[i + 1])!r},"
            f"{counts[0][i]},{counts[1][i]},{counts[2][i]}" for i in range(40)]


class TestStreamedCsvs:
    """The per-step CSVs are written as they are formatted: the writer's
    peak allocation stays below half of the file it writes, where joining
    the whole file first would hold it several times over."""

    def test_q_traces_stream_one_episode_at_a_time(self, tmp_path):
        logs = [random_log(300, seed=s, onset=100 if s % 2 else None)
                for s in range(40)]
        path = tmp_path / "q_traces.csv"
        peak = traced_peak(lambda: write_q_traces_csv(logs, path))
        size = path.stat().st_size
        assert size > 400_000
        assert peak < size / 2, (peak, size)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 40 * 300
        assert lines[301] == f"attacked,1,0,{float(logs[1].q[0])!r},0.0"

    def test_episode_csv_streams_row_by_row(self, tmp_path):
        log = random_log(300, seed=3, onset=100)
        path = tmp_path / "episode.csv"
        peak = traced_peak(lambda: write_episode_csv(log, path, "h"))
        size = path.stat().st_size
        assert size > 150_000
        assert peak < size / 2, (peak, size)
        rows = [line.split(",") for line in path.read_text().splitlines()
                if not line.startswith("#")][1:]
        assert len(rows) == 300
        assert rows[7][1:4] == [repr(float(v)) for v in log.true_pos[7]]
        assert rows[7][-8:] == [
            text for flag, stat in zip(log.flags[7], log.stats[7])
            for text in (str(int(flag)), repr(float(stat)))]
