"""Deterministic report artifacts: summary JSON, figure CSVs, SVG bars.

Everything is rendered from in-memory logs with stable ordering and repr
float formatting, so regenerating from the same inputs is byte-identical.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import _fmt, _write_chunks, write_json
from .harness import DETECTOR_ORDER, EpisodeLog

SUMMARY_SCHEMA = "driftwatch-summary-v1"

_HIST_BINS = 40

# fixed detector palette for the bar chart
_COLORS = {
    "bocpd": "#2b6cb0",
    "ph": "#c05621",
    "residual": "#6b46c1",
    "window_ae": "#2f855a",
}


def write_summary_json(
    metrics: dict[str, dict], path, *, config_hash: str, master_seed: int,
    n_episodes: int,
) -> None:
    doc = {
        "schema": SUMMARY_SCHEMA,
        "config_hash": config_hash,
        "master_seed": master_seed,
        "n_episodes": n_episodes,
        "detectors": metrics,
    }
    write_json(doc, path)


def write_training_curve_csv(history, path) -> None:
    """Per-episode return plus its trailing 10-episode moving average."""
    rows = ["episode,reward,moving_avg_10"]
    hist = [float(h) for h in history]
    for i, r in enumerate(hist):
        window = hist[max(0, i - 9): i + 1]
        rows.append(f"{i},{_fmt(r)},{_fmt(sum(window) / len(window))}")
    _write_chunks(path, ["\n".join(rows) + "\n"])


def write_q_histogram_csv(logs: list[EpisodeLog], path) -> None:
    """Shared-bin histograms of the value stream by attack phase.

    Every logged step lands in exactly one of the three series, so the
    counts sum to the total number of logged steps.  Each series is binned
    as views of the logs' value streams, part by part, and no value is
    copied into a pooled array.
    """
    series = ([], [], [])  # nominal, attacked_pre, attacked_post
    for log in logs:
        if log.attacked and log.onset < log.n_steps:
            series[1].append(log.q[:log.onset])
            series[2].append(log.q[log.onset:])
        else:
            series[0].append(log.q)
    parts = [q for part in series for q in part if q.size]
    rows = ["bin_left,bin_right,nominal,attacked_pre,attacked_post"]
    if parts:
        lo = float(np.min([q.min() for q in parts]))
        hi = float(np.max([q.max() for q in parts]))
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        edges = np.linspace(lo, hi, _HIST_BINS + 1)
        counts = [sum((np.histogram(q, bins=edges)[0] for q in part),
                      np.zeros(_HIST_BINS, dtype=np.intp)) for part in series]
        for i in range(_HIST_BINS):
            rows.append(
                f"{_fmt(edges[i])},{_fmt(edges[i + 1])},"
                f"{counts[0][i]},{counts[1][i]},{counts[2][i]}"
            )
    _write_chunks(path, ["\n".join(rows) + "\n"])


def write_q_traces_csv(logs: list[EpisodeLog], path) -> None:
    """Long-format per-step value traces for temporal plots, written one
    episode at a time."""
    def episodes():
        yield "scenario,episode_seed,t,q,attack_alpha\n"
        for log in logs:
            scenario = "attacked" if log.attacked else "nominal"
            yield "".join(
                f"{scenario},{log.seed},{i},{_fmt(q)},{_fmt(alpha)}\n"
                for i, (q, alpha) in enumerate(zip(log.q.tolist(),
                                                   log.alpha.tolist())))

    _write_chunks(path, episodes())


# the charted metrics and their panel titles
_BAR_METRICS = {
    "accuracy": "Accuracy",
    "false_negative_rate": "False-negative rate",
    "false_positive_rate": "False-positive rate",
}


def write_detector_bars_csv(metrics: dict[str, dict], path) -> None:
    rows = ["detector,metric,mean,std"]
    for name in DETECTOR_ORDER:
        for metric_name in _BAR_METRICS:
            m = metrics[name][metric_name]
            rows.append(f"{name},{metric_name},{_fmt(m['mean'])},{_fmt(m['std'])}")
    _write_chunks(path, ["\n".join(rows) + "\n"])


def _svg_panel(x0: float, title: str, values, errors, names) -> list[str]:
    width, height = 260.0, 220.0
    base_y = 250.0
    plot_h = 190.0
    parts = [
        f'<text x="{x0 + width / 2:.1f}" y="40" text-anchor="middle" '
        f'font-size="13" fill="#222">{title}</text>'
    ]
    # y axis with gridlines at 0, .25, .5, .75, 1
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = base_y - frac * plot_h
        parts.append(
            f'<line x1="{x0:.1f}" y1="{y:.1f}" x2="{x0 + width:.1f}" '
            f'y2="{y:.1f}" stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 6:.1f}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="9" fill="#555">{frac:.2f}</text>'
        )
    n = len(values)
    slot = width / n
    bar_w = slot * 0.55
    for i, (value, err, name) in enumerate(zip(values, errors, names)):
        cx = x0 + (i + 0.5) * slot
        v = min(max(value, 0.0), 1.0)
        bar_h = v * plot_h
        parts.append(
            f'<rect x="{cx - bar_w / 2:.1f}" y="{base_y - bar_h:.1f}" '
            f'width="{bar_w:.1f}" height="{bar_h:.1f}" '
            f'fill="{_COLORS[name]}"/>'
        )
        lo = max(v - err, 0.0)
        hi = min(v + err, 1.0)
        y_lo, y_hi = base_y - lo * plot_h, base_y - hi * plot_h
        parts.append(
            f'<line x1="{cx:.1f}" y1="{y_lo:.1f}" x2="{cx:.1f}" '
            f'y2="{y_hi:.1f}" stroke="#111" stroke-width="1.2"/>'
        )
        for y in (y_lo, y_hi):
            parts.append(
                f'<line x1="{cx - 4:.1f}" y1="{y:.1f}" x2="{cx + 4:.1f}" '
                f'y2="{y:.1f}" stroke="#111" stroke-width="1.2"/>'
            )
        parts.append(
            f'<text x="{cx:.1f}" y="{base_y - bar_h - 6:.1f}" '
            f'text-anchor="middle" font-size="9" fill="#222">'
            f"{value:.3f}</text>"
        )
        parts.append(
            f'<text x="{cx:.1f}" y="{base_y + 14:.1f}" text-anchor="middle" '
            f'font-size="9" fill="#333">{name}</text>'
        )
    return parts


def write_bars_svg(metrics: dict[str, dict], path) -> None:
    """Three-panel bar chart (accuracy, FNR, FPR) with std whiskers."""
    panels = []
    for k, (metric_name, title) in enumerate(_BAR_METRICS.items()):
        rows = [metrics[name][metric_name] for name in DETECTOR_ORDER]
        panels += _svg_panel(
            60.0 + k * 320.0, title, [m["mean"] for m in rows],
            [m["std"] for m in rows], DETECTOR_ORDER,
        )
    svg = "\n".join(
        [
            '<svg xmlns="http://www.w3.org/2000/svg" width="1020" '
            'height="290" viewBox="0 0 1020 290">',
            '<rect width="1020" height="290" fill="white"/>',
            *panels,
            "</svg>",
        ]
    )
    _write_chunks(path, [svg + "\n"])


def emit_report(
    metrics: dict[str, dict],
    logs: list[EpisodeLog],
    out_dir,
    *,
    config_hash: str,
    master_seed: int,
) -> dict[str, Path]:
    """Write every report artifact; returns the paths by artifact name."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "summary": out / "summary.json",
        "q_histograms": out / "q_histograms.csv",
        "q_traces": out / "q_traces.csv",
        "detector_bars": out / "detector_bars.csv",
        "detector_bars_svg": out / "detector_bars.svg",
    }
    write_summary_json(
        metrics, paths["summary"], config_hash=config_hash,
        master_seed=master_seed, n_episodes=len(logs),
    )
    write_q_histogram_csv(logs, paths["q_histograms"])
    write_q_traces_csv(logs, paths["q_traces"])
    write_detector_bars_csv(metrics, paths["detector_bars"])
    write_bars_svg(metrics, paths["detector_bars_svg"])
    return paths
