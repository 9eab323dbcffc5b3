"""The benchmark tracer's call sites still name attributes the package defines.

`perfbench/tracer.py` patches each site with `owner.__dict__[attr]`, so a
renamed, removed or inherited attribute breaks a traced benchmark run.
The tracer is imported read-only; nothing is installed.  The benchmark's
worker is only parsed: every name it imports from the package must exist,
and its positional `make_constellation` call must still build the
configured constellation.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from driftwatch.config import EnvConfig, ExperimentConfig, GnssConfig
from driftwatch.env import env_reset, env_step, steer
from driftwatch.gnss import constellation_from_config, make_constellation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def test_every_wrapped_attribute_is_defined_on_its_owner(tracer):
    sites = tracer.call_sites()
    assert len(sites) >= 30
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in sites if attr not in owner.__dict__]
    assert missing == []


def test_env_step_result_keeps_the_fields_the_tracer_reads(tracer):
    """`_after_step` reads done at index 3 and terminal_event at index 2;
    `_after_solve` reads the fix's iterations and converged flag."""
    cfg = EnvConfig(max_steps=1)
    cons = constellation_from_config(GnssConfig())
    world, _ = env_reset(cfg, seed=3, constellation=cons, noise_sigma=0.0)
    motion = steer(world, np.array([1.0, 1.0, 0.0]), world.uav_pos_true, cfg)
    out = env_step(world, motion, cons, 0.0, cfg=cfg)
    assert out[3] is True
    assert out[2].terminal_event == "timeout"
    counts = tracer.Tracer()
    tracer._after_step(counts, (), out)
    assert dict(counts.counters) == {"terminal.timeout": 1}
    fix = out[4]
    assert fix.converged is True and fix.iterations >= 1
    solves = tracer.Tracer()
    tracer._after_solve(solves, (), fix)
    assert dict(solves.counters) == {"gnss.solve_pvt.iters": fix.iterations,
                                     "gnss.solve_pvt.nonconverged": 0}


def _worker_tree():
    return ast.parse((PERFBENCH / "worker.py").read_text())


def test_every_name_the_worker_imports_is_defined():
    imported = {(node.module, alias.name)
                for node in ast.walk(_worker_tree())
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("driftwatch")
                for alias in node.names}
    assert imported >= {("driftwatch", "cli"),
                        ("driftwatch.config", "load_config"),
                        ("driftwatch.ddpg", "load_checkpoint"),
                        ("driftwatch.gnss", "make_constellation")}
    missing = []
    for module, name in sorted(imported):
        owner = importlib.import_module(module)
        if not hasattr(owner, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{module}.{name}")
    assert missing == []
    assert callable(importlib.import_module("driftwatch.cli").main)
    config = PERFBENCH / "configs" / "study_default.json"
    loaded = importlib.import_module("driftwatch.config").load_config(config)
    assert loaded == ExperimentConfig.load(config)


def test_worker_builds_the_constellation_positionally():
    [call] = [node for node in ast.walk(_worker_tree())
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "make_constellation"]
    assert len(call.args) == 4 and call.keywords == []
    gnss = GnssConfig(constellation_seed=3)
    built = make_constellation(gnss.n_sats, gnss.radius,
                               gnss.constellation_seed,
                               gnss.min_separation_deg)
    assert np.array_equal(built.positions,
                          constellation_from_config(gnss).positions)
