"""The benchmark tracer's call sites still name attributes the package defines.

`perfbench/tracer.py` patches each site with `owner.__dict__[attr]`, so a
renamed, removed or inherited attribute breaks a traced benchmark run.
The tracer is imported read-only; nothing is installed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from driftwatch.config import EnvConfig
from driftwatch.env import env_reset, env_step
from driftwatch.gnss import make_constellation

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
    cons = make_constellation(n_sats=8, seed=7)
    world, _ = env_reset(cfg, seed=3, constellation=cons)
    out = env_step(world, np.array([1.0, 1.0, 0.0]), cons, 0.0, cfg=cfg)
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
