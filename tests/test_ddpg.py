"""Tests for the DDPG agent, replay buffer, training loop, checkpoints."""

from pathlib import Path

import numpy as np
import pytest

from driftwatch.config import EnvConfig, ExperimentConfig, TrainConfig
from driftwatch.ddpg import (
    ACTION_CENTER,
    ACTION_HALF,
    Agent,
    ReplayBuffer,
    denormalize_action,
    load_checkpoint,
    noise_schedule,
    normalize_action,
    save_checkpoint,
    train,
    train_step,
)
from driftwatch.env import ACTION_HIGH, ACTION_LOW
from driftwatch.errors import ConfigurationError, CorruptCheckpointError
from driftwatch.nets import Adam, Mlp
from scoring_oracles import q_value_row


def fresh_agent(seed=0, hidden=(16, 16)) -> Agent:
    return Agent(np.random.default_rng(seed), TrainConfig(hidden=hidden))


def random_phi(rng) -> np.ndarray:
    return rng.normal(scale=300.0, size=9)


def test_action_normalization_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        raw = rng.uniform(ACTION_LOW, ACTION_HIGH)
        np.testing.assert_allclose(denormalize_action(normalize_action(raw)), raw)
    np.testing.assert_allclose(normalize_action(ACTION_LOW), -np.ones(3))
    np.testing.assert_allclose(normalize_action(ACTION_HIGH), np.ones(3))
    np.testing.assert_allclose(ACTION_CENTER, [1.55, 1.55, 0.0])
    np.testing.assert_allclose(ACTION_HALF, [1.45, 1.45, np.pi])


def test_act_deterministic_without_noise():
    agent = fresh_agent()
    phi = random_phi(np.random.default_rng(2))[None]
    a1 = agent.act(phi)
    a2 = agent.act(phi)
    assert a1.shape == (1, 3) and a1.dtype == np.float64
    assert a1.tobytes() == a2.tobytes()


def test_act_requires_rng_with_noise():
    agent = fresh_agent()
    with pytest.raises(ConfigurationError):
        agent.act(np.zeros((1, 9)), noise_scale=0.3)


def test_act_always_within_bounds():
    agent = fresh_agent()
    rng = np.random.default_rng(3)
    for _ in range(200):
        [a] = agent.act(random_phi(rng)[None], noise_scale=1.5, rng=rng)
        assert np.all(a >= ACTION_LOW - 1e-12)
        assert np.all(a <= ACTION_HIGH + 1e-12)
    batch = agent.act(rng.normal(scale=300.0, size=(200, 9)),
                      noise_scale=1.5, rng=rng)
    assert batch.shape == (200, 3)
    assert np.all((batch >= ACTION_LOW) & (batch <= ACTION_HIGH))


def test_act_and_q_value_match_reference_bit_for_bit():
    """Against normalize/denormalize, np.clip and np.concatenate as first written."""
    agent = fresh_agent()
    rng = np.random.default_rng(21)
    for k in range(300):
        phi = random_phi(rng)
        scale = (0.0, 0.5, 3.0)[k % 3]
        seed = int(rng.integers(1 << 30))
        # one row, and its noise drawn as a (1, 3) block
        [got] = agent.act(phi[None], noise_scale=scale,
                          rng=np.random.default_rng(seed))
        raw = denormalize_action(
            agent.actor.forward((phi / agent.obs_scales)[None])[0])
        if scale > 0.0:
            raw = raw + np.random.default_rng(seed).normal(0.0, scale, size=3)
        expected = np.clip(raw, ACTION_LOW, ACTION_HIGH)
        assert got.tobytes() == expected.tobytes()
        x = np.concatenate([phi / agent.obs_scales, normalize_action(got)])
        want = float(agent.critic.forward(x[None])[0, 0])
        assert q_value_row(agent, phi, got) == want
        # a batch of one row runs the very same forward
        assert agent.q_value(phi[None], got[None])[0] == want


@pytest.mark.parametrize("n", [2, 5, 40, 64, 65])
def test_batched_act_matches_one_row_acts(n):
    """One actor forward over n rows against n one-row forwards: the same
    actions up to the batched product's round-off."""
    agent = fresh_agent(hidden=(64, 64))
    rng = np.random.default_rng(n)
    phi = rng.normal(scale=300.0, size=(n, 9))
    got = agent.act(phi)
    want = np.array([agent.act(row[None])[0] for row in phi])
    assert got.shape == (n, 3)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 5, 63, 64, 65, 500])
def test_batched_q_value_matches_per_row_oracle(n):
    """One critic forward over n rows against n one-row forwards."""
    agent = fresh_agent(hidden=(64, 64))
    rng = np.random.default_rng(n)
    phi = rng.normal(scale=300.0, size=(n, 9))
    actions = rng.uniform(ACTION_LOW, ACTION_HIGH, size=(n, 3))
    got = agent.q_value(phi, actions)
    want = np.array([q_value_row(agent, p, a) for p, a in zip(phi, actions)])
    assert got.shape == (n,)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    if n == 1:
        assert got.tobytes() == want.tobytes()


def test_q_value_keeps_no_activations():
    """An inference pass leaves nothing cached for backward to misuse."""
    agent = fresh_agent()
    agent.q_value(np.zeros((300, 9)), np.tile(ACTION_CENTER, (300, 1)))
    with pytest.raises(ConfigurationError):
        agent.critic.backward(np.ones((300, 1)))


def test_act_noise_statistics():
    """Per-component std of the exploration noise at an interior action."""
    agent = fresh_agent()  # small final init puts the policy near the center
    rng = np.random.default_rng(4)
    phi = np.zeros(9)
    base = agent.act(phi[None])[0]
    assert np.all(base > ACTION_LOW + 0.5) and np.all(base < ACTION_HIGH - 0.5)
    draws = agent.act(np.tile(phi, (10_000, 1)), noise_scale=0.3,
                      rng=rng) - base
    stds = draws.std(axis=0)
    np.testing.assert_allclose(stds, 0.3, rtol=0.1)
    assert np.abs(draws.mean(axis=0)).max() < 0.02


def test_q_value_zero_critic():
    agent = fresh_agent()
    agent.critic.flat *= 0.0
    rng = np.random.default_rng(5)
    phi = rng.normal(scale=300.0, size=(10, 9))
    actions = rng.uniform(ACTION_LOW, ACTION_HIGH, size=(10, 3))
    assert np.array_equal(agent.q_value(phi, actions), np.zeros(10))


def test_q_value_deterministic():
    agent = fresh_agent()
    phi = random_phi(np.random.default_rng(6))[None]
    a = np.array([[1.0, 2.0, 0.5]])
    assert np.array_equal(agent.q_value(phi, a), agent.q_value(phi, a))


def test_replay_buffer_ring_and_sampling():
    buf = ReplayBuffer(capacity=5)
    for k in range(8):
        buf.add(np.full(9, k), np.zeros(3), float(k), np.zeros(9), False)
    assert buf.size == 5
    # oldest three entries were overwritten by 5, 6, 7
    stored = sorted(buf.reward.tolist())
    assert stored == [3.0, 4.0, 5.0, 6.0, 7.0]

    rng = np.random.default_rng(7)
    phi, a, r, phi2, done = buf.sample(5, rng)
    assert sorted(r.tolist()) == stored, "full-size batch must hit each slot once"
    with pytest.raises(ConfigurationError):
        buf.sample(6, rng)


def test_train_step_terminal_targets_equal_rewards():
    """With done=1 and a zeroed critic the TD loss is exactly mean(r^2)."""
    agent = fresh_agent()
    agent.critic.flat *= 0.0
    rng = np.random.default_rng(8)
    b = 32
    batch = (
        rng.normal(size=(b, 9)),
        rng.uniform(-1, 1, size=(b, 3)),
        rng.normal(size=b),
        rng.normal(size=(b, 9)),
        np.ones(b),
    )
    critic_opt = Adam(agent.critic.flat, 1e-3)
    actor_opt = Adam(agent.actor.flat, 1e-3)
    loss, _ = train_step(agent, critic_opt, actor_opt, batch, gamma=0.99,
                         tau=0.005)
    assert np.isclose(loss, np.mean(batch[2] ** 2))


def test_train_step_loss_decreases_on_fixed_batch():
    agent = fresh_agent(seed=9)
    rng = np.random.default_rng(9)
    b = 64
    batch = (
        rng.normal(scale=100.0, size=(b, 9)),
        rng.uniform(-1, 1, size=(b, 3)),
        rng.normal(size=b),
        rng.normal(scale=100.0, size=(b, 9)),
        (rng.uniform(size=b) < 0.3).astype(float),
    )
    critic_opt = Adam(agent.critic.flat, 1e-3)
    actor_opt = Adam(agent.actor.flat, 1e-3)
    losses = [train_step(agent, critic_opt, actor_opt, batch, 0.99, 0.005)[0]
              for _ in range(100)]
    assert losses[-1] < losses[0]


def test_train_is_deterministic_and_sized():
    cfg = ExperimentConfig(
        env=EnvConfig(goal_distance_range=(60.0, 90.0), max_steps=40),
        train=TrainConfig(
            episodes=3,
            warmup_episodes=1,
            batch_size=16,
            hidden=(16, 16),
            short_goal_distance_range=(60.0, 90.0),
            long_goal_distance_range=(60.0, 90.0),
        ),
    )
    agent1, hist1 = train(cfg, 5)
    agent2, hist2 = train(cfg, 5)
    assert len(hist1) == cfg.train.episodes
    assert hist1 == hist2
    np.testing.assert_array_equal(agent1.actor.flat, agent2.actor.flat)
    _, hist3 = train(cfg, 6)
    assert hist1 != hist3


# A short training run, committed as a checkpoint.  Regenerate it, after a
# change that is meant to alter training, with
# `PYTHONPATH=src python tests/test_ddpg.py`.
GOLDEN_TRAIN = Path(__file__).parent / "data" / "golden_train_checkpoint.npz"


def golden_train() -> Agent:
    """Four 20-step episodes: one exploring, then batch-8 updates."""
    cfg = ExperimentConfig(
        env=EnvConfig(max_steps=20),
        train=TrainConfig(episodes=4, warmup_episodes=1, batch_size=8,
                          hidden=(16, 16)),
    )
    agent, _ = train(cfg, 3)
    return agent


def test_golden_training_run(tmp_path):
    """All four nets match the committed arrays to 1e-12 relative."""
    path = tmp_path / "agent.npz"
    save_checkpoint(golden_train(), path)
    with np.load(path) as got, np.load(GOLDEN_TRAIN) as want:
        assert got.files == want.files
        for key in want.files:
            if want[key].dtype.kind == "f":
                np.testing.assert_allclose(got[key], want[key], rtol=1e-12,
                                           atol=0.0, err_msg=key)
            else:
                np.testing.assert_array_equal(got[key], want[key], err_msg=key)
        # the run trained: every online net moved away from its target
        for tag in ("actor", "critic"):
            assert not np.array_equal(want[f"{tag}_w0"],
                                      want[f"target_{tag}_w0"])


def test_noise_schedule_shape():
    cfg = TrainConfig(episodes=100, warmup_episodes=20, noise_start=0.3,
                      noise_end=0.1)
    assert noise_schedule(cfg, 0) == 0.3
    assert noise_schedule(cfg, 19) == 0.3
    assert noise_schedule(cfg, 20) == 0.3
    assert noise_schedule(cfg, 99) == pytest.approx(0.1)
    mid = noise_schedule(cfg, (20 + 99) // 2)
    assert 0.15 < mid < 0.25
    vals = [noise_schedule(cfg, e) for e in range(20, 100)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_checkpoint_round_trip(tmp_path):
    agent = fresh_agent(seed=11)
    path = tmp_path / "agent.npz"
    save_checkpoint(agent, path)
    loaded = load_checkpoint(path)
    nets = ("actor", "critic", "target_actor", "target_critic")
    for name in nets:
        np.testing.assert_array_equal(getattr(agent, name).flat,
                                      getattr(loaded, name).flat)
    rng = np.random.default_rng(12)
    phi = rng.normal(scale=300.0, size=(5, 9))
    actions = rng.uniform(ACTION_LOW, ACTION_HIGH, size=(5, 3))
    assert np.array_equal(agent.q_value(phi, actions),
                          loaded.q_value(phi, actions))
    assert np.array_equal(agent.act(phi), loaded.act(phi))


def test_checkpoint_truncated_file(tmp_path):
    agent = fresh_agent()
    path = tmp_path / "agent.npz"
    save_checkpoint(agent, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)


def test_checkpoint_that_is_a_bare_array(tmp_path):
    path = tmp_path / "agent.npz"
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))
    with pytest.raises(CorruptCheckpointError, match="not an npz archive"):
        load_checkpoint(path)


def test_checkpoint_wrong_schema(tmp_path):
    agent = fresh_agent()
    path = tmp_path / "agent.npz"
    save_checkpoint(agent, path)
    data = dict(np.load(path))
    data["schema"] = np.array("other-format-v9")
    with open(path, "wb") as fh:
        np.savez(fh, **data)
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)


def test_checkpoint_missing_key(tmp_path):
    agent = fresh_agent()
    path = tmp_path / "agent.npz"
    save_checkpoint(agent, path)
    data = dict(np.load(path))
    del data["critic_w0"]
    with open(path, "wb") as fh:
        np.savez(fh, **data)
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)


def test_checkpoint_shape_mismatch(tmp_path):
    agent = fresh_agent()
    path = tmp_path / "agent.npz"
    save_checkpoint(agent, path)
    data = dict(np.load(path))
    data["actor_w0"] = data["actor_w0"][:, :-1]
    with open(path, "wb") as fh:
        np.savez(fh, **data)
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)


def critic_of_sizes(sizes):
    def corrupt(agent):
        rng = np.random.default_rng(4)
        agent.critic = Mlp(sizes, ["relu", "relu", "linear"], rng)
        agent.target_critic = agent.critic.copy()
    return corrupt


def scale_first(value):
    def corrupt(agent):
        agent.obs_scales = agent.obs_scales.copy()
        agent.obs_scales[0] = value
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (critic_of_sizes([12, 16, 16, 2]), "critic sizes"),
    (critic_of_sizes([13, 16, 16, 1]), "critic sizes"),
    (scale_first(0.0), "obs_scales"),
    (scale_first(np.nan), "obs_scales"),
    (scale_first(np.inf), "obs_scales"),
    (lambda agent: setattr(agent, "obs_scales", -agent.obs_scales),
     "obs_scales"),
], ids=["two_valued_critic", "wide_critic_input", "zero_scale", "nan_scale",
        "infinite_scale", "negated_scales"])
def test_checkpoint_this_package_cannot_fly_rejected(tmp_path, corrupt,
                                                      message):
    """A critic must map the observation and the action to one value, and
    every observation scale must be finite and > 0, as TrainConfig asks:
    a checkpoint that breaks either is refused when it is read."""
    agent = fresh_agent()
    corrupt(agent)
    path = tmp_path / "agent.npz"
    save_checkpoint(agent, path)
    with pytest.raises(CorruptCheckpointError,
                       match=f"checkpoint .* failed to load: {message}"):
        load_checkpoint(path)


if __name__ == "__main__":
    GOLDEN_TRAIN.parent.mkdir(exist_ok=True)
    save_checkpoint(golden_train(), GOLDEN_TRAIN)
    print(f"wrote {GOLDEN_TRAIN}")
