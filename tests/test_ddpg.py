"""Tests for the DDPG agent, replay buffer, training loop, checkpoints."""

import numpy as np
import pytest

from driftwatch.config import EnvConfig, GnssConfig, TrainConfig
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
from driftwatch.env import ACTION_HIGH, ACTION_LOW, ActionVec
from driftwatch.errors import ConfigurationError, CorruptCheckpointError
from driftwatch.nets import Adam


def fresh_agent(seed=0, hidden=(16, 16)) -> Agent:
    return Agent(np.random.default_rng(seed), hidden=hidden)


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
    phi = random_phi(np.random.default_rng(2))
    a1 = agent.act(phi)
    a2 = agent.act(phi)
    assert a1 == a2


def test_act_requires_rng_with_noise():
    agent = fresh_agent()
    with pytest.raises(ConfigurationError):
        agent.act(np.zeros(9), noise_scale=0.3)


def test_act_always_within_bounds():
    agent = fresh_agent()
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = agent.act(random_phi(rng), noise_scale=1.5, rng=rng).as_array()
        assert np.all(a >= ACTION_LOW - 1e-12)
        assert np.all(a <= ACTION_HIGH + 1e-12)


def test_act_and_q_value_match_reference_bit_for_bit():
    """Against normalize/denormalize, np.clip and np.concatenate as first written."""
    agent = fresh_agent()
    rng = np.random.default_rng(21)
    for k in range(300):
        phi = random_phi(rng)
        scale = (0.0, 0.5, 3.0)[k % 3]
        seed = int(rng.integers(1 << 30))
        got = agent.act(phi, noise_scale=scale, rng=np.random.default_rng(seed))
        raw = denormalize_action(agent.actor.forward(phi / agent.obs_scales))
        if scale > 0.0:
            raw = raw + np.random.default_rng(seed).normal(0.0, scale, size=3)
        expected = np.clip(raw, ACTION_LOW, ACTION_HIGH)
        assert got.as_array().tobytes() == expected.tobytes()
        x = np.concatenate([phi / agent.obs_scales,
                            normalize_action(got.as_array())])
        assert agent.q_value(phi, got) == float(agent.critic.forward(x)[0])


def test_act_noise_statistics():
    """Per-component std of the exploration noise at an interior action."""
    agent = fresh_agent()  # small final init puts the policy near the center
    rng = np.random.default_rng(4)
    phi = np.zeros(9)
    base = agent.act(phi).as_array()
    assert np.all(base > ACTION_LOW + 0.5) and np.all(base < ACTION_HIGH - 0.5)
    draws = np.stack([
        agent.act(phi, noise_scale=0.3, rng=rng).as_array() - base
        for _ in range(10_000)
    ])
    stds = draws.std(axis=0)
    np.testing.assert_allclose(stds, 0.3, rtol=0.1)
    assert np.abs(draws.mean(axis=0)).max() < 0.02


def test_q_value_zero_critic():
    agent = fresh_agent()
    for p in agent.critic.parameters():
        p *= 0.0
    rng = np.random.default_rng(5)
    for _ in range(10):
        phi = random_phi(rng)
        a = ActionVec.from_array(rng.uniform(ACTION_LOW, ACTION_HIGH))
        assert agent.q_value(phi, a) == 0.0


def test_q_value_deterministic():
    agent = fresh_agent()
    phi = random_phi(np.random.default_rng(6))
    a = ActionVec(1.0, 2.0, 0.5)
    assert agent.q_value(phi, a) == agent.q_value(phi, a)


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
    for p in agent.critic.parameters():
        p *= 0.0
    rng = np.random.default_rng(8)
    b = 32
    batch = (
        rng.normal(size=(b, 9)),
        rng.uniform(-1, 1, size=(b, 3)),
        rng.normal(size=b),
        rng.normal(size=(b, 9)),
        np.ones(b),
    )
    critic_opt = Adam(agent.critic.parameters(), 1e-3)
    actor_opt = Adam(agent.actor.parameters(), 1e-3)
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
    critic_opt = Adam(agent.critic.parameters(), 1e-3)
    actor_opt = Adam(agent.actor.parameters(), 1e-3)
    losses = [train_step(agent, critic_opt, actor_opt, batch, 0.99, 0.005)[0]
              for _ in range(100)]
    assert losses[-1] < losses[0]


def mini_configs():
    env_cfg = EnvConfig(goal_distance_range=(60.0, 90.0), max_steps=40)
    train_cfg = TrainConfig(
        episodes=3,
        warmup_episodes=1,
        batch_size=16,
        hidden=(16, 16),
        short_goal_distance_range=(60.0, 90.0),
        long_goal_distance_range=(60.0, 90.0),
    )
    gnss_cfg = GnssConfig(noise_sigma=2.0)
    return env_cfg, train_cfg, gnss_cfg


def test_train_is_deterministic_and_sized():
    env_cfg, train_cfg, gnss_cfg = mini_configs()
    agent1, hist1 = train(env_cfg, train_cfg, seed=5, gnss_cfg=gnss_cfg)
    agent2, hist2 = train(env_cfg, train_cfg, seed=5, gnss_cfg=gnss_cfg)
    assert len(hist1) == train_cfg.episodes
    assert hist1 == hist2
    for p1, p2 in zip(agent1.actor.parameters(), agent2.actor.parameters()):
        np.testing.assert_array_equal(p1, p2)
    _, hist3 = train(env_cfg, train_cfg, seed=6, gnss_cfg=gnss_cfg)
    assert hist1 != hist3


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
        for pa, pb in zip(getattr(agent, name).parameters(),
                          getattr(loaded, name).parameters()):
            np.testing.assert_array_equal(pa, pb)
    rng = np.random.default_rng(12)
    for _ in range(5):
        phi = random_phi(rng)
        a = ActionVec.from_array(rng.uniform(ACTION_LOW, ACTION_HIGH))
        assert agent.q_value(phi, a) == loaded.q_value(phi, a)
        assert agent.act(phi) == loaded.act(phi)


def test_checkpoint_truncated_file(tmp_path):
    agent = fresh_agent()
    path = tmp_path / "agent.npz"
    save_checkpoint(agent, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptCheckpointError):
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
