"""DDPG training loop, replay buffer, and agent checkpointing.

The actor emits a tanh output mapped affinely onto the action bounds; the
critic scores the normalized observation concatenated with the normalized
action.  The critic's scalar output is the value stream the detectors
monitor, so everything here must be deterministic given (seed, config).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .config import EnvConfig, ExperimentConfig, TrainConfig, _at_least
from .env import (
    ACTION_HIGH,
    ACTION_LOW,
    TERM_COLLISION,
    TERM_GOAL,
    clip_action,
    env_reset,
    env_step,
    steer,
)
from .errors import ConfigurationError
from .gnss import constellation_from_config
from .nets import Adam, Mlp, load_npz, save_npz, soft_update

CHECKPOINT_SCHEMA = "driftwatch-checkpoint-v1"

ACTION_CENTER = (ACTION_HIGH + ACTION_LOW) / 2.0
ACTION_HALF = (ACTION_HIGH - ACTION_LOW) / 2.0

OBS_DIM = 9
ACT_DIM = 3

# rng stream tags so the seed layout is explicit and stable
_TAG_INIT, _TAG_EPISODE, _TAG_NOISE, _TAG_SAMPLE, _TAG_MEAS = 1, 2, 3, 4, 5


def _derive_seed(*entropy: int) -> int:
    """An episode or model seed: the first word SeedSequence(entropy) generates."""
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def normalize_action(raw: np.ndarray) -> np.ndarray:
    return (np.asarray(raw, dtype=float) - ACTION_CENTER) / ACTION_HALF


def denormalize_action(norm: np.ndarray) -> np.ndarray:
    return ACTION_CENTER + ACTION_HALF * np.asarray(norm, dtype=float)


class Agent:
    """Actor/critic pair plus frozen target copies and observation scaling.

    The hidden sizes and the observation scales are `train_cfg`'s.
    """

    def __init__(self, rng: np.random.Generator, train_cfg: TrainConfig):
        hidden = train_cfg.hidden
        self.obs_scales = np.asarray(train_cfg.obs_scales, dtype=float)
        actor_sizes = [OBS_DIM, *hidden, ACT_DIM]
        critic_sizes = [OBS_DIM + ACT_DIM, *hidden, 1]
        # small final layer start: the policy begins near the action center
        self.actor = Mlp(actor_sizes, ["relu"] * len(hidden) + ["tanh"], rng,
                         final_init_scale=0.01)
        self.critic = Mlp(critic_sizes, ["relu"] * len(hidden) + ["linear"], rng)
        self.target_actor = self.actor.copy()
        self.target_critic = self.critic.copy()

    def act(
        self,
        phi: np.ndarray,
        noise_scale: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """In-bounds (B, 3) actions (rho0, sigma0, theta) for (B, 9) phi.

        One actor forward covers the B rows: a rollout acts for every
        episode of a stage still flying at one age, training for its one
        episode (B = 1).  Optional raw-unit Gaussian exploration noise is
        drawn as one (B, 3) block, so one row draws what a 3-vector would.
        """
        raw = denormalize_action(
            self.actor.forward(phi / self.obs_scales, cache=False))
        if noise_scale > 0.0:
            if rng is None:
                raise ConfigurationError("noise_scale > 0 requires an rng")
            raw = raw + rng.normal(0.0, noise_scale, size=raw.shape)
        return clip_action(raw)

    def q_value(self, phi: np.ndarray, action: np.ndarray) -> np.ndarray:
        """Critic values of (n, 9) observations and (n, 3) raw actions.

        One forward over all n rows; an episode is valued in a single pass.
        """
        x = np.concatenate([phi / self.obs_scales, normalize_action(action)],
                           axis=1)
        return self.critic.forward(x, cache=False)[:, 0]


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform batch sampling."""

    def __init__(self, capacity: int):
        _at_least("capacity", capacity, 1)
        self.capacity = int(capacity)
        self.phi = np.zeros((capacity, OBS_DIM))
        self.action_norm = np.zeros((capacity, ACT_DIM))
        self.reward = np.zeros(capacity)
        self.phi_next = np.zeros((capacity, OBS_DIM))
        self.done = np.zeros(capacity)
        self.size = 0
        self._head = 0

    def add(self, phi, action_norm, reward, phi_next, done: bool) -> None:
        i = self._head
        self.phi[i] = phi
        self.action_norm[i] = action_norm
        self.reward[i] = reward
        self.phi_next[i] = phi_next
        self.done[i] = 1.0 if done else 0.0
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform without replacement within the batch."""
        if batch_size > self.size:
            raise ConfigurationError(
                f"cannot sample {batch_size} from buffer of size {self.size}"
            )
        idx = rng.choice(self.size, size=batch_size, replace=False)
        return (self.phi[idx], self.action_norm[idx], self.reward[idx],
                self.phi_next[idx], self.done[idx])


def train_step(
    agent: Agent,
    critic_opt: Adam,
    actor_opt: Adam,
    batch,
    gamma: float,
    tau: float,
) -> tuple[float, float]:
    """One gradient update of critic and actor plus target soft updates.

    Returns (critic TD loss, actor objective mean Q) before the update.
    """
    phi, a_norm, r, phi_next, done = batch
    b = phi.shape[0]
    phi_n = phi / agent.obs_scales
    phi_next_n = phi_next / agent.obs_scales

    a_next = agent.target_actor.forward(phi_next_n, cache=False)
    q_next = agent.target_critic.forward(
        np.concatenate([phi_next_n, a_next], axis=1), cache=False)[:, 0]
    y = r + gamma * (1.0 - done) * q_next

    q = agent.critic.forward(np.concatenate([phi_n, a_norm], axis=1))[:, 0]
    diff = q - y
    critic_loss = float(np.mean(diff**2))
    _, critic_grad = agent.critic.backward((2.0 / b) * diff[:, None],
                                           input_grad=False)
    critic_opt.step(critic_grad)

    a_pi = agent.actor.forward(phi_n)
    q_pi = agent.critic.forward(np.concatenate([phi_n, a_pi], axis=1))
    actor_objective = float(np.mean(q_pi))
    dinput, _ = agent.critic.backward(np.full((b, 1), -1.0 / b),
                                      param_grad=False)
    _, actor_grad = agent.actor.backward(dinput[:, OBS_DIM:], input_grad=False)
    actor_opt.step(actor_grad)

    soft_update(agent.target_actor, agent.actor, tau)
    soft_update(agent.target_critic, agent.critic, tau)
    return critic_loss, actor_objective


def _curriculum_env(
    env_cfg: EnvConfig, train_cfg: TrainConfig, rng: np.random.Generator
) -> EnvConfig:
    """Pick the short obstacle-heavy or long cruise episode variant."""
    if rng.uniform() < train_cfg.curriculum_short_frac:
        return dataclasses.replace(
            env_cfg,
            goal_distance_range=train_cfg.short_goal_distance_range,
            obstacle_path_frac_range=train_cfg.short_path_frac_range,
            obstacle_offset_range=train_cfg.short_offset_range,
        )
    return dataclasses.replace(
        env_cfg,
        goal_distance_range=train_cfg.long_goal_distance_range,
        obstacle_offset_range=train_cfg.long_offset_range,
    )


def noise_schedule(train_cfg: TrainConfig, episode: int) -> float:
    """Exploration noise for an episode: linear decay after the warmup."""
    if episode < train_cfg.warmup_episodes:
        return train_cfg.noise_start
    remaining = train_cfg.episodes - 1 - train_cfg.warmup_episodes
    if remaining <= 0:
        return train_cfg.noise_end
    frac = (episode - train_cfg.warmup_episodes) / remaining
    return train_cfg.noise_start + frac * (train_cfg.noise_end
                                           - train_cfg.noise_start)


def train(cfg: ExperimentConfig, seed: int) -> tuple[Agent, list[float]]:
    """Full training run: warmup exploration, then noisy policy + updates.

    Reads the env, train and gnss sections of `cfg`; the receiver flies
    the constellation `cfg.gnss` lays out.  Deterministic given (cfg,
    seed): every rng stream is derived from the seed with a fixed tag
    layout.
    """
    train_cfg, noise_sigma = cfg.train, cfg.gnss.noise_sigma
    constellation = constellation_from_config(cfg.gnss)
    agent = Agent(np.random.default_rng([seed, _TAG_INIT]), train_cfg)
    critic_opt = Adam(agent.critic.flat, train_cfg.critic_lr)
    actor_opt = Adam(agent.actor.flat, train_cfg.actor_lr)
    buffer = ReplayBuffer(train_cfg.buffer_capacity)
    sample_rng = np.random.default_rng([seed, _TAG_SAMPLE])

    reward_history: list[float] = []
    for episode in range(train_cfg.episodes):
        ep_rng = np.random.default_rng([seed, _TAG_NOISE, episode])
        meas_rng = np.random.default_rng([seed, _TAG_MEAS, episode])
        cfg_ep = _curriculum_env(cfg.env, train_cfg, ep_rng)
        world, phi = env_reset(cfg_ep, _derive_seed(seed, _TAG_EPISODE, episode),
                               constellation, noise_sigma)
        warmup = episode < train_cfg.warmup_episodes
        sigma = noise_schedule(train_cfg, episode)

        # the controller's belief: goal offset block recovers the estimate
        nav_pos = world.goal - phi[3:6]
        total = 0.0
        done = False
        while not done:
            if warmup:
                a_norm = ep_rng.uniform(-1.0, 1.0, size=ACT_DIM)
                action = clip_action(denormalize_action(a_norm))
            else:
                [action] = agent.act(phi[None], noise_scale=sigma, rng=ep_rng)
                a_norm = normalize_action(action)
            world, phi_next, rb, done, pvt = env_step(
                world, steer(world, action, nav_pos, cfg_ep), constellation,
                noise_sigma, None, cfg=cfg_ep, rng=meas_rng,
            )
            terminal = rb.terminal_event in (TERM_COLLISION, TERM_GOAL)
            buffer.add(phi, a_norm, rb.total, phi_next, terminal)
            total += rb.total
            phi = phi_next
            nav_pos = pvt.x[:3]

            if not warmup and buffer.size >= train_cfg.batch_size:
                batch = buffer.sample(train_cfg.batch_size, sample_rng)
                train_step(agent, critic_opt, actor_opt, batch,
                           train_cfg.gamma, train_cfg.tau)
        reward_history.append(total)
    return agent, reward_history


_NETS = ("actor", "critic", "target_actor", "target_critic")


def save_checkpoint(agent: Agent, path) -> None:
    """Persist all four networks and the observation scaling as one npz."""
    header = {"obs_scales": agent.obs_scales}
    for tag in ("actor", "critic"):
        net = getattr(agent, tag)
        header.update({f"{tag}_sizes": net.layer_sizes,
                       f"{tag}_acts": net.activations})
    save_npz(path, CHECKPOINT_SCHEMA, header,
             {f"{tag}_": getattr(agent, tag) for tag in _NETS})


def _read_agent(data) -> Agent:
    """The checkpoint's agent, refused unless this package can fly it."""
    for kind, ends in (("actor", [OBS_DIM, ACT_DIM]),
                       ("critic", [OBS_DIM + ACT_DIM, 1])):
        sizes = [int(s) for s in data[f"{kind}_sizes"]]
        if sizes[:1] + sizes[-1:] != ends:
            raise ValueError(f"{kind} sizes {sizes} do not match this package")
    agent = object.__new__(Agent)
    agent.obs_scales = scales = np.asarray(data["obs_scales"], dtype=float)
    if scales.shape != (OBS_DIM,) or not np.all(np.isfinite(scales) & (scales > 0)):
        raise ValueError(f"obs_scales must be {OBS_DIM} finite values > 0")
    for tag in _NETS:
        kind = tag.removeprefix("target_")
        setattr(agent, tag, Mlp.from_arrays(data, data[f"{kind}_sizes"],
                                            data[f"{kind}_acts"], f"{tag}_"))
    return agent


def load_checkpoint(path) -> Agent:
    return load_npz(path, CHECKPOINT_SCHEMA, "checkpoint", _read_agent)
