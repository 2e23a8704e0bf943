"""Improvement-search environment and REINFORCE trainer."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

import helpers
from helpers import whole_graph_update
from sawt_qap import generate_instance, nn, objective, rl
from sawt_qap.core import make_rng
from sawt_qap.errors import NumericalAbortError, ValidationError
from sawt_qap.nn import Adam
from sawt_qap.policy import SawtConfig, SawtPolicy
from sawt_qap.rl import (
    TrainConfig,
    compute_returns,
    evaluate,
    reinforce_update,
    reset_state,
    step_state,
    train,
)

TINY = SawtConfig(
    d_emb=16, n_heads=2, n_layers=1, n_init=12, gcn_layers=1, fac_blocks=1,
    ffn_mult=2, dtype="float32",
)


@pytest.fixture
def policy():
    return SawtPolicy(TINY, seed=0)


@pytest.fixture
def batch(policy, rng):
    instances = [generate_instance(5, seed=200 + k) for k in range(3)]
    return policy.embed_instances(instances, rng)


# ---------------------------------------------------------------------------
# Environment semantics.
# ---------------------------------------------------------------------------


def test_reset_identity_and_random(batch, rng):
    state = reset_state(batch, init="identity")
    np.testing.assert_array_equal(state.sigma, np.tile(np.arange(5), (3, 1)))
    for b, inst in enumerate(batch.instances):
        assert state.cost[b] == pytest.approx(objective(inst, state.sigma[b]))
    np.testing.assert_array_equal(state.best_sigma, state.sigma)
    np.testing.assert_array_equal(state.best_cost, state.cost)

    state_r = reset_state(batch, init="random", rng=rng)
    for row in state_r.sigma:
        assert sorted(row.tolist()) == list(range(5))
    with pytest.raises(ValidationError):
        reset_state(batch, init="random")
    with pytest.raises(ValidationError):
        reset_state(batch, init="sorted")


def test_step_unconditional_accept_and_cost_tracking(batch, rng):
    state = reset_state(batch, init="identity")
    for _ in range(20):
        swaps = np.stack(
            [rng.choice(5, size=2, replace=False) for _ in range(3)]
        )
        swaps.sort(axis=1)
        prev_sigma = state.sigma.copy()
        state, rewards = step_state(batch, state, swaps)
        for b, inst in enumerate(batch.instances):
            expected = prev_sigma[b].copy()
            i, j = swaps[b]
            expected[i], expected[j] = expected[j], expected[i]
            np.testing.assert_array_equal(state.sigma[b], expected)  # always accepted
            assert state.cost[b] == pytest.approx(objective(inst, state.sigma[b]), rel=1e-9)
            assert state.best_cost[b] == pytest.approx(
                objective(inst, state.best_sigma[b]), rel=1e-9
            )
            assert rewards[b] >= 0.0


def test_reward_telescopes_to_incumbent_improvement(batch, rng):
    state = reset_state(batch, init="identity")
    start_best = state.best_cost.copy()
    total = np.zeros(3)
    for _ in range(40):
        swaps = np.stack([rng.choice(5, size=2, replace=False) for _ in range(3)])
        state, rewards = step_state(batch, state, swaps)
        total += rewards
    np.testing.assert_allclose(total, start_best - state.best_cost, rtol=1e-9)
    assert np.all(state.best_cost <= start_best + 1e-12)


def test_best_cost_monotone(batch, rng):
    state = reset_state(batch, init="random", rng=rng)
    prev = state.best_cost.copy()
    for _ in range(30):
        swaps = np.stack([rng.choice(5, size=2, replace=False) for _ in range(3)])
        state, _ = step_state(batch, state, swaps)
        assert np.all(state.best_cost <= prev + 1e-12)
        prev = state.best_cost.copy()


# ---------------------------------------------------------------------------
# Returns.
# ---------------------------------------------------------------------------


def naive_returns(rewards, gamma, window):
    T, B = rewards.shape
    out = np.zeros_like(rewards)
    for t in range(T):
        for k in range(min(window, T - t)):
            out[t] += gamma**k * rewards[t + k]
    return out


def test_compute_returns_matches_naive(rng):
    rewards = rng.random((17, 4))
    for gamma in (0.0, 0.5, 0.99, 1.0):
        for window in (1, 3, 8, 17, 30):
            np.testing.assert_allclose(
                compute_returns(rewards, gamma, window),
                naive_returns(rewards, gamma, window),
                rtol=1e-12,
            )


def test_compute_returns_validation(rng):
    with pytest.raises(ValidationError):
        compute_returns(rng.random(5), 0.9, 3)
    with pytest.raises(ValidationError):
        compute_returns(rng.random((5, 2)), 1.5, 3)
    with pytest.raises(ValidationError):
        compute_returns(rng.random((5, 2)), 0.9, 0)


# ---------------------------------------------------------------------------
# Rollouts and updates.
# ---------------------------------------------------------------------------


def test_reinforce_update_metrics_and_grad(policy, batch):
    rng = np.random.default_rng(2)
    opt = Adam(policy.params, lr=1e-3)
    before = {k: t.data.copy() for k, t in policy.params.items()}
    config = TrainConfig(epochs=1, batch_size=3, episode_length=6)
    metrics, final = reinforce_update(policy, opt, batch, config, rng, epoch=0)
    for key in ("loss", "policy_loss", "value_loss", "entropy", "entropy_coef",
                "mean_return", "grad_norm"):
        assert np.isfinite(metrics[key]), key
    assert metrics["entropy"] > 0
    assert metrics["entropy_coef"] == pytest.approx(config.entropy_beta)
    assert metrics["grad_norm"] > 0
    assert final.t == 6
    assert opt.step_count == 1
    changed = any(
        not np.array_equal(before[k], policy.params[k].data) for k in before
    )
    assert changed
    # Gradients are cleared after the step.
    assert all(t.grad is None for t in policy.params.values())


def test_entropy_coefficient_decays(policy, batch):
    rng = np.random.default_rng(3)
    opt = Adam(policy.params, lr=1e-4)
    config = TrainConfig(epochs=1, episode_length=4, entropy_beta=0.01, entropy_decay=0.9)
    m0, _ = reinforce_update(policy, opt, batch, config, rng, epoch=0)
    m5, _ = reinforce_update(policy, opt, batch, config, rng, epoch=5)
    assert m0["entropy_coef"] == pytest.approx(0.01)
    assert m5["entropy_coef"] == pytest.approx(0.01 * 0.9**5)


def _abort_on_nan_value_head(policy, batch, config):
    """Run one update with a NaN value head; return (diagnostics, act calls)."""
    rng = np.random.default_rng(4)
    opt = Adam(policy.params, lr=1e-3)
    policy.params["value.l1.w"].data[:] = np.nan
    before = {k: t.data.copy() for k, t in policy.params.items()}
    acts = []
    act = policy.act

    def counting_act(*args, **kwargs):
        acts.append(1)
        return act(*args, **kwargs)

    policy.act = counting_act
    with pytest.raises(NumericalAbortError) as exc:
        reinforce_update(policy, opt, batch, config, rng, epoch=2)
    diag = exc.value.diagnostics
    assert diag["epoch"] == 2
    assert diag["step"] == 0
    assert "loss" in diag and not np.isfinite(diag["loss"])
    # Aborted before the optimizer step, with no gradient left behind.
    assert opt.step_count == 0
    for k, t in policy.params.items():
        np.testing.assert_array_equal(t.data, before[k])
        assert t.grad is None, k
    return diag, len(acts)


def test_nan_abort_carries_diagnostics(policy, batch):
    # The episode is shorter than the window: the NaN step term is only
    # back-propagated by the end-of-episode flush.
    _abort_on_nan_value_head(policy, batch, TrainConfig(epochs=1, episode_length=3))


def test_nan_abort_stops_at_first_window(policy, batch):
    # The first step term is non-finite: the rollout stops as soon as its
    # window closes, not at the end of the episode.
    config = TrainConfig(epochs=1, episode_length=64, return_window=2)
    _, acts = _abort_on_nan_value_head(policy, batch, config)
    assert acts <= 2


class _GradRecordingAdam(Adam):
    """Adam that keeps a copy of the gradients it is asked to apply."""

    def step(self):
        self.applied = {k: t.grad.copy() for k, t in self.params.items() if t.grad is not None}
        super().step()


@pytest.mark.parametrize(
    "steps,window",
    [(5, 1), (6, 3), (4, 8), (1, 4)],
    ids=["window-1", "window-lt-T", "window-ge-T", "one-step"],
)
def test_streamed_update_matches_whole_graph(steps, window):
    config = TrainConfig(episode_length=steps, return_window=window, entropy_beta=0.01)
    model = dataclasses.replace(TINY, dtype="float64")
    instances = [generate_instance(5, seed=200 + k) for k in range(3)]
    results = []
    for update in (reinforce_update, whole_graph_update):
        policy = SawtPolicy(model, seed=0)
        opt = _GradRecordingAdam(policy.params)
        rng = np.random.default_rng(5)
        batch = policy.embed_instances(instances, rng)
        metrics, final = update(policy, opt, batch, config, rng, epoch=1)
        results.append((metrics, final, opt.applied))
    (m_s, final_s, g_s), (m_w, final_w, g_w) = results
    np.testing.assert_array_equal(final_s.best_sigma, final_w.best_sigma)
    assert g_s.keys() == g_w.keys()
    for k in g_w:
        np.testing.assert_allclose(g_s[k], g_w[k], rtol=0, atol=1e-10, err_msg=k)
    assert m_s.keys() == m_w.keys()
    for k in m_w:
        assert m_s[k] == pytest.approx(m_w[k], rel=1e-10), k


def test_fused_layers_match_composite_update(monkeypatch):
    # One float64 update with the fused layers, then with sawt_qap.nn's
    # linear/layer_norm/mixed_attention replaced by their composite oracles.
    config = TrainConfig(episode_length=4, return_window=2, entropy_beta=0.01)
    model = dataclasses.replace(TINY, dtype="float64", n_layers=2)
    instances = [generate_instance(5, seed=220 + k) for k in range(3)]
    results = []
    oracle_calls = []
    for use_oracles in (False, True):
        if use_oracles:
            for name in ("linear", "layer_norm", "mixed_attention"):
                oracle = getattr(helpers, f"{name}_composite")

                def counted(*args, _oracle=oracle, **kwargs):
                    oracle_calls.append(1)
                    return _oracle(*args, **kwargs)

                monkeypatch.setattr(nn, name, counted)
        policy = SawtPolicy(model, seed=0)
        opt = _GradRecordingAdam(policy.params)
        rng = np.random.default_rng(6)
        batch = policy.embed_instances(instances, rng)
        metrics, final = reinforce_update(policy, opt, batch, config, rng, epoch=0)
        results.append((metrics, final, opt.applied))
    assert oracle_calls, "the composite oracles were not called"
    (m_f, final_f, g_f), (m_c, final_c, g_c) = results
    np.testing.assert_array_equal(final_f.best_sigma, final_c.best_sigma)
    assert g_f.keys() == g_c.keys() == set(policy.params)
    for k in g_c:
        np.testing.assert_allclose(g_f[k], g_c[k], rtol=0, atol=1e-10, err_msg=k)
    for k in m_c:
        assert m_f[k] == pytest.approx(m_c[k], rel=1e-10), k


def _peak_traced_bytes(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_streamed_update_bounds_memory():
    config = TrainConfig(batch_size=8, episode_length=32, return_window=4)
    instances = [generate_instance(6, seed=210 + k) for k in range(8)]
    peaks = []
    for update in (reinforce_update, whole_graph_update):
        policy = SawtPolicy(SawtConfig(), seed=0)
        opt = Adam(policy.params)
        rng = np.random.default_rng(6)
        batch = policy.embed_instances(instances, rng)
        peaks.append(_peak_traced_bytes(lambda: update(policy, opt, batch, config, rng)))
    streamed, whole = peaks
    assert streamed * 3 <= whole, f"streamed peak {streamed} B vs whole-graph {whole} B"

    # At most window + 1 step graphs are alive at once.  Tensor has no weakref
    # slot, so each step is watched through its log-prob array.
    policy = SawtPolicy(SawtConfig(), seed=0)
    rng = np.random.default_rng(6)
    batch = policy.embed_instances(instances, rng)
    act, refs, live = policy.act, [], []

    def watched_act(*args, **kwargs):
        out = act(*args, **kwargs)
        refs.append(weakref.ref(out.log_prob.data))
        live.append(sum(r() is not None for r in refs))
        return out

    policy.act = watched_act
    reinforce_update(policy, Adam(policy.params), batch, config, rng)
    assert len(refs) == config.episode_length
    assert max(live) <= config.return_window + 1, live
    assert all(r() is None for r in refs)


# ---------------------------------------------------------------------------
# Evaluation and training loop.
# ---------------------------------------------------------------------------


def test_evaluate_deterministic_and_feasible(policy):
    instances = [generate_instance(5, seed=300 + k) for k in range(5)]
    r1 = evaluate(policy, instances, steps=20, seed=7)
    r2 = evaluate(policy, instances, steps=20, seed=7)
    np.testing.assert_array_equal(r1.best_costs, r2.best_costs)
    r3 = evaluate(policy, instances, steps=20, seed=8)
    assert not np.array_equal(r1.best_costs, r3.best_costs)
    for cost, sigma, inst in zip(r1.best_costs, r1.best_sigmas, instances):
        assert sorted(sigma.tolist()) == list(range(5))
        assert cost == pytest.approx(objective(inst, sigma), rel=1e-9)
    # Identity start: the incumbent can only improve on the identity cost.
    for cost, inst in zip(r1.best_costs, instances):
        assert cost <= objective(inst, np.arange(5)) + 1e-9


def test_evaluate_mixed_sizes(policy):
    instances = [generate_instance(4, seed=1), generate_instance(5, seed=2),
                 generate_instance(4, seed=3)]
    res = evaluate(policy, instances, steps=10, seed=0)
    assert res.best_costs.shape == (3,)
    assert res.best_sigmas[0].shape == (4,)
    assert res.best_sigmas[1].shape == (5,)
    # One timed batch per size bucket, covering every instance once.
    assert [idxs for idxs, _ in res.batches] == [[0, 2], [1]]
    assert all(wall_s > 0.0 for _, wall_s in res.batches)


MIXED = SawtConfig(d_emb=32, n_heads=4, n_layers=2, n_init=32, gcn_layers=1,
                  fac_blocks=1, ffn_mult=2, dtype="float32")


def _mixed_eval_instances():
    return [generate_instance(6 if k % 3 else 20, seed=320 + k) for k in range(9)]


@pytest.mark.parametrize("steps", [0, 1, 40])
def test_evaluate_matches_uncached_reference(steps):
    policy = SawtPolicy(MIXED, seed=3)
    instances = _mixed_eval_instances()
    res = evaluate(policy, instances, steps=steps, seed=11)
    ref = helpers.uncached_evaluate(policy, instances, steps=steps, seed=11)
    assert np.array_equal(res.best_costs, ref.best_costs)
    for got, want in zip(res.best_sigmas, ref.best_sigmas):
        assert np.array_equal(got, want)


def test_evaluate_reencodes_only_changed_incumbents(monkeypatch):
    # At random init the heads barely react to the best-so-far encoding, so
    # equal search results alone would miss a stale one: before every act,
    # check both encodings against full encodes of the current and the
    # incumbent assignment, and count the encoder passes.
    policy = SawtPolicy(MIXED, seed=3)
    instances = _mixed_eval_instances()
    latest, encoded_rows, improved = {}, [], []
    real_act, real_encode = policy.act, policy.encode
    real_reset, real_step = rl.reset_state, rl.step_state

    def tracking_reset(batch, *args, **kwargs):
        latest["batch"] = batch
        latest["state"] = real_reset(batch, *args, **kwargs)
        return latest["state"]

    def tracking_step(batch, state, swaps):
        latest["state"], rewards = real_step(batch, state, swaps)
        improved.append(int((rewards > 0).sum()))
        return latest["state"], rewards

    def counting_encode(batch, sigma):
        encoded_rows.append(batch.size)
        return real_encode(batch, sigma)

    def checking_act(h, h_best, **kwargs):
        batch, state = latest["batch"], latest["state"]
        assert np.array_equal(h.data, real_encode(batch, state.sigma).data)
        assert np.array_equal(h_best.data, real_encode(batch, state.best_sigma).data)
        return real_act(h, h_best, **kwargs)

    monkeypatch.setattr(policy, "act", checking_act)
    monkeypatch.setattr(policy, "encode", counting_encode)
    monkeypatch.setattr(rl, "reset_state", tracking_reset)
    monkeypatch.setattr(rl, "step_state", tracking_step)
    # Two size buckets (six n=6 rows, then three n=20 rows), one full encoder
    # pass per act and no other: the incumbent never costs a pass of its own.
    for steps in (0, 40):
        encoded_rows.clear()
        improved.clear()
        evaluate(policy, instances, steps=steps, seed=11)
        assert len(improved) == 2 * steps
        assert encoded_rows == [6] * steps + [3] * steps
        assert sum(encoded_rows) == steps * len(instances)
    assert sum(improved) > 0


def test_train_returns_epoch_rows():
    policy = SawtPolicy(TINY, seed=5)
    instances = [generate_instance(5, seed=400 + k) for k in range(8)]
    held_out = [generate_instance(5, seed=500 + k) for k in range(4)]
    config = TrainConfig(
        epochs=2, batch_size=4, episode_length=6, seed=9,
        eval_every=2, eval_steps=8,
    )
    optimizer = Adam(policy.params, lr=config.lr)
    seen = []
    rows = train(
        policy, instances, config, eval_instances=held_out, optimizer=optimizer,
        on_epoch=lambda row: seen.append((dict(row), optimizer.step_count)),
    )
    assert len(rows) == 2
    assert rows[0]["epoch"] == 0 and "wall_ms" in rows[0]
    assert rows[0]["updates"] == 2
    assert "eval_cost_mean" in rows[1]
    assert "eval_cost_mean" not in rows[0]
    # Each row reaches on_epoch once its epoch's updates are all taken.
    assert seen == [(rows[0], 2), (rows[1], 4)]


def test_train_deterministic_given_seed(tmp_path):
    instances = [generate_instance(4, seed=600 + k) for k in range(6)]
    histories = []
    for _ in range(2):
        policy = SawtPolicy(TINY, seed=8)
        config = TrainConfig(epochs=2, batch_size=3, episode_length=5, seed=11)
        rows = train(policy, instances, config)
        histories.append([{k: v for k, v in row.items() if k != "wall_ms"} for row in rows])
    assert histories[0] == histories[1]


def test_evaluate_zero_steps_reports_start(policy):
    instances = [generate_instance(5, seed=310 + k) for k in range(3)]
    res = evaluate(policy, instances, steps=0, seed=1)
    for cost, inst in zip(res.best_costs, instances):
        assert cost == pytest.approx(objective(inst, np.arange(5)), rel=1e-12)
    with pytest.raises(ValidationError):
        evaluate(policy, instances, steps=-1)


def test_train_resume_continues_epoch_numbering():
    instances = [generate_instance(4, seed=650 + k) for k in range(4)]
    policy = SawtPolicy(TINY, seed=19)
    config = TrainConfig(epochs=2, batch_size=4, episode_length=4, seed=21)
    optimizer = Adam(policy.params, lr=config.lr)
    rows = train(policy, instances, config, optimizer=optimizer)
    assert [row["epoch"] for row in rows] == [0, 1]

    resumed = train(policy, instances, config, start_epoch=rows[-1]["epoch"] + 1,
                    optimizer=optimizer)
    assert [row["epoch"] for row in resumed] == [2, 3]
    assert optimizer.step_count == 4
    # Entropy decay picks up at the resumed epoch.
    assert resumed[0]["entropy_coef"] == pytest.approx(
        config.entropy_beta * config.entropy_decay**2, rel=1e-12)


def test_train_zero_epochs_is_noop():
    policy = SawtPolicy(TINY, seed=2)
    before = {k: t.data.copy() for k, t in policy.params.items()}
    assert train(policy, [generate_instance(4, seed=1)], TrainConfig(epochs=0)) == []
    for k, t in policy.params.items():
        np.testing.assert_array_equal(t.data, before[k])


def test_train_buckets_mixed_sizes():
    policy = SawtPolicy(TINY, seed=3)
    instances = [generate_instance(4, seed=700 + k) for k in range(3)]
    instances += [generate_instance(6, seed=800 + k) for k in range(3)]
    config = TrainConfig(epochs=1, batch_size=4, episode_length=4, seed=1)
    rows = train(policy, instances, config)
    # 3 of size 4 and 3 of size 6 cannot share a batch: at least 2 updates.
    assert rows[0]["updates"] >= 2


def test_train_batches_shuffle_each_bucket_up_front(monkeypatch):
    """Each size bucket, smallest n first, is permuted by the epoch's rng and cut
    into chunks; all bucket permutations are drawn before the first batch."""
    policy = SawtPolicy(TINY, seed=3)
    instances = [generate_instance(6, seed=820 + k) for k in range(3)]
    instances += [generate_instance(4, seed=720 + k) for k in range(5)]
    index = {id(inst): i for i, inst in enumerate(instances)}
    embedded = []
    embed = policy.embed_instances

    def recording_embed(insts, rng):
        embedded.append([index[id(inst)] for inst in insts])
        return embed(insts, rng)

    monkeypatch.setattr(policy, "embed_instances", recording_embed)
    config = TrainConfig(epochs=1, batch_size=2, episode_length=2, seed=13)
    rows = train(policy, instances, config)
    assert rows[0]["updates"] == 5
    rng = make_rng(config.seed)
    n4 = rng.permutation([3, 4, 5, 6, 7]).tolist()
    n6 = rng.permutation([0, 1, 2]).tolist()
    assert embedded == [n4[0:2], n4[2:4], n4[4:], n6[0:2], n6[2:]]


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValidationError):
        TrainConfig(gamma=1.5)
    with pytest.raises(ValidationError):
        TrainConfig(entropy_decay=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(init="greedy")
    with pytest.raises(ValidationError, match="eval_every"):
        TrainConfig(eval_every=-1)  # 0 means never; -1 is not an alias of 1
    with pytest.raises(ValidationError):
        train(SawtPolicy(TINY), [])


def test_training_improves_tiny_problem():
    """A few epochs on one tiny instance should beat the untrained policy."""
    instances = [generate_instance(4, seed=900 + k) for k in range(6)]
    held_out = [generate_instance(4, seed=950 + k) for k in range(6)]

    untrained = SawtPolicy(TINY, seed=14)
    base = evaluate(untrained, held_out, steps=12, seed=3)

    policy = SawtPolicy(TINY, seed=14)
    config = TrainConfig(
        epochs=6, batch_size=6, episode_length=16, seed=4, lr=3e-3,
        entropy_beta=0.01,
    )
    train(policy, instances, config)
    tuned = evaluate(policy, held_out, steps=12, seed=3)
    # Not a strict improvement theorem; allow equality but forbid regression.
    assert tuned.mean_cost <= base.mean_cost + 1e-9
