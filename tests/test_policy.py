"""Policy network: shapes, invariances, gradients, persistence."""

import numpy as np
import pytest

from helpers import fd_gradient, sub_batch
from sawt_qap import QapInstance, generate_instance, objective
from sawt_qap.errors import CheckpointError, ValidationError
from sawt_qap.nn import Adam, Tensor, add, no_grad, tensor_sum
from sawt_qap.policy import (
    ActionOutput,
    InstanceBatch,
    SawtConfig,
    SawtPolicy,
    load_policy,
    save_policy,
)

SMALL = SawtConfig(
    d_emb=16, n_heads=2, n_layers=1, n_init=12, gcn_layers=2, fac_blocks=2,
    ffn_mult=2, dtype="float64",
)


def make_batch(policy, rng, b=3, n=5, seed0=100):
    instances = [generate_instance(n, seed=seed0 + k) for k in range(b)]
    return policy.embed_instances(instances, rng), instances


# ---------------------------------------------------------------------------
# Configuration and parameter census.
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValidationError):
        SawtConfig(d_emb=10, n_heads=3)  # not divisible
    with pytest.raises(ValidationError):
        SawtConfig(n_init=1)
    with pytest.raises(ValidationError):
        SawtConfig(dtype="float16")
    with pytest.raises(ValidationError):
        SawtConfig(n_layers=0)


def test_describe_census():
    policy = SawtPolicy(SMALL, seed=3)
    desc = policy.describe()
    assert desc["total_parameters"] == sum(e["count"] for e in desc["parameters"])
    assert desc["total_parameters"] == sum(
        int(np.prod(t.shape)) for t in policy.params.values()
    )
    assert desc["config"]["d_emb"] == 16
    names = {e["name"] for e in desc["parameters"]}
    assert {"enc.fuse.w", "head1.l0.w", "head2.l0.w", "value.l1.w"} <= names


def test_init_deterministic_and_bounded():
    p1 = SawtPolicy(SMALL, seed=11)
    p2 = SawtPolicy(SMALL, seed=11)
    p3 = SawtPolicy(SMALL, seed=12)
    for k in p1.params:
        np.testing.assert_array_equal(p1.params[k].data, p2.params[k].data)
    assert any(
        not np.array_equal(p1.params[k].data, p3.params[k].data) for k in p1.params
    )
    w = p1.params["enc.l0.wq.w"]
    bound = 1.0 / np.sqrt(w.shape[0])
    assert np.all(np.abs(w.data) <= bound)
    np.testing.assert_array_equal(p1.params["enc.l0.ln1.g"].data, np.ones(16))


# ---------------------------------------------------------------------------
# Embedding and encoding.
# ---------------------------------------------------------------------------


def test_embed_validation(rng):
    policy = SawtPolicy(SMALL, seed=0)
    with pytest.raises(ValidationError, match="at least one"):
        policy.embed_instances([], rng)
    mixed = [generate_instance(4, seed=1), generate_instance(5, seed=2)]
    with pytest.raises(ValidationError, match="bucket by size"):
        policy.embed_instances(mixed, rng)
    big = generate_instance(13, seed=3)  # n_init is 12
    with pytest.raises(ValidationError, match="n_init"):
        policy.embed_instances([big], rng)
    bare = QapInstance(
        name="bare",
        flow=np.ones((3, 3)) - np.eye(3),
        distance=np.ones((3, 3)) - np.eye(3),
    )
    with pytest.raises(ValidationError, match="coordinates"):
        policy.embed_instances([bare], rng)


def test_encode_shapes_and_m_debug(rng):
    policy = SawtPolicy(
        SawtConfig(d_emb=16, n_heads=2, n_layers=2, n_init=12, dtype="float64",
                   debug_checks=True),
        seed=0,
    )
    batch, instances = make_batch(policy, rng, b=2, n=6)
    sigma = np.stack([rng.permutation(6) for _ in range(2)])
    h = policy.encode(batch, sigma)
    assert h.shape == (2, 6, 16)
    with pytest.raises(ValidationError, match="shape"):
        policy.encode(batch, sigma[:, :4])


def test_solution_aware_matrix_sums_to_cost(rng):
    policy = SawtPolicy(SMALL, seed=0)
    batch, instances = make_batch(policy, rng, b=3, n=6)
    sigma = np.stack([rng.permutation(6) for _ in range(3)])
    m = batch.solution_aware(sigma)
    for b, inst in enumerate(instances):
        assert m[b].sum() == pytest.approx(objective(inst, sigma[b]), rel=1e-6)


def test_embedding_stochastic_across_calls_deterministic_with_seed():
    policy = SawtPolicy(SMALL, seed=0)
    instances = [generate_instance(5, seed=7)]
    b1 = policy.embed_instances(instances, np.random.default_rng(42))
    b2 = policy.embed_instances(instances, np.random.default_rng(42))
    np.testing.assert_array_equal(b1.fac_emb.data, b2.fac_emb.data)
    # A different draw from the one-hot pool changes the facility embedding.
    b3 = policy.embed_instances(instances, np.random.default_rng(43))
    assert not np.array_equal(b1.fac_emb.data, b3.fac_emb.data)
    # Location embeddings do not depend on the draw.
    np.testing.assert_array_equal(b1.loc_emb.data, b3.loc_emb.data)


# ---------------------------------------------------------------------------
# Action head semantics.
# ---------------------------------------------------------------------------


def test_act_shapes_and_action_validity(rng):
    policy = SawtPolicy(SMALL, seed=0)
    batch, _ = make_batch(policy, rng, b=4, n=6)
    sigma = np.tile(np.arange(6), (4, 1))
    out = policy.act(policy.encode(batch, sigma), policy.encode(batch, sigma), rng=rng)
    assert out.a1.shape == (4,) and out.a2.shape == (4,)
    assert np.all(out.a1 != out.a2)
    assert out.log_prob.shape == (4,) and out.value.shape == (4,)
    assert np.all(out.p2[np.arange(4), out.a1] == 0.0)  # masked column
    swaps = out.swaps
    assert np.all(swaps[:, 0] < swaps[:, 1])
    np.testing.assert_allclose(out.p1.sum(axis=1), 1.0, rtol=1e-9)
    np.testing.assert_allclose(out.p2.sum(axis=1), 1.0, rtol=1e-9)


def test_log_prob_matches_head_probabilities(rng):
    policy = SawtPolicy(SMALL, seed=1)
    batch, _ = make_batch(policy, rng, b=3, n=5)
    sigma = np.tile(np.arange(5), (3, 1))
    out = policy.act(policy.encode(batch, sigma), policy.encode(batch, sigma), rng=rng)
    expected = np.log(out.p1[np.arange(3), out.a1]) + np.log(
        out.p2[np.arange(3), out.a2]
    )
    np.testing.assert_allclose(out.log_prob.data, expected, rtol=1e-10)


def test_entropy_bounds(rng):
    policy = SawtPolicy(SMALL, seed=2)
    n = 6
    batch, _ = make_batch(policy, rng, b=3, n=n)
    sigma = np.tile(np.arange(n), (3, 1))
    out = policy.act(policy.encode(batch, sigma), policy.encode(batch, sigma), rng=rng)
    upper = np.log(n) + np.log(n - 1)  # uniform over both heads
    assert np.all(out.entropy.data >= -1e-12)
    assert np.all(out.entropy.data <= upper + 1e-9)


def test_greedy_deterministic_sampling_spread(rng):
    policy = SawtPolicy(SMALL, seed=3)
    batch, _ = make_batch(policy, rng, b=2, n=6)
    sigma = np.tile(np.arange(6), (2, 1))
    g1 = policy.act(policy.encode(batch, sigma), policy.encode(batch, sigma), greedy=True)
    g2 = policy.act(policy.encode(batch, sigma), policy.encode(batch, sigma), greedy=True)
    np.testing.assert_array_equal(g1.a1, g2.a1)
    np.testing.assert_array_equal(g1.a2, g2.a2)
    assert g1.a1[0] == g1.p1[0].argmax()
    with pytest.raises(ValidationError, match="rng"):
        policy.act(policy.encode(batch, sigma), policy.encode(batch, sigma))


def test_sampling_matches_head_distribution():
    policy = SawtPolicy(SMALL, seed=4)
    rng = np.random.default_rng(0)
    batch, _ = make_batch(policy, rng, b=1, n=5)
    sigma = np.arange(5)[None, :]
    counts = np.zeros(5)
    trials = 4000
    sample_rng = np.random.default_rng(9)
    with no_grad():
        ref = policy.act(policy.encode(batch, sigma), policy.encode(batch, sigma), greedy=True)
        for _ in range(trials):
            h = policy.encode(batch, sigma)
            out = policy.act(h, policy.encode(batch, sigma), rng=sample_rng)
            counts[out.a1[0]] += 1
    freq = counts / trials
    np.testing.assert_allclose(freq, ref.p1[0], atol=0.03)


def test_forced_actions(rng):
    policy = SawtPolicy(SMALL, seed=5)
    batch, _ = make_batch(policy, rng, b=2, n=5)
    sigma = np.tile(np.arange(5), (2, 1))
    a1 = np.array([3, 1])
    a2 = np.array([0, 4])
    out = policy.act(policy.encode(batch, sigma), policy.encode(batch, sigma), forced=(a1, a2))
    np.testing.assert_array_equal(out.a1, a1)
    np.testing.assert_array_equal(out.a2, a2)


def test_second_pass_changes_heads(rng):
    """The best-so-far assignment feeds the heads through its encoding."""
    policy = SawtPolicy(SMALL, seed=6)
    batch, _ = make_batch(policy, rng, b=1, n=6)
    sigma = np.arange(6)[None, :]
    other = np.array([[1, 0, 2, 3, 4, 5]])
    out_same = policy.act(policy.encode(batch, sigma), policy.encode(batch, sigma), greedy=True)
    out_diff = policy.act(policy.encode(batch, sigma), policy.encode(batch, other), greedy=True)
    # At random init the shift is small but must be strictly nonzero: the
    # heads depend on the best-so-far encoding.
    assert np.max(np.abs(out_same.p1 - out_diff.p1)) > 0.0
    assert np.max(np.abs(out_same.value.data - out_diff.value.data)) > 0.0


def test_act_validates_best_encoding_shape(rng):
    policy = SawtPolicy(SMALL, seed=6)
    batch, _ = make_batch(policy, rng, b=2, n=5)
    sigma = np.tile(np.arange(5), (2, 1))
    h_best = policy.encode(batch, sigma)
    for bad in (h_best.data[:1], h_best.data[:, :4], h_best.data[..., :8], h_best.data[0]):
        with pytest.raises(ValidationError, match="h_best"):
            policy.act(policy.encode(batch, sigma), Tensor.const(bad), greedy=True)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("n", [6, 20, 50])
def test_subset_encoding_is_bit_identical(n, dtype):
    # Search copies a new incumbent's encoding row from the pass that encoded
    # it as the current assignment; that is exact only if a row's encoding
    # does not depend on which other rows share its batch.
    policy = SawtPolicy(SawtConfig(dtype=dtype), seed=12)
    rng = np.random.default_rng(n)
    with no_grad():
        batch, _ = make_batch(policy, rng, b=7, n=n)
        sigma = np.stack([rng.permutation(n) for _ in range(7)])
        idx = np.array([0, 2, 3, 6])
        full = policy.encode(batch, sigma).data
        sub = policy.encode(sub_batch(batch, idx), sigma[idx]).data
    assert sub.dtype == full.dtype == np.dtype(dtype)
    assert np.array_equal(sub, full[idx])


# ---------------------------------------------------------------------------
# Symmetry invariants.
# ---------------------------------------------------------------------------


def test_location_relabeling_invariance(rng):
    """Relabeling locations (and composing sigma accordingly) is a no-op."""
    policy = SawtPolicy(SMALL, seed=7)
    n = 6
    inst = generate_instance(n, seed=55)
    rho = rng.permutation(n)
    inst2 = QapInstance(
        name="relabeled",
        flow=inst.flow,
        distance=inst.distance[np.ix_(rho, rho)],
        coords=inst.coords[rho],
    )
    rho_inv = np.argsort(rho)
    sigma = rng.permutation(n)
    sigma2 = rho_inv[sigma]  # same physical placement under new labels

    b1 = policy.embed_instances([inst], np.random.default_rng(1))
    b2 = policy.embed_instances([inst2], np.random.default_rng(1))
    h1 = policy.encode(b1, sigma[None, :])
    h2 = policy.encode(b2, sigma2[None, :])
    np.testing.assert_allclose(h1.data, h2.data, rtol=1e-9, atol=1e-11)

    out1 = policy.act(policy.encode(b1, sigma[None, :]), policy.encode(b1, sigma[None, :]),
                      greedy=True)
    out2 = policy.act(policy.encode(b2, sigma2[None, :]), policy.encode(b2, sigma2[None, :]),
                      greedy=True)
    np.testing.assert_allclose(out1.p1, out2.p1, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(out1.value.data, out2.value.data, rtol=1e-9)


class _ScriptedRng:
    """Stands in for a Generator; replays scripted one-hot pool draws."""

    def __init__(self, picks):
        self._picks = list(picks)

    def permutation(self, n):
        pick = np.asarray(self._picks.pop(0))
        rest = np.setdiff1d(np.arange(n), pick)
        return np.concatenate([pick, rest])


def test_facility_relabeling_equivariance(rng):
    """Relabeling facilities permutes encodings and head-1 probabilities."""
    policy = SawtPolicy(SMALL, seed=8)
    n = 5
    inst = generate_instance(n, seed=77)
    tau = rng.permutation(n)
    inst2 = QapInstance(
        name="relabeled",
        flow=inst.flow[np.ix_(tau, tau)],
        distance=inst.distance,
        coords=inst.coords,
    )
    sigma = rng.permutation(n)
    sigma2 = sigma[tau]

    pick = np.arange(n) + 3  # arbitrary pool rows
    b1 = policy.embed_instances([inst], _ScriptedRng([pick]))
    b2 = policy.embed_instances([inst2], _ScriptedRng([pick[tau]]))
    h1 = policy.encode(b1, sigma[None, :])
    h2 = policy.encode(b2, sigma2[None, :])
    np.testing.assert_allclose(h2.data[0], h1.data[0][tau], rtol=1e-9, atol=1e-11)

    out1 = policy.act(policy.encode(b1, sigma[None, :]), policy.encode(b1, sigma[None, :]),
                      greedy=True)
    out2 = policy.act(policy.encode(b2, sigma2[None, :]), policy.encode(b2, sigma2[None, :]),
                      greedy=True)
    np.testing.assert_allclose(out2.p1[0], out1.p1[0][tau], rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(out2.value.data, out1.value.data, rtol=1e-9)


# ---------------------------------------------------------------------------
# Gradients through the whole network.
# ---------------------------------------------------------------------------


def test_policy_gradient_flows_everywhere(rng):
    policy = SawtPolicy(SMALL, seed=9)
    batch, _ = make_batch(policy, rng, b=2, n=5)
    sigma = np.tile(np.arange(5), (2, 1))
    out = policy.act(policy.encode(batch, sigma), policy.encode(batch, sigma), rng=rng)
    loss = add(add(tensor_sum(out.log_prob), tensor_sum(out.value)), tensor_sum(out.entropy))
    loss.backward()
    missing = [k for k, t in policy.params.items() if t.grad is None]
    assert not missing, f"no gradient reached: {missing}"


def test_policy_gradient_matches_finite_differences(rng):
    """End-to-end FD check of log-prob + value over a few weight slices."""
    policy = SawtPolicy(SMALL, seed=10)
    inst = generate_instance(4, seed=13)
    sigma = np.array([[2, 0, 3, 1]])
    forced = (np.array([1]), np.array([3]))

    def scalar():
        batch = policy.embed_instances([inst], np.random.default_rng(5))
        out = policy.act(policy.encode(batch, sigma), policy.encode(batch, sigma), forced=forced)
        return add(add(tensor_sum(out.log_prob), tensor_sum(out.value)), tensor_sum(out.entropy))

    checked = [
        "loc.lift.w", "loc.gcn0.w", "fac.b0.wq.w", "fac.out.b", "enc.fuse.w",
        "enc.l0.wv.w", "enc.l0.ln2.g", "enc.l0.ffn1.b", "head1.l2.w",
        "head2.l0.w", "value.l0.w", "value.l1.b",
    ]
    for t in policy.params.values():
        t.zero_grad()
    ref = scalar()
    ref.backward()
    for name in checked:
        t = policy.params[name]
        numeric = fd_gradient(scalar, t, h=1e-5)
        denom = np.maximum(np.maximum(np.abs(numeric), np.abs(t.grad)), 1.0)
        rel = np.abs(t.grad - numeric) / denom
        assert rel.max() < 1e-6, f"{name}: max rel err {rel.max():.2e}"


def test_no_grad_act_builds_no_graph(rng):
    policy = SawtPolicy(SMALL, seed=11)
    batch_rng = np.random.default_rng(3)
    with no_grad():
        batch, _ = make_batch(policy, batch_rng, b=1, n=5)
        sigma = np.arange(5)[None, :]
        out = policy.act(policy.encode(batch, sigma), policy.encode(batch, sigma), rng=batch_rng)
    assert out.log_prob._parents == ()
    assert out.value._parents == ()


def test_act_graph_node_count():
    # One training step's graph at the default config, on leaf embeddings as
    # in the streamed update.  Fused linear/layer_norm/attention nodes keep it
    # at 118 op nodes; the composites of primitives they replace built 336.
    policy = SawtPolicy(SawtConfig(), seed=0)
    rng = np.random.default_rng(0)
    batch, _ = make_batch(policy, rng, b=8, n=6)
    batch.fac_emb = Tensor(batch.fac_emb.data, requires_grad=True)
    batch.loc_emb = Tensor(batch.loc_emb.data, requires_grad=True)
    sigma = np.tile(np.arange(6), (8, 1))
    out = policy.act(policy.encode(batch, sigma),
                     policy.encode(batch, rng.permuted(sigma, axis=1)), rng=rng)
    seen, ops, stack = set(), 0, [out.log_prob, out.entropy, out.value]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        ops += bool(node._parents)
        stack.extend(node._parents)
    assert ops <= 120, f"{ops} graph nodes per act"


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------


def test_policy_checkpoint_roundtrip(tmp_path, rng):
    cfg = SawtConfig(d_emb=16, n_heads=2, n_layers=1, n_init=12)
    policy = SawtPolicy(cfg, seed=21)
    opt = Adam(policy.params, lr=3e-3)
    # Take one real step so moments are nonzero.
    batch, _ = make_batch(policy, rng, b=2, n=5)
    sigma = np.tile(np.arange(5), (2, 1))
    out = policy.act(policy.encode(batch, sigma), policy.encode(batch, sigma), rng=rng)
    tensor_sum(out.log_prob).backward()
    opt.step()

    path = tmp_path / "policy.ckpt"
    save_policy(path, policy, opt, meta={"epoch": 4})
    restored, opt2, meta = load_policy(path, optimizer_factory=lambda p: Adam(p, lr=3e-3))
    assert meta == {"epoch": 4}
    assert restored.config == cfg
    for k in policy.params:
        np.testing.assert_array_equal(
            restored.params[k].data, policy.params[k].data.astype(np.float32)
        )
    assert opt2.step_count == 1
    for k in policy.params:
        np.testing.assert_allclose(opt2.m[k], opt.m[k], atol=1e-7)


def test_policy_checkpoint_without_optimizer(tmp_path):
    policy = SawtPolicy(SawtConfig(d_emb=16, n_heads=2, n_layers=1, n_init=12), seed=2)
    path = tmp_path / "p.ckpt"
    save_policy(path, policy)
    restored, opt, meta = load_policy(path, optimizer_factory=lambda p: Adam(p))
    assert opt is None
    assert meta == {}


def test_policy_checkpoint_wrong_kind(tmp_path):
    from sawt_qap.nn import save_checkpoint

    path = tmp_path / "junk.ckpt"
    save_checkpoint(path, {"a": np.zeros(3, dtype=np.float32)}, {"kind": "other"})
    with pytest.raises(CheckpointError, match="kind"):
        load_policy(path)


def test_checkpoint_with_removed_flow_mix_loads(tmp_path):
    from sawt_qap.nn import save_checkpoint

    cfg = SawtConfig(d_emb=16, n_heads=2, n_layers=1, n_init=12)
    policy = SawtPolicy(cfg, seed=5)
    # The header config of a checkpoint saved while flow_mix was a field.
    header = {"kind": "sawt-policy", "config": {**cfg.to_dict(), "flow_mix": "product"},
              "meta": {}, "adam_step": None}
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, dict(policy.state_arrays()), header)
    restored, _, _ = load_policy(path)
    assert restored.config == cfg
    for k in policy.params:
        np.testing.assert_array_equal(
            restored.params[k].data, policy.params[k].data.astype(np.float32)
        )


def test_restored_policy_same_actions(tmp_path, rng):
    policy = SawtPolicy(SawtConfig(d_emb=16, n_heads=2, n_layers=1, n_init=12,
                                   dtype="float32"), seed=33)
    path = tmp_path / "p.ckpt"
    save_policy(path, policy)
    restored, _, _ = load_policy(path)
    inst = generate_instance(6, seed=99)
    b1 = policy.embed_instances([inst], np.random.default_rng(1))
    b2 = restored.embed_instances([inst], np.random.default_rng(1))
    sigma = np.arange(6)[None, :]
    o1 = policy.act(policy.encode(b1, sigma), policy.encode(b1, sigma), greedy=True)
    o2 = restored.act(restored.encode(b2, sigma), restored.encode(b2, sigma), greedy=True)
    np.testing.assert_array_equal(o1.a1, o2.a1)
    np.testing.assert_array_equal(o1.a2, o2.a2)
    np.testing.assert_allclose(o1.p1, o2.p1, rtol=1e-6)
