"""Autodiff engine: finite-difference oracles, Adam, checkpoint integrity."""

import inspect

import numpy as np
import pytest

from helpers import (
    div,
    gradcheck,
    layer_norm_composite,
    linear_composite,
    mixed_attention_composite,
    sqrt,
    stack,
    transpose,
)
from sawt_qap import generate_instance, nn
from sawt_qap.errors import CheckpointError, ValidationError
from sawt_qap.nn import (
    Adam,
    Tensor,
    add,
    broadcast_to,
    concat,
    layer_norm,
    linear,
    log,
    matmul,
    mean,
    mixed_attention,
    mul,
    neg,
    no_grad,
    permute_rows,
    relu,
    reshape,
    softmax,
    sub,
    take_rows,
    tensor_max,
    tensor_sum,
    xlogx,
    load_checkpoint,
    save_checkpoint,
)
from sawt_qap.nn import tensor as T
from sawt_qap.policy import SawtConfig, SawtPolicy
from sawt_qap.rl import TrainConfig, evaluate, reinforce_update


def leaf(rng, *shape, positive=False, spread=1.0):
    data = rng.standard_normal(shape) * spread
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data.astype(np.float64), requires_grad=True)


# ---------------------------------------------------------------------------
# Finite-difference checks, one per primitive (float64, h=1e-5, rel 1e-5).
# ---------------------------------------------------------------------------


def test_fd_add_broadcast(rng):
    a, b = leaf(rng, 3, 4), leaf(rng, 1, 4)
    gradcheck(lambda: tensor_sum(mul(add(a, b), add(a, b))), [a, b])


def test_fd_sub_and_neg(rng):
    a, b = leaf(rng, 2, 5), leaf(rng, 2, 5)
    gradcheck(lambda: tensor_sum(mul(sub(a, b), neg(b))), [a, b])


def test_fd_mul_broadcast(rng):
    a, b = leaf(rng, 2, 3, 4), leaf(rng, 3, 1)
    gradcheck(lambda: tensor_sum(mul(a, b)), [a, b])


def test_fd_div(rng):
    a, b = leaf(rng, 3, 3), leaf(rng, 3, 3, positive=True)
    gradcheck(lambda: tensor_sum(div(a, b)), [a, b])


def test_fd_matmul_2d(rng):
    a, b = leaf(rng, 3, 4), leaf(rng, 4, 2)
    gradcheck(lambda: tensor_sum(mul(matmul(a, b), matmul(a, b))), [a, b])


def test_fd_matmul_batched_broadcast(rng):
    a, b = leaf(rng, 2, 5, 3, 4), leaf(rng, 4, 3)
    gradcheck(lambda: tensor_sum(matmul(a, b)), [a, b])
    c = leaf(rng, 2, 1, 4, 2)
    gradcheck(lambda: tensor_sum(matmul(a, c)), [a, c])


def test_fd_relu_away_from_kink(rng):
    data = rng.standard_normal((4, 4))
    data[np.abs(data) < 0.1] = 0.5  # keep FD probes off the kink
    a = Tensor(data.astype(np.float64), requires_grad=True)
    gradcheck(lambda: tensor_sum(relu(a)), [a])


def test_fd_log_sqrt(rng):
    a = leaf(rng, 3, 3, positive=True)
    gradcheck(lambda: tensor_sum(log(a)), [a])
    gradcheck(lambda: tensor_sum(sqrt(a)), [a])


def test_fd_xlogx(rng):
    a = leaf(rng, 4, 4, positive=True)
    gradcheck(lambda: tensor_sum(xlogx(a)), [a])


def test_fd_sum_mean_axes(rng):
    a = leaf(rng, 3, 4, 5)
    w = leaf(rng, 3, 5)
    gradcheck(lambda: tensor_sum(mul(tensor_sum(a, axis=1), w)), [a, w])
    gradcheck(lambda: tensor_sum(mul(mean(a, axis=1), w)), [a, w])


def test_fd_max(rng):
    data = rng.standard_normal((4, 6))
    a = Tensor(data.astype(np.float64), requires_grad=True)
    w = leaf(rng, 4)
    gradcheck(lambda: tensor_sum(mul(tensor_max(a, axis=1), w)), [a, w])


def test_fd_softmax(rng):
    a = leaf(rng, 3, 7, spread=2.0)
    w = leaf(rng, 3, 7)
    gradcheck(lambda: tensor_sum(mul(softmax(a, axis=-1), w)), [a, w])


def test_fd_softmax_with_mask(rng):
    data = rng.standard_normal((2, 6))
    data[:, 3] = -np.inf
    a = Tensor(data, requires_grad=True)
    w = leaf(rng, 2, 6)

    # Finite-difference only over the weights; the -inf column stays fixed.
    gradcheck(lambda: tensor_sum(mul(softmax(a, axis=-1), w)), [w])
    out = softmax(a, axis=-1)
    assert np.all(out.data[:, 3] == 0.0)
    out2 = tensor_sum(mul(out, w))
    out2.backward()
    assert np.all(a.grad[:, 3] == 0.0)


def test_fd_concat_stack_reshape_transpose(rng):
    a, b = leaf(rng, 2, 3), leaf(rng, 2, 4)
    gradcheck(lambda: tensor_sum(mul(concat([a, b], axis=1), concat([a, b], axis=1))), [a, b])
    c, d = leaf(rng, 3, 4), leaf(rng, 3, 4)
    gradcheck(lambda: tensor_sum(mul(stack([c, d], axis=0), stack([d, c], axis=0))), [c, d])
    e = leaf(rng, 2, 6)
    w = leaf(rng, 2, 3, 2)
    gradcheck(lambda: tensor_sum(mul(reshape(e, (2, 3, 2)), w)), [e, w])
    f = leaf(rng, 2, 3, 4)
    w2 = leaf(rng, 4, 2, 3)
    gradcheck(lambda: tensor_sum(mul(transpose(f, (2, 0, 1)), w2)), [f, w2])


def test_fd_broadcast_to(rng):
    a = leaf(rng, 1, 4)
    w = leaf(rng, 3, 4)
    gradcheck(lambda: tensor_sum(mul(broadcast_to(a, (3, 4)), w)), [a, w])


def test_fd_take_rows_permute_rows(rng):
    a = leaf(rng, 3, 5, 2)
    idx = np.array([4, 0, 2])
    w = leaf(rng, 3, 2)
    gradcheck(lambda: tensor_sum(mul(take_rows(a, idx), w)), [a, w])

    perm = np.stack([rng.permutation(5) for _ in range(3)])
    w2 = leaf(rng, 3, 5, 2)
    gradcheck(lambda: tensor_sum(mul(permute_rows(a, perm), w2)), [a, w2])


def test_fd_layer_norm(rng):
    a = leaf(rng, 3, 8)
    gain = leaf(rng, 8)
    bias = leaf(rng, 8)
    w = leaf(rng, 3, 8)
    gradcheck(lambda: tensor_sum(mul(layer_norm(a, gain, bias), w)), [a, gain, bias, w])


def test_fd_linear(rng):
    x = leaf(rng, 4, 3)
    w = leaf(rng, 3, 5)
    b = leaf(rng, 5)
    gradcheck(lambda: tensor_sum(mul(linear(x, w, b), linear(x, w, b))), [x, w, b])


def test_fd_mixed_attention(rng):
    q, k, v = leaf(rng, 2, 4, 6), leaf(rng, 2, 4, 6), leaf(rng, 2, 4, 6)
    w = leaf(rng, 2, 4, 6)
    mix = np.abs(rng.standard_normal((2, 4, 4))) + 0.5
    gradcheck(lambda: tensor_sum(mul(mixed_attention(q, k, v, mix, 0.4, 3), w)), [q, k, v, w])


def test_fd_composite_attention_like(rng):
    """A transformer-flavoured composite touching most ops at once."""
    x = leaf(rng, 2, 4, 6)
    wq, wk, wv = leaf(rng, 6, 6), leaf(rng, 6, 6), leaf(rng, 6, 6)
    m = leaf(rng, 2, 4, 4, positive=True)

    def f():
        q, k, v = matmul(x, wq), matmul(x, wk), matmul(x, wv)
        scores = mul(matmul(q, transpose(k, (0, 2, 1))), Tensor.const(1 / np.sqrt(6.0)))
        att = softmax(mul(scores, m), axis=-1)
        out = matmul(att, v)
        return tensor_sum(mul(out, out))

    gradcheck(f, [x, wq, wk, wv, m])


# ---------------------------------------------------------------------------
# Fused layers against their composite oracles (tests/helpers.py).
# ---------------------------------------------------------------------------


def _fused_cases(rng, dtype, b=2, n=5, d=8, n_heads=2):
    def t(*shape):
        return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

    mix = (np.abs(rng.standard_normal((b, n, n))) + 0.1).astype(dtype)
    scale = 1.0 / np.sqrt(d // n_heads)
    return [
        ("linear", linear, linear_composite, (t(b, n, d), t(d, 4), t(4))),
        ("linear 2-D, no bias", linear, linear_composite, (t(3, d), t(d, 4))),
        ("layer_norm", layer_norm, layer_norm_composite, (t(b, n, d), t(d), t(d))),
        (
            "mixed_attention",
            lambda q, k, v: mixed_attention(q, k, v, mix, scale, n_heads),
            lambda q, k, v: mixed_attention_composite(q, k, v, mix, scale, n_heads),
            (t(b, n, d), t(b, n, d), t(b, n, d)),
        ),
    ]


# (B, n) of the encoder passes that run: the train benchmark (B=32) and
# test_07's updates (B=16) and eval (B=64) at n=6, and sawt-solve's two size
# buckets; each at the default width d=64 with 8 heads.
_RUN_SHAPES = [(16, 6), (32, 6), (64, 6), (16, 20), (4, 50)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_forward_bit_identical_to_composite(rng, dtype):
    # The fused forwards write their temporaries in place: also check that
    # no input is written.
    for shape in [(2, 5, 8, 2)] + [(b, n, 64, 8) for b, n in _RUN_SHAPES]:
        for name, fused, oracle, inputs in _fused_cases(rng, dtype, *shape):
            name = f"{name} at (B, n, d, heads) = {shape}"
            before = [x.data.copy() for x in inputs]
            got, want = fused(*inputs), oracle(*inputs)
            assert got._parents == inputs, f"{name} is not one graph node"
            assert got.dtype == want.dtype == dtype, name
            np.testing.assert_array_equal(got.data, want.data, err_msg=name)
            for x, old in zip(inputs, before):
                np.testing.assert_array_equal(x.data, old, err_msg=f"{name} wrote an input")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_bits_match_where(rng, dtype):
    # relu is fmax-based; its oracle is the np.where expression it replaced.
    tiny = np.finfo(dtype).smallest_subnormal
    special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny,
                        np.finfo(dtype).tiny, -np.finfo(dtype).tiny, 1.0, -1.0], dtype=dtype)
    dense = rng.standard_normal((16, 20, 256)).astype(dtype)
    dense.flat[::7] = -0.0  # specials inside the vector loops too
    dense.flat[3::11] = np.nan
    for a in (special, dense):
        want = np.where(a > 0, a, 0.0)
        out = relu(Tensor(a, requires_grad=True))
        assert out.dtype == want.dtype == dtype
        assert np.array_equal(out.data, want)
        assert np.array_equal(np.signbit(out.data), np.signbit(want))
        out.backward(seed=np.ones_like(a))
        assert np.array_equal(out._parents[0].grad, (a > 0).astype(dtype))


def test_fused_gradients_match_composite(rng):
    for name, fused, oracle, inputs in _fused_cases(rng, np.float64):
        grads = []
        for op in (fused, oracle):
            out = op(*inputs)
            for x in inputs:
                x.zero_grad()
            out.backward(seed=np.random.default_rng(0).standard_normal(out.shape))
            grads.append([x.grad for x in inputs])
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, err_msg=name)


def test_linear_rejects_bad_shapes(rng):
    with pytest.raises(ValidationError):
        linear(leaf(rng, 3), leaf(rng, 3, 2))
    with pytest.raises(ValidationError):
        linear(leaf(rng, 4, 3), leaf(rng, 3, 2), leaf(rng, 3))


def test_mixed_attention_rejects_indivisible_heads(rng):
    q = leaf(rng, 1, 3, 6)
    with pytest.raises(ValidationError):
        mixed_attention(q, q, q, np.ones((1, 3, 3)), 1.0, 4)


def _const_operand_cases(rng):
    def rows(*shape):
        return rng.standard_normal(shape)

    mix = np.abs(rows(2, 3, 3))
    return [
        ("add", add, [rows(3, 4), rows(1, 4)]),
        ("sub", sub, [rows(3, 4), rows(1, 4)]),
        ("mul", mul, [rows(3, 4), rows(3, 1)]),
        ("matmul", matmul, [rows(2, 3, 4), rows(4, 5)]),
        ("linear", linear, [rows(2, 3, 4), rows(4, 5), rows(5)]),
        ("layer_norm", layer_norm, [rows(2, 3, 4), rows(4), rows(4)]),
        ("mixed_attention", lambda q, k, v: mixed_attention(q, k, v, mix, 0.5, 2),
         [rows(2, 3, 4), rows(2, 3, 4), rows(2, 3, 4)]),
    ]


def test_const_operand_gets_no_gradient(rng):
    # Through Tensor.backward, a constant (requires_grad unset) keeps .grad None,
    # and every tracked operand gets, bit for bit, its all-tracked gradient.
    for name, op, arrays in _const_operand_cases(rng):
        tracked = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*tracked)
        seed = rng.standard_normal(out.shape)
        out.backward(seed=seed)
        for const_pos in range(len(arrays)):
            mixed = [Tensor(a, requires_grad=i != const_pos) for i, a in enumerate(arrays)]
            op(*mixed).backward(seed=seed)
            for i, (t_all, t_mixed) in enumerate(zip(tracked, mixed)):
                if i == const_pos:
                    assert t_mixed.grad is None, (name, const_pos)
                else:
                    np.testing.assert_array_equal(
                        t_mixed.grad, t_all.grad, err_msg=f"{name}/{const_pos}"
                    )


# ---------------------------------------------------------------------------
# Graph mechanics.
# ---------------------------------------------------------------------------


def test_gradient_accumulates_on_reuse(rng):
    x = leaf(rng, 3)
    y = tensor_sum(add(x, x))
    y.backward()
    np.testing.assert_allclose(x.grad, 2.0 * np.ones(3))


def test_diamond_graph_accumulation(rng):
    x = leaf(rng, 4)
    a = mul(x, x)
    out = tensor_sum(add(add(a, a), mul(x, Tensor.const(np.float64(3.0)))))
    out.backward()
    np.testing.assert_allclose(x.grad, 4.0 * x.data + 3.0, rtol=1e-12)


def test_repeated_backward_accumulates_into_leaf(rng):
    # Streamed training back-propagates one step term at a time into the same
    # leaves; the leaf gradient must be the sum over the calls.
    x = leaf(rng, 4)
    c = rng.standard_normal(4)
    tensor_sum(mul(x, x)).backward()
    tensor_sum(mul(x, Tensor.const(c))).backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data + c, rtol=1e-12)


def test_seeded_backward_equals_weighted_sum(rng):
    x = leaf(rng, 2, 3)
    w = leaf(rng, 3, 4)
    g = rng.standard_normal((2, 4))
    matmul(x, w).backward(seed=g)
    seeded = (x.grad.copy(), w.grad.copy())
    x.zero_grad()
    w.zero_grad()
    tensor_sum(mul(matmul(x, w), Tensor.const(g))).backward()
    np.testing.assert_allclose(x.grad, seeded[0], rtol=1e-12)
    np.testing.assert_allclose(w.grad, seeded[1], rtol=1e-12)


def test_backward_requires_scalar(rng):
    x = leaf(rng, 3)
    with pytest.raises(ValidationError):
        add(x, x).backward()


def test_no_grad_builds_no_graph(rng):
    x = leaf(rng, 3, 3)
    with no_grad():
        assert not T.is_grad_enabled()
        y = tensor_sum(mul(x, x))
    assert y._backward is None and y._parents == ()
    assert not y.requires_grad
    assert T.is_grad_enabled()  # flag restored after the context


def test_no_grad_restores_flag_after_exception():
    with pytest.raises(RuntimeError):
        with no_grad():
            assert not T.is_grad_enabled()
            raise RuntimeError("inside no_grad")
    assert T.is_grad_enabled()


def test_matmul_rejects_vectors(rng):
    with pytest.raises(ValidationError):
        matmul(leaf(rng, 3), leaf(rng, 3))


def test_softmax_overflow_stability():
    a = Tensor(np.array([[1e4, 1e4 + 1.0, -1e4]], dtype=np.float64))
    out = softmax(a, axis=-1).data
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out.sum(), 1.0, rtol=1e-12)
    assert out[0, 1] > out[0, 0] > out[0, 2]


def test_float32_default_dtype():
    t = Tensor(np.arange(4))
    assert t.dtype == np.float32


def test_engine_has_no_dead_op(monkeypatch):
    # Every public function of the engine, bar the grad-mode switches, is a
    # graph op that one training update or one evaluation actually calls.
    # The policy and the trainer look ops up on ``sawt_qap.nn``: count there.
    calls = {}
    for name, fn in vars(T).items():
        if (name.startswith("_") or name in ("no_grad", "is_grad_enabled")
                or not inspect.isfunction(fn) or fn.__module__ != T.__name__):
            continue
        calls[name] = 0

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(nn, name, counted)
    model = SawtConfig(d_emb=8, n_heads=2, n_layers=1, n_init=8, gcn_layers=1,
                       fac_blocks=1, ffn_mult=2)
    policy = SawtPolicy(model, seed=0)
    instances = [generate_instance(6, seed=300 + k) for k in range(2)]
    rng = np.random.default_rng(0)
    batch = policy.embed_instances(instances, rng)
    config = TrainConfig(epochs=1, batch_size=2, episode_length=4)
    reinforce_update(policy, Adam(policy.params), batch, config, rng)
    evaluate(policy, instances, steps=4)
    assert len(calls) >= 20
    assert not [name for name, count in calls.items() if count == 0]


# ---------------------------------------------------------------------------
# Adam.
# ---------------------------------------------------------------------------


def test_adam_first_step_closed_form(rng):
    data = rng.standard_normal((3, 3)).astype(np.float64)
    g = rng.standard_normal((3, 3)).astype(np.float64)
    p = Tensor(data.copy(), requires_grad=True)
    p.grad = g.copy()
    opt = Adam({"p": p}, lr=0.01)
    opt.step()
    # After bias correction the first step is exactly lr * g / (|g| + eps).
    expected = data - 0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.data, expected, rtol=1e-12)
    assert opt.step_count == 1


def test_adam_zero_grad_no_move(rng):
    data = rng.standard_normal((4,)).astype(np.float32)
    p = Tensor(data.copy(), requires_grad=True)
    p.grad = np.zeros(4, dtype=np.float32)
    opt = Adam({"p": p})
    opt.step()
    np.testing.assert_array_equal(p.data, data)

    q = Tensor(data.copy(), requires_grad=True)
    opt2 = Adam({"q": q})
    opt2.step()  # grad is None -> treated as zero
    np.testing.assert_array_equal(q.data, data)


def test_adam_descends_quadratic(rng):
    target = np.array([1.0, -2.0, 3.0])
    p = Tensor(np.zeros(3, dtype=np.float64), requires_grad=True)
    opt = Adam({"p": p}, lr=0.05)
    for _ in range(500):
        opt.zero_grad()
        loss = tensor_sum(mul(sub(p, Tensor.const(target)), sub(p, Tensor.const(target))))
        loss.backward()
        opt.step()
    np.testing.assert_allclose(p.data, target, atol=1e-3)


def test_adam_zero_grad_clears(rng):
    p = leaf(rng, 2)
    tensor_sum(mul(p, p)).backward()
    assert p.grad is not None
    opt = Adam({"p": p})
    opt.zero_grad()
    assert p.grad is None


def test_adam_validation():
    p = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ValidationError):
        Adam({"p": p}, lr=0.0)


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------


def _sample_arrays(rng):
    return {
        "w1": rng.standard_normal((3, 4)).astype(np.float32),
        "b1": rng.standard_normal(4).astype(np.float32),
        "scalar": np.float32(2.5).reshape(()),
    }


def test_checkpoint_roundtrip(tmp_path, rng):
    arrays = _sample_arrays(rng)
    meta = {"epoch": 7, "note": "unit-test"}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, arrays, meta)
    loaded, got_meta = load_checkpoint(path)
    assert got_meta == meta
    assert list(loaded) == list(arrays)
    for k in arrays:
        np.testing.assert_array_equal(loaded[k], np.asarray(arrays[k], dtype=np.float32))


def test_checkpoint_crc_detects_corruption(tmp_path, rng):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _sample_arrays(rng))
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(path)


def test_checkpoint_truncation_detected(tmp_path, rng):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _sample_arrays(rng))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 9])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path, rng):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _sample_arrays(rng))
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic|CRC"):
        load_checkpoint(path)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_checkpoint_deterministic_bytes(tmp_path, rng):
    arrays = _sample_arrays(rng)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, arrays, {"k": 1})
    save_checkpoint(p2, arrays, {"k": 1})
    assert p1.read_bytes() == p2.read_bytes()
