"""Release gate: twelve numbered acceptance checks with pinned tolerances.

Each criterion is one test (sub-checks get letter suffixes) and prints a
single ``ACCEPTANCE <id> PASS/FAIL`` line with the measured values, so a
verbose run doubles as the sign-off record.  Checks 8b and 9c need QAPLIB
files (nug12, chr12a) that are not bundled as fixtures; they first try the
local cache and then a live fetch, and fail honestly when neither is
available rather than skipping — see the line they print.
"""

import functools
import json
import time

import numpy as np
import pytest

from helpers import (
    div, fd_gradient, gradcheck, random_assignment, random_start_state, sqrt, stack, transpose,
)
from sawt_qap import (
    all_swap_deltas,
    apply_swap,
    gap,
    generate_instance,
    identity_assignment,
    objective,
    objective_gradient,
    objective_trace,
    swap_delta,
)
from sawt_qap.cli import main
from sawt_qap.nn import (
    Adam,
    Tensor,
    add,
    concat,
    layer_norm,
    linear,
    matmul,
    mean,
    mixed_attention,
    mul,
    neg,
    permute_rows,
    softmax,
    sub,
    take_rows,
    tensor_max,
    tensor_sum,
    xlogx,
)
from sawt_qap.nn import tensor as T
from sawt_qap.policy import SawtConfig, SawtPolicy
from sawt_qap.qaplib import known_bounds, list_fixtures, load_entry, load_solution
from sawt_qap.rl import (
    TrainConfig,
    evaluate,
    reinforce_update,
    reset_state,
    step_state,
    train,
)
from sawt_qap.solvers import brute_force, greedy_descent, spectral_matching, tabu_search


def criterion(cid: str, title: str):
    """Print one ACCEPTANCE line per check; the body returns the detail text."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as err:
                msg = str(err).strip().splitlines()[0] if str(err).strip() else repr(err)
                print(f"\nACCEPTANCE {cid} FAIL — {title}: {msg}", flush=True)
                raise
            dt = time.perf_counter() - t0
            extra = f" [{detail}]" if detail else ""
            print(f"\nACCEPTANCE {cid} PASS — {title}{extra} ({dt:.1f}s)", flush=True)

        return wrapper

    return deco


def rel_err(a, b) -> float:
    """|a - b| with a denominator floored at 1 so near-zero values stay honest."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))


# ---------------------------------------------------------------------------
# 1. Objective oracle: both objective forms agree; brute force is minimal.
# ---------------------------------------------------------------------------


@criterion("1", "objective forms agree to 1e-9; brute force <= 1000 random permutations")
def test_01_objective_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    for k in range(100):
        n = 3 + k % 6
        inst = generate_instance(n, p=0.5, seed=100 + k)
        sigma = rng.permutation(n)
        worst = max(worst, rel_err(objective(inst, sigma), objective_trace(inst, sigma)))
    assert worst < 1e-9, f"objective vs trace form disagree: rel {worst:.3e}"

    floor_violations = 0
    for k in range(10):
        n = 3 + k % 6
        inst = generate_instance(n, p=0.5, seed=200 + k)
        opt = brute_force(inst).cost
        samples = np.array(
            [objective(inst, rng.permutation(n)) for _ in range(100)]
        )
        floor_violations += int(np.sum(samples < opt - 1e-9))
    assert floor_violations == 0, f"{floor_violations} random permutations beat brute force"
    return f"form rel err {worst:.2e}; 0/1000 permutations below the brute-force cost"


# ---------------------------------------------------------------------------
# 2. Delta oracle: incremental swap deltas match recomputation; no cache drift.
# ---------------------------------------------------------------------------


@criterion("2", "10^4 swap deltas match recomputation to 1e-9; chained drift < 1e-7")
def test_02_swap_delta_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for k in range(200):
        n = 3 + k % 6
        inst = generate_instance(n, p=0.5, seed=300 + k)
        sol = random_assignment(inst, rng)
        for _ in range(50):
            i, j = rng.choice(n, size=2, replace=False)
            swapped = sol.sigma.copy()
            swapped[i], swapped[j] = swapped[j], swapped[i]
            full = objective(inst, swapped) - objective(inst, sol.sigma)
            worst = max(worst, rel_err(swap_delta(inst, sol, i, j), full))
    assert worst < 1e-9, f"swap delta vs recompute: rel {worst:.3e}"

    inst = generate_instance(8, p=0.5, seed=999)
    sol = identity_assignment(inst)
    for _ in range(10_000):
        i, j = rng.choice(8, size=2, replace=False)
        sol = apply_swap(inst, sol, i, j)
    drift = rel_err(sol.cost, objective(inst, sol.sigma))
    assert drift < 1e-7, f"cached cost drifted by rel {drift:.3e} after 10^4 swaps"
    return f"delta rel err {worst:.2e}; drift after 10^4 chained swaps {drift:.2e}"


# ---------------------------------------------------------------------------
# 3. Relaxed-objective gradient: finite differences + symmetric closed form.
# ---------------------------------------------------------------------------


@criterion("3", "objective_gradient matches FD to 1e-5; symmetric case equals 2·F·X·D to 1e-12")
def test_03_objective_gradient():
    rng = np.random.default_rng(3)
    worst_fd, worst_sym = 0.0, 0.0
    for k in range(50):
        n = 3 + k % 6
        inst = generate_instance(n, p=0.5, seed=400 + k)
        x = rng.standard_normal((n, n))
        grad = objective_gradient(inst, x)

        f, d = inst.flow, inst.distance
        fd = np.zeros_like(x)
        h = 1e-6
        for a in range(n):
            for b in range(n):
                xp, xm = x.copy(), x.copy()
                xp[a, b] += h
                xm[a, b] -= h
                fd[a, b] = (np.trace(f @ xp @ d @ xp.T) - np.trace(f @ xm @ d @ xm.T)) / (2 * h)
        worst_fd = max(worst_fd, rel_err(grad, fd))
        # Generated instances have symmetric flow and distance.
        worst_sym = max(worst_sym, rel_err(grad, 2.0 * f @ x @ d))
    assert worst_fd < 1e-5, f"gradient vs finite differences: rel {worst_fd:.3e}"
    assert worst_sym < 1e-12, f"symmetric closed form 2FXD: rel {worst_sym:.3e}"
    return f"FD rel err {worst_fd:.2e}; 2FXD rel err {worst_sym:.2e}"


# ---------------------------------------------------------------------------
# 4. Autodiff: every primitive plus the full policy forward pass FD-check.
# ---------------------------------------------------------------------------


def _primitive_cases(rng):
    a = Tensor.param(rng.standard_normal((3, 4)), name="a")
    b = Tensor.param(rng.standard_normal((3, 4)), name="b")
    row = Tensor.param(rng.standard_normal((1, 4)), name="row")
    pos = Tensor.param(rng.random((3, 4)) + 0.5, name="pos")
    m1 = Tensor.param(rng.standard_normal((3, 4)), name="m1")
    m2 = Tensor.param(rng.standard_normal((4, 5)), name="m2")
    bm1 = Tensor.param(rng.standard_normal((2, 3, 4)), name="bm1")
    bm2 = Tensor.param(rng.standard_normal((2, 4, 5)), name="bm2")
    w = Tensor.param(rng.standard_normal((4, 5)), name="w")
    bias = Tensor.param(rng.standard_normal(5), name="bias")
    g = Tensor.param(rng.random(4) + 0.5, name="g")
    beta = Tensor.param(rng.standard_normal(4), name="beta")
    batch_rows = Tensor.param(rng.standard_normal((2, 3, 4)), name="rows")
    idx = np.array([2, 0])
    perm = np.stack([rng.permutation(3), rng.permutation(3)])
    away = Tensor.param(rng.standard_normal((3, 4)) + np.sign(rng.standard_normal((3, 4))) * 0.3,
                        name="away")
    qa = Tensor.param(rng.standard_normal((2, 3, 4)), name="qa")
    ka = Tensor.param(rng.standard_normal((2, 3, 4)), name="ka")
    va = Tensor.param(rng.standard_normal((2, 3, 4)), name="va")
    mix = rng.random((2, 3, 3)) + 0.5

    def const(value, like):
        return Tensor.const(np.asarray(value, dtype=like.dtype))

    return [
        ("add", lambda: tensor_sum(mul(add(a, b), add(a, row))), [a, b, row]),
        ("sub", lambda: tensor_sum(mul(sub(a, b), b)), [a, b]),
        ("mul", lambda: tensor_sum(mul(mul(a, b), a)), [a, b]),
        ("div", lambda: tensor_sum(div(a, pos)), [a, pos]),
        ("neg", lambda: tensor_sum(mul(neg(a), b)), [a, b]),
        ("relu", lambda: tensor_sum(mul(T.relu(away), b)), [away, b]),
        ("log", lambda: tensor_sum(T.log(pos)), [pos]),
        ("sqrt", lambda: tensor_sum(sqrt(pos)), [pos]),
        ("xlogx", lambda: tensor_sum(xlogx(pos)), [pos]),
        ("matmul", lambda: tensor_sum(mul(matmul(m1, m2), const(0.5, m1))), [m1, m2]),
        ("batched matmul", lambda: tensor_sum(matmul(bm1, bm2)), [bm1, bm2]),
        ("sum axis", lambda: tensor_sum(mul(tensor_sum(a, axis=0), tensor_sum(b, axis=0))),
         [a, b]),
        ("mean", lambda: tensor_sum(mul(mean(a, axis=1), mean(b, axis=1))), [a, b]),
        ("max", lambda: tensor_sum(tensor_max(a, axis=0)), [a]),
        ("softmax", lambda: tensor_sum(mul(softmax(a, axis=1), b)), [a, b]),
        ("concat", lambda: tensor_sum(mul(concat([a, b], axis=1), concat([b, a], axis=1))),
         [a, b]),
        ("stack", lambda: tensor_sum(mul(stack([a, b], axis=0), stack([b, a], axis=0))), [a, b]),
        ("reshape", lambda: tensor_sum(mul(T.reshape(a, (4, 3)), T.reshape(b, (4, 3)))), [a, b]),
        ("transpose", lambda: tensor_sum(mul(transpose(a, (1, 0)), transpose(b, (1, 0)))),
         [a, b]),
        ("broadcast_to", lambda: tensor_sum(mul(T.broadcast_to(row, (3, 4)), a)), [row, a]),
        ("take_rows", lambda: tensor_sum(take_rows(batch_rows, idx)), [batch_rows]),
        ("permute_rows", lambda: tensor_sum(mul(permute_rows(batch_rows, perm), bm1)),
         [batch_rows, bm1]),
        ("layer_norm", lambda: tensor_sum(mul(layer_norm(a, g, beta), b)), [a, g, beta, b]),
        ("linear", lambda: tensor_sum(mul(linear(a, w, bias), const(0.3, a))), [a, w, bias]),
        ("mixed_attention", lambda: tensor_sum(mul(mixed_attention(qa, ka, va, mix, 0.5, 2), bm1)),
         [qa, ka, va]),
    ]


@criterion("4", "autodiff FD: all primitives and the full policy forward at 1e-3")
def test_04_autodiff():
    rng = np.random.default_rng(4)
    worst_prim = 0.0
    for name, fn, inputs in _primitive_cases(rng):
        err = gradcheck(fn, inputs, rel_tol=1e-3)
        worst_prim = max(worst_prim, err)

    cfg = SawtConfig(d_emb=8, n_heads=2, n_layers=1, n_init=8, gcn_layers=1,
                     fac_blocks=1, ffn_mult=2, dtype="float64")
    policy = SawtPolicy(cfg, seed=4)
    instances = [generate_instance(5, p=0.5, seed=40 + k) for k in range(2)]
    sigma = np.stack([np.random.default_rng(7).permutation(5) for _ in range(2)])
    best = np.stack([np.random.default_rng(8).permutation(5) for _ in range(2)])
    forced = (np.array([1, 3]), np.array([4, 0]))

    def loss_tensor():
        batch = policy.embed_instances(instances, np.random.default_rng(5))
        out = policy.act(policy.encode(batch, sigma), policy.encode(batch, best), forced=forced)
        return add(tensor_sum(out.log_prob), tensor_sum(out.value))

    def loss_no_graph():
        with T.no_grad():
            return loss_tensor()

    loss = loss_tensor()
    loss.backward()
    worst_pol = 0.0
    checked = 0
    for name, param in policy.params.items():
        numeric = fd_gradient(loss_no_graph, param, h=1e-5)
        assert param.grad is not None, f"no gradient reached {name}"
        err = rel_err(numeric, param.grad)
        worst_pol = max(worst_pol, err)
        checked += numeric.size
    assert worst_pol < 1e-3, f"policy FD rel err {worst_pol:.3e}"
    return (f"primitive rel err {worst_prim:.2e}; policy rel err {worst_pol:.2e} "
            f"over {checked} parameters")


# ---------------------------------------------------------------------------
# 5. Search-MDP invariants under a random policy.
# ---------------------------------------------------------------------------


@criterion("5", "100 episodes: rewards >= 0, telescoping sum, monotone incumbent")
def test_05_mdp_invariants():
    rng = np.random.default_rng(5)
    cfg = SawtConfig(d_emb=8, n_heads=2, n_layers=1, n_init=8, gcn_layers=1,
                     fac_blocks=1, ffn_mult=2)
    policy = SawtPolicy(cfg, seed=5)
    instances = [generate_instance(6, p=0.7, seed=500 + k) for k in range(100)]
    batch = policy.embed_instances(instances, rng)
    state = random_start_state(batch, rng)
    start_best = state.best_cost.copy()

    rewards = []
    for _ in range(40):
        pairs = np.stack([rng.choice(6, size=2, replace=False) for _ in range(100)])
        new_state, r = step_state(batch, state, pairs)
        assert np.all(r >= 0.0), "negative reward emitted"
        assert np.all(new_state.best_cost <= state.best_cost + 1e-12), "incumbent worsened"
        state = new_state
        rewards.append(r)
    total = np.sum(rewards, axis=0)
    tel = rel_err(total, start_best - state.best_cost)
    assert tel < 1e-9, f"telescoping identity violated: rel {tel:.3e}"
    return f"100 episodes x 40 steps; telescoping rel err {tel:.2e}"


# ---------------------------------------------------------------------------
# 6. Bandit learnability on a single-improving-swap instance.
# ---------------------------------------------------------------------------


def _single_improving_instance():
    """First generated n=4 instance with exactly one improving swap from identity."""
    for k in range(200):
        inst = generate_instance(4, p=0.5, seed=k)
        deltas = all_swap_deltas(inst, identity_assignment(inst))
        improving = [(i, j) for i in range(4) for j in range(i + 1, 4)
                     if deltas[i, j] < -1e-9]
        if len(improving) == 1:
            return inst, improving[0]
    raise AssertionError("no single-improving-swap instance found in 200 draws")


@criterion("6", "bandit: 300 updates lift the improving swap above 0.8 on 3/3 seeds")
def test_06_bandit_learnability():
    inst, (i_star, j_star) = _single_improving_instance()
    cfg = SawtConfig(d_emb=16, n_heads=2, n_layers=1, n_init=8, gcn_layers=1,
                     fac_blocks=1, ffn_mult=2)

    def prob_improving(policy, rng, draws=32):
        total = 0.0
        for _ in range(draws):
            batch = policy.embed_instances([inst], rng)
            state = reset_state(batch)
            for a1, a2 in ((i_star, j_star), (j_star, i_star)):
                out = policy.act(policy.encode(batch, state.sigma),
                                 policy.encode(batch, state.best_sigma),
                                 forced=(np.array([a1]), np.array([a2])))
                total += float(out.p1.data[0, a1] * out.p2.data[0, a2])
        return total / draws

    tc = TrainConfig(epochs=1, batch_size=16, episode_length=1, return_window=1,
                     gamma=1.0, entropy_beta=1e-3, entropy_decay=1.0,
                     value_coef=0.5, lr=1e-2, seed=0)
    probs = []
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        policy = SawtPolicy(cfg, seed=seed)
        optimizer = Adam(policy.params, lr=tc.lr)
        start = prob_improving(policy, rng)
        assert start < 0.5, f"seed {seed} did not start near uniform (P={start:.3f})"
        for _ in range(300):
            batch = policy.embed_instances([inst] * tc.batch_size, rng)
            reinforce_update(policy, optimizer, batch, tc, rng, epoch=0)
        prob = prob_improving(policy, rng)
        assert prob > 0.8, f"seed {seed}: P(improving swap) = {prob:.3f} <= 0.8"
        probs.append(prob)
    return "P(improving) after 300 updates: " + ", ".join(f"{p:.3f}" for p in probs)


# ---------------------------------------------------------------------------
# 7. Desk-scale training: beats the untrained policy and a 5% gap bar.
# ---------------------------------------------------------------------------


@criterion("7", "train n=6 x256 x30 epochs: gap <= 5% and beats untrained on 2/3 seeds")
def test_07_training_improves():
    model = SawtConfig(d_emb=32, n_heads=4, n_layers=2, n_init=16,
                       gcn_layers=2, fac_blocks=1, ffn_mult=2)
    train_set = [generate_instance(6, p=0.7, seed=k) for k in range(256)]
    held_out = [generate_instance(6, p=0.7, seed=1_000_000 + k) for k in range(64)]
    optima = np.array([brute_force(inst).cost for inst in held_out])

    def mean_gap(policy):
        res = evaluate(policy, held_out, steps=500, seed=777)
        return float(np.mean([gap(c, o) for c, o in zip(res.best_costs, optima)]))

    outcomes = []
    for seed in (0, 1, 2):
        cfg = TrainConfig(epochs=30, batch_size=16, episode_length=32,
                          return_window=8, gamma=0.99, entropy_beta=0.005,
                          entropy_decay=0.95, value_coef=0.5, lr=3e-3, seed=seed)
        untrained_gap = mean_gap(SawtPolicy(model, seed=seed))
        policy = SawtPolicy(model, seed=seed)
        train(policy, train_set, cfg)
        trained_gap = mean_gap(policy)
        outcomes.append((seed, trained_gap, untrained_gap,
                         trained_gap <= 5.0 and trained_gap < untrained_gap))
    passed = sum(ok for *_, ok in outcomes)
    detail = "; ".join(f"seed {s}: trained {t:.2f}% vs untrained {u:.2f}%"
                       for s, t, u, _ in outcomes)
    assert passed >= 2, f"only {passed}/3 seeds passed ({detail})"
    return f"{passed}/3 seeds passed — {detail}"


# ---------------------------------------------------------------------------
# 8. Best-known-solution machinery: tabu search quality.
# ---------------------------------------------------------------------------


@criterion("8a", "tabu(5k) reaches the brute-force optimum on >= 95/100 instances")
def test_08a_tabu_reaches_optimum():
    hits = 0
    for k in range(100):
        n = 4 + k % 5
        inst = generate_instance(n, p=0.5, seed=800 + k)
        opt = brute_force(inst).cost
        sol, _ = tabu_search(inst, max_steps=5000)
        hits += int(abs(sol.cost - opt) <= 1e-9 * max(1.0, opt))
    assert hits >= 95, f"tabu(5k) matched the optimum on only {hits}/100 instances"
    return f"{hits}/100 optima found"


@criterion("8b", "tabu(5k) reaches gap <= 1% of 578 on nug12")
def test_08b_tabu_nug12():
    try:
        entry = load_entry("nug12")
    except FileNotFoundError:
        try:
            from sawt_qap.qaplib import fetch

            fetch("nug12", timeout=10)
            entry = load_entry("nug12")
        except Exception:
            pytest.fail(
                "nug12 is not bundled and no QAPLIB mirror is reachable from this "
                "environment; run `sawt-qap qaplib fetch nug12` on a networked "
                "machine and re-run. The check itself is implemented below and "
                "runs whenever the file is present."
            )
    sol, _ = tabu_search(entry.instance, max_steps=5000)
    g = gap(sol.cost, 578.0)
    assert g <= 1.0, f"tabu(5k) gap on nug12: {g:.3f}% > 1%"
    return f"nug12 cost {sol.cost:.0f}, gap {g:.3f}% vs 578"


# ---------------------------------------------------------------------------
# 9. QAPLIB ingestion: fixtures parse; shipped optima reproduce bounds exactly.
# ---------------------------------------------------------------------------


@criterion("9a", "all bundled fixtures parse and their .sln permutations hit the bound")
def test_09a_fixtures_roundtrip():
    names = list_fixtures()
    assert names, "no bundled fixtures found"
    for name in names:
        entry = load_entry(name)
        n, value, sigma = load_solution(name)
        assert n == entry.instance.n
        cost = objective(entry.instance, sigma)
        assert cost == value, f"{name}: shipped permutation gives {cost}, .sln says {value}"
        assert cost == entry.upper_bound, (
            f"{name}: shipped permutation gives {cost}, bound table says {entry.upper_bound}"
        )
    return f"fixtures verified: {', '.join(names)}"


@criterion("9b", "had12 shipped optimum reproduces 1652 exactly")
def test_09b_had12_bound():
    entry = load_entry("had12")
    _, _, sigma = load_solution("had12")
    cost = objective(entry.instance, sigma)
    assert cost == 1652.0, f"had12 shipped permutation gives {cost}, expected 1652"
    assert known_bounds()["had12"] == 1652
    return "objective(had12, sigma_opt) == 1652"


@criterion("9c", "nug12 -> 578 and chr12a -> 9552 from shipped optima")
def test_09c_nug12_chr12a_bounds():
    expected = {"nug12": 578.0, "chr12a": 9552.0}
    for name, bound in expected.items():
        assert known_bounds()[name] == bound  # the table itself ships with the package
    missing = []
    for name, bound in expected.items():
        try:
            entry = load_entry(name)
            _, _, sigma = load_solution(name)
        except FileNotFoundError:
            try:
                from sawt_qap.qaplib import fetch

                fetch(name, timeout=10)
                entry = load_entry(name)
                _, _, sigma = load_solution(name)
            except Exception:
                missing.append(name)
                continue
        cost = objective(entry.instance, sigma)
        assert cost == bound, f"{name}: shipped permutation gives {cost}, expected {bound}"
    if missing:
        pytest.fail(
            f"{', '.join(missing)} .dat/.sln files are not bundled and no QAPLIB "
            "mirror is reachable from this environment; run `sawt-qap qaplib "
            f"fetch {' '.join(missing)}` on a networked machine and re-run. "
            "The bound table entries are verified; only the file-based replay "
            "is blocked."
        )
    return "nug12 and chr12a shipped optima reproduce their bounds"


# ---------------------------------------------------------------------------
# 10. Solution-awareness: encoder states respond to the current assignment.
# ---------------------------------------------------------------------------


@criterion("10", "encoder states differ across solutions; debug mode ties M to the cost")
def test_10_solution_awareness():
    rng = np.random.default_rng(10)
    cfg = SawtConfig(d_emb=16, n_heads=2, n_layers=1, n_init=12, gcn_layers=1,
                     fac_blocks=1, ffn_mult=2, debug_checks=True)
    policy = SawtPolicy(cfg, seed=10)
    min_diff = np.inf
    for k in range(20):
        inst = generate_instance(6, p=0.7, seed=1000 + k)
        batch = policy.embed_instances([inst], rng)
        sigma = rng.permutation(6)[None, :]
        sigma2 = sigma.copy()
        i, j = rng.choice(6, size=2, replace=False)
        sigma2[0, [i, j]] = sigma2[0, [j, i]]
        h1 = policy.encode(batch, sigma)   # debug_checks asserts Sum(M) == cost
        h2 = policy.encode(batch, sigma2)
        diff = float(np.max(np.abs(h1.data - h2.data)))
        min_diff = min(min_diff, diff)
        cost = objective(inst, sigma[0])
        m64 = inst.flow * inst.distance[np.ix_(sigma[0], sigma[0])]
        assert rel_err(float(m64.sum()), cost) < 1e-9
        m = batch.solution_aware(sigma)  # the policy's float32 copy of the same matrix
        assert rel_err(float(m.sum()), cost) < 1e-5
    assert min_diff > 1e-6, f"encoder states too close across solutions: {min_diff:.3e}"
    return f"min max-abs state difference over 20 instances: {min_diff:.2e}"


# ---------------------------------------------------------------------------
# 11. Heuristic quality ordering on random instances.
# ---------------------------------------------------------------------------


@criterion("11", "mean gap ordering SM > greedy > tabu(1k) >= brute force (= 0)")
def test_11_heuristic_ordering():
    gaps = {"sm": [], "greedy": [], "tabu": []}
    for k in range(50):
        inst = generate_instance(10, p=0.5, seed=1100 + k)
        opt = brute_force(inst).cost
        gaps["sm"].append(gap(spectral_matching(inst).assignment.cost, opt))
        gaps["greedy"].append(gap(greedy_descent(inst).cost, opt))
        best, _ = tabu_search(inst, max_steps=1000)
        gaps["tabu"].append(gap(best.cost, opt))
    sm, greedy, tabu = (float(np.mean(gaps[k])) for k in ("sm", "greedy", "tabu"))
    assert sm > greedy > tabu >= 0.0, (
        f"ordering violated: sm {sm:.2f}%, greedy {greedy:.2f}%, tabu {tabu:.2f}%"
    )
    return f"mean gaps — sm {sm:.2f}% > greedy {greedy:.2f}% > tabu {tabu:.2f}% >= 0"


# ---------------------------------------------------------------------------
# 12. Reproducibility: manifest replay is bit-identical.
# ---------------------------------------------------------------------------


@criterion("12", "rerunning a CLI manifest reproduces deterministic outputs bit-identically")
def test_12_manifest_reproducibility(tmp_path):
    gen = tmp_path / "gen"
    assert main(["generate", "--n", "6", "--count", "4", "--seed", "12",
                 "--out", str(gen)]) == 0
    run = tmp_path / "run"
    assert main(["solve", "--instances", str(gen), "--solver", "tabu",
                 "--steps", "500", "--seed", "12", "--out", str(run)]) == 0
    for original in (gen, run):
        replay = tmp_path / f"replay-{original.name}"
        assert main(["rerun", str(original / "manifest.json"),
                     "--out", str(replay)]) == 0
        manifest = json.loads((original / "manifest.json").read_text())
        for rel in manifest["outputs"]["deterministic"]:
            assert (original / rel).read_bytes() == (replay / rel).read_bytes()
    return "generate and solve manifests replayed bit-identically"
