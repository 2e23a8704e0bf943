"""The vectorized kernels agree with the scalar-loop references in
``helpers``, and exact search with literal enumeration."""

from __future__ import annotations

import numpy as np
import pytest

from sawt_qap import _kernels as K
from sawt_qap.core import generate_instance
from sawt_qap.qaplib import load_entry
from sawt_qap.solvers import default_tenure
from helpers import (
    all_swap_deltas_loop,
    brute_force_loop,
    exhaustive_best,
    greedy_loop,
    greedy_reference,
    objective_loop,
    random_asymmetric_instance,
    random_integer_instance,
    swap_delta_loop,
    tabu_loop,
    tabu_reference,
)


class TestBackendAgreement:
    def test_objective(self, rng):
        inst = random_asymmetric_instance(rng, 11)
        for _ in range(10):
            sigma = rng.permutation(11).astype(np.int64)
            a = K.objective(inst.flow, inst.distance, sigma)
            b = objective_loop(inst.flow, inst.distance, sigma)
            assert b == pytest.approx(a, rel=1e-12)

    def test_swap_delta_and_matrix(self, rng):
        for n in (2, 3, 5, 9, 17):
            inst = random_asymmetric_instance(rng, n)
            sigma = rng.permutation(n).astype(np.int64)
            mat_np = K.all_swap_deltas(inst.flow, inst.distance, sigma)
            mat_loop = all_swap_deltas_loop(inst.flow, inst.distance, sigma)
            assert np.allclose(mat_np, mat_loop, rtol=1e-10, atol=1e-12), n
            assert np.all(np.diag(mat_np) == 0.0)
            for i in range(n):
                for j in range(i + 1, n):
                    a = K.swap_delta(inst.flow, inst.distance, sigma, i, j)
                    b = swap_delta_loop(inst.flow, inst.distance, sigma, i, j)
                    assert b == pytest.approx(a, rel=1e-10, abs=1e-12)

    def test_greedy_identical_on_integer_data(self, rng):
        # Integer-valued instances make both paths' arithmetic exact, so the
        # full trajectories (not just costs) must coincide.
        for _ in range(5):
            inst = random_integer_instance(rng, 10)
            start = rng.permutation(10).astype(np.int64)
            s_loop, c_loop, st_loop = greedy_loop(inst.flow, inst.distance, start, 500)
            s_np, c_np, st_np = K.greedy(inst.flow, inst.distance, start, 500)
            assert np.array_equal(s_loop, s_np)
            assert c_loop == c_np
            assert st_loop == st_np

    def test_tabu_identical_on_integer_data(self, rng):
        # Integer data keeps the maintained delta table exact, so every output
        # must equal the oracle's bit for bit, across several refreshes.
        steps = 3 * K._REFRESH_STEPS + 7
        for n in (2, 3, 9, 20):
            for symmetric in (True, False):
                inst = random_integer_instance(rng, n, symmetric=symmetric)
                start = rng.permutation(n).astype(np.int64)
                for tenure in (0, default_tenure(n)):
                    args = (inst.flow, inst.distance, start, steps, tenure)
                    for got, want in zip(K.tabu(*args), tabu_loop(*args)):
                        assert np.array_equal(got, want), (n, symmetric, tenure)

    def test_tabu_identical_to_reference_on_float_data(self, rng):
        # The kernel carries H and writes in place, but every entry gets the
        # same IEEE operations in the same order as the reference kernel that
        # carried P, so all five outputs match to the bit on float data too.
        steps = 3 * K._REFRESH_STEPS + 7
        cases = [generate_instance(n, seed=900 + n) for n in (5, 9, 20, 50, 100)]
        cases += [random_asymmetric_instance(rng, 13),
                  random_integer_instance(rng, 15, high=2, symmetric=False)]
        cases += [load_entry(name).instance for name in ("had12", "esc16f", "chr12c")]
        for inst in cases:
            n = inst.n
            for start in (np.arange(n), rng.permutation(n).astype(np.int64)):
                for tenure in (0, default_tenure(n)):
                    args = (inst.flow, inst.distance, start, steps, tenure)
                    got, want = K.tabu(*args), tabu_reference(*args)
                    assert all(np.array_equal(g, w) for g, w in zip(got, want)), (
                        inst.name, tenure)
        # At n <= 4 a tenure of 7 leaves every move tabu, so the escape runs.
        for n in (2, 3, 4):
            inst = random_asymmetric_instance(rng, n)
            args = (inst.flow, inst.distance, rng.permutation(n).astype(np.int64), steps, 7)
            got, want = K.tabu(*args), tabu_reference(*args)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), n

    def test_greedy_identical_to_reference_on_float_data(self, rng):
        cases = [generate_instance(n, seed=950 + n) for n in (2, 9, 30)]
        cases += [random_asymmetric_instance(rng, 17), load_entry("had12").instance]
        for inst in cases:
            for start in (np.arange(inst.n), rng.permutation(inst.n).astype(np.int64)):
                args = (inst.flow, inst.distance, start, 10 * inst.n)
                got, want = K.greedy(*args), greedy_reference(*args)
                assert np.array_equal(got[0], want[0]) and got[1:] == want[1:], inst.name

    def test_tabu_float_drift(self, rng):
        # Costs are running sums of maintained deltas; a refresh bounds drift.
        inst = random_asymmetric_instance(rng, 60)
        start = rng.permutation(60).astype(np.int64)
        best, best_cost, cur, cur_cost, _ = K.tabu(inst.flow, inst.distance, start, 1000, 15)
        assert best_cost == pytest.approx(K.objective(inst.flow, inst.distance, best), rel=1e-9)
        assert cur_cost == pytest.approx(K.objective(inst.flow, inst.distance, cur), rel=1e-9)

    def test_brute_force_agreement(self, rng):
        inst = random_asymmetric_instance(rng, 7)
        p_loop, c_loop, _ = brute_force_loop(inst.flow, inst.distance, np.inf)
        p_np, c_np, _ = K.brute_force(inst.flow, inst.distance)
        assert np.array_equal(p_loop, p_np)
        assert c_loop == pytest.approx(c_np, rel=1e-12)


def _exact_cases(rng):
    """Float, asymmetric and integer tie-heavy instances, n = 2..7."""
    for n in range(2, 8):
        yield generate_instance(n, p=0.5, seed=700 + n)
        yield random_asymmetric_instance(rng, n)
        yield random_integer_instance(rng, n, high=1)
        yield random_integer_instance(rng, n, high=3)


class TestExactSearchNumpy:
    """The branch and bound against enumeration and the scalar-loop
    depth-first search."""

    def test_matches_enumeration_and_loop(self, rng):
        for inst in _exact_cases(rng):
            perm, cost, _ = K.brute_force(inst.flow, inst.distance)
            ref_perm, ref_cost = exhaustive_best(inst.flow, inst.distance)
            loop_perm, loop_cost, _ = brute_force_loop(inst.flow, inst.distance, np.inf)
            assert np.array_equal(perm, ref_perm), inst.name
            assert np.array_equal(perm, loop_perm), inst.name
            assert cost == pytest.approx(ref_cost, rel=1e-12)
            assert cost == pytest.approx(loop_cost, rel=1e-12)

    def test_integer_ties_exact(self, rng):
        # Integer data makes every summation order exact, so the costs agree
        # to the bit and the lexicographic tie rule decides the permutation.
        for n in range(2, 8):
            inst = random_integer_instance(rng, n, high=1)
            perm, cost, _ = K.brute_force(inst.flow, inst.distance)
            loop_perm, loop_cost, _ = brute_force_loop(inst.flow, inst.distance, np.inf)
            assert np.array_equal(perm, loop_perm)
            assert cost == loop_cost

    def test_tie_rule_across_blocks(self, rng, monkeypatch):
        # One node per block: tied leaves are scored in many separate blocks,
        # met in heaviest-flow-first order rather than lexicographic order.
        monkeypatch.setattr(K, "_BLOCK_ENTRIES", 1)
        for n in range(3, 8):
            inst = random_integer_instance(rng, n, high=1)
            perm, cost, _ = K.brute_force(inst.flow, inst.distance)
            loop_perm, loop_cost, _ = brute_force_loop(inst.flow, inst.distance, np.inf)
            assert np.array_equal(perm, loop_perm)
            assert cost == loop_cost

    def test_init_bound_contract(self, rng):
        for n in (4, 6, 7):
            inst = random_integer_instance(rng, n)
            perm, opt, _ = K.brute_force(inst.flow, inst.distance)
            for bound in (opt, opt - 1.0):
                got_perm, got, _ = K.brute_force(inst.flow, inst.distance, bound)
                assert np.array_equal(got_perm, np.arange(n))
                assert got == bound
            got_perm, got, _ = K.brute_force(inst.flow, inst.distance, opt + 0.5)
            assert np.array_equal(got_perm, perm)
            assert got == opt

    def test_rejects_negative_entries(self):
        flow = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            K.brute_force(flow, np.ones((2, 2)))

    def test_tiny_sizes(self):
        for flow, distance in ((np.zeros((0, 0)), np.zeros((0, 0))),
                               (np.full((1, 1), 2.0), np.full((1, 1), 3.0))):
            ref_perm, ref_cost = exhaustive_best(flow, distance)
            for kernel in (K.brute_force, brute_force_loop):
                perm, cost, _ = kernel(flow, distance, np.inf)
                assert np.array_equal(perm, ref_perm) and cost == ref_cost


class TestTabuSemanticsKernelLevel:
    def test_history_monotone(self, rng):
        inst = random_integer_instance(rng, 12)
        start = rng.permutation(12).astype(np.int64)
        _, best_cost, _, _, hist = K.tabu(inst.flow, inst.distance, start, 400, 7)
        assert np.all(np.diff(hist) <= 0.0)
        assert hist[-1] == best_cost

    def test_brute_force_lexicographic_tie_break(self):
        # All-zero flow: every permutation costs 0; the reported optimum must
        # be the lexicographically smallest permutation (identity).
        flow = np.zeros((5, 5))
        distance = np.ones((5, 5))
        perm, cost, _ = K.brute_force(flow, distance, np.inf)
        assert cost == 0.0
        assert np.array_equal(perm, np.arange(5))
