"""Classical solver semantics and cross-checks against enumeration."""

from __future__ import annotations

import itertools
import logging

import numpy as np
import pytest

import sawt_qap as sq
import sawt_qap.solvers as sv
from helpers import (
    exhaustive_best,
    permutation_matrix,
    random_asymmetric_instance,
    random_assignment,
    random_integer_instance,
)
from sawt_qap.errors import SizeLimitError, ValidationError
from sawt_qap.qaplib import fixture_dir, parse_qaplib


class TestBruteForce:
    def test_matches_enumeration(self, rng):
        for n in (2, 4, 6):
            inst = random_asymmetric_instance(rng, n)
            best = sv.brute_force(inst)
            perm, cost = exhaustive_best(inst.flow, inst.distance)
            assert best.cost == pytest.approx(cost, rel=1e-12)
            assert np.array_equal(best.sigma, perm)

    def test_cost_cache_consistent(self, rng):
        inst = random_asymmetric_instance(rng, 6)
        best = sv.brute_force(inst)
        assert best.cost == pytest.approx(sq.objective(inst, best.sigma), rel=1e-12)

    def test_size_guard(self):
        inst = sq.QapInstance("big", np.zeros((11, 11)), np.zeros((11, 11)))
        with pytest.raises(SizeLimitError):
            sv.brute_force(inst)

    def test_lexicographic_tie_break(self):
        inst = sq.QapInstance("ties", np.zeros((6, 6)), np.ones((6, 6)))
        assert np.array_equal(sv.brute_force(inst).sigma, np.arange(6))


class TestGreedy:
    def test_local_optimum(self, rng):
        for _ in range(10):
            inst = random_asymmetric_instance(rng, 8)
            start = random_assignment(inst, rng)
            out = sv.greedy_descent(inst, start)
            deltas = sq.all_swap_deltas(inst, out.sigma)
            assert float(deltas.min()) >= 0.0  # no improving swap remains
            assert out.cost <= start.cost

    def test_budget_zero_returns_start(self, rng):
        inst = random_asymmetric_instance(rng, 7)
        start = random_assignment(inst, rng)
        out = sv.greedy_descent(inst, start, max_steps=0)
        assert np.array_equal(out.sigma, start.sigma)
        assert out.cost == pytest.approx(start.cost, rel=1e-12)

    def test_deterministic_and_default_start(self, rng):
        inst = random_integer_instance(rng, 9)
        a = sv.greedy_descent(inst)
        b = sv.greedy_descent(inst)
        assert np.array_equal(a.sigma, b.sigma) and a.cost == b.cost

    def test_negative_budget_rejected(self, rng):
        inst = random_asymmetric_instance(rng, 5)
        with pytest.raises(ValidationError):
            sv.greedy_descent(inst, max_steps=-1)

    @pytest.mark.parametrize("max_steps", [1.5, True])
    def test_budget_must_be_int(self, rng, max_steps):
        inst = random_asymmetric_instance(rng, 5)
        with pytest.raises(ValidationError, match="max_steps must be int"):
            sv.greedy_descent(inst, max_steps=max_steps)


class TestTabu:
    def test_best_monotone_history(self, rng):
        inst = random_integer_instance(rng, 10)
        start = random_assignment(inst, rng)
        best, hist = sv.tabu_search(inst, start, max_steps=300)
        assert len(hist) == 300
        assert np.all(np.diff(hist) <= 0.0)
        assert best.cost == hist[-1] <= start.cost

    def test_zero_steps_returns_start(self, rng):
        inst = random_integer_instance(rng, 8)
        start = random_assignment(inst, rng)
        out, hist = sv.tabu_search(inst, start, max_steps=0)
        assert np.array_equal(out.sigma, start.sigma)
        assert len(hist) == 0

    def test_deterministic(self, rng):
        inst = random_integer_instance(rng, 9)
        start = random_assignment(inst, rng)
        a, _ = sv.tabu_search(inst, start, max_steps=250)
        b, _ = sv.tabu_search(inst, start, max_steps=250)
        assert np.array_equal(a.sigma, b.sigma) and a.cost == b.cost

    def test_escapes_local_optimum(self, rng):
        # Tabu must match or beat pure descent given the same start.
        wins = 0
        for _ in range(10):
            inst = random_integer_instance(rng, 10)
            start = random_assignment(inst, rng)
            g = sv.greedy_descent(inst, start)
            t, _ = sv.tabu_search(inst, start, max_steps=400)
            assert t.cost <= g.cost + 1e-9
            wins += t.cost < g.cost
        assert wins >= 3  # it should actually escape sometimes

    def test_finds_optimum_small(self, rng):
        hits = 0
        for _ in range(10):
            inst = random_integer_instance(rng, 7)
            opt = sv.brute_force(inst)
            t, _ = sv.tabu_search(inst, random_assignment(inst, rng), max_steps=500)
            hits += t.cost == opt.cost
        assert hits >= 8

    def test_cost_cache_consistent(self, rng):
        inst = random_asymmetric_instance(rng, 9)
        out, _ = sv.tabu_search(inst, max_steps=200)
        assert out.cost == pytest.approx(sq.objective(inst, out.sigma), rel=1e-9)

    def test_config_validation(self, rng):
        inst = random_integer_instance(rng, 6)
        with pytest.raises(ValidationError):
            sv.tabu_search(inst, max_steps=-1)

    @pytest.mark.parametrize("max_steps", [1.5, True])
    def test_budget_must_be_int(self, rng, max_steps):
        inst = random_integer_instance(rng, 6)
        with pytest.raises(ValidationError, match="max_steps must be int"):
            sv.tabu_search(inst, max_steps=max_steps)

    def test_default_tenure(self):
        assert sv.default_tenure(12) == 7
        assert sv.default_tenure(40) == 10

    def test_aspiration_ignores_rounding_ties(self):
        # README quick-start instance rand8-s22: on float data a tabu move back
        # to the best permutation can score a last-bit "improvement"; it must
        # not aspirate (that detour ended at 2.7864, a 13.69 % gap).
        inst = sq.generate_instance(8, seed=22)
        out, _ = sv.tabu_search(inst, max_steps=2000)  # default tenure 7
        assert out.cost == pytest.approx(2.4589054564116504, rel=1e-12)


class TestAssociationGraph:
    """``kron(F, D)`` is applied as ``F V D^T``, never built; ``np.kron`` is
    the oracle (row-major ``vec``)."""

    def test_entries(self, rng):
        for n in (4, 5):
            inst = random_asymmetric_instance(rng, n)
            k = np.kron(inst.flow, inst.distance)
            v = rng.random((n, n))
            got = inst.flow @ v @ inst.distance.T
            assert np.allclose(got, (k @ v.ravel()).reshape(n, n), rtol=1e-12, atol=0)

    def test_quadratic_form_equals_objective(self, rng):
        inst = random_asymmetric_instance(rng, 5)
        for _ in range(5):
            sigma = rng.permutation(5).astype(np.int64)
            x = permutation_matrix(sigma)
            value = float(np.sum(x * (inst.flow @ x @ inst.distance.T)))
            assert value == pytest.approx(sq.objective(inst, sigma), rel=1e-9)


class TestPowerIteration:
    """The power iteration inside :func:`spectral_matching`."""

    def test_against_dense_eig(self):
        inst = sq.generate_instance(20, seed=3)
        res = sv.spectral_matching(inst, tol=1e-10, max_iter=5000)
        assert res.converged
        w, v = np.linalg.eigh(np.kron(inst.flow, inst.distance))
        lead = v[:, np.argmax(w)]
        assert np.allclose(np.abs(res.scores.ravel()), np.abs(lead), atol=1e-5)

    def test_perron_nonnegative(self):
        inst = sq.generate_instance(20, seed=3)
        res = sv.spectral_matching(inst)
        assert res.converged
        assert np.all(res.scores >= -1e-12)
        assert np.linalg.norm(res.scores) == pytest.approx(1.0, rel=1e-9)

    def test_zero_matrix(self):
        # An all-zero flow has no direction to find: one iteration, the start.
        inst = sq.QapInstance("z", np.zeros((9, 9)), np.ones((9, 9)))
        res = sv.spectral_matching(inst)
        assert res.converged and res.iterations == 1
        assert np.allclose(res.scores, 1.0 / 9.0)

    def test_non_convergence_reported(self, caplog):
        # chr12c's flow graph is bipartite: kron(F, D) has a +-rho eigenvalue
        # pair, so the iterate oscillates instead of converging.
        inst = parse_qaplib(fixture_dir().joinpath("chr12c.dat").read_bytes(), "chr12c")
        with caplog.at_level(logging.WARNING, logger="sawt_qap.solvers"):
            res = sv.spectral_matching(inst, max_iter=1000)
        assert not res.converged and res.iterations == 1000
        assert "did not converge" in caplog.text

    @pytest.mark.parametrize("which", ["chr12c", "generated"])
    def test_unconverged_result_ignores_max_iter_parity(self, which):
        # Both oscillate; projecting the sum of the last two iterates picks
        # the same assignment whichever of the pair the budget ends on.
        if which == "chr12c":
            inst = parse_qaplib(fixture_dir().joinpath("chr12c.dat").read_bytes(), "chr12c")
        else:
            inst = sq.generate_instance(6, p=0.7, seed=4)
        even = sv.spectral_matching(inst, max_iter=1000)
        odd = sv.spectral_matching(inst, max_iter=1001)
        assert not even.converged and not odd.converged
        assert even.assignment.cost == odd.assignment.cost
        np.testing.assert_array_equal(even.assignment.sigma, odd.assignment.sigma)
        if which == "chr12c":
            assert even.assignment.cost == 57404.0


class TestHungarianProjection:
    def test_maximizes_linear_score(self, rng):
        # Dual route: compare against literal enumeration at n <= 6.
        for n in (2, 4, 6):
            scores = rng.random((n, n))
            sigma = sv.hungarian_projection(scores)
            value = float(scores[np.arange(n), sigma].sum())
            best = max(
                float(scores[np.arange(n), list(p)].sum())
                for p in itertools.permutations(range(n))
            )
            assert value == pytest.approx(best, rel=1e-12)


class TestSpectralMatching:
    def test_feasible_and_deterministic(self, rng):
        inst = sq.generate_instance(10, seed=21)
        res = sv.spectral_matching(inst)
        assert sq.core.is_permutation(res.assignment.sigma, 10)
        assert res.converged
        assert res.scores.shape == (10, 10)
        again = sv.spectral_matching(inst)
        assert np.array_equal(res.assignment.sigma, again.assignment.sigma)

    def test_cost_cache(self, rng):
        inst = sq.generate_instance(8, seed=22)
        res = sv.spectral_matching(inst)
        assert res.assignment.cost == pytest.approx(
            sq.objective(inst, res.assignment.sigma), rel=1e-12
        )

    def test_zero_flow_instance(self):
        inst = sq.QapInstance("z", np.zeros((6, 6)), np.ones((6, 6)))
        res = sv.spectral_matching(inst)
        assert res.assignment.cost == 0.0

    def test_no_size_limit(self):
        # No n^2 x n^2 association graph is built, so n = 50 runs.
        inst = sq.generate_instance(50, seed=4)
        res = sv.spectral_matching(inst)
        assert sq.core.is_permutation(res.assignment.sigma, 50)
        assert res.assignment.cost == pytest.approx(
            sq.objective(inst, res.assignment.sigma), rel=1e-12
        )
