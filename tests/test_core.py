"""Core semantics: objective formulations, deltas, gradient, generation."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sawt_qap as sq
from helpers import (
    naive_objective,
    naive_trace_objective,
    random_asymmetric_instance,
    random_assignment,
)

from sawt_qap.errors import ValidationError
from sawt_qap.policy import InstanceBatch


class TestObjective:
    def test_matches_naive_double_sum(self, rng):
        for n in (2, 3, 5, 9):
            inst = random_asymmetric_instance(rng, n)
            sigma = rng.permutation(n).astype(np.int64)
            expected = naive_objective(inst.flow, inst.distance, sigma)
            assert sq.objective(inst, sigma) == pytest.approx(expected, rel=1e-12)

    def test_trace_form_equals_double_sum(self, rng):
        # The two published formulations agree to 1e-9 relative whenever
        # either matrix is symmetric (always true for generated instances
        # and benchmark data; asymmetric flow is fine as long as D is).
        for n in (3, 6, 11):
            sym = sq.generate_instance(n, p=0.5, seed=n)
            flow = rng.random((n, n)) * 10.0
            np.fill_diagonal(flow, 0.0)
            asym_flow = sq.QapInstance("af", flow, sym.distance)
            for inst in (sym, asym_flow):
                sigma = rng.permutation(n).astype(np.int64)
                a = sq.objective(inst, sigma)
                b = sq.objective_trace(inst, sigma)
                assert b == pytest.approx(a, rel=1e-9)
                assert b == pytest.approx(
                    naive_trace_objective(inst.flow, inst.distance, sigma), rel=1e-12
                )

    def test_accepts_assignment(self, rng):
        inst = sq.generate_instance(6, seed=1)
        a = random_assignment(inst, rng)
        assert sq.objective(inst, a) == pytest.approx(a.cost, rel=1e-12)

    def test_rejects_non_permutation(self):
        inst = sq.generate_instance(4, seed=0)
        with pytest.raises(ValidationError):
            sq.objective(inst, np.array([0, 1, 2, 2]))
        with pytest.raises(ValidationError):
            sq.objective(inst, np.array([0, 1, 2]))

    def test_relabeling_invariance(self, rng):
        # Permuting facility labels and composing the assignment accordingly
        # leaves the objective unchanged.
        inst = random_asymmetric_instance(rng, 7)
        sigma = rng.permutation(7).astype(np.int64)
        pi = rng.permutation(7).astype(np.int64)
        relabeled = sq.QapInstance(
            "relabel", inst.flow[np.ix_(pi, pi)], inst.distance
        )
        assert sq.objective(relabeled, sigma[pi]) == pytest.approx(
            sq.objective(inst, sigma), rel=1e-12
        )


def solution_aware(inst, sigma) -> np.ndarray:
    """``InstanceBatch.solution_aware`` on a one-instance float64 batch."""
    batch = InstanceBatch([inst], inst.flow[None], inst.distance[None], None, None)
    return batch.solution_aware(np.asarray(sigma)[None])[0]


class TestSolutionAwareMatrix:
    """The policy's ``M_sigma``, the one solution-aware matrix in the package."""

    def test_entries_and_sum(self, rng):
        inst = random_asymmetric_instance(rng, 6)
        sigma = rng.permutation(6).astype(np.int64)
        m = solution_aware(inst, sigma)
        for i in range(6):
            for j in range(6):
                assert m[i, j] == pytest.approx(
                    inst.flow[i, j] * inst.distance[sigma[i], sigma[j]], rel=1e-12
                )
        # Trace identity: total of M equals the objective.
        assert float(m.sum()) == pytest.approx(sq.objective(inst, sigma), rel=1e-9)

    def test_zero_flow_gives_zero_matrix(self):
        inst = sq.QapInstance("z", np.zeros((4, 4)), np.ones((4, 4)))
        m = solution_aware(inst, np.arange(4))
        assert np.all(m == 0.0)


class TestGradient:
    def test_finite_difference(self, rng):
        # Central differences at h=1e-5 in fp64 match to 1e-5 relative.
        inst = random_asymmetric_instance(rng, 5, scale=2.0)
        x = rng.random((5, 5))
        grad = sq.objective_gradient(inst, x)

        def f(mat):
            return float(np.trace(inst.flow @ mat @ inst.distance @ mat.T))

        h = 1e-5
        for i in range(5):
            for j in range(5):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += h
                xm[i, j] -= h
                fd = (f(xp) - f(xm)) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_symmetric_reduces_to_2fxd(self, rng):
        inst = sq.generate_instance(6, seed=7)  # symmetric F and D
        x = rng.random((6, 6))
        expected = 2.0 * inst.flow @ x @ inst.distance
        assert np.allclose(sq.objective_gradient(inst, x), expected, rtol=1e-12)

    def test_shape_guard(self, rng):
        inst = sq.generate_instance(4, seed=0)
        with pytest.raises(ValidationError):
            sq.objective_gradient(inst, np.zeros((3, 3)))


class TestSwapDelta:
    def test_matches_full_recompute(self, rng):
        for n in (4, 8, 13):
            inst = random_asymmetric_instance(rng, n, scale=3.0)
            for _ in range(25):
                sigma = rng.permutation(n).astype(np.int64)
                i, j = map(int, rng.choice(n, size=2, replace=False))
                swapped = sigma.copy()
                swapped[i], swapped[j] = swapped[j], swapped[i]
                truth = sq.objective(inst, swapped) - sq.objective(inst, sigma)
                assert sq.swap_delta(inst, sigma, i, j) == pytest.approx(
                    truth, rel=1e-9, abs=1e-9
                )

    def test_all_swap_deltas_matrix(self, rng):
        inst = random_asymmetric_instance(rng, 7)
        sigma = rng.permutation(7).astype(np.int64)
        deltas = sq.all_swap_deltas(inst, sigma)
        assert np.allclose(deltas, deltas.T, rtol=1e-12)
        assert np.all(np.diag(deltas) == 0.0)
        for i in range(7):
            for j in range(i + 1, 7):
                assert deltas[i, j] == pytest.approx(
                    sq.swap_delta(inst, sigma, i, j), rel=1e-9, abs=1e-9
                )

    def test_guards(self, rng):
        inst = sq.generate_instance(5, seed=0)
        sigma = np.arange(5)
        with pytest.raises(ValidationError):
            sq.swap_delta(inst, sigma, 2, 2)
        with pytest.raises(ValidationError):
            sq.swap_delta(inst, sigma, 0, 5)

    def test_apply_swap_updates_cache(self, rng):
        inst = random_asymmetric_instance(rng, 9)
        a = random_assignment(inst, rng)
        b = sq.apply_swap(inst, a, 2, 6)
        assert b.cost == pytest.approx(sq.objective(inst, b.sigma), rel=1e-9)
        back = sq.apply_swap(inst, b, 2, 6)
        assert np.array_equal(back.sigma, a.sigma)
        assert back.cost == pytest.approx(a.cost, rel=1e-9)

    def test_chained_swaps_drift(self, rng):
        # 2000 incremental updates stay within 1e-9 relative of recompute.
        inst = random_asymmetric_instance(rng, 12)
        a = random_assignment(inst, rng)
        for _ in range(2000):
            i, j = map(int, rng.choice(12, size=2, replace=False))
            a = sq.apply_swap(inst, a, i, j)
        assert a.cost == pytest.approx(sq.objective(inst, a.sigma), rel=1e-9)

    @settings(deadline=None, max_examples=30)
    @given(data=st.data(), n=st.integers(min_value=2, max_value=8))
    def test_swap_involution_property(self, data, n):
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        local = np.random.default_rng(seed)
        inst = random_asymmetric_instance(local, n)
        a = random_assignment(inst, local)
        i = data.draw(st.integers(min_value=0, max_value=n - 1))
        j = data.draw(st.integers(min_value=0, max_value=n - 1).filter(lambda v: v != i))
        twice = sq.apply_swap(inst, sq.apply_swap(inst, a, i, j), i, j)
        assert np.array_equal(twice.sigma, a.sigma)
        assert twice.cost == pytest.approx(a.cost, rel=1e-9, abs=1e-12)


class TestGeneration:
    def test_deterministic(self):
        a = sq.generate_instance(10, p=0.7, seed=42)
        b = sq.generate_instance(10, p=0.7, seed=42)
        assert np.array_equal(a.flow, b.flow)
        assert np.array_equal(a.distance, b.distance)
        assert np.array_equal(a.coords, b.coords)
        c = sq.generate_instance(10, p=0.7, seed=43)
        assert not np.array_equal(a.flow, c.flow)

    def test_structure(self):
        inst = sq.generate_instance(20, p=0.5, seed=3)
        assert np.all(np.diag(inst.flow) == 0.0)
        assert np.all(np.diag(inst.distance) == 0.0)
        assert np.array_equal(inst.flow, inst.flow.T)
        assert np.array_equal(inst.distance, inst.distance.T)
        assert inst.flow.min() >= 0.0
        # Distances are Euclidean from the attached coords.
        diff = inst.coords[:, None, :] - inst.coords[None, :, :]
        assert np.allclose(np.sqrt((diff**2).sum(axis=2)), inst.distance, atol=1e-9)
        assert inst.distance.max() <= np.sqrt(2.0) + 1e-12

    def test_sparsity_fraction(self):
        # With p=0.7 the expected off-diagonal zero fraction is 0.7.
        inst = sq.generate_instance(60, p=0.7, seed=11)
        off = ~np.eye(60, dtype=bool)
        frac = float((inst.flow[off] == 0.0).mean())
        assert 0.62 <= frac <= 0.78

    def test_p_extremes(self):
        dense = sq.generate_instance(12, p=0.0, seed=5)
        off = ~np.eye(12, dtype=bool)
        assert np.all(dense.flow[off] > 0.0)
        empty = sq.generate_instance(12, p=1.0, seed=5)
        assert np.all(empty.flow == 0.0)

    def test_guards(self):
        with pytest.raises(ValidationError):
            sq.generate_instance(1, seed=0)
        with pytest.raises(ValidationError):
            sq.generate_instance(5, p=1.5, seed=0)


class TestValidation:
    def test_instance_guards(self):
        with pytest.raises(ValidationError):
            sq.QapInstance("bad", np.zeros((3, 4)), np.zeros((3, 3)))
        with pytest.raises(ValidationError):
            sq.QapInstance("bad", np.zeros((3, 3)), np.zeros((4, 4)))
        with pytest.raises(ValidationError):
            sq.QapInstance("bad", -np.ones((3, 3)), np.zeros((3, 3)))
        nan = np.zeros((3, 3))
        nan[0, 1] = np.nan
        with pytest.raises(ValidationError):
            sq.QapInstance("bad", nan, np.zeros((3, 3)))

    def test_coords_consistency_enforced(self, rng):
        coords = rng.random((4, 2))
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        sq.QapInstance("ok", np.zeros((4, 4)), dist, coords=coords)
        with pytest.raises(ValidationError):
            sq.QapInstance("bad", np.zeros((4, 4)), dist + 0.01, coords=coords)

    def test_gap(self):
        assert sq.gap(110.0, 100.0) == pytest.approx(10.0)
        assert sq.gap(100.0, 100.0) == 0.0
        with pytest.raises(ValidationError):
            sq.gap(5.0, 0.0)


class TestSerialization:
    def test_round_trip_exact(self, rng):
        inst = sq.generate_instance(9, p=0.6, seed=99)
        text = sq.instance_to_json(inst)
        back = sq.instance_from_json(text)
        assert back.name == inst.name
        assert np.array_equal(back.flow, inst.flow)  # bitwise
        assert np.array_equal(back.distance, inst.distance)
        assert np.array_equal(back.coords, inst.coords)
        assert back.seed == inst.seed and back.p == inst.p
        # A second round trip is byte-stable.
        assert sq.instance_to_json(back) == text

    def test_schema_fields(self):
        inst = sq.generate_instance(4, p=0.5, seed=1)
        data = json.loads(sq.instance_to_json(inst))
        assert data["n"] == 4
        assert len(data["flow"]) == 16 and len(data["distance"]) == 16
        assert data["seed"] == 1 and data["p"] == 0.5
        assert len(data["coords"]) == 4

    def test_malformed(self):
        with pytest.raises(ValidationError):
            sq.instance_from_json("[1,2,3]")
        with pytest.raises(ValidationError):
            sq.instance_from_json("{not json")
        with pytest.raises(ValidationError):
            sq.instance_from_dict({"n": 3, "flow": [0.0] * 9, "distance": [0.0] * 8})
