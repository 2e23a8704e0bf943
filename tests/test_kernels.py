"""Loop (numba, or plain Python without it) and numpy kernels agree, and the
env flag selects the active backend."""

from __future__ import annotations

import numpy as np
import pytest

from sawt_qap import _kernels as K
from sawt_qap.core import generate_instance
from helpers import exhaustive_best, random_asymmetric_instance, random_integer_instance

# The numba kernels, or where numba is absent their scalar-loop source run as
# plain Python, so the loop flavour is checked against the numpy one either way.
LOOP = {
    name: getattr(K, f"{name}_numba") or getattr(K, f"_{name}_loop")
    for name in ("objective", "swap_delta", "all_swap_deltas", "greedy", "tabu", "brute_force")
}


class TestBackendAgreement:
    def test_objective(self, rng):
        inst = random_asymmetric_instance(rng, 11)
        for _ in range(10):
            sigma = rng.permutation(11).astype(np.int64)
            a = K.objective_numpy(inst.flow, inst.distance, sigma)
            b = LOOP["objective"](inst.flow, inst.distance, sigma)
            assert b == pytest.approx(a, rel=1e-12)

    def test_swap_delta_and_matrix(self, rng):
        inst = random_asymmetric_instance(rng, 9)
        sigma = rng.permutation(9).astype(np.int64)
        mat_np = K.all_swap_deltas_numpy(inst.flow, inst.distance, sigma)
        mat_loop = LOOP["all_swap_deltas"](inst.flow, inst.distance, sigma)
        assert np.allclose(mat_np, mat_loop, rtol=1e-10, atol=1e-12)
        for i in range(9):
            for j in range(i + 1, 9):
                a = K.swap_delta_numpy(inst.flow, inst.distance, sigma, i, j)
                b = LOOP["swap_delta"](inst.flow, inst.distance, sigma, i, j)
                assert b == pytest.approx(a, rel=1e-10, abs=1e-12)

    def test_greedy_identical_on_integer_data(self, rng):
        # Integer-valued instances make both paths' arithmetic exact, so the
        # full trajectories (not just costs) must coincide.
        for _ in range(5):
            inst = random_integer_instance(rng, 10)
            start = rng.permutation(10).astype(np.int64)
            s_loop, c_loop, st_loop = LOOP["greedy"](inst.flow, inst.distance, start, 500)
            s_np, c_np, st_np = K.greedy_numpy(inst.flow, inst.distance, start, 500)
            assert np.array_equal(s_loop, s_np)
            assert c_loop == c_np
            assert st_loop == st_np

    def test_tabu_identical_on_integer_data(self, rng):
        for _ in range(3):
            inst = random_integer_instance(rng, 9)
            start = rng.permutation(9).astype(np.int64)
            out_loop = LOOP["tabu"](inst.flow, inst.distance, start, 300, 7, True)
            out_np = K.tabu_numpy(inst.flow, inst.distance, start, 300, 7, True)
            assert np.array_equal(out_loop[0], out_np[0])
            assert out_loop[1] == out_np[1]
            assert np.array_equal(out_loop[4], out_np[4])

    def test_brute_force_agreement(self, rng):
        inst = random_asymmetric_instance(rng, 7)
        p_loop, c_loop, _ = LOOP["brute_force"](inst.flow, inst.distance, np.inf)
        p_np, c_np, _ = K.brute_force_numpy(inst.flow, inst.distance)
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
    """The numpy branch and bound against enumeration and the loop flavour
    run as plain Python (no numba needed)."""

    def test_matches_enumeration_and_loop(self, rng):
        for inst in _exact_cases(rng):
            perm, cost, _ = K.brute_force_numpy(inst.flow, inst.distance)
            ref_perm, ref_cost = exhaustive_best(inst.flow, inst.distance)
            loop_perm, loop_cost, _ = K._brute_force_loop(inst.flow, inst.distance, np.inf)
            assert np.array_equal(perm, ref_perm), inst.name
            assert np.array_equal(perm, loop_perm), inst.name
            assert cost == pytest.approx(ref_cost, rel=1e-12)
            assert cost == pytest.approx(loop_cost, rel=1e-12)

    def test_integer_ties_exact(self, rng):
        # Integer data makes every summation order exact, so the costs agree
        # to the bit and the lexicographic tie rule decides the permutation.
        for n in range(2, 8):
            inst = random_integer_instance(rng, n, high=1)
            perm, cost, _ = K.brute_force_numpy(inst.flow, inst.distance)
            loop_perm, loop_cost, _ = K._brute_force_loop(inst.flow, inst.distance, np.inf)
            assert np.array_equal(perm, loop_perm)
            assert cost == loop_cost

    def test_tie_rule_across_blocks(self, rng, monkeypatch):
        # One node per block: tied leaves are scored in many separate blocks,
        # met in heaviest-flow-first order rather than lexicographic order.
        monkeypatch.setattr(K, "_BLOCK_ENTRIES", 1)
        for n in range(3, 8):
            inst = random_integer_instance(rng, n, high=1)
            perm, cost, _ = K.brute_force_numpy(inst.flow, inst.distance)
            loop_perm, loop_cost, _ = K._brute_force_loop(inst.flow, inst.distance, np.inf)
            assert np.array_equal(perm, loop_perm)
            assert cost == loop_cost

    def test_init_bound_contract(self, rng):
        for n in (4, 6, 7):
            inst = random_integer_instance(rng, n)
            perm, opt, _ = K.brute_force_numpy(inst.flow, inst.distance)
            for bound in (opt, opt - 1.0):
                got_perm, got, _ = K.brute_force_numpy(inst.flow, inst.distance, bound)
                assert np.array_equal(got_perm, np.arange(n))
                assert got == bound
            got_perm, got, _ = K.brute_force_numpy(inst.flow, inst.distance, opt + 0.5)
            assert np.array_equal(got_perm, perm)
            assert got == opt

    def test_rejects_negative_entries(self):
        flow = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            K.brute_force_numpy(flow, np.ones((2, 2)))

    def test_tiny_sizes(self):
        for flow, distance in ((np.zeros((0, 0)), np.zeros((0, 0))),
                               (np.full((1, 1), 2.0), np.full((1, 1), 3.0))):
            ref_perm, ref_cost = exhaustive_best(flow, distance)
            for kernel in (K.brute_force_numpy, K._brute_force_loop):
                perm, cost, _ = kernel(flow, distance, np.inf)
                assert np.array_equal(perm, ref_perm) and cost == ref_cost


def test_env_flag_selects_backend():
    # The active backend matches what the import-time env flag decided.
    if K.USE_NUMBA:
        assert K.ACTIVE_BACKEND == "numba"
        assert K.objective is K.objective_numba
    else:
        assert K.ACTIVE_BACKEND == "numpy"
        assert K.objective is K.objective_numpy


def test_numpy_fallback_importable_without_flag(tmp_path):
    # Re-import the module in a subprocess with the flag off and make sure
    # the numpy path is selected and functional end to end.
    import subprocess
    import sys

    code = (
        "import os; os.environ['SAWT_QAP_NUMBA']='0';\n"
        "from sawt_qap import _kernels as K\n"
        "import numpy as np\n"
        "assert K.ACTIVE_BACKEND == 'numpy'\n"
        "f = np.array([[0.,1.],[1.,0.]]); d = np.array([[0.,2.],[2.,0.]])\n"
        "assert K.objective(f, d, np.array([0,1])) == 4.0\n"
        "print('ok')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "ok"


class TestTabuSemanticsKernelLevel:
    def test_history_monotone(self, rng):
        inst = random_integer_instance(rng, 12)
        start = rng.permutation(12).astype(np.int64)
        _, best_cost, _, _, hist = K.tabu(inst.flow, inst.distance, start, 400, 7, True)
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
