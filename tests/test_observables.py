import itertools

import numpy as np
import pytest

from conftest import phase_grid, psd_sqrt, random_density_mat, random_unitary
from polariton_ring.experiments import CompiledModel
from polariton_ring.linalg import DensityMatrix, HilbertSpace, hermitize, partial_trace
from polariton_ring.models import PathSetter, fig5_pair_spec
from polariton_ring.observables import (
    _spin_flip,
    concurrence,
    gibbs_state,
    population,
    purity,
    thermal_occupation,
    trace_distance,
)

TWO_QUBITS = HilbertSpace((2, 2))


def state(mat):
    return DensityMatrix(TWO_QUBITS, np.asarray(mat, dtype=complex))


def bell():
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    return state(np.outer(v, v))


def spin_flip_by_products(mat):
    """(σ_y⊗σ_y) ρ* (σ_y⊗σ_y) as the two matrix products."""
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    yy = np.kron(sy, sy)
    return yy @ mat.conj() @ yy


def concurrence_oracle(rho_mat):
    """Independent implementation via the non-Hermitian product rho @ rho_tilde."""
    rho_t = spin_flip_by_products(rho_mat)
    evals = np.linalg.eigvals(rho_mat @ rho_t)
    lam = np.sqrt(np.abs(np.sort(evals.real)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def test_concurrence_bell_state():
    assert concurrence(bell()) == pytest.approx(1.0, abs=1e-10)


def test_concurrence_product_state():
    assert concurrence(state(np.diag([1.0, 0, 0, 0]))) == 0.0


def test_concurrence_werner_state():
    p = 0.8
    mat = p * bell().mat + (1 - p) * np.eye(4) / 4
    assert concurrence(state(mat)) == pytest.approx((3 * p - 1) / 2, abs=1e-10)


def test_concurrence_bounds_on_random_states(rng):
    for _ in range(1000):
        c = concurrence(state(random_density_mat(rng, 4)))
        assert 0.0 <= c <= 1.0 + 1e-12


def test_concurrence_local_unitary_invariance(rng):
    for _ in range(100):
        rho = random_density_mat(rng, 4)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        c1 = concurrence(state(rho))
        c2 = concurrence(state(u @ rho @ u.conj().T))
        assert abs(c1 - c2) <= 1e-8


def test_concurrence_matches_independent_oracle(rng):
    for _ in range(200):
        rho = random_density_mat(rng, 4)
        assert concurrence(state(rho)) == pytest.approx(concurrence_oracle(rho), abs=1e-8)


def concurrence_by_square_root(rho_mat):
    """Wootters' formula through √ρ: the eigenvalues of the Hermitian √ρ ρ̃ √ρ."""
    s = psd_sqrt(rho_mat)
    w = np.linalg.eigvalsh(hermitize(s @ spin_flip_by_products(rho_mat) @ s))
    lam = np.sqrt(np.clip(w, 0.0, None))
    return max(0.0, lam[3] - lam[2] - lam[1] - lam[0])


def random_rank_mat(rng, rank):
    """A random two-qubit density matrix of the given rank."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_factor_concurrence_equals_the_square_root_formula(rng):
    # full-rank states take the Cholesky factor, one by one and as a stack
    mats = np.array([random_density_mat(rng, 4) for _ in range(300)])
    np.linalg.cholesky(mats)
    want = np.array([concurrence_by_square_root(m) for m in mats])
    singles = np.array([concurrence(state(m)) for m in mats])
    assert np.abs(singles - want).max() <= 1e-12
    assert np.abs(concurrence(state(mats)) - want).max() <= 1e-12
    assert (want > 0).sum() > 10  # not only separable states


def test_concurrence_of_singular_states(rng):
    # Bell and product states have no Cholesky factor and take the
    # eigendecomposition's; the Werner state at p = 1/3 (full rank) sits on
    # the separability boundary
    product = state(np.diag([0.0, 1.0, 0.0, 0.0]))
    for rho in (bell(), product):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(rho.mat)
    assert concurrence(bell()) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(product) == 0.0
    werner = state(bell().mat / 3 + (2 / 3) * np.eye(4) / 4)
    assert concurrence(werner) == pytest.approx(0.0, abs=1e-12)
    for rank in (1, 2, 3):
        for _ in range(50):
            rho = random_rank_mat(rng, rank)
            assert concurrence(state(rho)) == pytest.approx(concurrence_by_square_root(rho), abs=1e-7)


def test_concurrence_of_a_state_does_not_depend_on_its_stack(rng):
    # a stack with singular states is factored state by state, each as it
    # would be alone; a stack of full-rank states in one call
    full = [random_density_mat(rng, 4) for _ in range(40)]
    singular = [bell().mat, np.diag([1.0, 0, 0, 0]).astype(complex)]
    singular += [random_rank_mat(rng, rank) for rank in (1, 2, 3) for _ in range(4)]
    mixed = full[:20] + singular
    rng.shuffle(mixed)
    for mats in (full, mixed):
        alone = np.array([concurrence(state(m)) for m in mats])
        assert concurrence(state(np.array(mats))).tobytes() == alone.tobytes()


def test_concurrence_takes_every_state_a_density_matrix_accepts(rng):
    # an eigenvalue in (−PSD_TOL, −HERM_TOL) passes DensityMatrix's check;
    # concurrence clamps it as the solver's states are clamped
    u = random_unitary(rng, 4)
    rho = state((u * [-5e-9, 0.2, 0.3, 0.5 + 5e-9]) @ u.conj().T)
    clamped = state((u * [0.0, 0.2, 0.3, 0.5]) @ u.conj().T)
    purity(rho)
    assert concurrence(rho) == pytest.approx(concurrence_by_square_root(clamped.mat), abs=1e-7)


def test_spin_flip_keeps_the_bits_of_the_products(rng):
    # random states one at a time and as a stack, states with exact zeros, and
    # the fig5 grid's states as its sweep solves them (one of them has an
    # entry whose imaginary part is +0, which a bare sign mask turns into -0)
    singles = [random_density_mat(rng, 4) for _ in range(200)]
    singles += [bell().mat, np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), np.eye(4, dtype=complex) / 4]
    for mat in singles:
        assert _spin_flip(mat).tobytes() == spin_flip_by_products(mat).tobytes()
    stack = np.array(singles)
    assert _spin_flip(stack).tobytes() == spin_flip_by_products(stack).tobytes()
    base = fig5_pair_spec()
    setter = PathSetter(base, ["x[0].phase", "x[2].phase"])
    values = np.array(list(itertools.product(phase_grid(41), repeat=2)))
    fig5 = CompiledModel(base).solve(setter.rows(values)).rho.mat
    assert _spin_flip(fig5).tobytes() == spin_flip_by_products(fig5).tobytes()


def test_concurrence_needs_two_qubits(rng):
    rho = DensityMatrix(HilbertSpace((4,)), random_density_mat(rng, 4))
    with pytest.raises(ValueError):
        concurrence(rho)


def test_trace_distance_trivial_cases():
    a = state(np.diag([0.75, 0.25, 0, 0]))
    assert trace_distance(a, a) == 0.0
    zero = DensityMatrix(HilbertSpace((2,)), np.diag([1.0, 0.0]).astype(complex))
    one = DensityMatrix(HilbertSpace((2,)), np.diag([0.0, 1.0]).astype(complex))
    assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-14)
    half = DensityMatrix(HilbertSpace((2,)), np.diag([0.5, 0.5]).astype(complex))
    quarter = DensityMatrix(HilbertSpace((2,)), np.diag([0.75, 0.25]).astype(complex))
    assert trace_distance(quarter, half) == pytest.approx(0.25, abs=1e-14)


def test_trace_distance_metric_axioms(rng):
    space = HilbertSpace((4,))
    for _ in range(200):
        a = DensityMatrix(space, random_density_mat(rng, 4))
        b = DensityMatrix(space, random_density_mat(rng, 4))
        c = DensityMatrix(space, random_density_mat(rng, 4))
        dab, dba = trace_distance(a, b), trace_distance(b, a)
        assert abs(dab - dba) <= 1e-12
        assert dab >= 0
        assert trace_distance(a, c) <= dab + trace_distance(b, c) + 1e-12
    a = DensityMatrix(space, random_density_mat(rng, 4))
    assert trace_distance(a, a) <= 1e-10


def test_trace_distance_contracts_under_partial_trace(rng):
    for _ in range(50):
        a = DensityMatrix(TWO_QUBITS, random_density_mat(rng, 4))
        b = DensityMatrix(TWO_QUBITS, random_density_mat(rng, 4))
        full = trace_distance(a, b)
        reduced = trace_distance(partial_trace(a, [0]), partial_trace(b, [0]))
        assert reduced <= full + 1e-12


def test_trace_distance_space_mismatch(rng):
    a = DensityMatrix(TWO_QUBITS, random_density_mat(rng, 4))
    b = DensityMatrix(HilbertSpace((4,)), random_density_mat(rng, 4))
    with pytest.raises(ValueError):
        trace_distance(a, b)


def test_gibbs_zero_temperature():
    rho = gibbs_state(0.0, 2)
    assert rho.mat[0, 0] == 1.0


def test_gibbs_infinite_temperature_limit():
    rho = gibbs_state(1e9, 2)
    assert np.abs(rho.mat - np.eye(4) / 4).max() <= 1e-9


def test_gibbs_ln2_weights():
    rho = gibbs_state(1.0 / np.log(2.0), 2)
    want = np.diag([4 / 9, 2 / 9, 2 / 9, 1 / 9])
    assert np.abs(rho.mat - want).max() <= 1e-12


def test_gibbs_is_diagonal():
    rho = gibbs_state(0.3, 2)
    assert np.abs(rho.mat - np.diag(np.diag(rho.mat))).max() == 0.0


def test_gibbs_on_n_qubits_is_a_product_of_single_qubit_states():
    # weights e^{-k/T} over the excitation count k of each basis state
    for t in (0.0, 0.05, 0.3, 1.0 / np.log(2.0)):
        single = gibbs_state(t, 1)
        assert single.space.factor_dims == (2,)
        for n in (2, 3):
            rho = gibbs_state(t, n)
            assert rho.space.factor_dims == (2,) * n
            product = single.mat
            for _ in range(n - 1):
                product = np.kron(product, single.mat)
            assert np.abs(rho.mat - product).max() <= 1e-15


def test_thermal_occupation_values():
    assert thermal_occupation(0.0) == 0.0
    assert thermal_occupation(1.0 / np.log(2.0)) == pytest.approx(1.0, rel=1e-12)
    assert thermal_occupation(1.0 / np.log(1.1)) == pytest.approx(10.0, rel=1e-12)


def test_thermal_spec_validation():
    # a temperature must be finite and >= 0
    for bad in (-1.0, -1e-300, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="temperature"):
            gibbs_state(bad, 2)
        with pytest.raises(ValueError, match="temperature"):
            thermal_occupation(bad)


def test_purity_and_population():
    rho = state(np.diag([0.5, 0.5, 0.0, 0.0]))
    assert purity(rho) == pytest.approx(0.5)
    assert population(rho, 0) == pytest.approx(0.5)
    assert population(rho, 3) == 0.0


def test_observables_of_a_stack_equal_each_state(rng):
    # one value per state of a stack, each bit for bit the value of that state alone
    space = HilbertSpace((2, 2))
    mats = np.array([random_density_mat(rng, 4) for _ in range(6)])
    gibbs = gibbs_state(0.05, 2)
    for observable in (concurrence, purity, lambda r: population(r, 2), lambda r: trace_distance(r, gibbs),
                       lambda r: trace_distance(gibbs, r)):
        values = observable(DensityMatrix(space, mats))
        assert values.shape == (6,)
        assert values.tolist() == [observable(DensityMatrix(space, mat)) for mat in mats]

