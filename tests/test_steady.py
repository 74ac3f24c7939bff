import numpy as np
import pytest

from polariton_ring.linalg import HilbertSpace, basis_state, embed
from polariton_ring.models import SIGMA_MINUS, EffectiveParams, build_pair_thermal
from polariton_ring.observables import trace_distance
from polariton_ring.steady import (
    SteadyStateError,
    evolve,
    evolve_to_steady,
    spectral_gap,
    steady_state,
    steady_state_on,
    traceless_basis,
)
from polariton_ring.superop import DissipatorTerm, Superoperator, assemble, zero_super

QUBIT = HilbertSpace((2,))


def decay_liouvillian(kappa=1.0):
    return assemble(np.zeros((2, 2)), [DissipatorTerm(SIGMA_MINUS, SIGMA_MINUS, kappa / 2)])


def driven_qubit(omega=0.8, kappa=1.0):
    h = omega * np.array([[0, 1], [1, 0]], dtype=complex)
    return assemble(h, [DissipatorTerm(SIGMA_MINUS, SIGMA_MINUS, kappa / 2)])


def test_steady_state_pure_decay():
    report = steady_state(decay_liouvillian())
    assert report.residual <= 1e-12
    assert report.unique
    assert abs(report.rho.mat[0, 0] - 1.0) <= 1e-12
    assert report.min_eigenvalue >= -1e-12


def test_steady_state_driven_qubit_matches_propagation():
    liouv = driven_qubit()
    report = steady_state(liouv)
    rho0 = basis_state(QUBIT, 0)
    final = evolve(liouv, rho0, t_final=60.0)
    assert abs(final.mat[1, 1].real - report.rho.mat[1, 1].real) <= 1e-8


def test_steady_state_scale_invariance():
    liouv = driven_qubit()
    scaled = Superoperator(liouv.dim, 7.5 * liouv.mat)
    a = steady_state(liouv).rho.mat
    b = steady_state(scaled).rho.mat
    assert np.abs(a - b).max() <= 1e-10


def collective_decay_liouvillian():
    # purely collective decay of two qubits leaves the singlet dark
    space = HilbertSpace((2, 2))
    p1 = embed(SIGMA_MINUS, 0, space)
    p2 = embed(SIGMA_MINUS, 1, space)
    terms = [
        DissipatorTerm(p1, p1, 1.0),
        DissipatorTerm(p2, p2, 1.0),
        DissipatorTerm(p1, p2, 1.0),
        DissipatorTerm(p2, p1, 1.0),
    ]
    return space, assemble(np.zeros((4, 4)), terms)


def test_steady_state_detects_degenerate_kernel():
    _, liouv = collective_decay_liouvillian()
    report = steady_state(liouv)
    assert not report.unique


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_evolve_to_steady_rejects_degenerate_kernel():
    space, liouv = collective_decay_liouvillian()
    with pytest.raises(SteadyStateError, match="degenerate"):
        evolve_to_steady(liouv, space)


def test_steady_state_unique_for_thermal_pair():
    params = EffectiveParams(n_sites=2, Gamma=(1.0,), x=(2.0,), y=(15.0,), z=(1.01,))
    space, h, terms = build_pair_thermal(params)
    report = steady_state_on(assemble(h, terms), space)
    assert report.unique
    assert report.rho.space.factor_dims == (2, 2)


def test_evolve_zero_generator():
    rho0 = basis_state(QUBIT, 1)
    out = evolve(zero_super(2), rho0, t_final=1.0)
    assert np.abs(out.mat - rho0.mat).max() <= 1e-14


def test_evolve_exponential_decay_law():
    kappa = 1.0
    liouv = decay_liouvillian(kappa)
    rho0 = basis_state(QUBIT, 1)
    for t in (0.1, 1.0, 10.0):
        out = evolve(liouv, rho0, t_final=t)
        assert abs(out.mat[1, 1].real - np.exp(-kappa * t)) <= 1e-12


def test_evolve_semigroup():
    liouv = driven_qubit(omega=0.4, kappa=1.3)
    rho0 = basis_state(QUBIT, 1)
    once = evolve(liouv, rho0, t_final=0.7 + 2.9)
    twice = evolve(liouv, evolve(liouv, rho0, t_final=0.7), t_final=2.9)
    assert np.abs(once.mat - twice.mat).max() <= 1e-12


def test_evolve_agrees_with_linear_solve():
    liouv = driven_qubit(omega=0.4, kappa=1.3)
    gap = spectral_gap(liouv)
    final = evolve_to_steady(liouv, QUBIT)
    report = steady_state(liouv)
    assert gap > 0
    assert trace_distance(final, report.rho) <= 1e-6


def test_spectral_gap_single_qubit_decay():
    kappa = 2.0
    gap = spectral_gap(decay_liouvillian(kappa))
    assert gap == pytest.approx(kappa / 2, rel=0.1)


def test_spectral_gap_scales_linearly():
    liouv = driven_qubit()
    g1 = spectral_gap(liouv)
    g2 = spectral_gap(Superoperator(liouv.dim, 3.0 * liouv.mat))
    assert g2 == pytest.approx(3.0 * g1, rel=1e-9)


def test_spectral_gap_ring_positive():
    from polariton_ring.models import build_model, fig3_ring_spec
    from polariton_ring.superop import assemble as asm

    space, h, terms = build_model(fig3_ring_spec())
    gap = spectral_gap(asm(h, terms))
    assert gap > 0.01


def test_traceless_basis_properties():
    for d in (2, 3, 4):
        b = traceless_basis(d)
        assert b.shape == (d * d, d * d - 1)
        assert np.abs(b.conj().T @ b - np.eye(d * d - 1)).max() <= 1e-12
        from polariton_ring.superop import unvec

        for k in range(b.shape[1]):
            assert abs(np.trace(unvec(b[:, k]))) <= 1e-12


def test_evolve_dimension_mismatch():
    with pytest.raises(ValueError):
        evolve(zero_super(3), basis_state(QUBIT, 0), 1.0)
