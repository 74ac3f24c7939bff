import ast
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    basis_state,
    bundled_models,
    certificate_oracle,
    hermitian_basis,
    lapack_calls,
    random_hermitian,
    run_fresh,
    system_oracle,
    three_guide_pair_micro,
    trace_zero_basis,
    validation_micro_spec,
)
from polariton_ring import steady
from polariton_ring.linalg import DensityMatrix, HilbertSpace, embed, hermitize
from polariton_ring.models import (
    EFFECTIVE,
    SIGMA_MINUS,
    EffectiveParams,
    ModelSpec,
    build_model,
    model_pieces,
    thermal_pair_spec,
)
from polariton_ring.observables import trace_distance
from polariton_ring.steady import (
    CLAMP_TOL,
    UNIQUENESS_TOL,
    SteadyStateError,
    _from_real,
    _generator_entries,
    _restricted_coordinates,
    _states,
    _trace_zero_coordinates,
    evolve,
    evolve_to_steady,
    generator_system,
    spectral_gap,
    steady_state_of,
    steady_state_on,
    steady_state_restricted,
    trace_zero_system,
)
from polariton_ring.superop import AssemblyError, DissipatorTerm, Superoperator, assemble, unvec, vec

QUBIT = HilbertSpace((2,))


def traceless_basis(d: int) -> np.ndarray:
    """Oracle: dense orthonormal basis (columns) of the trace-zero subspace of
    vec space, columns 1..d²−1 of the Householder reflection that maps e₀ to
    vec(I)/√d."""
    n = d * d
    w = vec(np.eye(d, dtype=complex)) / np.sqrt(d)
    w[0] -= 1.0
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return np.eye(n, dtype=complex)[:, 1:]
    w /= nw
    house = np.eye(n, dtype=complex) - 2.0 * np.outer(w, w.conj())
    return house[:, 1:]


def decay_liouvillian(kappa=1.0):
    return assemble(np.zeros((2, 2)), [DissipatorTerm(SIGMA_MINUS, SIGMA_MINUS, kappa / 2)])


def driven_qubit(omega=0.8, kappa=1.0):
    h = omega * np.array([[0, 1], [1, 0]], dtype=complex)
    return assemble(h, [DissipatorTerm(SIGMA_MINUS, SIGMA_MINUS, kappa / 2)])


def test_steady_state_pure_decay():
    report = steady_state_on(decay_liouvillian(), QUBIT)
    assert report.residual <= 1e-12
    assert report.unique
    assert abs(report.rho.mat[0, 0] - 1.0) <= 1e-12
    assert report.min_eigenvalue >= -1e-12


def test_steady_state_driven_qubit_matches_propagation():
    liouv = driven_qubit()
    report = steady_state_on(liouv, QUBIT)
    rho0 = basis_state(QUBIT, 0)
    final = evolve(liouv, rho0, t_final=60.0)
    assert abs(final.mat[1, 1].real - report.rho.mat[1, 1].real) <= 1e-8


def test_steady_state_scale_invariance():
    liouv = driven_qubit()
    scaled = Superoperator(liouv.dim, 7.5 * liouv.mat)
    a = steady_state_on(liouv, QUBIT).rho.mat
    b = steady_state_on(scaled, QUBIT).rho.mat
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
    space, liouv = collective_decay_liouvillian()
    report = steady_state_on(liouv, space)
    assert not report.unique


def test_evolve_to_steady_rejects_degenerate_kernel():
    space, liouv = collective_decay_liouvillian()
    with pytest.raises(SteadyStateError, match="degenerate"):
        evolve_to_steady(liouv, space)


def test_exactly_singular_dark_pair_has_zero_gap():
    # the undriven pair at z = 1 decays only collectively and has a dark state at
    # y = 0: getrf finds its M exactly singular, and under the suite's warning
    # filter the gap is 0.0 and the propagation refuses, with no LAPACK warning
    space, h, terms = build_model(thermal_pair_spec(x=0.0, y=0.0, z=1.0))
    liouv = assemble(h, terms)
    assert steady._getrf(trace_zero_system(liouv)[0])[2] == 5
    assert spectral_gap(liouv) == 0.0
    with pytest.raises(SteadyStateError, match="numerically zero"):
        evolve_to_steady(liouv, space)


def test_spectral_gap_of_one_level_is_zero(capfd):
    # its M is 0×0, which getrf rejects with a message on stdout
    assert spectral_gap(assemble(np.zeros((1, 1)), [])) == 0.0
    assert capfd.readouterr() == ("", "")


def test_steady_state_unique_for_thermal_pair():
    params = EffectiveParams(Gamma=(1.0,), x=(2.0,), y=(15.0,), z=(1.01,))
    space, h, terms = build_model(ModelSpec("pair_thermal", params))
    report = steady_state_on(assemble(h, terms), space)
    assert report.unique
    assert report.rho.space.factor_dims == (2, 2)


def test_evolve_zero_generator():
    rho0 = basis_state(QUBIT, 1)
    out = evolve(Superoperator(2, np.zeros((4, 4))), rho0, t_final=1.0)
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
    report = steady_state_on(liouv, QUBIT)
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
        for k in range(b.shape[1]):
            assert abs(np.trace(unvec(b[:, k]))) <= 1e-12


def test_evolve_dimension_mismatch():
    with pytest.raises(ValueError):
        evolve(Superoperator(3, np.zeros((9, 9))), basis_state(QUBIT, 0), 1.0)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_traceless_columns_match_dense_basis(rng, d):
    # M = B_rᵀ·L_r·B_r and L·B are L on two orthonormal bases of the
    # trace-zero subspace, which L maps into, so their singular values agree
    n = d * d
    liouv = random_lindblad(rng, d)
    m, _ = trace_zero_system(liouv)
    assert m.shape == (n - 1, n - 1)
    want = np.linalg.svd(liouv.mat @ traceless_basis(d), compute_uv=False)
    assert np.abs(np.linalg.svd(m, compute_uv=False) - want).max() <= 1e-13 * want[0]


def matched_distance(a, b) -> float:
    """Largest distance between the two spectra under their best pairing."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_real_restriction_spectrum_matches_dense_basis(rng, d):
    basis = traceless_basis(d)
    for _ in range(3):
        liouv = random_lindblad(rng, d)
        m, _ = trace_zero_system(liouv)
        want = np.linalg.eigvals(basis.conj().T @ liouv.mat @ basis)
        assert matched_distance(np.linalg.eigvals(m), want) <= 1e-12 * np.abs(want).max()


def test_spectral_gap_matches_dense_restriction():
    for name, spec in sorted(bundled_models().items()):
        space, h, terms = build_model(spec)
        liouv = assemble(h, terms)
        basis = traceless_basis(liouv.dim)
        eigs = np.linalg.eigvals(basis.conj().T @ liouv.mat @ basis)
        assert spectral_gap(liouv) == pytest.approx(np.abs(eigs.real).min(), rel=0.1), name


def test_steady_state_one_level():
    report = steady_state_on(Superoperator(1, np.zeros((1, 1))), HilbertSpace((1,)))
    assert report.unique
    assert report.rho.mat.tolist() == [[1.0]]
    assert report.residual == 0.0


def random_lindblad(rng, d, n_jumps=3):
    """Random Hermiticity-preserving generator: random h, diagonal jump terms
    and one Hermitian-paired cross term."""
    ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n_jumps)]
    terms = [DissipatorTerm(a, a, float(rng.uniform(0.1, 1.0))) for a in ops]
    terms += [DissipatorTerm(ops[0], ops[1], 0.05), DissipatorTerm(ops[1], ops[0], 0.05)]
    return assemble(random_hermitian(rng, d), terms)


def stacked_lstsq_oracle(liouv):
    """The complex solve: [L; vec(I)†]·vec(ρ) = [0; 1] by least squares, then
    hermitize, clamp and renormalize."""
    d = liouv.dim
    stacked = np.vstack([liouv.mat, vec(np.eye(d, dtype=complex))[None, :]])
    rhs = np.zeros(d * d + 1, dtype=complex)
    rhs[-1] = 1.0
    x, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    w, v = np.linalg.eigh(hermitize(unvec(x)))
    rho = hermitize((v * np.clip(w, 0.0, None)) @ v.conj().T)
    return rho / np.trace(rho).real


def bare_svd_unique(liouv) -> bool:
    svals = np.linalg.svd(liouv.mat @ traceless_basis(liouv.dim), compute_uv=False)
    return bool(svals[-1] > UNIQUENESS_TOL * svals[0])


def real_form(monkeypatch, lmat):
    """L_r of the builder on a dense L, and the hermiticity defect it checks,
    its largest imaginary entry of U†LU; the check itself is passed, so that
    L need not preserve hermiticity."""
    honest, defects = steady._restrict, []

    def restrict(lr, defect, scale):
        defects.append(defect)
        return honest(lr, 0.0, scale)

    with monkeypatch.context() as patch:
        patch.setattr(steady, "_restrict", restrict)
        lr = steady._dense_system(Superoperator(round(len(lmat) ** 0.5), lmat))[0]
    return lr, defects[0]


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_real_form_matches_dense_basis(rng, monkeypatch, d):
    u = hermitian_basis(d)
    assert np.abs(u.conj().T @ u - np.eye(d * d)).max() <= 1e-14
    liouv = random_lindblad(rng, d)
    oracle = system_oracle(liouv.mat)[0]
    scale = max(1.0, liouv.norm_inf())
    assert np.abs(oracle.imag).max() <= 1e-14 * scale
    lr, defect = real_form(monkeypatch, liouv.mat)
    assert defect <= 1e-14 * scale
    assert np.abs(lr - oracle.real).max() <= 1e-14 * scale
    # any complex trace-preserving matrix (the builder checks the trace): the
    # transform itself, its imaginary part seen through the defect
    n = d * d
    lmat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w = vec(np.eye(d)) / np.sqrt(d)
    lmat -= np.outer(w, w @ lmat)
    oracle = u.conj().T @ lmat @ u
    lr, defect = real_form(monkeypatch, lmat)
    assert np.abs(lr - oracle.real).max() <= 1e-13
    assert abs(defect - np.abs(oracle.imag).max()) <= 1e-13 and defect > 0.1


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_from_real_round_trips(rng, d):
    c = rng.normal(size=d * d)
    rho = _from_real(c, d)
    assert np.array_equal(rho, rho.conj().T)
    assert np.abs(rho - unvec(hermitian_basis(d) @ c)).max() <= 1e-15
    # and back: the coordinates of a Hermitian matrix are real
    coords = hermitian_basis(d).conj().T @ vec(rho)
    assert np.abs(coords - c).max() <= 1e-15


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_trace_zero_coordinates_match_dense_basis(rng, d):
    b_r, u = trace_zero_basis(d), hermitian_basis(d)
    rho = np.array([random_hermitian(rng, d) for _ in range(5)])
    want = np.array([b_r.T @ (u.conj().T @ vec(a)).real for a in rho])
    scale = max(1.0, np.abs(rho).max())
    # assert_allclose also checks the shapes, (5, 0) and (1, 0) at d = 1
    np.testing.assert_allclose(_trace_zero_coordinates(rho), want, rtol=0.0, atol=1e-14 * scale)
    np.testing.assert_allclose(_trace_zero_coordinates(rho[2:3]), want[2:3], rtol=0.0, atol=1e-14 * scale)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_states_of_a_point_do_not_depend_on_its_stack(rng, d):
    liouvs = [random_lindblad(rng, d) for _ in range(64)]
    m, r = (np.array(a) for a in zip(*map(trace_zero_system, liouvs)))
    c = _restricted_coordinates(np.array([np.linalg.solve(mk, rk) for mk, rk in zip(m, r)]), d)
    stacked = _states(m, r, c, lambda k: liouvs[k].norm_inf())
    y = _trace_zero_coordinates(stacked[0])
    for k in range(len(liouvs)):
        alone = _states(m[k:k + 1], r[k:k + 1], c[k:k + 1], lambda _: liouvs[k].norm_inf())
        # state, smallest eigenvalue and residual, to the bit
        for got, want in zip(alone, stacked):
            assert got.tobytes() == want[k:k + 1].tobytes()
        assert _trace_zero_coordinates(alone[0]).tobytes() == y[k:k + 1].tobytes()


def coordinates_of_spectra(rng, spectra):
    """Hermitian-basis coordinates of U·diag(λ)·U†, one random U per spectrum λ."""
    d = len(spectra[0])
    mats = []
    for lam in spectra:
        u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        mats.append((u * lam) @ u.conj().T)
    return np.array([(hermitian_basis(d).conj().T @ vec(a)).real for a in mats])


def test_states_clamp_only_states_with_a_negative_eigenvalue(rng):
    # the system's M and r are zero, so every residual is 0: only the clamp acts
    d = 4
    spectra = [[-0.5 * CLAMP_TOL, 0.2, 0.3, 0.5], [0.1, 0.2, 0.3, 0.4], [-1e-12, 1e-3, 0.4, 0.599],
               [0.25, 0.25, 0.25, 0.25], [-0.9 * CLAMP_TOL, 0.0, 0.5, 0.5], [1e-9, 0.2, 0.3, 0.5]]
    c = coordinates_of_spectra(rng, spectra)
    raw = _from_real(c, d)
    w = np.linalg.eigvalsh(raw)
    clamped = w[:, 0] < 0
    assert clamped.tolist() == [True, False, True, False, True, False]
    zeros = np.zeros((len(c), d * d - 1))
    m = np.zeros((len(c), d * d - 1, d * d - 1))
    rho, min_eig, residual = _states(m, zeros, c, lambda _: 1.0)
    assert min_eig.tobytes() == w.min(axis=1).tobytes()
    assert not residual.any()
    for k in range(len(c)):  # clamped or not, a state does not depend on its stack
        alone = _states(m[k:k + 1], zeros[k:k + 1], c[k:k + 1], lambda _: 1.0)
        for got, want in zip(alone, (rho, min_eig, residual)):
            assert got.tobytes() == want[k:k + 1].tobytes()
    kept = raw[~clamped] / raw[~clamped].trace(axis1=1, axis2=2).real[:, None, None]
    assert rho[~clamped].tobytes() == kept.tobytes()
    DensityMatrix(HilbertSpace((d,)), rho)
    assert np.linalg.eigvalsh(rho[clamped]).min() >= -1e-15
    assert np.abs(rho[clamped].trace(axis1=1, axis2=2) - 1.0).max() <= 1e-15
    assert np.abs(rho[clamped] - raw[clamped]).max() <= 2 * CLAMP_TOL
    c_bad = coordinates_of_spectra(rng, [[-2 * CLAMP_TOL, 0.2, 0.3, 0.5]])
    with pytest.raises(SteadyStateError, match="clamp tolerance"):
        _states(m[:2], zeros[:2], np.concatenate([c[1:2], c_bad]), lambda _: 1.0)


def test_hermitian_basis_cache_is_quadratic():
    # the coordinates' index and the Householder block, O(d²) together: no
    # permutation index of L and no dense trace-zero map, both O(d⁴)
    assert sum(a.nbytes for a in steady._hermitian_basis(48)) < 64 * 48**2
    assert not hasattr(steady, "_trace_zero_map")


@pytest.mark.parametrize("name", sorted(bundled_models()))
def test_steady_state_matches_complex_stacked_solve(name):
    space, h, terms = build_model(bundled_models()[name])
    liouv = assemble(h, terms)
    report = steady_state_on(liouv, space)
    assert report.unique
    assert np.abs(report.rho.mat - stacked_lstsq_oracle(liouv)).max() <= 1e-13


def near_dark_liouvillian(eps):
    """Collective decay of two qubits plus local decay eps on qubit 0: the
    singlet is dark at eps = 0, and the gap closes like eps."""
    space, liouv = collective_decay_liouvillian()
    p1 = embed(SIGMA_MINUS, 0, space)
    return Superoperator(4, liouv.mat + assemble(np.zeros((4, 4)), [DissipatorTerm(p1, p1, eps)]).mat)


def test_uniqueness_decision_equals_bare_svd(rng, monkeypatch):
    outcomes = []
    certify = steady._certified_unique

    def spy(bound):
        outcomes.append(certify(bound))
        return outcomes[-1]

    monkeypatch.setattr(steady, "_certified_unique", spy)
    generators = [random_lindblad(rng, d) for d in (2, 3, 4) for _ in range(4)]
    # two decoupled decay channels: |0> and |2> are both steady
    a = np.zeros((4, 4), dtype=complex)
    a[0, 1] = 1.0
    b = np.zeros((4, 4), dtype=complex)
    b[2, 3] = 1.0
    generators.append(assemble(np.diag([0.3, -0.2, 0.0, 0.0]), [DissipatorTerm(a, a, 0.5), DissipatorTerm(b, b, 0.5)]))
    # at eps = 1e-11 the LU's state of the non-unique M fails the clamp; the
    # report carries the minimum-norm state instead
    generators += [near_dark_liouvillian(eps) for eps in (1e-1, 1e-4, 1e-7, 1e-9, 1e-11, 1e-13, 0.0)]
    decisions = []
    for liouv in generators:
        report = steady_state_on(liouv, HilbertSpace((liouv.dim,)))
        assert report.unique == bare_svd_unique(liouv)
        decisions.append(report.unique)
    assert True in outcomes and False in outcomes  # the exact SVD was consulted
    assert True in decisions and False in decisions
    assert steady_state_on(near_dark_liouvillian(1e-7), HilbertSpace((2, 2))).unique


def non_hermiticity_preserving(rng):
    """Decay plus an unpaired cross term: maps some Hermitian ρ to non-Hermitian ones."""
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    terms = [DissipatorTerm(SIGMA_MINUS, SIGMA_MINUS, 0.5), DissipatorTerm(a, SIGMA_MINUS, 0.3)]
    return assemble(np.zeros((2, 2)), terms)


def test_steady_state_rejects_non_hermiticity_preserving_generator(rng):
    with pytest.raises(SteadyStateError, match="hermiticity"):
        steady_state_on(non_hermiticity_preserving(rng), QUBIT)


def test_steady_state_rejects_generator_that_is_not_trace_preserving():
    # the residual on (M, r) cannot see L's trace row, so the trace is checked first
    leaky = Superoperator(2, decay_liouvillian().mat - 0.1 * np.eye(4))
    with pytest.raises(AssemblyError, match="not trace preserving"):
        steady_state_on(leaky, QUBIT)


def test_gap_and_propagation_reject_non_hermiticity_preserving_generator(rng):
    liouv = non_hermiticity_preserving(rng)
    with pytest.raises(SteadyStateError, match="hermiticity"):
        spectral_gap(liouv)
    with pytest.raises(SteadyStateError, match="hermiticity"):
        evolve_to_steady(liouv, QUBIT)


def restricted(liouv, space):
    """steady_state_restricted on a stack of one point; its report, and
    whether the point was not certified (its SVD decided it)."""
    m, r = trace_zero_system(liouv)
    report = steady_state_restricted(space, m[None], r[None], lambda _: liouv.norm_inf())
    return report, not steady._certified_unique(report.uniqueness_bound[0])


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_trace_zero_system_matches_dense_basis(rng, d):
    # the state from (M, r) against the dense complex solve Bᵀ·L·B·y = −Bᵀ·L·vec(I/d),
    # with B the oracle basis of the trace-zero subspace (M's spectrum is
    # pinned by test_real_restriction_spectrum_matches_dense_basis)
    liouv = random_lindblad(rng, d)
    b = traceless_basis(d)
    c_i = vec(np.eye(d, dtype=complex) / d)
    y = np.linalg.solve(b.conj().T @ liouv.mat @ b, -b.conj().T @ liouv.mat @ c_i)
    report, uncertified = restricted(liouv, HilbertSpace((d,)))
    assert not uncertified
    assert np.abs(report.rho.mat[0] - unvec(c_i + b @ y)).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_restricted_solve_matches_steady_state_on(rng, d):
    space = HilbertSpace((d,))
    liouv = random_lindblad(rng, d)
    report, uncertified = restricted(liouv, space)
    reference = steady_state_on(liouv, space)
    assert not uncertified and report.unique[0] and reference.unique
    assert np.abs(report.rho.mat[0] - reference.rho.mat).max() <= 1e-12
    assert report.residual[0] <= 1e-12 * max(1.0, liouv.norm_inf())
    # the two routes form the same certificate bound
    assert report.uniqueness_bound[0] == pytest.approx(reference.uniqueness_bound, rel=1e-10)
    assert 1.0 <= report.uniqueness_bound[0] < 1e-2 / UNIQUENESS_TOL


def test_restricted_solve_declines_what_it_cannot_certify(monkeypatch):
    # a dark singlet: M is singular, and no bound is formed on either route
    space, liouv = collective_decay_liouvillian()
    report, uncertified = restricted(liouv, space)
    assert uncertified and not report.unique[0] and report.uniqueness_bound[0] == np.inf
    reference = steady_state_on(liouv, space)
    assert not reference.unique and reference.uniqueness_bound == np.inf
    # a nearly dark one: M is invertible, but its bound does not certify
    liouv = near_dark_liouvillian(1e-9)
    assert restricted(liouv, space)[1]
    # a well-conditioned one that a tighter threshold no longer certifies
    liouv = near_dark_liouvillian(1e-1)
    assert not restricted(liouv, space)[1]
    monkeypatch.setattr(steady, "UNIQUENESS_TOL", 1e-2)
    assert restricted(liouv, space)[1]


def test_restricted_solve_checks_each_point_of_a_stack(rng):
    # a stack of points gives, per point, the state of its own stack of one,
    # bit for bit; the dark point is decided by its own SVD
    space = HilbertSpace((4,))
    points = [random_lindblad(rng, 4) for _ in range(3)]
    _, dark = collective_decay_liouvillian()
    points.insert(1, dark)
    systems = [trace_zero_system(l) for l in points]
    report = steady_state_restricted(space, np.array([m for m, _ in systems]), np.array([r for _, r in systems]),
                                     lambda k: points[k].norm_inf())
    assert report.unique.tolist() == [True, False, True, True]
    for k, liouv in enumerate(points):
        alone, _ = restricted(liouv, space)
        assert np.array_equal(report.rho.mat[k], alone.rho.mat[0])
        assert report.residual[k] == alone.residual[0] and report.uniqueness_bound[k] == alone.uniqueness_bound[0]


def test_trace_zero_system_rejects_non_hermiticity_preserving_generator(rng):
    with pytest.raises(SteadyStateError, match="hermiticity"):
        trace_zero_system(non_hermiticity_preserving(rng))


def stack_pass(m, r, bounds):
    """steady._solve_stack on a stack (m, r) of k×k systems, any k, with the
    tail that makes states of its y stubbed out: returns the y stack it
    hands on, its unique flags and its bounds, and appends the bound each
    point asks _certified_unique about to ``bounds``."""
    certify = steady._certified_unique
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(steady, "_certified_unique", lambda bound: bounds.append(bound) or certify(bound))
        patch.setattr(steady, "_restricted_coordinates", lambda y, d: y)
        patch.setattr(steady, "_states", lambda m, r, c, norm: (c, None, None))
        y, _, _, unique, bound = steady._solve_stack(0, m, r, None)
    assert np.array_equal(bound, bounds[-len(m):], equal_nan=True)
    return y, unique, bound


@pytest.mark.parametrize("order", "CF")
@pytest.mark.parametrize("k", [0, 1, 3, 15, 63])
def test_stack_pass_equals_the_per_point_certificate(k, order):
    # each point's y and bound are those of its own LU certificate, bit for
    # bit, whether the stack is in C order (as _point_report passes m[None])
    # or each matrix in Fortran order (as CompiledModel.system passes them),
    # and whatever the stack: alone, or in the reversed stack. Point 2 is
    # exactly singular: getrf stops, no bound is formed, and its SVD finds it
    # not unique. At k = 0 (a one-level L) no LU runs and every point is unique
    rng = np.random.default_rng(k)
    m = rng.normal(size=(5, k, k)) * 10.0 ** np.array([0, -3, 0, 4, 1])[:, None, None]
    m[2, :, -1:] = 0.0
    r = rng.normal(size=(5, k))
    if order == "F":
        m = np.ascontiguousarray(m.swapaxes(1, 2)).swapaxes(1, 2)
    y, unique, bound = stack_pass(m, r, [])
    for p in range(5):
        with np.errstate(over="ignore", invalid="ignore"):
            want_y, want = certificate_oracle(m[p], r[p])
        assert bound[p] == want
        if want_y is None:
            assert k and p == 2 and want == np.inf and not unique[p]
        else:
            assert unique[p] and y[p].tobytes() == want_y.tobytes()
        alone = stack_pass(m[p:p + 1], r[p:p + 1], [])
        assert alone[0].tobytes() == y[p:p + 1].tobytes() and alone[2].tobytes() == bound[p:p + 1].tobytes()
    reversed_y, _, reversed_bound = stack_pass(m[::-1], r[::-1], [])
    assert reversed_y[::-1].tobytes() == y.tobytes() and reversed_bound[::-1].tobytes() == bound.tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(-150, 200), st.sampled_from("CF"))
@example(seed=0, k=9, exponent=155, order="F")  # ‖M‖_F² overflows: the bound is inf
@example(seed=0, k=9, exponent=200, order="C")  # ‖M⁻¹‖_F² underflows as well: the bound is nan
def test_stack_bound_is_the_product_of_numpy_norms(seed, k, exponent, order):
    # through the stack pass, the bound keeps the bits of
    # np.linalg.norm(M)·np.linalg.norm(M⁻¹) and y those of getrs, for M in
    # either memory order; the pass stays silent where the bound overflows,
    # which then does not certify, and a point whose ‖M‖_F overflows fails
    rng = np.random.default_rng(seed)
    m = np.asarray(rng.normal(size=(k, k)) * 10.0**exponent, order=order)
    r = rng.normal(size=k)
    with np.errstate(over="ignore", invalid="ignore"):
        want_y, want = certificate_oracle(m, r)
        m_norm = float(np.linalg.norm(m))
    assert want_y is not None
    bounds = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if m_norm == np.inf:
            with pytest.raises(SteadyStateError, match="overflows"):
                stack_pass(m[None], r[None], bounds)
        else:
            y, unique, _ = stack_pass(m[None], r[None], bounds)
            assert unique[0] and y[0].tobytes() == want_y.tobytes()
    assert bounds == [want] or (np.isnan(bounds[0]) and np.isnan(want))
    if m_norm == np.inf:
        assert not steady._certified_unique(bounds[0])


def test_a_certified_stack_makes_one_lapack_pass(rng, monkeypatch):
    # B certified points: B factorizations, B inversions and no SVD
    points = [random_lindblad(rng, 4) for _ in range(6)]
    m, r = (np.array(a) for a in zip(*map(trace_zero_system, points)))
    calls = lapack_calls(monkeypatch)
    report = steady_state_restricted(HilbertSpace((4,)), m, r, lambda k: points[k].norm_inf())
    assert all(map(steady._certified_unique, report.uniqueness_bound))
    assert calls == {"getrf": 6, "getri": 6, "svd": 0}


def test_steady_is_the_only_module_that_imports_scipy():
    # scipy stays behind one module, so that replacing it touches one file; at
    # import that module loads only the _flapack extension, by file location,
    # and its one import statement of scipy is the expm that evolve imports
    importers, statements = set(), []
    for path in sorted((Path(steady.__file__).parent).glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                importers.add(path.stem)
                statements.append((scope.get(id(node)), ast.unparse(node)))
    assert importers == {"steady"}
    assert statements == [("evolve", "from scipy.linalg import expm")]


FLAPACK_IDENTITY = """
import sys
first = sys.argv[1]
if first == "scipy":
    import scipy.linalg.lapack
from polariton_ring import steady
import scipy.linalg.lapack as lapack
ours = {"dgetrf": steady._getrf, "dgetrs": steady._getrs, "dgetri": steady._getri,
        "dgelsy": steady._flapack.dgelsy, "zgelsy": steady._flapack.zgelsy}
assert sys.modules["scipy.linalg._flapack"] is steady._flapack
for name, routine in ours.items():
    assert getattr(lapack, name) is routine, name
print("shared")
"""


@pytest.mark.parametrize("first", ["polariton_ring", "scipy"])
def test_steady_shares_scipys_lapack_module_in_either_import_order(first):
    # the extension is registered under its canonical name, so an import of
    # scipy.linalg after the package, or before it, finds the same module
    # object and the same routines: the .so is initialised once
    done = run_fresh(FLAPACK_IDENTITY, first)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["shared"]


def test_a_missing_lapack_extension_fails_naming_its_path(tmp_path):
    # one route: where _flapack is not on disk there is no fallback to scipy.linalg
    with pytest.raises(ImportError) as info:
        steady._load_flapack(tmp_path)
    path = Path(info.value.path)
    assert path.parent == tmp_path / "linalg" and path.name.startswith("_flapack")
    assert str(path) in str(info.value)
    # where it is, a second load returns the registered module, not a new one
    assert steady._load_flapack(steady._scipy_dir()) is steady._flapack


# --- the entries of (h, terms) against the assembled L -------------------------


def assert_system_is_the_dense_routes(h, terms, exact=True):
    """generator_system's (M, r) equals that of the dense route, the builder
    on the nonzeros of the assembled L, to the bit, or, with ``exact`` False,
    to 16·d·ε·max(‖L‖_∞, 1). The two routes give the builder the same
    entries (test_generator_entries_are_assembles_to_the_bit) in another
    order, so where entries of L other than a conjugate pair meet in one
    entry of the real form, as with random dense operators, they are added
    (at most four, each below ‖L‖_∞) in another order, and the Householder
    tail mixes d such entries. ‖L‖_∞ is summed as Superoperator.norm_inf
    sums it, so it is always equal."""
    m, r, scale = generator_system(h, terms)
    want_m, want_r, want_scale = steady._dense_system(assemble(h, terms))[1:]
    assert scale == want_scale
    assert m.shape == want_m.shape and r.shape == want_r.shape
    if exact:
        assert np.array_equal(m, want_m) and np.array_equal(r, want_r)
    else:
        bound = 16 * len(h) * np.finfo(float).eps * max(want_scale, 1.0)
        assert max(np.abs(m - want_m).max(), np.abs(r - want_r).max()) <= bound


def assert_entries_are_assembles(h, terms):
    """The entries of :func:`steady._generator_entries`, written into a zero
    d²×d² array, are the assembled L to the bit, signed zeros included."""
    at, value = _generator_entries(h, terms)
    n = len(h) ** 2
    mat = np.zeros(n * n, dtype=complex)
    mat[at] = value
    assert len(np.unique(at)) == len(at)
    assert mat.reshape(n, n).tobytes() == assemble(h, terms).mat.tobytes()


def test_generator_entries_are_assembles_to_the_bit(rng):
    for spec in bundled_models().values():
        assert_entries_are_assembles(*build_model(spec)[1:])
    for model in sorted(EFFECTIVE):
        pieces = model_pieces(model)
        for _ in range(3):
            c = rng.uniform(0.0, 2.0, len(pieces.hams) + len(pieces.groups))
            assert_entries_are_assembles(*pieces.build(c)[1:])
    # dense random operators, cross terms and zero weights
    for d in (1, 2, 3):
        ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
        terms = [DissipatorTerm(a, a, 0.7) for a in ops] + [DissipatorTerm(ops[0], ops[1], 0.05),
                                                           DissipatorTerm(ops[1], ops[0], 0.05),
                                                           DissipatorTerm(ops[1], ops[1], 0.0)]
        assert_entries_are_assembles(random_hermitian(rng, d), terms)
        assert_entries_are_assembles(random_hermitian(rng, d), [])


@pytest.mark.parametrize("model", sorted(EFFECTIVE))
def test_generator_system_is_the_dense_routes_on_every_effective_row(rng, model):
    # random coefficients on every piece (every upward group on, n_p > 0), and
    # the same rows with the upward groups off (n_p = 0), which build leaves out
    pieces = model_pieces(model)
    n_up = EFFECTIVE[model].n_sites
    for _ in range(10):
        c = rng.uniform(0.0, 2.0, len(pieces.hams) + len(pieces.groups))
        assert_system_is_the_dense_routes(*pieces.build(c)[1:])
        c[-n_up:] = 0.0
        assert_system_is_the_dense_routes(*pieces.build(c)[1:])


@pytest.mark.parametrize("n_c, n_p", [(0.0, 0.0), (0.1, 0.2), (0.3, 0.0)])
@pytest.mark.parametrize("geometry, n_boson", [("pair1", 2), ("pair1", 3), ("pair3", 2)])
def test_generator_system_is_the_dense_routes_on_micro_models(geometry, n_boson, n_c, n_p):
    # warm guides and pumped qubits add upward terms whose addends meet the
    # downward ones in the same entries of L; pair3 at n_boson 3 (d = 108) is
    # over MICRO_L_BYTES_BUDGET
    base = validation_micro_spec().params if geometry == "pair1" else three_guide_pair_micro(0.05)
    assert_system_is_the_dense_routes(*build_model(ModelSpec("micro", replace(base, n_boson=n_boson, n_c=n_c,
                                                                              n_p=n_p)))[1:])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_generator_system_matches_dense_route_with_cross_and_zero_weight_terms(rng, d):
    ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3)]
    terms = [DissipatorTerm(a, a, float(rng.uniform(0.1, 1.0))) for a in ops]
    terms += [DissipatorTerm(ops[0], ops[1], 0.05), DissipatorTerm(ops[1], ops[0], 0.05)]
    h = random_hermitian(rng, d)
    assert_system_is_the_dense_routes(h, terms, exact=False)
    zero = [DissipatorTerm(ops[2], ops[0], 0.0), DissipatorTerm(ops[0], ops[2], 0.0),
            DissipatorTerm(ops[1], ops[1], 0.0)]
    assert_system_is_the_dense_routes(h, zero[:2] + terms + zero[2:], exact=False)
    # with a sparse model's operators, zero-weight terms leave every bit alone
    _, h, terms = build_model(thermal_pair_spec(x=1.0, n_p=0.1))
    zero = [DissipatorTerm(t.right, t.left, 0.0) for t in terms]
    assert_system_is_the_dense_routes(h, zero + terms)


def test_generator_system_of_one_level():
    terms = [DissipatorTerm(np.ones((1, 1)), np.ones((1, 1)), 0.5)]
    m, r, scale = generator_system(np.array([[0.3]]), terms)
    assert m.shape == (0, 0) and r.shape == (0,) and scale == 0.0
    assert_system_is_the_dense_routes(np.array([[0.3]]), terms)
    report = steady_state_of(np.array([[0.3]]), terms, HilbertSpace((1,)))
    assert report.unique and report.rho.mat.tolist() == [[1.0]]


def solve_error(solve):
    """What ``solve`` raises, or None; RuntimeWarnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            solve()
        except Exception as exc:
            return exc
    return None


def generators_that_fail(rng):
    d = 2
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    decay = DissipatorTerm(SIGMA_MINUS, SIGMA_MINUS, 0.5)
    return {
        "h-not-hermitian": (np.array([[0.0, 1.0], [0.0, 0.0]]), [decay]),
        "h-not-finite": (np.array([[np.inf, 0.0], [0.0, 0.0]]), [decay]),
        "term-dimension": (np.zeros((2, 2)), [decay, DissipatorTerm(np.eye(3), np.eye(3), 0.1)]),
        "unpaired-cross-term": (np.zeros((2, 2)), [decay, DissipatorTerm(a, SIGMA_MINUS, 0.3)]),
        # rounding of rates near 1e9 leaves L's trace row above TRACE_PRESERVATION_TOL
        "trace-defect": (random_hermitian(rng, d), [DissipatorTerm(a, a, 1e9)]),
        # 2w overflows: L has non-finite entries
        "rate-overflow": (np.zeros((2, 2)), [DissipatorTerm(SIGMA_MINUS, SIGMA_MINUS, 1e308)]),
    }


@pytest.mark.parametrize("case", ["h-not-hermitian", "h-not-finite", "term-dimension", "unpaired-cross-term",
                                  "trace-defect", "rate-overflow"])
def test_generator_system_raises_what_the_dense_route_raises(rng, case):
    h, terms = generators_that_fail(rng)[case]
    space = HilbertSpace((2,))
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)  # the dense route is loud where L overflows
        want = solve_error(lambda: steady_state_on(assemble(h, terms), space))
    got = solve_error(lambda: steady_state_of(h, terms, space))  # and quiet
    assert want is not None and type(got) is type(want), (got, want)
    if case == "trace-defect":  # the trace row is summed as the dense route sums it
        assert str(got) == str(want)
