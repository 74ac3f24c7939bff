import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import bundled_models, hermiticity_defect, random_density_mat, random_hermitian
from polariton_ring.linalg import NonHermitianError
from polariton_ring.models import SIGMA_MINUS, build_model
from polariton_ring.superop import (
    DissipatorTerm,
    Superoperator,
    assemble,
    unvec,
    vec,
)


def test_vec_is_column_stacking():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vec(m), np.array([1, 3, 2, 4], dtype=complex))
    assert np.array_equal(unvec(vec(m)), m)


def test_commutator_zero_hamiltonian():
    s = assemble(np.zeros((2, 2)), [])
    assert np.abs(s.mat).max() == 0.0


def test_commutator_phase_rotation():
    # h = diag(0, w): |0><1| picks up +iw
    w = 0.7
    s = assemble(np.diag([0.0, w]), [])
    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 1] = 1.0
    assert np.abs(s.apply(e01) - 1j * w * e01).max() <= 1e-14


@given(st.integers(0, 2**32 - 1))
def test_commutator_matches_direct(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 3)
    rho = random_density_mat(rng, 3)
    got = assemble(h, []).apply(rho)
    want = -1j * (h @ rho - rho @ h)
    assert np.abs(got - want).max() <= 1e-12


def test_commutator_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        assemble(np.array([[0, 1], [0, 0]], dtype=complex), [])


def test_dissipator_two_level_decay():
    # weight kappa/2 gives population decay at rate kappa
    kappa = 2.0
    s = assemble(np.zeros((2, 2)), [DissipatorTerm(SIGMA_MINUS, SIGMA_MINUS, kappa / 2)])
    excited = np.diag([0.0, 1.0]).astype(complex)
    drho = s.apply(excited)
    assert abs(drho[1, 1] - (-kappa)) <= 1e-14
    assert abs(drho[0, 0] - kappa) <= 1e-14


def test_dissipator_zero_ops():
    s = assemble(np.zeros((2, 2)), [DissipatorTerm(np.zeros((2, 2)), np.zeros((2, 2)), 1.0)])
    assert np.abs(s.mat).max() == 0.0


def direct_generator(h, terms, rho):
    """−i[h, ρ] + Σ w (2 LρR† − R†Lρ − ρR†L), evaluated on ρ directly."""
    out = -1j * (h @ rho - rho @ h)
    for t in terms:
        r_dag_l = t.right.conj().T @ t.left
        out = out + t.weight * (2 * t.left @ rho @ t.right.conj().T - r_dag_l @ rho - rho @ r_dag_l)
    return out


@given(st.integers(0, 2**32 - 1))
def test_dissipator_cross_term_matches_direct(seed):
    rng = np.random.default_rng(seed)
    from polariton_ring.linalg import HilbertSpace, embed

    space = HilbertSpace((2, 2))
    p1 = embed(SIGMA_MINUS, 0, space)
    p2 = embed(SIGMA_MINUS, 1, space)
    w = 0.37
    rho = random_density_mat(rng, 4)
    zero = np.zeros((4, 4))
    cross = [DissipatorTerm(p1, p2, w)]
    got = assemble(zero, cross).apply(rho)
    assert np.abs(got - direct_generator(zero, cross, rho)).max() <= 1e-12

    # a random Hamiltonian with diagonal, cross and generic terms in one list
    h = random_hermitian(rng, 4)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mixed = [
        DissipatorTerm(p1, p1, rng.uniform(0, 2)),
        DissipatorTerm(p2.conj().T, p2.conj().T, rng.uniform(0, 2)),
        DissipatorTerm(p1, p2, w),
        DissipatorTerm(p2, p1, w),
        DissipatorTerm(g, p1 + p2, rng.normal()),
        DissipatorTerm(g, g, rng.uniform(0, 2)),
    ]
    got = assemble(h, mixed).apply(rho)
    assert np.abs(got - direct_generator(h, mixed, rho)).max() <= 1e-12


def test_dissipator_term_validation():
    with pytest.raises(ValueError):
        DissipatorTerm(SIGMA_MINUS, SIGMA_MINUS, -0.5)  # diagonal must be >= 0
    with pytest.raises(ValueError):
        DissipatorTerm(SIGMA_MINUS, np.eye(3), 1.0)
    # cross terms may carry negative weight
    DissipatorTerm(SIGMA_MINUS, SIGMA_MINUS.conj().T, -0.5)


def test_assemble_empty_is_zero():
    s = assemble(np.zeros((2, 2)), [])
    assert np.abs(s.mat).max() == 0.0


def test_assemble_single_qubit_decay_oracle():
    # vec ordering [rho00, rho10, rho01, rho11]:
    # rho00' = k rho11, rho11' = -k rho11, coherences decay at k/2
    kappa = 1.3
    s = assemble(np.zeros((2, 2)), [DissipatorTerm(SIGMA_MINUS, SIGMA_MINUS, kappa / 2)])
    oracle = np.array(
        [
            [0, 0, 0, kappa],
            [0, -kappa / 2, 0, 0],
            [0, 0, -kappa / 2, 0],
            [0, 0, 0, -kappa],
        ],
        dtype=complex,
    )
    assert np.abs(s.mat - oracle).max() <= 1e-14
    eigs = sorted(np.linalg.eigvals(s.mat).real)
    assert np.allclose(eigs, [-kappa, -kappa / 2, -kappa / 2, 0.0], atol=1e-12)


def test_assemble_ring_trace_preserving():
    space, h, terms = build_model(bundled_models()["fig3_ring"])
    s = assemble(h, terms)
    assert s.mat.shape == (64, 64)
    assert s.trace_defect() <= 1e-10


def test_trace_preservation_all_bundled():
    for name, spec in bundled_models().items():
        space, h, terms = build_model(spec)
        s = assemble(h, terms)
        assert s.trace_defect() <= 1e-10, name


def test_hermiticity_preservation_all_bundled():
    for name, spec in bundled_models().items():
        space, h, terms = build_model(spec)
        s = assemble(h, terms)
        assert hermiticity_defect(s, n_probes=20) <= 1e-10, name


def test_assemble_linearity_exact():
    # dyadic weights and 0/1 entries keep float sums exact, so splitting the
    # term list is bitwise identical
    from polariton_ring.linalg import HilbertSpace, embed

    space = HilbertSpace((2, 2))
    p1 = embed(SIGMA_MINUS, 0, space)
    p2 = embed(SIGMA_MINUS, 1, space)
    h = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
    a = [DissipatorTerm(p1, p1, 0.5)]
    b = [DissipatorTerm(p2, p2, 2.0), DissipatorTerm(p1, p2, 4.0), DissipatorTerm(p2, p1, 4.0)]
    lhs = assemble(h, a + b)
    rhs = assemble(h, a).mat + assemble(np.zeros((4, 4)), b).mat
    assert np.array_equal(lhs.mat, rhs)


def kron_reference_assemble(h, terms):
    """The one-pass formula of ``assemble`` written with ``np.kron``."""
    d = h.shape[0]
    m = np.zeros((d, d), dtype=complex)
    mat = np.zeros((d * d, d * d), dtype=complex)
    for term in terms:
        m += term.weight * (term.right.conj().T @ term.left)
        mat += (2.0 * term.weight) * np.kron(term.right.conj(), term.left)
    eye = np.eye(d, dtype=complex)
    mat += np.kron(eye, -1j * h - m)
    mat += np.kron((1j * h - m).T, eye)
    return mat


@pytest.mark.parametrize("d", [2, 3, 4])
def test_assemble_bitwise_equals_kron_reference(rng, d):
    def op():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    for _ in range(3):
        h = random_hermitian(rng, d)
        a, b, c = op(), op(), op()
        terms = [
            DissipatorTerm(a, a, 0.7),
            DissipatorTerm(b, b, 1.3),
            DissipatorTerm(a, c, -0.4),
            DissipatorTerm(c, a, -0.4),
            DissipatorTerm(b, a, 0.25),
        ]
        assert np.array_equal(assemble(h, terms).mat, kron_reference_assemble(h, terms))


def test_superoperator_shape_validation():
    with pytest.raises(ValueError):
        Superoperator(2, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="shape"):
        Superoperator(2, np.zeros((3, 4, 4)))  # one map, not a stack


def test_superoperator_keeps_and_freezes_the_callers_array():
    # a micro L may be hundreds of MiB, so a complex128 array is kept, not copied
    mat = np.zeros((4, 4), dtype=complex)
    s = Superoperator(2, mat)
    assert s.mat is mat and not mat.flags.writeable


def test_zero_super_apply(rng):
    rho = random_density_mat(rng, 3)
    assert np.abs(Superoperator(3, np.zeros((9, 9))).apply(rho)).max() == 0.0
