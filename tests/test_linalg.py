import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import basis_state, psd_sqrt, random_density_mat, random_hermitian, random_unitary
import scipy.linalg

from polariton_ring.linalg import (
    PSD_TOL,
    DensityMatrix,
    HilbertSpace,
    NonHermitianError,
    _kron,
    _psd_proved,
    embed,
    herm_eig,
    herm_eigvals,
    hermitize,
    partial_trace,
)
from polariton_ring.steady import LSTSQ_COND, lstsq_solve

SM = np.array([[0, 1], [0, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


# --- kron ---------------------------------------------------------------------

def test_kron_identities():
    assert np.array_equal(_kron(I2, I2), np.eye(4))


def test_kron_basis_action():
    # (sigma- x I) |10> = |00>
    ket10 = np.zeros(4)
    ket10[2] = 1.0
    out = _kron(SM, I2) @ ket10
    expected = np.zeros(4)
    expected[0] = 1.0
    assert np.array_equal(out, expected.astype(complex))


def test_kron_scalar_factor():
    assert np.array_equal(_kron(SM, np.array([[2.0]])), np.array([[0, 2], [0, 0]], dtype=complex))


@given(st.integers(0, 2**32 - 1))
def test_kron_associative(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.abs(_kron(_kron(a, b), c) - _kron(a, _kron(b, c))).max() <= 1e-12


@pytest.mark.parametrize("shape_a, shape_b", [((4, 4), (4, 4)), ((2, 3), (3, 2)), ((1, 1), (3, 3)),
                                              ((2, 2), (1, 1)), ((1, 1), (1, 1))])
def test_kron_bitwise_equals_numpy(rng, shape_a, shape_b):
    for _ in range(5):
        a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
        b = rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b)
        want = np.kron(a, b)
        assert np.array_equal(_kron(a, b), want)


# --- embed --------------------------------------------------------------------

def test_embed_site0():
    space = HilbertSpace((2, 2))
    assert np.array_equal(embed(SM, 0, space), np.kron(SM, I2))


def test_embed_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        embed(np.array([[np.nan, 0], [0, 0]]), 0, HilbertSpace((2, 2)))


def test_embed_identity():
    space = HilbertSpace((2, 2))
    assert np.array_equal(embed(I2, 1, space), np.eye(4))


def test_embed_boson_dim():
    a = np.diag(np.sqrt([1.0, 2.0]), 1)
    out = embed(a, 1, HilbertSpace((2, 3, 2)))
    assert out.shape == (12, 12)


def test_embed_errors():
    space = HilbertSpace((2, 2))
    with pytest.raises(ValueError):
        embed(SM, 2, space)
    with pytest.raises(ValueError):
        embed(np.eye(3), 0, space)


# --- partial trace --------------------------------------------------------------

def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return DensityMatrix(HilbertSpace((2, 2)), np.outer(v, v.conj()))


def test_partial_trace_bell_marginal():
    red = partial_trace(bell_state(), [0])
    assert np.abs(red.mat - np.eye(2) / 2).max() <= 1e-12


def test_partial_trace_product_state(rng):
    a = random_density_mat(rng, 2)
    b = random_density_mat(rng, 3)
    rho = DensityMatrix(HilbertSpace((2, 3)), np.kron(a, b))
    assert np.abs(partial_trace(rho, [0]).mat - a).max() <= 1e-12
    assert np.abs(partial_trace(rho, [1]).mat - b).max() <= 1e-12


def brute_force_ptrace(mat, dims, keep):
    """Independent oracle: explicit index summation."""
    n = len(dims)
    drop = [i for i in range(n) if i not in keep]
    d_keep = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((d_keep, d_keep), dtype=complex)

    def unravel(flat):
        idx = []
        for d in reversed(dims):
            idx.append(flat % d)
            flat //= d
        return list(reversed(idx))

    def ravel_keep(idx):
        flat = 0
        for i in keep:
            flat = flat * dims[i] + idx[i]
        return flat

    dim = int(np.prod(dims))
    for r in range(dim):
        ri = unravel(r)
        for c in range(dim):
            ci = unravel(c)
            if all(ri[i] == ci[i] for i in drop):
                out[ravel_keep(ri), ravel_keep(ci)] += mat[r, c]
    return out


def test_partial_trace_matches_summation_oracle(rng):
    dims = (2, 2, 2)
    rho = DensityMatrix(HilbertSpace(dims), random_density_mat(rng, 8))
    for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
        got = partial_trace(rho, keep)
        want = brute_force_ptrace(rho.mat, dims, keep)
        assert np.abs(got.mat - want).max() <= 1e-12
        assert abs(np.trace(got.mat) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(got.mat).min() >= -1e-12


def test_partial_trace_all_factors_identity(rng):
    # keeping every factor, in any order, is the state itself: no copy, no
    # second validation, for one state and for a stack
    one = DensityMatrix(HilbertSpace((2, 3)), random_density_mat(rng, 6))
    stack = DensityMatrix(HilbertSpace((2, 3, 2)), np.array([random_density_mat(rng, 12) for _ in range(3)]))
    for rho, orders in ((one, ([0, 1], [1, 0], (1, 0, 1))), (stack, ([0, 1, 2], [2, 0, 1], range(3)))):
        for keep in orders:
            assert partial_trace(rho, keep) is rho


def test_partial_trace_errors():
    rho = bell_state()
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [5])


def test_partial_trace_mixed_boson_factor(rng):
    dims = (2, 3, 2)
    rho = DensityMatrix(HilbertSpace(dims), random_density_mat(rng, 12))
    got = partial_trace(rho, [0, 2])
    want = brute_force_ptrace(rho.mat, dims, [0, 2])
    assert np.abs(got.mat - want).max() <= 1e-12


# --- herm_eig -------------------------------------------------------------------

def test_herm_eig_diagonal():
    w, _ = herm_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1, 2, 3], atol=1e-14)


def test_herm_eig_sigma_x():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    w, v = herm_eig(sx)
    assert np.allclose(w, [-1, 1], atol=1e-14)
    assert np.abs(v.conj().T @ v - np.eye(2)).max() <= 1e-10


def test_herm_eig_reconstruction(rng):
    a = random_hermitian(rng, 8)
    w, v = herm_eig(a)
    assert np.abs((v * w) @ v.conj().T - a).max() <= 1e-10 * max(1.0, np.abs(a).max())
    assert abs(w.sum() - np.trace(a).real) <= 1e-10
    assert np.abs(v.conj().T @ v - np.eye(8)).max() <= 1e-10


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_herm_eigvals_are_the_eigenvalues_of_herm_eig(rng, scale):
    for a in (random_hermitian(rng, 4, scale), np.array([random_hermitian(rng, 6, scale) for _ in range(5)])):
        assert np.abs(herm_eigvals(a) - herm_eig(a)[0]).max() <= 1e-14 * np.abs(a).max()


def test_herm_eigvals_rejects_what_herm_eig_rejects(rng):
    stack = np.array([random_hermitian(rng, 4) for _ in range(3)])
    stack[1, 0, 1] += 1e-3
    for a in (np.array([[0, 1], [0, 0]], dtype=complex), stack):
        with pytest.raises(NonHermitianError) as want:
            herm_eig(a)
        with pytest.raises(NonHermitianError, match=f"^{re.escape(str(want.value))}$"):
            herm_eigvals(a)


# --- psd_sqrt, the tests' √ρ reference (tests/conftest.py) ----------------------

def test_psd_sqrt_identity():
    assert np.abs(psd_sqrt(np.eye(4)) - np.eye(4)).max() <= 1e-12


def test_psd_sqrt_diagonal():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)


def test_psd_sqrt_squares_back(rng):
    rho = random_density_mat(rng, 6)
    s = psd_sqrt(rho)
    assert np.abs(s @ s - rho).max() <= 1e-8 * np.abs(rho).max()
    assert np.abs(s - s.conj().T).max() == 0.0


def test_psd_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -1e-6]))


# --- steady.lstsq_solve, the compile self-check's reference --------------------

def test_lstsq_identity(rng):
    b = rng.normal(size=5) + 1j * rng.normal(size=5)
    x = lstsq_solve(np.eye(5), b)
    assert np.abs(x - b).max() <= 1e-14
    assert np.linalg.norm(x - b) <= 1e-14


def test_lstsq_overdetermined_consistent(rng):
    m = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    x_true = rng.normal(size=3) + 1j * rng.normal(size=3)
    x = lstsq_solve(m, m @ x_true)
    assert np.abs(x - x_true).max() <= 1e-10
    assert np.linalg.norm(m @ x - m @ x_true) <= 1e-12


def test_lstsq_matches_normal_equations(rng):
    # random well-conditioned square system plus a trace-style extra row
    m = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)) + 8 * np.eye(64)
    m = np.vstack([m, np.ones((1, 64), dtype=complex)])
    b = rng.normal(size=65) + 1j * rng.normal(size=65)
    x = lstsq_solve(m, b)
    x_ne = np.linalg.solve(m.conj().T @ m, m.conj().T @ b)
    assert np.abs(x - x_ne).max() <= 1e-9
    assert abs(np.linalg.norm(m @ x - b) - np.linalg.norm(m @ x_ne - b)) <= 1e-9


def test_lstsq_rank_deficient():
    # two equal columns: every x with x0 + x1 = 1 solves it, and (½, ½) has the least norm
    m = np.zeros((4, 2), dtype=complex)
    m[:, 0] = 1.0
    m[:, 1] = 1.0
    x = lstsq_solve(m, np.ones(4, dtype=complex))
    assert np.abs(x - 0.5).max() <= 1e-15
    assert np.linalg.norm(m @ x - 1.0) <= 1e-15


def test_lstsq_real_system_stays_real(rng):
    m = rng.normal(size=(65, 64)) + 8 * np.eye(65, 64)
    b = rng.normal(size=65)
    x = lstsq_solve(m, b)
    assert x.dtype == np.float64
    x_ref, *_ = np.linalg.lstsq(m, b, rcond=None)
    assert np.abs(x - x_ref).max() <= 1e-12
    assert abs(np.linalg.norm(m @ x - b) - np.linalg.norm(m @ x_ref - b)) <= 1e-12


def test_lstsq_complex_matches_scipy_gelsy(rng):
    # lstsq_solve calls _flapack's gelsy as scipy.linalg.lstsq does, so x is its
    # x to the bit: real and complex, full rank and rank 40 of 64 columns, a 1-D
    # and a 2-D right-hand side, and a real b with a complex m
    for dtype in (float, complex):
        for rank in (64, 40):
            m = rng.normal(size=(65, rank)) @ rng.normal(size=(rank, 64))
            if dtype is complex:
                m = m + 1j * rng.normal(size=(65, rank)) @ rng.normal(size=(rank, 64))
            rhs = [rng.normal(size=65), rng.normal(size=(65, 3))]
            if dtype is complex:
                rhs = [b + 1j * rng.normal(size=b.shape) for b in rhs] + [rng.normal(size=65)]
            for b in rhs:
                x = lstsq_solve(m, b)
                x_ref, *_ = scipy.linalg.lstsq(m, b, cond=LSTSQ_COND, lapack_driver="gelsy")
                assert x.dtype == np.dtype(dtype) and x.shape == (64,) + b.shape[1:]
                assert np.array_equal(x, x_ref), (dtype, rank, b.shape)


@pytest.mark.parametrize("dtype", [float, complex])
def test_lstsq_rank_deficient_both_dtypes(rng, dtype):
    # rank 5 of 8 columns, inconsistent right-hand side: the minimum-norm
    # least-squares solution of numpy's SVD solve
    m = rng.normal(size=(12, 5)) @ rng.normal(size=(5, 8))
    b = rng.normal(size=12)
    if dtype is complex:
        m = m + 1j * rng.normal(size=(12, 5)) @ rng.normal(size=(5, 8))
        b = b + 1j * rng.normal(size=12)
    x = lstsq_solve(m, b)
    x_ref, *_ = np.linalg.lstsq(m, b, rcond=None)
    assert x.dtype == np.dtype(dtype)
    assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
    assert abs(np.linalg.norm(m @ x - b) - np.linalg.norm(m @ x_ref - b)) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("where", ["m", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lstsq_non_finite_rejected(dtype, where, bad):
    m = np.eye(3, dtype=dtype)
    b = np.ones(3, dtype=dtype)
    (m if where == "m" else b)[1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        lstsq_solve(m, b)


def test_lstsq_underdetermined_rejected():
    with pytest.raises(ValueError):
        lstsq_solve(np.ones((2, 3), dtype=complex), np.ones(2, dtype=complex))


# --- DensityMatrix validation -----------------------------------------------------

def test_density_matrix_validation():
    space = HilbertSpace((2,))
    with pytest.raises(NonHermitianError):
        DensityMatrix(space, np.array([[0.5, 1e-3], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        DensityMatrix(space, np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(space, np.diag([1.5, -0.5]).astype(complex))


def test_density_matrix_owns_a_frozen_copy(rng):
    mat = random_density_mat(rng, 4)
    rho = DensityMatrix(HilbertSpace((2, 2)), mat)
    assert mat.flags.writeable and not rho.mat.flags.writeable
    before = rho.mat.copy()
    mat[0, 0] = 7.0
    assert np.array_equal(rho.mat, before)


def test_basis_state():
    rho = basis_state(HilbertSpace((2, 2)), 0)
    assert rho.mat[0, 0] == 1.0
    assert np.trace(rho.mat) == 1.0


def test_hilbert_space_validation():
    with pytest.raises(ValueError):
        HilbertSpace(())
    with pytest.raises(ValueError):
        HilbertSpace((2, 0))
    assert HilbertSpace((2, 3, 2)).dim == 12


# --- stacks of states ----------------------------------------------------------


@pytest.mark.parametrize(
    "spoil, error, message",
    [
        (lambda m: m + np.diag([0.0, 0.0, 1e-3j, 0.0]), NonHermitianError, "state 3 not Hermitian"),
        (lambda m: 1.01 * m, ValueError, "state 3 trace"),
        (lambda m: np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex), ValueError, "state 3 has negative eigenvalue"),
        (lambda m: np.full((4, 4), np.nan), ValueError, "non-finite"),
    ],
    ids=["hermitian", "trace", "psd", "finite"],
)
def test_density_matrix_stack_rejects_one_bad_state(rng, spoil, error, message):
    space = HilbertSpace((2, 2))
    mats = np.array([random_density_mat(rng, 4) for _ in range(5)])
    assert DensityMatrix(space, mats).mat.shape == (5, 4, 4)
    mats[3] = spoil(mats[3])
    with pytest.raises(error, match=message):
        DensityMatrix(space, mats)


def test_partial_trace_of_a_stack_equals_each_state(rng):
    space = HilbertSpace((2, 3, 2))
    mats = np.array([random_density_mat(rng, 12) for _ in range(4)])
    stack = DensityMatrix(space, mats)
    for keep in ((0,), (1,), (0, 2), (1, 2), (0, 1, 2)):
        reduced = partial_trace(stack, keep)
        for k, mat in enumerate(mats):
            assert np.array_equal(reduced.mat[k], partial_trace(DensityMatrix(space, mat), keep).mat)



# --- the positivity test -----------------------------------------------------------


def eigenvalue_rule(mat):
    """The PSD verdict from the eigenvalues alone: the message naming the
    first state with an eigenvalue below −PSD_TOL, or None."""
    lo = np.linalg.eigvalsh(hermitize(mat)).min(axis=-1)
    if lo.min() >= -PSD_TOL:
        return None
    if mat.ndim == 2:
        return f"state has negative eigenvalue {lo:.2e}"
    k = int(np.argmax(lo < -PSD_TOL))
    return f"state {k} has negative eigenvalue {lo[k]:.2e}"


def verdict(mat):
    """DensityMatrix's verdict on ``mat``: its message, or None."""
    d = mat.shape[-1]
    try:
        DensityMatrix(HilbertSpace((d,)), mat)
    except ValueError as exc:
        return str(exc)
    return None


def state_with_min_eigenvalue(rng, d, lam):
    """A unit-trace Hermitian d×d matrix in a random basis whose smallest eigenvalue is ``lam``."""
    w = rng.uniform(0.1, 1.0, d)
    w[0] = 0.0
    w *= (1.0 - lam) / w.sum()
    w[0] = lam
    u = random_unitary(rng, d)
    return hermitize((u * w) @ u.conj().T)


@pytest.mark.parametrize("d", [2, 4, 8, 12, 16])
def test_rank_one_states_are_proved_psd_by_cholesky(rng, d):
    psi = rng.normal(size=(64, d)) + 1j * rng.normal(size=(64, d))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    mats = psi[:, :, None] * psi[:, None, :].conj()
    assert _psd_proved(hermitize(mats))
    assert verdict(mats) is None and eigenvalue_rule(mats) is None


@pytest.mark.parametrize("d", [4, 8, 12])
@pytest.mark.parametrize("scale", [1.0 + 1e-6, 1.0 - 1e-6, 2.0, 0.75, 0.6, 0.5, 0.25, 0.0, -1e-3],
                         ids=lambda s: f"{-s}tol")
def test_psd_verdict_is_the_eigenvalue_rule_near_the_tolerance(rng, d, scale):
    mat = state_with_min_eigenvalue(rng, d, -scale * PSD_TOL)
    assert verdict(mat) == eigenvalue_rule(mat)
    assert (verdict(mat) is None) == (scale < 1.0)
    if scale > 0.5:
        assert not _psd_proved(mat)  # cholesky proves only eigenvalues above −PSD_TOL/2
    if scale < 0.25:
        assert _psd_proved(mat)


def test_half_the_tolerance_is_left_to_the_eigenvalue_rule():
    # λ_min = −PSD_TOL/2 exactly: the shifted matrix is singular, so cholesky
    # cannot prove it, and the eigenvalue rule accepts it
    mat = np.diag([1.0 + PSD_TOL / 2, -PSD_TOL / 2, 0.0, 0.0]).astype(complex)
    assert not _psd_proved(mat)
    assert verdict(mat) is None and eigenvalue_rule(mat) is None


@pytest.mark.parametrize("bad", [[37], [5, 37], [63]], ids=["one", "first-of-two", "last"])
def test_stack_with_a_bad_state_names_it_as_the_eigenvalue_rule_does(rng, bad):
    mats = np.array([random_density_mat(rng, 4) for _ in range(64)])
    assert _psd_proved(mats) and verdict(mats) is None
    for k in bad:
        mats[k] = state_with_min_eigenvalue(rng, 4, -2 * PSD_TOL)
    message = verdict(mats)
    assert message == eigenvalue_rule(mats)
    assert message.startswith(f"state {bad[0]} has negative eigenvalue -2.00e-08")
