"""Steady states of Liouvillians: the trace-constrained linear solve that
every command uses, and exact time propagation with a spectral-gap estimate
for its horizon, which no command calls: the tests compare the solve against
it as an independent reference."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .linalg import HERM_TOL, DensityMatrix, HilbertSpace, hermitize, lstsq_solve
from .superop import Superoperator, check_trace_preserving, unvec, vec

RESIDUAL_TOL = 1e-8
CLAMP_TOL = 1e-8
UNIQUENESS_TOL = 1e-10
# Unused by the package; only bench/tracing.py reads it, as the step-size
# rule dt·‖L‖ = 0.1 behind its steady.rk4_steps count.
STABILITY_LIMIT = 0.1
_GAP_MAX_ITER = 100  # inverse-iteration steps of spectral_gap
_GAP_SEED = 7  # seed of spectral_gap's start vector

_getrf, _getrs, _getri = scipy.linalg.lapack.get_lapack_funcs(("getrf", "getrs", "getri"), dtype=np.float64)


class SteadyStateError(RuntimeError):
    """A steady state is not unique, or a solve fell outside its advertised tolerances."""


@dataclass(frozen=True)
class SteadyStateReport:
    """Steady state plus the diagnostics a caller needs to trust (or reject)
    it. For a stack of points, ``rho`` is a stack of states and every other
    field an array with one entry per point."""

    rho: DensityMatrix
    residual: float | np.ndarray
    min_eigenvalue: float | np.ndarray
    unique: bool | np.ndarray
    # ‖M‖_F·‖M⁻¹‖_F for the trace-zero restriction M, the uniqueness
    # certificate's bound (it certifies below 1e-2/UNIQUENESS_TOL); inf when
    # no bound was formed (LAPACK finds M singular, or L acts on one level)
    uniqueness_bound: float | np.ndarray


@cache
def _hermitian_basis(d: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Per-dimension maps of the orthonormal Hermitian basis of vec space,
    ordered {E_ii}, {(E_ij + E_ji)/√2}, {i(E_ij − E_ji)/√2} with i < j in
    ``np.triu_indices`` order. Returns the flat index that permutes a d²×d²
    matrix to the vec order diagonal, upper (E_ij), lower (E_ji); the
    ``triu_indices`` pair; and the d×d Householder reflection whose first
    column is the normalized trace row on the diagonal coordinates, so that
    its other columns, padded with the identity on the off-diagonal
    coordinates, are an orthonormal basis B_r of the trace-zero subspace.
    Read-only."""
    n = d * d
    iu = np.triu_indices(d, 1)
    perm = np.concatenate([np.arange(d) * (d + 1), iu[0] + d * iu[1], iu[1] + d * iu[0]])
    take = (perm[:, None] * n + perm[None, :]).ravel()
    w = np.full(d, 1.0 / np.sqrt(d))
    w[0] -= 1.0
    nw = np.linalg.norm(w)
    if nw > 1e-14:
        w /= nw
    house = np.eye(d) - 2.0 * np.outer(w, w)
    for a in (take, *iu, house):
        a.setflags(write=False)
    return take, iu, house


def _real_form(l: Superoperator) -> np.ndarray:
    """U†LU for the unitary U whose columns are the Hermitian basis of
    :func:`_hermitian_basis`, without forming U: one permutation, then block
    sums and differences of the off-diagonal halves. Returned complex; its
    imaginary part vanishes (to rounding) when L preserves hermiticity, as
    every Lindblad generator does."""
    d = l.dim
    n = d * d
    take, _, _ = _hermitian_basis(d)
    p, q = slice(d, (n + d) // 2), slice((n + d) // 2, n)
    r = np.sqrt(0.5)
    a = l.mat.take(take).reshape(n, n)
    a = np.concatenate([a[:, :d], r * (a[:, p] + a[:, q]), (1j * r) * (a[:, p] - a[:, q])], axis=1)
    return np.concatenate([a[:d], r * (a[p] + a[q]), (-1j * r) * (a[p] - a[q])])


@cache
def _coordinate_entries(d: int) -> np.ndarray:
    """Flat row-major index of the d×d entry that each coordinate of
    :func:`_hermitian_basis` fills: E_ii, then E_ij and E_ji for i < j in
    ``np.triu_indices`` order (read-only)."""
    _, (i, j), _ = _hermitian_basis(d)
    index = np.concatenate([np.arange(d) * (d + 1), i * d + j, j * d + i])
    index.setflags(write=False)
    return index


def _from_real(c: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian matrix with coordinates c in the basis of
    :func:`_hermitian_basis`, or the stack of them for a stack of rows c."""
    m = d * (d - 1) // 2
    upper = np.sqrt(0.5) * (c[..., d:d + m] + 1j * c[..., d + m:])
    rho = np.empty(c.shape[:-1] + (d * d,), dtype=complex)
    rho[..., _coordinate_entries(d)] = np.concatenate([c[..., :d], upper, upper.conj()], axis=-1)
    return rho.reshape(c.shape[:-1] + (d, d))


def _real_restriction(l: Superoperator, scale: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The real L_r of :func:`_real_form` and L's steady-state equation on the
    trace-zero subspace, M·y = r: M = B_rᵀ·L_r·B_r and r = −B_rᵀ·L_r·c_I, for
    the orthonormal basis B_r of :func:`_hermitian_basis` (never formed) and
    the coordinates c_I of I/d, so that the steady state is c = c_I + B_r·y.
    As L maps into that subspace, M's singular values are those of L_r·B_r.
    Raises SteadyStateError when L_r has an imaginary part above
    HERM_TOL·max(scale, 1), ``scale`` being ‖L‖_∞: L then does not preserve
    hermiticity."""
    d = l.dim
    lc = _real_form(l)
    if float(np.abs(lc.imag).max()) > HERM_TOL * max(scale, 1.0):
        raise SteadyStateError("generator does not preserve hermiticity")
    lr = lc.real
    _, _, house = _hermitian_basis(d)
    lb = np.concatenate([lr[:, :d] @ house[:, 1:], lr[:, d:]], axis=1)
    li = lr[:, :d].sum(axis=1) / d
    return lr, np.concatenate([house[1:] @ lb[:d], lb[d:]]), -np.concatenate([house[1:] @ li[:d], li[d:]])


def trace_zero_system(l: Superoperator) -> tuple[np.ndarray, np.ndarray]:
    """(M, r) of :func:`_real_restriction`, linear in L: the system of Σ c_k·L_k
    is Σ c_k·(M_k, r_k). Raises SteadyStateError when L does not preserve hermiticity."""
    return _real_restriction(l, l.norm_inf())[1:]


def _lu(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The LU factors of a copy of M (getrf), or None when LAPACK finds M exactly singular."""
    lu, piv, info = _getrf(m)
    return (lu, piv) if info == 0 else None


def _inverse_norm(lu: np.ndarray, piv: np.ndarray) -> float:
    """‖M⁻¹‖_F from the LU factors of M (getri, which overwrites them); inf
    when getri finds M singular."""
    inv, info = _getri(lu, piv, overwrite_lu=True)
    return float(np.linalg.norm(inv)) if info == 0 else np.inf


def _certified_unique(bound: float) -> bool:
    """Whether bound = ‖M‖_F·‖M⁻¹‖_F proves that M passes the uniqueness
    test σ_min > UNIQUENESS_TOL·σ_max: σ_min(M) ≥ 1/‖M⁻¹‖_F and σ_max(M) ≤
    ‖M‖_F, and the threshold keeps a 100× margin for rounding in the computed
    inverse. False means "not proven", never "not unique"."""
    return bool(bound < 1e-2 / UNIQUENESS_TOL)


def _states(m: np.ndarray, r: np.ndarray, c: np.ndarray,
            norm: Callable[[int], float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked states of a stack of B generators from their trace-zero
    systems (M, r) and Hermitian-basis coordinates c (B, n): per state,
    eigenvalues within CLAMP_TOL below zero are clamped and ρ renormalized,
    and the residual ‖M·y′ − r‖ (y′ = B_rᵀ·c′, the trace-zero coordinates of
    the clamped ρ; this is ‖L vec ρ‖, as L maps into that subspace) must stay
    below RESIDUAL_TOL·max(norm(k), 1), norm(k) being the k-th ‖L‖_∞, asked
    only for a residual above RESIDUAL_TOL. A ρ that is not finite (its trace
    overflowed, or was 0) raises SteadyStateError. Returns the states (B, d, d),
    their smallest eigenvalues before the clamp and their residuals. Every
    matrix product is one BLAS call per point, so a point's numbers do not
    depend on the stack it is in."""
    d = round(c.shape[1] ** 0.5)
    w, v = np.linalg.eigh(_from_real(c, d))
    min_eig = w.min(axis=1)
    if min_eig.min() < -CLAMP_TOL:
        raise SteadyStateError(
            f"steady state has eigenvalue {min_eig.min():.2e} below clamp tolerance; "
            "the generator is not completely positive"
        )
    w = np.clip(w, 0.0, None)
    rho = hermitize((v * w[:, None, :]) @ v.conj().swapaxes(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero or non-finite trace leaves ρ non-finite
        rho /= rho.trace(axis1=1, axis2=2).real[:, None, None]
    if not np.isfinite(rho).all():
        raise SteadyStateError("steady state is not finite")

    # y′ from the diagonal and upper entries of ρ, as _from_real places them
    entries = rho.reshape(len(c), -1)[:, _coordinate_entries(d)[:d * (d + 1) // 2]]
    _, _, house = _hermitian_basis(d)
    upper = np.sqrt(2.0) * entries[:, d:]
    y = np.concatenate([(house[1:] @ entries[:, :d, None].real)[..., 0], upper.real, upper.imag], axis=1)
    residual = np.linalg.norm((m @ y[..., None])[..., 0] - r, axis=1)
    for k in np.flatnonzero(residual > RESIDUAL_TOL):
        if residual[k] > RESIDUAL_TOL * max(norm(k), 1.0):
            raise SteadyStateError(f"steady-state residual {residual[k]:.2e} exceeds {RESIDUAL_TOL:.0e}·‖L‖")
    return rho, min_eig, residual


def steady_state_on(l: Superoperator, space: HilbertSpace) -> SteadyStateReport:
    """Unique steady state of a trace-preserving Liouvillian, tagged with the
    factor structure of ``space``.

    Works in the orthonormal Hermitian basis (:func:`_real_form`), where a
    Lindblad generator is a real matrix L_r: solves the stacked real system
    [L_r; t]·c = [0; 1] (t the trace row) by least squares, rebuilds ρ from c,
    clamps eigenvalues within −1e-8 of zero and renormalizes. L is checked to
    be trace preserving (AssemblyError), since the residual, on (M, r) of
    :func:`trace_zero_system`, cannot see its trace row. Uniqueness is
    decided by the rule of :func:`steady_state_restricted`:
    σ_min(M) > UNIQUENESS_TOL·σ_max(M) for the trace-zero restriction M,
    certified by the LU bound where M is well conditioned and decided by the
    singular values of M everywhere else. A non-unique report carries
    gelsy's minimum-norm state at its numerical rank.
    """
    d = l.dim
    n = d * d
    scale = check_trace_preserving(l).norm_inf()
    lr, m, r = _real_restriction(l, scale)
    stacked = np.zeros((n + 1, n))
    stacked[:n] = lr
    stacked[n, :d] = 1.0
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    c, _ = lstsq_solve(stacked, rhs)

    unique, bound = True, np.inf
    if n > 1:
        # Mᵀ is a Fortran-ordered view of M, factored on a copy; ‖(Mᵀ)⁻¹‖_F = ‖M⁻¹‖_F
        factors = _lu(m.T)
        if factors is not None:
            with np.errstate(over="ignore", invalid="ignore"):  # a bound that overflows does not certify
                bound = float(np.linalg.norm(m)) * _inverse_norm(*factors)
        if not _certified_unique(bound):
            svals = np.linalg.svd(m, compute_uv=False)
            unique = bool(svals[-1] > UNIQUENESS_TOL * max(svals[0], 1e-300))
    rho, min_eig, residual = _states(m[None], r[None], c[None], lambda _: scale)
    return SteadyStateReport(DensityMatrix(space, rho[0]), float(residual[0]), float(min_eig[0]), unique, bound)


def _restricted_coordinates(ys: list[np.ndarray], d: int) -> np.ndarray:
    """The Hermitian-basis coordinates c = c_I + B_r·y, one row per solution y."""
    y = np.array(ys)
    _, _, house = _hermitian_basis(d)
    return np.concatenate([(house[:, 1:] @ y[:, :d - 1, None])[..., 0] + 1.0 / d, y[:, d - 1:]], axis=1)


def steady_state_restricted(space: HilbertSpace, m: np.ndarray, r: np.ndarray,
                            liouvillian: Callable[[int], Superoperator],
                            fallback: Callable[[Superoperator], SteadyStateReport]) -> SteadyStateReport:
    """:func:`steady_state_on` for a stack of B generators from their systems
    (M, r) of :func:`trace_zero_system`, already formed and checked (for
    example contracted from compiled pieces): ``m`` (B, k, k) and ``r``
    (B, k). ``liouvillian(k)`` forms the k-th point's L, only for a point
    that falls back or a residual above RESIDUAL_TOL.

    Per point, one LU of M gives both the state c = c_I + B_r·M⁻¹r, by
    triangular solves, and the certificate ‖M‖_F·‖M⁻¹‖_F, from the inverse
    (‖M‖_F = ‖L_r·B_r‖_F, since L maps into the trace-zero subspace). A point
    whose M is singular, or whose bound does not certify uniqueness, goes
    alone to ``fallback`` with its own L, which returns its report. The
    certified points then share one tail (:func:`_states`). Returns one
    report for the stack, whose states are checked together. Each
    certificate, and the ``liouvillian`` and ``fallback`` of a point that
    falls back, run with numpy's overflow and invalid-value warnings off: a
    non-finite M falls back and fails there without a warning."""
    d = space.dim
    b = len(m)
    bound = np.empty(b)
    certified, coords, fallen = [], [], {}
    # once per stack, fallbacks included: a bound that overflows does not certify
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(b):
            norm = float(np.linalg.norm(m[k]))
            factors = _lu(m[k])
            if factors is not None:
                # y by triangular solves, before getri overwrites the factors: the
                # inverse times r moved ρ by up to 1e-8 at bounds near 5e6, where
                # these solves keep it within 5e-12 of the exact state
                y, _ = _getrs(*factors, r[k])
                bound[k] = bk = norm * _inverse_norm(*factors)
                if _certified_unique(bk):
                    certified.append(k)
                    coords.append(y)
                    continue
            fallen[k] = fallback(liouvillian(k))
    rho, unique = np.empty((b, d, d), dtype=complex), np.ones(b, dtype=bool)
    residual, min_eig = np.empty(b), np.empty(b)
    if certified:
        sel = certified if fallen else slice(None)  # views, not copies, when none fell back
        rho[sel], min_eig[sel], residual[sel] = _states(
            m[sel], r[sel], _restricted_coordinates(coords, d), lambda i: liouvillian(certified[i]).norm_inf())
    for k, report in fallen.items():
        rho[k], residual[k], min_eig[k] = report.rho.mat, report.residual, report.min_eigenvalue
        unique[k], bound[k] = report.unique, report.uniqueness_bound
    return SteadyStateReport(DensityMatrix(space, rho), residual, min_eig, unique, bound)


def evolve(l: Superoperator, rho0: DensityMatrix, t_final: float) -> DensityMatrix:
    """Exact propagation vec(ρ(t)) = exp(L·t)·vec(ρ₀).

    The exponential is scipy's scaling-and-squaring Padé algorithm (Al-Mohy &
    Higham, SIAM J. Matrix Anal. Appl. 31, 2009). The trace is not
    renormalized: the returned DensityMatrix checks it stays within 1e-10.
    """
    if t_final < 0:
        raise ValueError("need t_final >= 0")
    if rho0.dim != l.dim:
        raise ValueError("state and Liouvillian dimensions differ")
    v = scipy.linalg.expm(t_final * l.mat) @ vec(rho0.mat)
    return DensityMatrix(rho0.space, hermitize(unvec(v)))


def spectral_gap(l: Superoperator) -> float:
    """Estimate of min |Re λ| over the nonzero Liouvillian spectrum.

    Inverse iteration on the restriction M of :func:`_real_restriction`, from
    a fixed complex start; about 10% accuracy, which is all the time-horizon
    choice needs. Returns 0.0 if M is numerically singular (degenerate steady
    state); raises SteadyStateError if L does not preserve hermiticity.
    """
    # complex M, so that lu_solve does not recast the factor at every step
    m = _real_restriction(l, l.norm_inf())[1].astype(complex)
    try:
        lu = scipy.linalg.lu_factor(m)
    except scipy.linalg.LinAlgError:
        return 0.0
    rng = np.random.default_rng(_GAP_SEED)
    v = rng.normal(size=m.shape[0]) + 1j * rng.normal(size=m.shape[0])
    v /= np.linalg.norm(v)
    rq_prev = None
    for _ in range(_GAP_MAX_ITER):
        try:
            v = scipy.linalg.lu_solve(lu, v)
        except (scipy.linalg.LinAlgError, ValueError):
            return 0.0
        nv = np.linalg.norm(v)
        if not np.isfinite(nv) or nv == 0:
            return 0.0
        v /= nv
        rq = complex(v.conj() @ (m @ v))
        if rq_prev is not None and abs(rq - rq_prev) <= 1e-3 * abs(rq):
            rq_prev = rq
            break
        rq_prev = rq
    return abs(rq_prev.real)


def evolve_to_steady(l: Superoperator, space: HilbertSpace, decades: float = 30.0) -> DensityMatrix:
    """Propagate I/d long enough for transients to decay to ~e^{-decades}.

    Raises SteadyStateError when L does not preserve hermiticity, or when the
    spectral gap is zero (below UNIQUENESS_TOL·‖L‖): the steady state is then
    degenerate, and the propagated state would depend on the initial state.
    """
    d = space.dim
    rho0 = DensityMatrix(space, np.eye(d, dtype=complex) / d)
    gap = spectral_gap(l)
    if gap <= UNIQUENESS_TOL * l.norm_inf():
        raise SteadyStateError(f"spectral gap {gap:.2e} is numerically zero: the steady state is degenerate")
    return evolve(l, rho0, decades / gap)
