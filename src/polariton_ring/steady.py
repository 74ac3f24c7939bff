"""Steady states of Liouvillians: trace-constrained linear solve, exact time
propagation as an independent cross-check, and a spectral-gap estimate for
choosing the propagation horizon."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (
    DensityMatrix,
    HilbertSpace,
    RankDeficientError,
    hermitize,
    lstsq_solve,
)
from .superop import Superoperator, unvec, vec

RESIDUAL_TOL = 1e-8
CLAMP_TOL = 1e-8
UNIQUENESS_TOL = 1e-10
# Unused by the package; only bench/tracing.py reads it, as the step-size
# rule dt·‖L‖ = 0.1 behind its steady.rk4_steps count.
STABILITY_LIMIT = 0.1


class SteadyStateError(RuntimeError):
    """A steady state is not unique, or a solve fell outside its advertised tolerances."""


@dataclass(frozen=True)
class SteadyStateReport:
    """Steady state plus the diagnostics a caller needs to trust (or reject) it."""

    rho: DensityMatrix
    residual: float
    min_eigenvalue: float
    unique: bool


def traceless_basis(d: int) -> np.ndarray:
    """Orthonormal basis (columns) of the trace-zero subspace of vec space.

    Built from the Householder reflection that maps e₀ to vec(I)/√d; columns
    1..d²−1 of that reflection are then orthonormal and traceless.
    """
    n = d * d
    t = vec(np.eye(d, dtype=complex)) / np.sqrt(d)
    w = t.copy()
    w[0] -= 1.0
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return np.eye(n, dtype=complex)[:, 1:]
    w /= nw
    house = np.eye(n, dtype=complex) - 2.0 * np.outer(w, w.conj())
    return house[:, 1:]


def steady_state(l: Superoperator, check_unique: bool = True) -> SteadyStateReport:
    """Unique steady state of a trace-preserving Liouvillian.

    Solves the stacked system [L; vec(I)†]·vec(ρ) = [0; 1] by least squares,
    symmetrizes, clamps eigenvalues within −1e-8 of zero and renormalizes.
    Uniqueness is certified by the smallest singular value of L restricted to
    the trace-zero subspace.
    """
    d = l.dim
    n = d * d
    diag_row = vec(np.eye(d, dtype=complex)).conj()
    stacked = np.vstack([l.mat, diag_row[None, :]])
    rhs = np.zeros(n + 1, dtype=complex)
    rhs[-1] = 1.0

    unique = True
    try:
        x, _ = lstsq_solve(stacked, rhs)
    except RankDeficientError:
        unique = False
        x, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)

    rho = hermitize(unvec(x))
    w, v = np.linalg.eigh(rho)
    min_eig = float(w.min())
    if min_eig < -CLAMP_TOL:
        raise SteadyStateError(
            f"steady state has eigenvalue {min_eig:.2e} below clamp tolerance; "
            "the generator is not completely positive"
        )
    w = np.clip(w, 0.0, None)
    rho = hermitize((v * w) @ v.conj().T)
    rho /= np.trace(rho).real

    residual = float(np.linalg.norm(l.mat @ vec(rho)))
    scale = l.norm_inf()
    if residual > RESIDUAL_TOL * max(scale, 1.0):
        raise SteadyStateError(f"steady-state residual {residual:.2e} exceeds {RESIDUAL_TOL:.0e}·‖L‖")

    if unique and check_unique:
        basis = traceless_basis(d)
        svals = np.linalg.svd(l.mat @ basis, compute_uv=False)
        unique = bool(svals[-1] > UNIQUENESS_TOL * max(svals[0], 1e-300))

    space = HilbertSpace((d,))
    return SteadyStateReport(
        rho=DensityMatrix(space, rho),
        residual=residual,
        min_eigenvalue=min_eig,
        unique=unique,
    )


def steady_state_on(l: Superoperator, space: HilbertSpace, check_unique: bool = True) -> SteadyStateReport:
    """Same as :func:`steady_state` but tags the state with its factor structure."""
    report = steady_state(l, check_unique=check_unique)
    return SteadyStateReport(
        rho=DensityMatrix(space, report.rho.mat),
        residual=report.residual,
        min_eigenvalue=report.min_eigenvalue,
        unique=report.unique,
    )


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


def spectral_gap(l: Superoperator, max_iter: int = 100, seed: int = 7) -> float:
    """Estimate of min |Re λ| over the nonzero Liouvillian spectrum.

    Inverse iteration on L restricted to the trace-zero subspace (which L maps
    into itself); about 10% accuracy, which is all the time-horizon choice
    needs. Returns 0.0 if the restricted operator is numerically singular
    (degenerate steady state).
    """
    d = l.dim
    basis = traceless_basis(d)
    m = basis.conj().T @ (l.mat @ basis)
    try:
        lu = scipy.linalg.lu_factor(m)
    except scipy.linalg.LinAlgError:
        return 0.0
    rng = np.random.default_rng(seed)
    v = rng.normal(size=m.shape[0]) + 1j * rng.normal(size=m.shape[0])
    v /= np.linalg.norm(v)
    rq_prev = None
    for _ in range(max_iter):
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


def evolve_to_steady(l: Superoperator, space: HilbertSpace,
                     rho0: DensityMatrix | None = None,
                     decades: float = 30.0) -> DensityMatrix:
    """Propagate long enough for transients to decay to ~e^{-decades}.

    Raises SteadyStateError when the spectral gap is zero (below
    UNIQUENESS_TOL·‖L‖): the steady state is then degenerate, and the
    propagated state would depend on ρ₀.
    """
    if rho0 is None:
        d = space.dim
        rho0 = DensityMatrix(space, np.eye(d, dtype=complex) / d)
    gap = spectral_gap(l)
    if gap <= UNIQUENESS_TOL * l.norm_inf():
        raise SteadyStateError(f"spectral gap {gap:.2e} is numerically zero: the steady state is degenerate")
    return evolve(l, rho0, decades / gap)
