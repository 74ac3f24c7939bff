"""Figures of merit: two-qubit concurrence, trace distance, n-qubit Gibbs
reference states and Bose-Einstein occupations. Temperatures are measured in
units of the polariton quantum (ħ = k_B = 1).

Each figure of merit of a state is a float; of a stack of states (a
DensityMatrix with a leading axis), an array with one value per state."""

from __future__ import annotations

import math

import numpy as np

from .linalg import DensityMatrix, HilbertSpace, herm_eig, herm_eigvals

# σ_y⊗σ_y is anti-diagonal with signs s = (−1, 1, 1, −1), so
# (σ_y⊗σ_y) A (σ_y⊗σ_y) is A reversed in both indices, times s sᵀ
_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])


def check_temperature(T: float) -> None:
    """Raise ValueError unless T is a temperature: finite and >= 0."""
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"temperature must be finite and >= 0, got {T}")


def _value(x):
    """A float for a single state, the array itself for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _spin_flip(mat: np.ndarray) -> np.ndarray:
    """ρ̃ = (σ_y⊗σ_y) ρ* (σ_y⊗σ_y) of a two-qubit matrix or (B, 4, 4) stack,
    as a sign mask on the reversed conjugate instead of two products. The
    + 0.0 turns a −0 into +0, as the products' sums do, so ρ̃ keeps their
    bits."""
    return _FLIP_SIGNS * mat[..., ::-1, ::-1].conj() + 0.0


def _require_two_qubits(rho: DensityMatrix) -> None:
    if rho.space.factor_dims != (2, 2):
        raise ValueError(f"need a two-qubit state, got factors {rho.space.factor_dims}")


def _factor(mat: np.ndarray) -> np.ndarray:
    """A factor F with F F† = ρ of a state, or of each state of a stack: the
    Cholesky factor, one call for the whole stack. Where that call fails, each
    state is factored alone, so that its F does not depend on its stack: by
    Cholesky if ρ is positive definite, else as V·√W from its
    eigendecomposition ρ = V W V†, with W clamped at zero (a DensityMatrix
    holds eigenvalues down to −PSD_TOL)."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        if mat.ndim == 3:
            return np.array([_factor(m) for m in mat])
        w, v = herm_eig(mat)
        return v * np.sqrt(np.clip(w, 0.0, None))


def concurrence(rho: DensityMatrix) -> float | np.ndarray:
    """Wootters concurrence of a two-qubit state.

    C = max(0, λ₁−λ₂−λ₃−λ₄) with λᵢ the descending square roots of the
    eigenvalues of ρ ρ̃, ρ̃ = (σ_y⊗σ_y) ρ* (σ_y⊗σ_y). The conjugate is taken
    in the computational (excitation-number) basis. For any F with
    F F† = ρ (:func:`_factor`), ρ ρ̃ = F (F† ρ̃) has the eigenvalues of the
    Hermitian F† ρ̃ F, which are the ones computed.
    """
    _require_two_qubits(rho)
    rho_t = _spin_flip(rho.mat)
    f = _factor(rho.mat)
    w = herm_eigvals(f.conj().swapaxes(-1, -2) @ rho_t @ f)  # checked Hermitian, then hermitized
    lam0, lam1, lam2, lam3 = np.sqrt(np.clip(w, 0.0, None)).T  # ascending
    return _value(np.maximum(0.0, lam3 - lam2 - lam1 - lam0))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float | np.ndarray:
    """d(a, b) = ½ tr|a − b|, via the eigenvalues of the Hermitian difference."""
    if a.space.factor_dims != b.space.factor_dims:
        raise ValueError(f"states live on different spaces: {a.space.factor_dims} vs {b.space.factor_dims}")
    w = herm_eigvals(a.mat - b.mat)
    return _value(0.5 * np.abs(w).sum(axis=-1))


def gibbs_state(T: float, n_qubits: int) -> DensityMatrix:
    """Gibbs state of n qubits under the excitation-number Hamiltonian.

    Diagonal with weights ∝ e^{−k/T}, k the excitation count of each basis
    state (k ∈ {0, 1, 1, 2} on two qubits); T = 0 gives the ground-state
    projector.
    """
    check_temperature(T)
    k = np.array([bin(i).count("1") for i in range(2**n_qubits)], dtype=float)
    if T == 0:
        w = (k == 0).astype(float)
    else:
        w = np.exp(-k / T)
    w = w / w.sum()
    return DensityMatrix(HilbertSpace((2,) * n_qubits), np.diag(w).astype(complex))


def thermal_occupation(T: float) -> float:
    """Bose-Einstein occupation 1/(e^{1/T} − 1); zero at T = 0."""
    check_temperature(T)
    if T == 0:
        return 0.0
    return float(1.0 / np.expm1(1.0 / T))


def purity(rho: DensityMatrix) -> float | np.ndarray:
    """tr(ρ²) ∈ [1/d, 1]."""
    return _value(np.trace(rho.mat @ rho.mat, axis1=-2, axis2=-1).real)


def population(rho: DensityMatrix, level: int) -> float | np.ndarray:
    """Occupation of one computational basis level."""
    return _value(rho.mat[..., level, level].real)
