"""Dense complex linear algebra and Hilbert-space composition.

Everything here works on plain ``numpy`` arrays of ``complex128``, with numpy
alone. States carry their tensor-factor structure through
:class:`HilbertSpace` / :class:`DensityMatrix`, which validate the physical
invariants (hermiticity, unit trace, positivity) on construction. A
DensityMatrix, and the matrix functions that states pass through, also take a
stack of matrices along a leading axis; every check then holds for each matrix
of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Sequence

import numpy as np

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-8


class NonHermitianError(ValueError):
    """Input that must be Hermitian is not (within tolerance)."""


def as_complex(a) -> np.ndarray:
    out = np.asarray(a, dtype=complex)
    if not np.isfinite(out).all():
        raise ValueError("matrix contains non-finite entries")
    return out


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a†)/2, per matrix of a stack; exact no-op for Hermitian input."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


def herm_defect(a: np.ndarray) -> float:
    """Largest entry of |a − a†| over a matrix, or over every matrix of a stack."""
    return float(np.abs(a - a.conj().swapaxes(-1, -2)).max())


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered tensor factors of a composite Hilbert space."""

    factor_dims: tuple[int, ...]

    def __init__(self, factor_dims: Iterable[int]):
        dims = tuple(int(d) for d in factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be positive, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        return prod(self.factor_dims)

    @property
    def n_factors(self) -> int:
        return len(self.factor_dims)


def _first_failure(values: np.ndarray, failed: np.ndarray) -> tuple[str, object]:
    """Name and value of the first state that failed a check, from its
    per-state values: ``state`` for a single state, ``state k`` for the k-th
    of a stack."""
    if np.ndim(failed) == 0:
        return "state", values
    k = int(np.argmax(failed))
    return f"state {k}", values[k]


def _psd_proved(h: np.ndarray) -> bool:
    """Whether one batched Cholesky factorization of h + ½·PSD_TOL·I succeeds,
    which proves that every eigenvalue of each unit-trace Hermitian matrix of
    ``h`` is above −PSD_TOL: Cholesky is backward stable, so its success
    bounds the smallest eigenvalue below by −½·PSD_TOL less a rounding term
    of order d²·ε·‖h‖ (under 1e-12 for d ≤ 64 at unit trace). False means
    "not proven", never "not PSD": an eigenvalue in (−PSD_TOL, −½·PSD_TOL]
    fails it and is accepted by the eigenvalue rule."""
    try:
        np.linalg.cholesky(h + (0.5 * PSD_TOL) * np.eye(h.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class DensityMatrix:
    """Validated quantum state: Hermitian, unit trace, positive semidefinite.

    ``mat`` is one d×d state or a (B, d, d) stack of B states on the same
    space; each state of a stack is checked on its own, and a failure names
    its index. It holds a frozen copy; the caller's array stays writeable."""

    space: HilbertSpace
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = as_complex(self.mat).copy()
        d = self.space.dim
        if mat.ndim not in (2, 3) or mat.shape[-2:] != (d, d):
            raise ValueError(f"state has shape {mat.shape}, space dimension is {d}")
        # each check first takes the worst state of a stack, and names the
        # first failing state only when one fails
        if herm_defect(mat) > HERM_TOL:
            defect = np.abs(mat - mat.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
            name, value = _first_failure(defect, defect > HERM_TOL)
            raise NonHermitianError(f"{name} not Hermitian: defect {value:.2e}")
        tr = mat.trace(axis1=-2, axis2=-1)
        if abs(tr - 1.0).max() > TRACE_TOL:
            name, value = _first_failure(tr, abs(tr - 1.0) > TRACE_TOL)
            raise ValueError(f"{name} trace {complex(value)} differs from 1 beyond {TRACE_TOL}")
        h = hermitize(mat)
        if not _psd_proved(h):
            w = np.linalg.eigvalsh(h)
            if w.min() < -PSD_TOL:
                lo = w.min(axis=-1)
                name, value = _first_failure(lo, lo < -PSD_TOL)
                raise ValueError(f"{name} has negative eigenvalue {value:.2e}")
        object.__setattr__(self, "mat", mat)
        mat.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.space.dim


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unchecked Kronecker product of two 2-D arrays, bit-identical to
    ``np.kron``: one broadcast multiply and a reshape."""
    (p, q), (r, t) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * t)


def embed(op, site: int, space: HilbertSpace) -> np.ndarray:
    """Lift a single-factor operator to the composite space: I ⊗ … ⊗ op ⊗ … ⊗ I."""
    op = as_complex(op)
    dims = space.factor_dims
    if not 0 <= site < len(dims):
        raise ValueError(f"site {site} out of range for {len(dims)} factors")
    d = dims[site]
    if op.shape != (d, d):
        raise ValueError(f"operator shape {op.shape} does not match factor dim {d}")
    left = np.eye(prod(dims[:site]), dtype=complex)
    right = np.eye(prod(dims[site + 1:]), dtype=complex)
    return _kron(_kron(left, op), right)


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced state on the kept factors, in their original order (per state
    of a stack). Keeping every factor returns ``rho`` itself."""
    dims = rho.space.factor_dims
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    if len(keep) == n:
        return rho
    lead = rho.mat.shape[:-2]
    t = rho.mat.reshape(*lead, *dims, *dims)
    for ax in sorted((i for i in range(n) if i not in keep), reverse=True):
        factors = (t.ndim - len(lead)) // 2
        t = np.trace(t, axis1=len(lead) + ax, axis2=len(lead) + ax + factors)
    d_keep = prod(dims[i] for i in keep)
    out = t.reshape(*lead, d_keep, d_keep)
    return DensityMatrix(HilbertSpace(dims[i] for i in keep), hermitize(out))


def _checked_hermitian(a) -> np.ndarray:
    """The Hermitian part of a square matrix, or of each matrix of a stack,
    after checking that it differs from ``a`` by at most HERM_TOL."""
    a = as_complex(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("a Hermitian eigenproblem needs a square matrix")
    defect = herm_defect(a)
    if defect > HERM_TOL:
        raise NonHermitianError(f"matrix not Hermitian: defect {defect:.2e}")
    return hermitize(a)


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack, eigenvalues ascending.

    Returns ``(w, v)`` with ``a @ v == v @ diag(w)`` and ``v`` unitary.
    """
    w, v = np.linalg.eigh(_checked_hermitian(a))
    return w, v


def herm_eigvals(a) -> np.ndarray:
    """The eigenvalues of :func:`herm_eig`, ascending, without the eigenvectors."""
    return np.linalg.eigvalsh(_checked_hermitian(a))
