"""Liouvillian superoperators on column-stacked density matrices.

Vectorization convention: ``vec`` stacks columns, so vec(A X B) =
(Bᵀ ⊗ A) vec(X). Every formula below is written for that ordering.

Dissipator convention: a :class:`DissipatorTerm` (left=c_i, right=c_j,
weight=w) generates  w · (2 c_i ρ c_j† − c_j† c_i ρ − ρ c_j† c_i),
i.e. the factor 2 sits inside and the rate outside. The usual Lindblad
D[c] at rate κ therefore enters with weight κ/2. Cross terms (left ≠ right)
are single terms; emitting the Hermitian partner pair is the model
builder's job, not the assembler's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import HERM_TOL, NonHermitianError, _kron, as_complex, herm_defect

TRACE_PRESERVATION_TOL = 1e-10


class AssemblyError(ValueError):
    """Assembled superoperator failed a structural check."""


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape((d, d), order="F")


@dataclass(frozen=True)
class Superoperator:
    """Linear map on vectorized density matrices, stored densely (d² × d²).
    Keeps a complex128 ``mat`` without a copy (a micro L may be hundreds of
    MiB) and freezes it: the caller's array becomes read-only."""

    dim: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = as_complex(self.mat)
        d2 = self.dim * self.dim
        if mat.shape != (d2, d2):
            raise ValueError(f"superoperator shape {mat.shape} != ({d2}, {d2})")
        object.__setattr__(self, "mat", mat)
        mat.setflags(write=False)

    def apply(self, rho_mat: np.ndarray) -> np.ndarray:
        """Action on a density matrix given and returned in matrix form."""
        return unvec(self.mat @ vec(rho_mat))

    def norm_inf(self) -> float:
        """Max absolute row sum; cheap upper bound on the spectral radius."""
        return float(np.abs(self.mat).sum(axis=1).max())

    def trace_defect(self) -> float:
        """Max entry of vec(I)† · mat; zero for trace-preserving generators."""
        d = self.dim
        diag_idx = np.arange(d) * (d + 1)
        return float(np.abs(self.mat[diag_idx].sum(axis=0)).max())


@dataclass(frozen=True)
class DissipatorTerm:
    """One mixing term of the master equation (see module docstring)."""

    left: np.ndarray = field(repr=False)
    right: np.ndarray = field(repr=False)
    weight: float

    def __post_init__(self):
        left = as_complex(self.left)
        right = as_complex(self.right)
        if left.shape != right.shape or left.shape[0] != left.shape[1]:
            raise ValueError(f"jump operators must be square and matching, got {left.shape}, {right.shape}")
        w = float(self.weight)
        if not np.isfinite(w):
            raise ValueError("weight must be finite")
        if np.array_equal(left, right) and w < 0:
            raise ValueError(f"diagonal term must have nonnegative weight, got {w}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "weight", w)


def assemble(h, terms: list[DissipatorTerm]) -> Superoperator:
    """Full generator ρ ↦ −i[h, ρ] + Σ w (2 LρR† − R†Lρ − ρR†L), built in one pass.

    With M = Σ w R†L the generator is
    Σ 2w (R̄ ⊗ L) + I ⊗ (−ih − M) + (ih − M)ᵀ ⊗ I: one Kronecker product per
    term plus two. Terms are added in the order given; builders emit them in
    a fixed order, so repeated assembly is bit-stable. h and the terms are
    checked by :func:`checked_sources`, and trace preservation is asserted
    after assembly.
    """
    h, m = checked_sources(h, terms)
    d = len(h)
    mat = np.zeros((d * d, d * d), dtype=complex)
    for term in terms:
        mat += (2.0 * term.weight) * _kron(term.right.conj(), term.left)
    eye = np.eye(d, dtype=complex)
    mat += _kron(eye, -1j * h - m)
    mat += _kron((1j * h - m).T, eye)
    return check_trace_preserving(Superoperator(d, mat))


def checked_sources(h, terms: list[DissipatorTerm]) -> tuple[np.ndarray, np.ndarray]:
    """The complex h and M = Σ w R†L of a generator, summed in the order of
    ``terms``. Raises ValueError if h is not finite or a term's dimension is
    not h's, and NonHermitianError if h is not Hermitian."""
    h = as_complex(h)
    if herm_defect(h) > HERM_TOL:
        raise NonHermitianError(f"Hamiltonian not Hermitian: defect {herm_defect(h):.2e}")
    d = h.shape[0]
    m = np.zeros((d, d), dtype=complex)
    for term in terms:
        if term.left.shape[0] != d:
            raise ValueError(f"term dimension {term.left.shape[0]} != Hamiltonian dimension {d}")
        m += term.weight * (term.right.conj().T @ term.left)
    return h, m


def check_trace_preserving(l: Superoperator) -> Superoperator:
    """``l`` itself; raises AssemblyError if its trace defect exceeds TRACE_PRESERVATION_TOL."""
    check_trace_defect(l.trace_defect())
    return l


def check_trace_defect(defect: float) -> None:
    """Raise AssemblyError if a generator's trace defect, the largest entry of
    vec(I)†·L, exceeds TRACE_PRESERVATION_TOL."""
    if defect > TRACE_PRESERVATION_TOL:
        raise AssemblyError(
            f"assembled Liouvillian is not trace preserving (defect {defect:.2e}); "
            "check term weights/units"
        )
