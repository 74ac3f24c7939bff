"""Steady states of Liouvillians: the solve that every command uses, one LU
and inverse of the real trace-zero restriction M per point, in one LAPACK
pass over a stack (:func:`_solve_stack`). One builder forms M, the
right-hand side r and ‖L‖_∞ from a generator's entries
(:func:`_real_system`): for a single model, the entries of its (h, terms),
without forming L (:func:`generator_system`, :func:`steady_state_of`, the
route of ``experiments.solve_spec`` and of the compiled pieces); for a dense
Liouvillian, its nonzeros (:func:`steady_state_on`,
:func:`trace_zero_system`). Beside it: a least-squares solve of the
unrestricted system (:func:`lstsq_state`), which only the compile's
self-check runs, as its reference; and exact time propagation with a
spectral-gap estimate for its horizon (inverse iteration on M through the
same getrf/getrs), which no command calls: the tests compare the solve
against it as an independent reference.

This is the one module of the package that uses scipy, and at import it loads
only scipy's Fortran LAPACK extension, ``scipy/linalg/_flapack``, by its file
location (:func:`_load_flapack`), never the ``scipy.linalg`` package around
it: ``dgetrf``, ``dgetrs`` and ``dgetri`` for the solve and the spectral gap,
``dgelsy``/``zgelsy`` for :func:`lstsq_solve`. Where that file is missing,
the import fails with an ImportError naming its path. Only :func:`evolve`
imports ``scipy.linalg``, for ``expm``, inside the function."""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from typing import Callable

import numpy as np

from .linalg import HERM_TOL, DensityMatrix, HilbertSpace, hermitize
from .superop import (
    DissipatorTerm,
    Superoperator,
    check_trace_defect,
    checked_sources,
    unvec,
    vec,
)

RESIDUAL_TOL = 1e-8
CLAMP_TOL = 1e-8
UNIQUENESS_TOL = 1e-10
LSTSQ_COND = 1e-12  # relative rank cutoff of lstsq_solve's column-pivoted QR
# Unused by the package; only bench/tracing.py reads it, as the step-size
# rule dt·‖L‖ = 0.1 behind its steady.rk4_steps count.
STABILITY_LIMIT = 0.1
_GAP_MAX_ITER = 100  # inverse-iteration steps of spectral_gap
_GAP_SEED = 7  # seed of spectral_gap's start vector


def _load_flapack(root: Path):
    """scipy's Fortran LAPACK extension module, ``linalg/_flapack`` under
    scipy's package directory ``root``, loaded by its file location without
    importing ``scipy.linalg``. It is registered in ``sys.modules`` under its
    own name, scipy.linalg._flapack, and an entry already there is reused, so
    that the package and a later (or earlier) ``import scipy.linalg`` share one
    module object and the extension is initialised once. Raises ImportError
    naming the path where the file is missing; there is no other route."""
    path = root / "linalg" / f"_flapack{EXTENSION_SUFFIXES[0]}"
    if not path.is_file():
        raise ImportError(f"scipy's LAPACK extension is missing: no file {path}", path=str(path))
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _scipy_dir() -> Path:
    """scipy's package directory, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("polariton_ring needs scipy, which is not installed", name="scipy")
    return Path(spec.origin).parent


_flapack = _load_flapack(_scipy_dir())
_getrf, _getrs, _getri = _flapack.dgetrf, _flapack.dgetrs, _flapack.dgetri


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
    # or a factor overflows, nan when ‖M‖_F underflows to 0 while ‖M⁻¹‖_F
    # overflows (all rates near 1e-300); neither certifies, and the SVD decides
    uniqueness_bound: float | np.ndarray


@cache
def _hermitian_basis(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal Hermitian basis of vec space, ordered {E_ii},
    {(E_ij + E_ji)/√2}, {i(E_ij − E_ji)/√2} with i < j in ``np.triu_indices``
    order, as two read-only arrays of O(d²) entries: the flat row-major index
    of the d×d entry that each coordinate fills (E_ii, then E_ij and E_ji for
    i < j), and the d×d Householder reflection whose first column is the
    normalized trace row on the diagonal coordinates, so that its other
    columns, padded with the identity on the off-diagonal coordinates, are an
    orthonormal basis B_r of the trace-zero subspace."""
    i, j = np.triu_indices(d, 1)
    index = np.concatenate([np.arange(d) * (d + 1), i * d + j, j * d + i])
    w = np.full(d, 1.0 / np.sqrt(d))
    w[0] -= 1.0
    nw = np.linalg.norm(w)
    if nw > 1e-14:
        w /= nw
    house = np.eye(d) - 2.0 * np.outer(w, w)
    for a in (index, house):
        a.setflags(write=False)
    return index, house


def _from_real(c: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian matrix with coordinates c in the basis of
    :func:`_hermitian_basis`, or the stack of them for a stack of rows c."""
    m = d * (d - 1) // 2
    upper = np.sqrt(0.5) * (c[..., d:d + m] + 1j * c[..., d + m:])
    rho = np.empty(c.shape[:-1] + (d * d,), dtype=complex)
    rho[..., _hermitian_basis(d)[0]] = np.concatenate([c[..., :d], upper, upper.conj()], axis=-1)
    return rho.reshape(c.shape[:-1] + (d, d))


def _trace_zero_coordinates(rho: np.ndarray) -> np.ndarray:
    """The trace-zero coordinates y′ = B_rᵀ·c of a stack of d×d Hermitian
    matrices (B, d, d), c their coordinates in :func:`_hermitian_basis`, by a
    gather: the diagonal through the Householder block, one (1, d) product per
    matrix (a (B, d) gemm would make y′ depend on the stack), then the upper
    entries' real and imaginary parts times √2."""
    d = rho.shape[-1]
    index, house = _hermitian_basis(d)
    entries = rho.reshape(len(rho), -1)[:, index[:d * (d + 1) // 2]]
    upper = np.sqrt(2.0) * entries[:, d:]
    return np.concatenate([(entries[:, None, :d].real @ house[:, 1:])[:, 0], upper.real, upper.imag], axis=1)


def _restrict(lr: np.ndarray, defect: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """(M, r) of :func:`_real_system` from the real form ``lr``, whose
    imaginary part has largest entry ``defect``: the Householder block on the
    diagonal coordinates, then copies, so that only L_r and M are held at full
    size. Raises SteadyStateError when ``defect`` exceeds
    HERM_TOL·max(scale, 1): L then does not preserve hermiticity."""
    if defect > HERM_TOL * max(scale, 1.0):
        raise SteadyStateError("generator does not preserve hermiticity")
    n, d = len(lr), math.isqrt(len(lr))
    _, house = _hermitian_basis(d)
    diagonal = lr[:, :d] @ house[:, 1:]
    m = np.empty((n - 1, n - 1))
    m[:d - 1] = house[1:] @ np.concatenate([diagonal[:d], lr[:d, d:]], axis=1)
    m[d - 1:, :d - 1] = diagonal[d:]
    m[d - 1:, d - 1:] = lr[d:, d:]
    li = lr[:, :d].sum(axis=1) / d
    return m, -np.concatenate([house[1:] @ li[:d], li[d:]])


@cache
def _vec_coordinates(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where each entry of a d×d matrix lands in the coordinates of
    :func:`_hermitian_basis`, indexed by the entry's vec index p = i + d·j,
    as four read-only arrays of d² entries: the two coordinates of its pair,
    (E_ij + E_ji)/√2 and then i(E_ij − E_ji)/√2 (i and j ordered), and the
    entries U[p, ·] of the unitary U whose columns are that basis, √½ and
    ±i√½, + for i < j. A diagonal entry has the one coordinate E_ii, at 1;
    its second coordinate repeats it, at 0."""
    index, _ = _hermitian_basis(d)
    coordinate = np.empty(d * d, dtype=np.intp)
    coordinate[index] = np.arange(d * d)  # of each row-major entry
    j, i = np.divmod(np.arange(d * d), d)
    diagonal = i == j
    r = np.sqrt(0.5)
    sym = np.where(diagonal, i, coordinate[np.minimum(i, j) * d + np.maximum(i, j)])
    anti = np.where(diagonal, i, sym + d * (d - 1) // 2)
    arrays = (sym, anti, np.where(diagonal, 1.0, r) + 0j, np.where(diagonal, 0j, np.where(i < j, 1j * r, -1j * r)))
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _generator_entries(h, terms: list[DissipatorTerm]) -> tuple[np.ndarray, np.ndarray]:
    """The entries of the generator L that ``superop.assemble(h, terms)``
    forms, without forming L: the flat indices row·d² + col of the entries
    that have an addend, and their values, each the sum of its addends in
    assemble's order, so equal to assemble's entry to the bit. L is
    Σ_s c_s·A_s ⊗ B_s over the sources s: each term (R̄, L_t, 2w), then
    (I, K, 1) and ((ih − m)ᵀ, I, 1), with K = −ih − m and m = Σ w R†L_t; an
    addend is c_s times a nonzero of A_s times a nonzero of B_s. Raises what
    :func:`superop.checked_sources` raises; numpy stays quiet where an addend
    overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        h, m = checked_sources(h, terms)
        d = len(h)
        n = d * d
        eye = np.eye(d, dtype=complex)
        a = np.array([t.right.conj() for t in terms] + [eye, (1j * h - m).T])
        b = np.array([t.left for t in terms] + [-1j * h - m, eye])
        c = np.array([2.0 * t.weight for t in terms] + [1.0, 1.0])
        # every pair of a nonzero of A_s with one of B_s, source by source
        sa, ia, ja = np.nonzero(a)
        sb, ib, jb = np.nonzero(b)
        per_b = np.bincount(sb, minlength=len(c))
        count = per_b[sa]
        end = np.cumsum(count)
        pair_a = np.repeat(np.arange(len(sa)), count)
        pair_b = np.arange(end[-1]) + np.repeat(np.cumsum(per_b)[sa] - per_b[sa] - end + count, count)
        addend = c[sa][pair_a] * (a[sa, ia, ja][pair_a] * b[sb, ib, jb][pair_b])
    # the addend's row in vec order is (ib, ia), its column (jb, ja)
    at = (d * (ia * n + ja))[pair_a] + (ib * n + jb)[pair_b]
    # one label per entry: the position of one of its addends
    first = np.empty(n * n, dtype=np.int32)  # read only where written
    first[at] = np.arange(len(at))
    label = first[at]
    del first
    entry = np.flatnonzero(label == np.arange(len(at)))
    return at[entry], np.bincount(label, addend.real)[entry] + 1j * np.bincount(label, addend.imag)[entry]


def _real_system(d: int, at: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The real trace-zero system of a generator L on d levels, from its
    entries: the flat indices row·d² + col of the entries given (any that are
    left out are zero) and their values. Returns (L_r, M, r, ‖L‖_∞): L_r =
    U†LU for the unitary U whose columns are the Hermitian basis of
    :func:`_hermitian_basis`, real where L preserves hermiticity; and L's
    steady-state equation on the trace-zero subspace, M·y = r, with M =
    B_rᵀ·L_r·B_r and r = −B_rᵀ·L_r·c_I for the orthonormal basis B_r of
    :func:`_hermitian_basis` (never formed) and the coordinates c_I of I/d,
    so that the steady state is c = c_I + B_r·y. As L maps into that
    subspace, M's singular values are those of L_r·B_r.

    ‖L‖_∞ and the trace row are summed as Superoperator sums them, over all
    d²×d² entries, so both are the dense L's to the bit. Each entry of L
    lands on at most four entries of U†LU, times its column factor and then
    its row factor; np.bincount sums them, and :func:`_restrict` runs the
    Householder tail. Raises ValueError when ‖L‖_∞ is not finite,
    AssemblyError when L is not trace preserving and SteadyStateError when L
    does not preserve hermiticity."""
    n = d * d
    row, col = np.divmod(at, n)
    # |L| row by row, zeros included, as Superoperator.norm_inf sums it
    magnitude = np.zeros(n * n)
    magnitude[at] = np.abs(value)
    scale = float(magnitude.reshape(n, n).sum(axis=1).max(initial=0.0))
    del magnitude
    if not math.isfinite(scale):
        raise ValueError("matrix contains non-finite entries: the generator overflows")
    # the rows (i, i), summed over i as Superoperator.trace_defect sums them
    on_trace = row % (d + 1) == 0
    trace_rows = np.zeros((d, n), dtype=complex)
    trace_rows[row[on_trace] // (d + 1), col[on_trace]] = value[on_trace]
    check_trace_defect(float(np.abs(trace_rows.sum(axis=0)).max(initial=0.0)))
    # each entry's four addends of U†LU: the column factor first, then the row factor
    sym, anti, f_sym, f_anti = _vec_coordinates(d)
    by_sym, by_anti = f_sym[col] * value, f_anti[col] * value
    g_sym, g_anti = f_sym[row].conj(), f_anti[row].conj()
    addend = np.concatenate([g_sym * by_sym, g_sym * by_anti, g_anti * by_sym, g_anti * by_anti])
    to_sym, to_anti = n * sym[row], n * anti[row]
    target = np.concatenate([to_sym + sym[col], to_sym + anti[col], to_anti + sym[col], to_anti + anti[col]])
    imag = np.bincount(target, addend.imag, minlength=n * n)
    defect = float(np.abs(imag, out=imag).max(initial=0.0))
    del imag
    lr = np.bincount(target, addend.real, minlength=n * n).reshape(n, n)
    return lr, *_restrict(lr, defect, scale), scale


def generator_system(h, terms: list[DissipatorTerm]) -> tuple[np.ndarray, np.ndarray, float]:
    """(M, r) of :func:`trace_zero_system` and ‖L‖_∞ of the generator L that
    ``superop.assemble(h, terms)`` forms, by :func:`_real_system` on the
    entries of :func:`_generator_entries`, assemble's to the bit (in another
    order, so M and r can differ from trace_zero_system's by rounding where
    several entries meet in one entry of L_r), without forming L or any
    other d²×d² complex array. Raises what assemble raises
    (ValueError, NonHermitianError, AssemblyError) and SteadyStateError when L
    does not preserve hermiticity; unlike assemble, without a numpy warning
    where L overflows."""
    return _real_system(len(h), *_generator_entries(h, terms))[1:]


def _dense_system(l: Superoperator) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """:func:`_real_system` of a dense L, from its nonzeros."""
    flat = l.mat.ravel()
    at = np.flatnonzero(flat)
    return _real_system(l.dim, at, flat[at])


def trace_zero_system(l: Superoperator) -> tuple[np.ndarray, np.ndarray]:
    """(M, r) of :func:`_real_system` for a dense L, linear in L: the system of
    Σ c_k·L_k is Σ c_k·(M_k, r_k). Raises what :func:`_real_system` raises."""
    return _dense_system(l)[1:3]


def _frobenius_norms(a: np.ndarray) -> np.ndarray:
    """‖a_p‖_F of each matrix of a real stack (B, k, k), bit for bit
    ``np.linalg.norm(a_p)``: one dot product of the matrix, flat in its
    memory order, with itself (a stacked einsum moves the last bit)."""
    x = (a.swapaxes(1, 2) if a.strides[1] < a.strides[2] else a).reshape(len(a), 1, -1)
    return np.sqrt(x @ x.swapaxes(1, 2)).ravel()


def _certified_unique(bound: float) -> bool:
    """Whether bound = ‖M‖_F·‖M⁻¹‖_F proves that M passes the uniqueness
    test σ_min > UNIQUENESS_TOL·σ_max: σ_min(M) ≥ 1/‖M⁻¹‖_F and σ_max(M) ≤
    ‖M‖_F, and the threshold keeps a 100× margin for rounding in the computed
    inverse. False means "not proven", never "not unique"."""
    return bool(bound < 1e-2 / UNIQUENESS_TOL)


def _states(m: np.ndarray, r: np.ndarray, c: np.ndarray,
            norm: Callable[[int], float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked states of a stack of B generators from their trace-zero
    systems (M, r) and Hermitian-basis coordinates c (B, n): per state, the
    Hermitian matrix of c, divided by its trace. Only its eigenvalues are
    computed, unless one is negative: such a state (its eigenvalues all above
    −CLAMP_TOL, or SteadyStateError) is rebuilt from its eigendecomposition
    with the negative eigenvalues set to zero before the division. The
    residual ‖M·y′ − r‖ (y′ the :func:`_trace_zero_coordinates` of the
    clamped ρ; this is ‖L vec ρ‖, as L maps into that subspace) must stay
    below RESIDUAL_TOL·max(norm(k), 1), norm(k) being the k-th ‖L‖_∞, asked
    only for a residual above RESIDUAL_TOL. A ρ that is not finite (its trace
    overflowed, or was 0) raises SteadyStateError. Returns the states (B, d, d),
    their smallest eigenvalues before the clamp and their residuals. Every
    matrix product is one call per point, so a point's numbers do not
    depend on the stack it is in."""
    d = round(c.shape[1] ** 0.5)
    rho = _from_real(c, d)
    min_eig = np.linalg.eigvalsh(rho).min(axis=1)
    if min_eig.min() < -CLAMP_TOL:
        raise SteadyStateError(
            f"steady state has eigenvalue {min_eig.min():.2e} below clamp tolerance; "
            "the generator is not completely positive"
        )
    clamped = min_eig < 0
    if clamped.any():  # only these need their eigenvectors
        w, v = np.linalg.eigh(rho[clamped])
        rho[clamped] = hermitize((v * np.clip(w, 0.0, None)[:, None, :]) @ v.conj().swapaxes(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero or non-finite trace leaves ρ non-finite
        rho /= rho.trace(axis1=1, axis2=2).real[:, None, None]
    if not np.isfinite(rho).all():
        raise SteadyStateError("steady state is not finite")

    residual = np.linalg.norm((m @ _trace_zero_coordinates(rho)[..., None])[..., 0] - r, axis=1)
    for k in np.flatnonzero(residual > RESIDUAL_TOL):
        if residual[k] > RESIDUAL_TOL * max(norm(k), 1.0):
            raise SteadyStateError(f"steady-state residual {residual[k]:.2e} exceeds {RESIDUAL_TOL:.0e}·‖L‖")
    return rho, min_eig, residual


def steady_state_on(l: Superoperator, space: HilbertSpace) -> SteadyStateReport:
    """Unique steady state of a trace-preserving Liouvillian, tagged with the
    factor structure of ``space``.

    :func:`trace_zero_system` plus :func:`steady_state_restricted` on a stack
    of one. One LU of the real trace-zero restriction M gives both the state
    c = c_I + B_r·M⁻¹r (triangular solves) and, through M⁻¹, the uniqueness
    certificate ‖M‖_F·‖M⁻¹‖_F (:func:`_solve_stack`). Where the bound does not
    certify, one SVD of M decides uniqueness, σ_min(M) >
    UNIQUENESS_TOL·σ_max(M) (:func:`_decided`): a unique point keeps the
    LU's state, and a non-unique report carries the minimum-norm solution at
    that rank rule. L is checked to be trace preserving (AssemblyError,
    raised by :func:`_real_system`), since the residual, on (M, r), cannot
    see its trace row.
    """
    return _point_report(space, *_dense_system(l)[1:])


def steady_state_of(h, terms: list[DissipatorTerm], space: HilbertSpace) -> SteadyStateReport:
    """:func:`steady_state_on` for the generator that ``superop.assemble(h,
    terms)`` forms, solved from the system (M, r) and ‖L‖_∞ of
    :func:`generator_system`, which never forms L. Raises what
    :func:`generator_system` raises."""
    return _point_report(space, *generator_system(h, terms))


def _point_report(space: HilbertSpace, m: np.ndarray, r: np.ndarray, scale: float) -> SteadyStateReport:
    """The report of one generator from its trace-zero system (M, r) and ‖L‖_∞ ``scale``."""
    rho, residual, min_eig, unique, bound = _solve_stack(space.dim, m[None], r[None], lambda _: scale)
    return SteadyStateReport(DensityMatrix(space, rho[0]), float(residual[0]), float(min_eig[0]),
                             bool(unique[0]), float(bound[0]))


def lstsq_solve(m, b) -> np.ndarray:
    """Least-squares solution x of min ‖m·x − b‖₂ by column-pivoted QR: one
    LAPACK ``dgelsy`` call for a real system, ``zgelsy`` for a complex one
    (either ``m`` or ``b`` complex), in double precision, with the workspace
    that ``*gelsy_lwork`` asks for, as ``scipy.linalg.lstsq(m, b,
    cond=LSTSQ_COND, lapack_driver="gelsy")`` calls it, so x is its x to the
    bit. A real system gives a real x, a complex one a complex x; a 1-D ``b``
    a 1-D x. Where the numerical rank (at LSTSQ_COND) falls below the column
    count, x is gelsy's minimum-norm solution at that rank. Raises
    ``ValueError`` for non-finite input, an underdetermined system, a
    right-hand side of another row count, or a LAPACK error."""
    m, b = np.asarray(m), np.asarray(b)
    if not (np.isfinite(m).all() and np.isfinite(b).all()):
        raise ValueError("matrix contains non-finite entries")
    rows, cols = m.shape
    if rows < cols:
        raise ValueError(f"system is underdetermined: {rows} rows < {cols} cols")
    if b.shape[0] != rows:
        raise ValueError(f"right-hand side has {b.shape[0]} rows, matrix has {rows}")
    routine = "zgelsy" if np.iscomplexobj(m) or np.iscomplexobj(b) else "dgelsy"
    if not cols:  # LAPACK rejects the empty pivot array
        return np.zeros((0,) + b.shape[1:], dtype=complex if routine == "zgelsy" else float)
    work, info = getattr(_flapack, f"{routine}_lwork")(rows, cols, b.shape[1] if b.ndim == 2 else 1, LSTSQ_COND)
    if info != 0:
        raise ValueError(f"LAPACK {routine}_lwork failed with info {info}")
    pivots = np.zeros(cols, dtype=np.int32)  # 0: every column is free to move
    _, x, _, _, info = getattr(_flapack, routine)(m, b, pivots, LSTSQ_COND, int(work.real), False, False)
    if info != 0:
        raise ValueError(f"LAPACK {routine} failed with info {info}")
    return x[:cols]


def lstsq_state(lr: np.ndarray, m: np.ndarray, r: np.ndarray, scale: float) -> np.ndarray:
    """The steady state by least squares on the unrestricted real system
    [L_r; t]·c = [0; 1] (L_r of :func:`_real_system`, t the trace row),
    rebuilt and checked by the solver's own tail (:func:`_states`, on the
    system (M, r) of the same L and its ‖L‖_∞ ``scale``). No solve route uses
    it: it shares neither the trace-zero basis nor the LU with them, so the
    compile's self-check takes it as its independent reference. Raises
    SteadyStateError as :func:`_states` does."""
    n = len(lr)
    d = math.isqrt(n)
    stacked = np.zeros((n + 1, n))
    stacked[:n] = lr
    stacked[n, :d] = 1.0
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    c = lstsq_solve(stacked, rhs)
    return _states(m[None], r[None], c[None], lambda _: scale)[0][0]


def _restricted_coordinates(y: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian-basis coordinates c = c_I + B_r·y, one row per row y of the stack (B, d² − 1)."""
    _, house = _hermitian_basis(d)
    return np.concatenate([(house[:, 1:] @ y[:, :d - 1, None])[..., 0] + 1.0 / d, y[:, d - 1:]], axis=1)


def _decided(m: np.ndarray, r: np.ndarray, y: np.ndarray | None, m_norm: float) -> tuple[np.ndarray, bool]:
    """Uniqueness of a point whose bound does not certify, by one SVD of M:
    σ_min > UNIQUENESS_TOL·σ_max. Returns it with the point's y: the LU's
    ``y`` where M is unique and getrf factored it, else the minimum-norm
    solution of M·y = r over the singular values that pass that rule (where
    M is not unique, an LU's y can be far from any state: for two qubits
    decaying collectively, one also locally at rate 1e-11, its smallest
    eigenvalue is −7.9e-6, against −8e-13 for the minimum-norm y). Raises
    SteadyStateError where ``m_norm`` = ‖M‖_F is not finite (M has a
    non-finite entry, or entries beyond about 1e154): neither the
    certificate nor a residual at M's scale can be formed there."""
    if not math.isfinite(m_norm):
        raise SteadyStateError("steady state is not finite: the norm of its trace-zero system overflows")
    u, s, vt = np.linalg.svd(m)
    keep = s > UNIQUENESS_TOL * max(s.max(initial=0.0), 1e-300)
    unique = bool(keep.all())
    if y is None or not unique:
        y = vt[keep].T @ ((u[:, keep].T @ r) / s[keep])
    return y, unique


def _solve_stack(d: int, m: np.ndarray, r: np.ndarray, norm: Callable[[int], float]):
    """The arrays (ρ, residual, smallest eigenvalue, unique, bound) of
    :func:`steady_state_restricted`, from one LAPACK pass in a work copy of
    the stack, each matrix in Fortran order: per point, one LU of M (getrf),
    y by its triangular solves (getrs; the inverse times r moved ρ by up to
    1e-8 at bounds near 5e6, where these keep it within 5e-12), then M⁻¹ in
    place (getri). ‖M‖_F and ‖M⁻¹‖_F are formed once for the stack. The
    bound is inf where LAPACK finds M exactly singular (getri tests getrf's
    U) or rejects the 0×0 M of a one-level L; where it does not certify, one
    SVD decides (:func:`_decided`). All of it runs with numpy's overflow and
    invalid-value warnings off: a bound that overflows does not certify, and
    a non-finite M fails without a warning. Where the states fail their
    checks and a point is not unique, the SteadyStateError says "not
    unique": a minimum-norm solution need not be a state (at rates near
    1e-310, whose M is subnormal, it has an eigenvalue of −8e-4)."""
    b, k = m.shape[:2]
    work, y = m.transpose(0, 2, 1).copy().transpose(0, 2, 1), r.copy()
    factored, unique = np.zeros(b, dtype=bool), np.ones(b, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(b if k else 0):
            lu, piv, info = _getrf(work[p], overwrite_a=True)
            if info == 0:
                _getrs(lu, piv, y[p], overwrite_b=True)
                factored[p] = _getri(lu, piv, overwrite_lu=True)[1] == 0
        m_norm = _frobenius_norms(m)
        bound = np.where(factored, m_norm * _frobenius_norms(work), np.inf)
        for p in range(b):
            if not _certified_unique(bound[p]):
                y[p], unique[p] = _decided(m[p], r[p], y[p] if factored[p] else None, m_norm[p])
        c = _restricted_coordinates(y, d)
    if not np.isfinite(c).all():  # a y that overflowed
        raise SteadyStateError("steady state is not finite")
    try:
        rho, min_eig, residual = _states(m, r, c, norm)
    except SteadyStateError as exc:
        if unique.all():
            raise
        raise SteadyStateError("steady state is not unique") from exc
    return rho, residual, min_eig, unique, bound


def steady_state_restricted(space: HilbertSpace, m: np.ndarray, r: np.ndarray,
                            norm: Callable[[int], float]) -> SteadyStateReport:
    """:func:`steady_state_on` for a stack of B generators from their systems
    (M, r) of :func:`trace_zero_system`, already formed and checked (for
    example contracted from compiled pieces): ``m`` (B, k, k) and ``r``
    (B, k). ``norm(k)`` is the k-th point's ‖L‖_∞, asked only for a residual
    above RESIDUAL_TOL. Each point is decided on its own (M, r) by the rule
    of :func:`steady_state_on`, and the states share one tail
    (:func:`_states`). Returns one report for the stack, whose states are
    checked together."""
    rho, residual, min_eig, unique, bound = _solve_stack(space.dim, m, r, norm)
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
    from scipy.linalg import expm  # only here: no command runs evolve, so no command loads scipy.linalg

    v = expm(t_final * l.mat) @ vec(rho0.mat)
    return DensityMatrix(rho0.space, hermitize(unvec(v)))


def spectral_gap(l: Superoperator) -> float:
    """Estimate of min |Re λ| over the nonzero Liouvillian spectrum.

    Inverse iteration on the restriction M of :func:`trace_zero_system`, from
    a fixed complex start, on the solver's LU of M: one getrf, then per step
    one getrs on the iterate's real and imaginary parts as two columns. About
    10% accuracy, which is all the time-horizon choice needs. Returns 0.0 if
    getrf finds M singular (degenerate steady state) or an iterate is not
    finite; raises what :func:`trace_zero_system` raises.
    """
    m = trace_zero_system(l)[0]
    if not len(m):  # a one-level L has no nonzero spectrum, and LAPACK rejects its 0×0 M
        return 0.0
    lu, piv, info = _getrf(m)
    if info != 0:
        return 0.0
    rng = np.random.default_rng(_GAP_SEED)
    v = rng.normal(size=m.shape[0]) + 1j * rng.normal(size=m.shape[0])
    v /= np.linalg.norm(v)
    rq_prev = None
    for _ in range(_GAP_MAX_ITER):
        x, _ = _getrs(lu, piv, np.column_stack([v.real, v.imag]))
        v = x[:, 0] + 1j * x[:, 1]
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
