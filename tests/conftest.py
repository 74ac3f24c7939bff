import hypothesis
import numpy as np
import pytest

from polariton_ring.experiments import Axis, ObservableSpec, SweepPlan
from polariton_ring.linalg import HERM_TOL, DensityMatrix, herm_defect, herm_eig, hermitize
from polariton_ring.models import (
    MicroParams,
    ModelSpec,
    PathSetter,
    fig3_ring_spec,
    fig5_pair_spec,
    thermal_pair_spec,
    validation_micro_spec,
)
from polariton_ring.optimize import OptimizeReport, check_box, corner_starts, drive, multistart_maximize, nelder_mead
from polariton_ring.superop import vec

hypothesis.settings.register_profile("default", max_examples=25, deadline=None)
hypothesis.settings.register_profile("thorough", max_examples=200, deadline=None)
hypothesis.settings.load_profile("default")


def random_hermitian(rng, d, scale=1.0):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (g + g.conj().T) / 2


def random_density_mat(rng, d):
    """Ginibre-distributed density matrix (full rank almost surely)."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


# --- helpers of the tests that the package itself does not use ----------------

def basis_state(space, index=0):
    """Projector onto one computational basis state of the composite space."""
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[index, index] = 1.0
    return DensityMatrix(space, mat)


def psd_sqrt(a) -> np.ndarray:
    """Hermitian square root of a PSD matrix, or of each matrix of a stack
    (tiny negative eigenvalues clamped): the √ρ reference of the tests, which
    the package no longer forms. It raises below −HERM_TOL, a stricter rule
    than DensityMatrix's −PSD_TOL."""
    w, v = herm_eig(a)
    if w.min() < -HERM_TOL:
        raise ValueError(f"matrix not PSD: min eigenvalue {w.min():.2e}")
    s = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return hermitize(s)


def hermiticity_defect(l, n_probes=20, seed=1234):
    """Largest hermiticity violation of L(ρ) over random Hermitian probes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        g = rng.normal(size=(l.dim, l.dim)) + 1j * rng.normal(size=(l.dim, l.dim))
        probe = hermitize(g)
        probe /= max(1.0, float(np.abs(probe).max()))
        worst = max(worst, herm_defect(l.apply(probe)))
    return worst


def hermitian_basis(d: int) -> np.ndarray:
    """Oracle: the unitary U whose columns are vec of E_ii, then (E_ij + E_ji)/√2,
    then i(E_ij − E_ji)/√2 for i < j in ``np.triu_indices`` order."""
    cols = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        cols.append(vec(e))
    pairs = list(zip(*np.triu_indices(d, 1)))
    for phase, sign in ((1.0, 1.0), (1j, -1.0)):
        for i, j in pairs:
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = phase / np.sqrt(2)
            e[j, i] = sign * phase / np.sqrt(2)
            cols.append(vec(e))
    return np.array(cols).T


def trace_zero_basis(d: int) -> np.ndarray:
    """Oracle: the orthonormal basis B_r (columns) of the trace-zero subspace
    of the coordinates of :func:`hermitian_basis`, written out densely:
    columns 1.. of the Householder reflection that maps e₀ to the normalized
    trace row on the diagonal coordinates."""
    n = d * d
    w = np.zeros(n)
    w[:d] = 1.0 / np.sqrt(d)
    w[0] -= 1.0
    if np.linalg.norm(w) > 1e-14:
        w /= np.linalg.norm(w)
    return (np.eye(n) - 2.0 * np.outer(w, w))[:, 1:]


def system_oracle(lmat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oracle: U†LU (complex) of a dense d²×d² L, and its real part's
    trace-zero system M = B_rᵀ·L_r·B_r, r = −B_rᵀ·L_r·c_I (c_I the coordinates
    of I/d), by dense products with :func:`hermitian_basis` and
    :func:`trace_zero_basis`."""
    d = round(len(lmat) ** 0.5)
    u, b = hermitian_basis(d), trace_zero_basis(d)
    lu = u.conj().T @ lmat @ u
    c_i = np.zeros(d * d)
    c_i[:d] = 1.0 / d
    return lu, b.T @ lu.real @ b, -b.T @ lu.real @ c_i


def apply_path(spec: ModelSpec, path: str, value: float) -> ModelSpec:
    """``spec`` with the one parameter that ``path`` addresses set to ``value``."""
    return PathSetter(spec, (path,))((value,))


def bundled_models():
    """The default model instances exercised by the property and acceptance suites."""
    return {
        "fig3_ring": fig3_ring_spec(),
        "fig5_pair": fig5_pair_spec(),
        "thermal_pair": thermal_pair_spec(x=2.0, n_p=0.0),
        "validation_micro": validation_micro_spec(),
    }


def three_guide_pair_micro(j):
    """Resonant three-guide pair, end guides driven in antiphase, with bare qubit decay."""
    return MicroParams(
        n_sites=2, J=(j, j, j), kappa=1.0, gamma_p=0.005, alpha=(j / 2, 0.0, j / 2), phi=(np.pi, 0.0, 0.0),
        omega_c=(1.0, 1.0, 1.0), omega_p=(1.0, 1.0), omega_d=1.0, n_boson=2,
    )


def phase_grid(count=41, stop=2 * np.pi):
    return tuple(np.linspace(0.0, stop, count))


def phase_sweep_plan(model, paths=("x[0].phase", "x[2].phase"), count=41, sites=None):
    """The standard two-phase concurrence sweep for either figure model."""
    if sites is None:
        sites = (1, 2) if model.model == "ring3_eff" else (0, 1)
    grid = phase_grid(count)
    return SweepPlan(
        model=model,
        axes=(Axis(paths[0], grid), Axis(paths[1], grid)),
        observables=(ObservableSpec("concurrence", sites=sites),),
    )


def smooth3(values):
    """3-point moving average with the endpoints kept."""
    out = np.asarray(values, dtype=float).copy()
    if len(out) >= 3:
        out[1:-1] = (out[:-2] + out[1:-1] + out[2:]) / 3.0
    return out


def interior_maxima(values, smooth=True):
    """Indices of the strict local maxima away from the edges, optionally after smoothing."""
    v = smooth3(values) if smooth else np.asarray(values, dtype=float)
    return [i for i in range(1, len(v) - 1) if v[i] > v[i - 1] and v[i] > v[i + 1]]


def count_interior_maxima(values, smooth=True):
    """Strict local maxima away from the edges, optionally after smoothing."""
    return len(interior_maxima(values, smooth))


def fwhm(coords, values):
    """Full width at half maximum of the (single) peak of a sampled curve,
    with linear interpolation at the half-crossings."""
    coords = np.asarray(coords, dtype=float)
    values = np.asarray(values, dtype=float)
    half = values.max() / 2.0
    peak = int(np.argmax(values))
    lo = peak
    while lo > 0 and values[lo - 1] >= half:
        lo -= 1
    hi = peak
    while hi < len(values) - 1 and values[hi + 1] >= half:
        hi += 1
    if lo == 0:
        left = coords[0]
    else:
        frac = (half - values[lo - 1]) / (values[lo] - values[lo - 1])
        left = coords[lo - 1] + frac * (coords[lo] - coords[lo - 1])
    if hi == len(values) - 1:
        right = coords[-1]
    else:
        frac = (values[hi] - half) / (values[hi] - values[hi + 1])
        right = coords[hi] + frac * (coords[hi + 1] - coords[hi])
    return float(right - left)


def lockstep_maximize(func, bounds, budget, param_names=None):
    """:func:`multistart_maximize` driven on a scalar function, one batch of
    points (one per live start) at a time."""
    return drive(multistart_maximize(bounds, budget=budget, param_names=param_names),
                 lambda points: [func(x) for x in points])


def sequential_maximize(func, bounds, budget, param_names=None):
    """The reference for :func:`multistart_maximize`: each start's Nelder-Mead
    run alone, in start order, on a scalar function, each with its share of
    the budget capped by what the earlier starts left."""
    check_box(bounds, budget)
    names = list(param_names) if param_names is not None else [f"p{i}" for i in range(len(bounds))]
    starts = corner_starts(bounds)
    per_start = max(1, budget // len(starts))
    trace = []
    best_x, best_val, used = None, -np.inf, 0
    for start in starts:
        if used >= budget:
            break
        x, fneg, evals = drive(nelder_mead(start, bounds, min(per_start, budget - used)), lambda x: -func(x))
        used += evals
        if -fneg > best_val:
            best_x, best_val = x, -fneg
            trace.append(({n: float(v) for n, v in zip(names, x)}, best_val))
    return OptimizeReport(best_params={n: float(v) for n, v in zip(names, best_x)}, best_value=float(best_val),
                          evaluations=used, trace=trace)
