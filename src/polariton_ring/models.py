"""Model builders for driven-dissipative cavity arrays.

Four families are covered, all in the rotating frame of the drive:

* ``ring3_eff``  - three polariton qubits on a ring of three lossy guides,
  after adiabatic elimination of the guides.
* ``pair_eff``   - two polariton qubits coupled by a middle guide, with two
  additional end guides (three drives total), guides eliminated.
* ``pair_thermal`` - two polariton qubits sharing a single guide; the model
  behind the thermalization maps.
* ``micro``      - the full qubits-plus-truncated-boson-modes models used to
  validate the eliminated ones.

Every model pumps its qubits thermally at the occupation ``n_p``.

Conventions. Rates are dimensionless ratios; pick the scale by setting the
first guide-induced rate to 1. Each qubit has ground state at index 0 with
lowering operator ``SIGMA_MINUS``. Induced single-site level shifts are taken
to be cancelled by the choice of polariton frequencies, so the effective
Hamiltonians contain hopping and drive terms only.
"""

from __future__ import annotations

import cmath
import dataclasses
import sys
import typing
import warnings
from dataclasses import MISSING, dataclass, fields, replace
from functools import cache
from types import SimpleNamespace

import numpy as np

from .linalg import HilbertSpace, embed, hermitize
from .superop import DissipatorTerm

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

# J <= WEAK_COUPLING_RATIO * kappa counts as the adiabatic-elimination regime.
WEAK_COUPLING_RATIO = 0.1

# Largest working set of a solve a micro ModelSpec may stand for: the two real
# d²×d² arrays it holds at once (the real form and M, then M and its LU),
# 16·d⁴ bytes; MicroParams alone is not limited, since only a ModelSpec is
# solved. Admits the ring at n_boson=2 (d = 64, 256 MiB); rejects it at
# n_boson=3 (d = 216, about 35 GB). The ring at n_boson=2 peaks at 338 MB,
# the pair3 micro at n_boson=2 at 84.5 MB, of which about 65 MB is the
# interpreter (one BLAS thread).
MICRO_L_BYTES_BUDGET = 512 * 2**20

# Most grid points one sweep or thermal map may hold. Points are solved in turn
# (0.1-1 ms each), so this bounds the run time of one call at minutes; a grid
# beyond this is a config error.
GRID_POINT_BUDGET = 10**6


class Geometry(typing.NamedTuple):
    """One guide-coupling geometry, which states both its full model and its
    eliminated one (see model_pieces). A guide is dressed when it couples two
    sites: it hops between them, mixes them and carries a share of their bare
    decay in z."""

    name: str
    guide_sites: tuple[tuple[int, ...], ...]  # the qubit sites each guide couples to, one or two
    model: str  # the eliminated model
    concurrence_sites: tuple[int, int]  # the pair the optimizer maximizes by default

    @property
    def n_sites(self) -> int:
        return 1 + max(s for sites in self.guide_sites for s in sites)

    @property
    def n_guides(self) -> int:
        return len(self.guide_sites)

    @property
    def bare_split(self) -> float:
        """z_i = 1 + γ/(bare_split·Γ_i): twice the number of dressed guides at a
        site, which must be the same at every site (see derive_effective)."""
        (count,) = {len(dressed) for dressed, _ in _site_guides(self.model)}
        return 2.0 * count


ROWS = (
    Geometry("ring3", ((0, 1), (1, 2), (2, 0)), "ring3_eff", concurrence_sites=(1, 2)),
    Geometry("pair3", ((0,), (0, 1), (1,)), "pair_eff", concurrence_sites=(0, 1)),
    Geometry("pair1", ((0, 1),), "pair_thermal", concurrence_sites=(0, 1)),
)
GEOMETRIES = {(row.n_sites, row.n_guides): row for row in ROWS}  # the full models, by (n_sites, number of guides)
EFFECTIVE = {row.model: row for row in ROWS}  # the eliminated models, by name
MODEL_NAMES = tuple(EFFECTIVE) + ("micro",)


@cache
def _site_guides(model: str) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per site of an effective model's row, its dressed guides and its undressed ones."""
    row = EFFECTIVE[model]
    at = [[i for i, sites in enumerate(row.guide_sites) if s in sites] for s in range(row.n_sites)]
    return tuple((tuple(i for i in guides if len(row.guide_sites[i]) == 2),
                  tuple(i for i in guides if len(row.guide_sites[i]) == 1)) for guides in at)


def _constructor_stacklevel() -> int:
    """The ``stacklevel`` that points a warning of a dataclass's
    ``__post_init__`` (this function's caller) at the code that builds the
    instance, past the generated ``__init__`` (file ``<string>``) and
    ``dataclasses.replace``."""
    frame, level = sys._getframe(2), 2
    while frame.f_code.co_filename in ("<string>", dataclasses.__file__):
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class MicroParams:
    """Physical parameters of a full (qubits + guides) model.

    The guide-coupling geometry is the row of GEOMETRIES at
    ``(n_sites, len(J))``. All frequencies share the drive's units;
    ``omega_d`` is subtracted in the rotating frame.
    """

    n_sites: int
    J: tuple[float, ...]
    kappa: float
    gamma_p: float
    alpha: tuple[float, ...]
    phi: tuple[float, ...]
    omega_c: tuple[float, ...]
    omega_p: tuple[float, ...]
    omega_d: float
    n_boson: int = 3
    n_c: float = 0.0
    n_p: float = 0.0

    def __post_init__(self):
        for name in ("J", "alpha", "phi", "omega_c", "omega_p"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        scalars = (self.kappa, self.gamma_p, self.omega_d, self.n_c, self.n_p)
        if not all(map(cmath.isfinite, self.J + self.alpha + self.phi + self.omega_c + self.omega_p + scalars)):
            raise ValueError("micro parameters must be finite")
        n_guides = len(self.J)
        if (self.n_sites, n_guides) not in GEOMETRIES:
            raise ValueError(f"unsupported geometry {(self.n_sites, n_guides)}: (sites, guides) in {list(GEOMETRIES)}")
        for name in ("alpha", "phi", "omega_c"):
            if len(getattr(self, name)) != n_guides:
                raise ValueError(f"{name} must have one entry per guide ({n_guides})")
        if len(self.omega_p) != self.n_sites:
            raise ValueError(f"omega_p must have one entry per site ({self.n_sites})")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if min(self.gamma_p, self.n_c, self.n_p) < 0 or min(self.J) < 0 or min(self.alpha) < 0:
            raise ValueError("rates and occupations must be nonnegative")
        if self.n_boson < 2:
            raise ValueError("boson truncation must be at least 2")
        weak = all(a <= j for a, j in zip(self.alpha, self.J)) and max(self.J) <= WEAK_COUPLING_RATIO * self.kappa
        if not weak:
            warnings.warn(
                "parameters leave the weak-driving regime (alpha_i <= J_i << kappa); "
                "effective models may not apply",
                stacklevel=_constructor_stacklevel(),
            )

    @property
    def geometry(self) -> Geometry:
        return GEOMETRIES[(self.n_sites, len(self.J))]


@dataclass(frozen=True)
class EffectiveParams:
    """Dimensionless parameters of an eliminated-guide model.

    ``Gamma[i]`` is the rate induced by guide i, ``x[i]`` the transferred
    drive, ``y[i]`` the induced hopping strength and ``z[i]`` the local decay
    dressing (z = 1 corresponds to no bare qubit decay). Lengths are one per
    guide: 3 for the ring and three-guide pair, 1 for the single-guide pair.
    ``n_p`` is the qubits' thermal occupation, which pumps every site of
    every effective model.
    """

    Gamma: tuple[float, ...]
    x: tuple[complex, ...]
    y: tuple[float, ...]
    z: tuple[float, ...]
    n_p: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "Gamma", tuple(float(v) for v in self.Gamma))
        object.__setattr__(self, "x", tuple(complex(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        object.__setattr__(self, "z", tuple(float(v) for v in self.z))
        if not all(map(cmath.isfinite, self.Gamma + self.x + self.y + self.z + (self.n_p,))):
            raise ValueError("effective parameters must be finite")
        n = len(self.Gamma)
        if any(len(getattr(self, name)) != n for name in ("x", "y", "z")):
            raise ValueError("Gamma, x, y, z must have equal lengths")
        if any(g <= 0 for g in self.Gamma):
            raise ValueError(f"all Gamma must be positive, got {self.Gamma}")
        if any(zi < 1.0 for zi in self.z):
            raise ValueError(f"all z must be >= 1, got {self.z}")
        if self.n_p < 0:
            raise ValueError("n_p must be nonnegative")


def derive_effective(p: MicroParams) -> EffectiveParams:
    """Map microscopic parameters to the eliminated-guide ones.

    Per guide i:  Gamma_i = 2 J_i² κ / (κ² + 4 Δ_i²),
    x_i = −α_i e^{iφ_i} (2Δ_i + iκ)/(J_i κ),  y_i = −2Δ_i/κ.

    The guide detuning Δ_i is the frequency mismatch between guide i and the
    mean of its adjacent qubits.
    The decay dressing z splits the bare qubit decay γ across the dressed
    guides at each site, whose decay weight sums their Γ_i z_i:
    z_i = 1 + γ/(bare_split·Γ_i), with bare_split twice their number (4 on
    the ring, 2 on both pairs), so that each site's weight carries γ/2.

    Raises FloatingPointError when finite parameters overflow this form (a
    detuning whose square overflows, or a Γ_i that underflows to zero).
    """
    if any(j == 0 for j in p.J):
        raise ZeroDivisionError("J_i must be nonzero to derive effective parameters")
    kappa, gamma, geometry = p.kappa, p.gamma_p, p.geometry
    split = geometry.bare_split
    Gamma, x, y, z = [], [], [], []
    try:
        for j, alpha, phi, omega_c, sites in zip(p.J, p.alpha, p.phi, p.omega_c, geometry.guide_sites):
            delta = omega_c - sum(p.omega_p[s] for s in sites) / len(sites)
            g = 2.0 * j**2 * kappa / (kappa**2 + 4.0 * delta**2)
            Gamma.append(g)
            x.append(-alpha * cmath.exp(1j * phi) * (2.0 * delta + 1j * kappa) / (j * kappa))
            y.append(-2.0 * delta / kappa)
            z.append(1.0 + gamma / (split * g))  # a Γ that underflows to 0 divides by zero
        finite = all(map(cmath.isfinite, Gamma + x + y + z))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise FloatingPointError(f"the {geometry.name} parameters overflow their eliminated form")
    return EffectiveParams(Gamma=tuple(Gamma), x=tuple(x), y=tuple(y), z=tuple(z), n_p=p.n_p)


BuildResult = tuple[HilbertSpace, np.ndarray, list[DissipatorTerm]]


@cache
def _qubit_ops(factor_dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """σ⁻ embedded at each qubit of an all-qubit space, built once per geometry.

    The arrays are shared by every model built on that geometry, so they are
    read-only.
    """
    space = HilbertSpace(factor_dims)
    ops = tuple(embed(SIGMA_MINUS, i, space) for i in range(space.n_factors))
    for op in ops:
        op.setflags(write=False)
    return ops


# --- affine form of the effective models ---------------------------------------
#
# Each effective generator is linear in a few real coefficients,
# L(θ) = Σ_k c_k(θ)·L_k: fixed operator pieces (ModelPieces) and a coefficient
# map, both read off the model's row of ROWS by one rule; build_model and the
# compiled sweeps (experiments.CompiledModel) both start from these two.


@dataclass(frozen=True)
class ModelPieces:
    """Fixed operators of one effective model.

    ``hams`` are Hermitian h-pieces and ``groups`` unit-weight term groups (a
    cross pair is one group). With coefficients c, h = Σ_k c_k·hams[k] and
    group g enters at weight c[len(hams) + g]. Built once per model; the
    arrays are read-only.
    """

    space: HilbertSpace
    hams: tuple[np.ndarray, ...]
    groups: tuple[tuple[DissipatorTerm, ...], ...]

    def build(self, c) -> BuildResult:
        """(space, h, terms) at coefficients c; groups at weight 0 are left out."""
        n_h = len(self.hams)
        d = self.space.dim
        h = np.zeros((d, d), dtype=complex)
        for ck, hk in zip(c[:n_h], self.hams):
            h += ck * hk
        terms = [DissipatorTerm(t.left, t.right, ck) for ck, group in zip(c[n_h:], self.groups) if ck != 0
                 for t in group]
        return self.space, h, terms


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _herm(a: np.ndarray) -> np.ndarray:
    """The h-piece a + a†."""
    return _frozen(a + a.conj().T)


def _herm_pair(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h-pieces of u·a + h.c. for complex u: a + a† weighs Re u, i(a − a†) weighs Im u."""
    return _herm(a), _herm(1j * a)


def _group(*pairs: tuple[np.ndarray, np.ndarray]) -> tuple[DissipatorTerm, ...]:
    return tuple(DissipatorTerm(left, right, 1.0) for left, right in pairs)


@cache
def model_pieces(model: str) -> ModelPieces:
    """The fixed operator pieces of an effective model (cached, read-only),
    from its row: per guide i coupling the sites S_i, the hopping P_a†P_b if
    it couples two sites a, b, then the drive pair of Σ_{s∈S_i} P_s†; per
    site, its downward group; per two-site guide, its cross group; last, per
    site, its upward group."""
    row = EFFECTIVE[model]
    space = HilbertSpace((2,) * row.n_sites)
    P = _qubit_ops(space.factor_dims)
    hams, cross = [], []
    for sites in row.guide_sites:
        if len(sites) == 2:
            a, b = sites
            hams.append(_herm(P[a].conj().T @ P[b]))
            cross.append(_group((P[a], P[b]), (P[b], P[a])))
        hams += _herm_pair(sum(P[s].conj().T for s in sites))
    down = [_group((p, p)) for p in P]
    up = [_group((r, r)) for r in (_frozen(p.conj().T) for p in P)]
    return ModelPieces(space, tuple(hams), tuple(down + cross + up))


def _total(terms: list):
    """The sum of ``terms`` from the first one on (0 + −0.0 would be +0.0)."""
    return sum(terms[1:], terms[0])


def _coefficients(model: str, p) -> list:
    """The coefficients of ``model_pieces(model)`` at the parameters ``p``,
    scalars or (B,) columns. The model is
    H = Σ_i Γ_i [ y_i P_a†P_b (guides on two sites a, b) + x_i Σ_{s∈S_i} P_s† ] + h.c.,
    with a cross pair (P_a, P_b), (P_b, P_a) at weight Γ_i for each two-site
    guide. Site s is pumped up with weight w_up = γ n_p/2 by the bare decay
    hidden in z, γ = 2 Σ_dressed Γ_i(z_i − 1), and decays with weight
    Σ Γ_i z_i over its dressed guides plus Σ Γ_i over its undressed ones plus
    w_up. At n_p = 0, w_up is exactly 0.

    Coefficients: per guide, Γ_i y_i if it couples two sites, then Re and Im
    of Γ_i x_i; per site, its downward weight; Γ_i for each two-site guide;
    last, per site, its upward weight."""
    c, cross, up = [], [], []
    for i, sites in enumerate(EFFECTIVE[model].guide_sites):
        if len(sites) == 2:
            c.append(p.Gamma[i] * p.y[i])
            cross.append(p.Gamma[i])
        gx = p.Gamma[i] * p.x[i]
        c += [gx.real, gx.imag]
    for dressed, undressed in _site_guides(model):
        w_up = _total([2.0 * p.Gamma[i] * (p.z[i] - 1.0) for i in dressed]) * p.n_p / 2.0
        c.append(_total([p.Gamma[i] * p.z[i] for i in dressed] + [p.Gamma[i] for i in undressed]) + w_up)
        up.append(w_up)
    return c + cross + up


def _build_micro(p: MicroParams) -> BuildResult:
    """Full model: qubits plus truncated guide modes, still in the rotating frame.

    Factor order is qubits first, then guides, so the polariton marginal is
    ``partial_trace(rho, range(n_sites))``. Decay weights follow the κ/2, γ/2
    convention with the thermal (n_c, n_p) splittings applied to both.
    """
    space = _micro_space(p)
    P = [embed(SIGMA_MINUS, i, space) for i in range(p.n_sites)]
    lower = np.diag(np.sqrt(np.arange(1, p.n_boson)), 1).astype(complex)
    A = [embed(lower, p.n_sites + g, space) for g in range(len(p.J))]

    d = space.dim
    h = np.zeros((d, d), dtype=complex)
    for g, ag in enumerate(A):
        h += (p.omega_c[g] - p.omega_d) * (ag.conj().T @ ag)
    for s, ps in enumerate(P):
        h += (p.omega_p[s] - p.omega_d) * (ps.conj().T @ ps)
    half = np.zeros((d, d), dtype=complex)
    for g, sites in enumerate(p.geometry.guide_sites):
        b = sum(P[s] for s in sites)
        half += p.J[g] * (A[g].conj().T @ b)
        half += p.alpha[g] * cmath.exp(1j * p.phi[g]) * A[g].conj().T
    h = hermitize(h) + half + half.conj().T
    guide_down, guide_up = p.kappa * (p.n_c + 1.0) / 2.0, p.kappa * p.n_c / 2.0
    site_down, site_up = p.gamma_p * (p.n_p + 1.0) / 2.0, p.gamma_p * p.n_p / 2.0
    if not (np.isfinite(h).all() and all(map(cmath.isfinite, (guide_down, guide_up, site_down, site_up)))):
        raise FloatingPointError("matrix contains non-finite entries: the micro Hamiltonian or rates overflow")

    terms = []
    for ag in A:
        terms.append(DissipatorTerm(ag, ag, guide_down))
        if p.n_c > 0:
            terms.append(DissipatorTerm(ag.conj().T, ag.conj().T, guide_up))
    for ps in P:
        if p.gamma_p > 0:
            terms.append(DissipatorTerm(ps, ps, site_down))
            if p.n_p > 0:
                terms.append(DissipatorTerm(ps.conj().T, ps.conj().T, site_up))
    return space, h, terms


def _micro_space(p: MicroParams) -> HilbertSpace:
    return HilbertSpace([2] * p.n_sites + [p.n_boson] * len(p.J))


# --- declarative model specification -----------------------------------------


def _params_type(model: str) -> type:
    """The params dataclass of a model."""
    return MicroParams if model == "micro" else EffectiveParams


@dataclass(frozen=True)
class ModelSpec:
    """Named model plus its parameter set; the unit handled by sweeps and the CLI."""

    model: str
    params: EffectiveParams | MicroParams

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODEL_NAMES}")
        if not isinstance(self.params, _params_type(self.model)):
            raise ValueError(f"{self.model} needs {_params_type(self.model).__name__}")
        if self.model == "micro":
            d = _micro_space(self.params).dim
            if 16 * d**4 > MICRO_L_BYTES_BUDGET:
                raise ValueError(
                    f"a solve of dimension {d} holds two real {d}²×{d}² arrays, {16 * d**4 / 2**20:.0f} MiB, "
                    f"over the budget of {MICRO_L_BYTES_BUDGET / 2**20:.0f} MiB"
                )
        else:
            n_guides = EFFECTIVE[self.model].n_guides
            if len(self.params.Gamma) != n_guides:
                raise ValueError(f"{self.model} needs {n_guides} guide entries")


def build_model(spec: ModelSpec) -> BuildResult:
    """(space, h, terms) of a model: the one build route. An effective model is
    its pieces at its coefficients; ``micro`` is built term by term. Raises
    FloatingPointError, without a numpy warning, when an effective model's
    coefficients, or a micro model's Hamiltonian or rates, are not finite
    (finite parameters whose products overflow)."""
    if spec.model == "micro":
        with np.errstate(over="ignore", invalid="ignore"):
            return _build_micro(spec.params)
    c = coefficients(spec)
    check_coefficients(c, spec.model)
    return model_pieces(spec.model).build(c)


def check_coefficients(c: np.ndarray, model: str) -> None:
    """Raise FloatingPointError unless every coefficient of ``model`` in ``c``
    (one row, or a stack of rows) is finite; finite parameters can overflow."""
    if not np.isfinite(c).all():
        raise FloatingPointError(f"matrix contains non-finite entries: the {model} coefficients overflow")


def _field_columns(params, b: int) -> dict:
    """The fields of ``params`` as contiguous (b,) columns; a tuple field is a tuple of them."""
    columns = {}
    for name, value in vars(params).items():
        entries = np.repeat(np.array(value, ndmin=1)[:, None], b, axis=1)
        columns[name] = tuple(entries) if isinstance(value, tuple) else entries[0]
    return columns


def _coefficient_rows(model: str, columns: dict) -> np.ndarray:
    """The (B, K) coefficient rows of an effective model whose fields are the
    (B,) ``columns``: its coefficient map, run unchanged on the columns. A row
    whose coefficients overflow is not finite, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = _coefficients(model, SimpleNamespace(**columns))
    return np.array(c).T.copy()  # C order: each row one contiguous BLAS operand


def coefficients(spec: ModelSpec) -> np.ndarray:
    """The real coefficients c(θ), one per piece of ``model_pieces(spec.model)``.
    Formed on one-entry columns, as :meth:`PathSetter.rows` forms its rows,
    so that each of those equals this at its point bit for bit; Python's
    complex multiply can leave an underflowed zero with another sign than
    numpy's."""
    return _coefficient_rows(spec.model, _field_columns(spec.params, 1))[0]


def model_space(spec: ModelSpec) -> HilbertSpace:
    """The factor structure of the model's states."""
    if spec.model == "micro":
        return _micro_space(spec.params)
    return model_pieces(spec.model).space


# --- JSON codec and parameter paths ---------------------------------------------
#
# The params dataclasses are the schema: each field's annotation gives its value
# type (int, float or complex) and whether it is a tuple of them; its default
# makes the JSON key optional. Every config value passes a decoder below.


class ConfigError(ValueError):
    """The run configuration is malformed."""


def check_grid_points(count: int, where: str) -> None:
    """Raise ConfigError if a grid of ``count`` points exceeds GRID_POINT_BUDGET."""
    if count > GRID_POINT_BUDGET:
        raise ConfigError(f"{where} has {count} points, over the budget of {GRID_POINT_BUDGET}")


def check_distinct(items: list, owner: str) -> None:
    """Raise ConfigError naming each entry that ``items`` holds more than once."""
    repeated = sorted({item for item in items if items.count(item) > 1})
    if repeated:
        raise ConfigError(f"{owner} {repeated} more than once")


def decode_int(value, where: str) -> int:
    """A JSON number with an integral value; strings and booleans are rejected."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def decode_float(value, where: str) -> float:
    """A JSON number; strings and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{where} is out of range, got {value!r}") from exc


def decode_list(value, where: str, item) -> tuple:
    """A JSON list, each entry decoded by ``item(entry, f"{where}[k]")``."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return tuple(item(v, f"{where}[{k}]") for k, v in enumerate(value))


def _decode_complex(value, where: str) -> complex:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{where}: complex values are [re, im] pairs, got {value!r}")
    return complex(decode_float(value[0], f"{where}.re"), decode_float(value[1], f"{where}.im"))


_DECODERS = {int: decode_int, float: decode_float, complex: _decode_complex}


@cache
def _schema(model: str) -> dict[str, tuple[type, bool, bool]]:
    """Each JSON key of a model, a field of its params dataclass: (value type, is a tuple, is required)."""
    cls = _params_type(model)
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in fields(cls):
        hint = hints[f.name]
        is_list = typing.get_origin(hint) is tuple
        schema[f.name] = (typing.get_args(hint)[0] if is_list else hint, is_list, f.default is MISSING)
    return schema


def model_spec_from_json(obj: dict) -> ModelSpec:
    """Strict decoder for the documented ModelSpec JSON schema."""
    if not isinstance(obj, dict):
        raise ConfigError("model spec must be a JSON object")
    model = obj.get("model")
    if model not in MODEL_NAMES:
        raise ConfigError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")
    schema = _schema(model)
    unknown = set(obj) - set(schema) - {"model"}
    if unknown:
        raise ConfigError(f"unknown model keys: {sorted(unknown)}")
    missing = sorted(k for k, (_, _, required) in schema.items() if required and k not in obj)
    if missing:
        raise ConfigError(f"missing model keys: {missing}")
    values = {}
    for name, (kind, is_list, _) in schema.items():
        if name in obj:
            decode = _DECODERS[kind]
            values[name] = decode_list(obj[name], name, decode) if is_list else decode(obj[name], name)
    return ModelSpec(model, _params_type(model)(**values))


def model_spec_to_json(spec: ModelSpec) -> dict:
    """The inverse of :func:`model_spec_from_json`; complex values as [re, im]."""
    obj = {"model": spec.model}
    for name, (kind, is_list, _) in _schema(spec.model).items():
        value = getattr(spec.params, name)
        encode = (lambda v: [v.real, v.imag]) if kind is complex else (lambda v: v)
        obj[name] = [encode(v) for v in value] if is_list else encode(value)
    return obj


def _parse_path(spec: ModelSpec, path: str) -> tuple[str, int | None, str | None]:
    """Split ``field[idx].component`` and validate it against the spec.

    Float and complex fields are addressable, integer ones are not; list fields
    need an index and complex ones a component. An effective model reads
    ``y[i]`` and ``z[i]`` only of a guide that couples two sites (see
    _coefficients); on a one-site guide they are rejected, as a sweep or an
    optimizer over them would only repeat one point."""
    body = path
    comp = None
    if "." in body:
        body, comp = body.split(".", 1)
        if comp not in _COMPONENTS:
            raise ValueError(f"unknown path component {comp!r} in {path!r}")
    idx = None
    if body.endswith("]"):
        field_name, _, rest = body.partition("[")
        digits = rest[:-1]
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"index must be decimal digits in path {path!r}")
        idx = int(digits)
        body = field_name
    kind, is_list, _ = _schema(spec.model).get(body, (int, False, False))
    if kind is int:
        raise ValueError(f"unknown parameter field {body!r} for model {spec.model}")
    if is_list:
        if idx is None:
            raise ValueError(f"field {body!r} needs an index in path {path!r}")
        if not 0 <= idx < len(getattr(spec.params, body)):
            raise ValueError(f"index out of range in path {path!r}")
    elif idx is not None:
        raise ValueError(f"field {body!r} is scalar; no index allowed in {path!r}")
    if body in ("y", "z") and len(EFFECTIVE[spec.model].guide_sites[idx]) == 1:
        raise ValueError(f"path {path!r} does not enter model {spec.model}: guide {idx} couples one site, "
                         "so it neither hops nor dresses a decay")
    if comp is not None and kind is not complex:
        raise ValueError(f"component {comp!r} only applies to complex fields, path {path!r}")
    if kind is complex and comp is None:
        raise ValueError(f"complex field {body!r} needs .re/.im/.abs/.phase in path {path!r}")
    return body, idx, comp


def _complex(re, im) -> np.ndarray:
    """The complex column with parts ``re`` and ``im``, set part by part:
    ``re + 1j * im`` would turn an infinite ``im`` into a nan real part, and a
    signed zero ``re`` into +0."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


# How a component path sets a complex entry: the new (B,) column from the old
# one and the column of values. The modulus is np.hypot, which rounds as
# abs(complex) does; numpy's complex absolute, a SIMD loop, can differ from it
# in the last bit.
_COMPONENTS = {
    "re": lambda old, v: _complex(v, old.imag),
    "im": lambda old, v: _complex(old.real, v),
    "abs": lambda old, v: np.where(old != 0, v * np.exp(1j * np.angle(old)), _complex(v, 0.0)),
    "phase": lambda old, v: np.hypot(old.real, old.imag) * np.exp(1j * v),
}


class PathSetter:
    """The map from one value per path to ``spec`` with those values set. Each
    path is parsed once, here. Values are set in path order, so a later path on
    the same complex entry sees the earlier ones.

    The rules run on columns: every field of ``spec`` becomes a (B,) column
    and each path sets its column of values. A call, on one value per path,
    takes the one-entry columns to a ModelSpec, whose checks raise ValueError
    for a value outside the domain. :meth:`rows`, on a (B, P) array of values,
    takes the columns to the (B, K) coefficient rows of an effective model,
    without a ModelSpec or a check; each row equals
    ``coefficients(self(row of values))`` bit for bit."""

    def __init__(self, spec: ModelSpec, paths):
        self.spec = spec
        self._parsed = [_parse_path(spec, p) for p in paths]

    def _columns(self, values) -> dict:
        # each path's values contiguous, so that a column's arithmetic is the
        # same numpy loop whatever B is
        values = np.ascontiguousarray(np.asarray(values, dtype=float).T)
        columns = _field_columns(self.spec.params, values.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry fails later, named
            for (field_name, idx, comp), value in zip(self._parsed, values):
                if idx is not None:
                    items = list(columns[field_name])
                    items[idx] = value if comp is None else _COMPONENTS[comp](items[idx], value)
                    value = tuple(items)
                columns[field_name] = value
        return columns

    def specs(self, values) -> typing.Iterator[ModelSpec]:
        """One ModelSpec per row of ``values`` (B, P), each built as it is
        reached, so that a ValueError belongs to that row."""
        columns = self._columns(values)
        # each set field as one Python value per row (a tuple for a tuple field)
        rows = {}
        for name, _, _ in self._parsed:
            col = columns[name]
            rows[name] = list(zip(*(c.tolist() for c in col))) if isinstance(col, tuple) else col.tolist()
        for k in range(len(values)):
            yield ModelSpec(self.spec.model, replace(self.spec.params, **{name: v[k] for name, v in rows.items()}))

    def __call__(self, values) -> ModelSpec:
        return next(self.specs([values]))

    def rows(self, values) -> np.ndarray:
        return _coefficient_rows(self.spec.model, self._columns(values))


# --- bundled operating points -------------------------------------------------

def fig3_ring_spec(phi1: float = np.pi, phi3: float = 0.0, drive: float = 1.67) -> ModelSpec:
    """Ring model at the phase-control operating point (z₁=z₃=1.01, z₂=11).

    The end-guide hoppings y₁ = y₃ = 15 reproduce the published concurrence
    maximum of 0.417; the middle drive and hopping are left at zero, where they
    have no measurable influence.
    """
    params = EffectiveParams(
        Gamma=(1.0, 1e-3, 1.0),
        x=(drive * cmath.exp(1j * phi1), 0.0, drive * cmath.exp(1j * phi3)),
        y=(15.0, 0.0, 15.0),
        z=(1.01, 11.0, 1.01),
    )
    return ModelSpec("ring3_eff", params)


def fig5_pair_spec(phi1: float = np.pi, phi3: float = 0.0, drive: float = 5.0) -> ModelSpec:
    """Two-qubit, three-guide model at the published maximum (C = 0.470)."""
    params = EffectiveParams(
        Gamma=(1.0, 76.0, 1.0),
        x=(drive * cmath.exp(1j * phi1), 0.0, drive * cmath.exp(1j * phi3)),
        y=(0.0, 0.0, 0.0),
        z=(1.01, 1.01, 1.01),
    )
    return ModelSpec("pair_eff", params)


def thermal_pair_spec(x: complex, n_p: float = 0.0, y: float = 15.0, z: float = 1.01) -> ModelSpec:
    """Single-guide thermal pair at the thermalization-map operating point."""
    params = EffectiveParams(Gamma=(1.0,), x=(x,), y=(y,), z=(z,), n_p=n_p)
    return ModelSpec("pair_thermal", params)


def validation_micro_spec(j_over_kappa: float = 0.05, alpha_over_j: float = 0.5,
                          gamma_p: float = 0.005, n_boson: int = 3) -> ModelSpec:
    """Resonant single-guide pair used to validate the adiabatic elimination."""
    j = float(j_over_kappa)
    params = MicroParams(
        n_sites=2,
        J=(j,),
        kappa=1.0,
        gamma_p=gamma_p,
        alpha=(alpha_over_j * j,),
        phi=(0.0,),
        omega_c=(1.0,),
        omega_p=(1.0, 1.0),
        omega_d=1.0,
        n_boson=n_boson,
    )
    return ModelSpec("micro", params)
