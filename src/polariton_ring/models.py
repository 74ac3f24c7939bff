"""Model builders for driven-dissipative cavity arrays.

Four families are covered, all in the rotating frame of the drive:

* ``ring3_eff``  - three polariton qubits on a ring of three lossy guides,
  after adiabatic elimination of the guides.
* ``pair_eff``   - two polariton qubits coupled by a middle guide, with two
  additional end guides (three drives total), guides eliminated.
* ``pair_thermal`` - two polariton qubits sharing a single guide, with local
  thermal pumping of the qubits; the model behind the thermalization maps.
* ``micro``      - the full qubits-plus-truncated-boson-modes models used to
  validate the eliminated ones.

Conventions. Rates are dimensionless ratios; pick the scale by setting the
first guide-induced rate to 1. Each qubit has ground state at index 0 with
lowering operator ``SIGMA_MINUS``. Induced single-site level shifts are taken
to be cancelled by the choice of polariton frequencies, so the effective
Hamiltonians contain hopping and drive terms only.
"""

from __future__ import annotations

import cmath
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

# Largest dense Liouvillian (complex128, d² × d²) a micro ModelSpec may need;
# MicroParams alone is not limited, since only a ModelSpec is built into L.
# Admits the ring at n_boson=2 (d = 64, 256 MiB); rejects it at n_boson=3
# (d = 216, about 35 GB).
MICRO_L_BYTES_BUDGET = 512 * 2**20

# Most grid points one sweep or thermal map may hold. Points are solved in turn
# (0.1-1 ms each), so this bounds the run time of one call at minutes; a grid
# beyond this is a config error.
GRID_POINT_BUDGET = 10**6

EFFECTIVE_MODELS = ("ring3_eff", "pair_eff", "pair_thermal")
MODEL_NAMES = EFFECTIVE_MODELS + ("micro",)


@dataclass(frozen=True)
class MicroParams:
    """Physical parameters of a full (qubits + guides) model.

    The guide-coupling geometry is inferred from ``(n_sites, len(J))``:
    (3, 3) is the ring, (2, 3) the three-guide pair, (2, 1) the single-guide
    pair. All frequencies share the drive's units; ``omega_d`` is subtracted
    in the rotating frame.
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
        if self.n_sites not in (2, 3):
            raise ValueError(f"n_sites must be 2 or 3, got {self.n_sites}")
        n_guides = len(self.J)
        if (self.n_sites, n_guides) not in ((3, 3), (2, 3), (2, 1)):
            raise ValueError(f"unsupported geometry: {self.n_sites} sites, {n_guides} guides")
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
                stacklevel=2,
            )

    @property
    def n_guides(self) -> int:
        return len(self.J)

    @property
    def geometry(self) -> str:
        return {(3, 3): "ring3", (2, 3): "pair3", (2, 1): "pair1"}[(self.n_sites, self.n_guides)]

    def guide_sites(self) -> list[tuple[int, ...]]:
        """Which qubit sites each guide couples to."""
        if self.geometry == "ring3":
            return [(i, (i + 1) % 3) for i in range(3)]
        if self.geometry == "pair3":
            return [(0,), (0, 1), (1,)]
        return [(0, 1)]


@dataclass(frozen=True)
class EffectiveParams:
    """Dimensionless parameters of an eliminated-guide model.

    ``Gamma[i]`` is the rate induced by guide i, ``x[i]`` the transferred
    drive, ``y[i]`` the induced hopping strength and ``z[i]`` the local decay
    dressing (z = 1 corresponds to no bare qubit decay). Lengths are one per
    guide: 3 for the ring and three-guide pair, 1 for the single-guide pair.
    ``n_p`` is the qubits' thermal occupation; only ``pair_thermal`` has
    thermal pumping, and ModelSpec keeps it 0 on the other models.
    """

    n_sites: int
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
        if self.n_sites not in (2, 3):
            raise ValueError(f"n_sites must be 2 or 3, got {self.n_sites}")
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
    The decay dressing z splits the bare qubit decay γ across the guide
    terms that carry it: z_i = 1 + γ/(4Γ_i) on the ring, where each site's
    decay weight Γ_{i−1}z_{i−1} + Γ_i z_i sums two dressed guides;
    z_i = 1 + γ/(2Γ_i) on both pairs, where each site's weight has one
    dressed term (Γz for the single guide, Γ₂z₂ of the middle guide for the
    three-guide pair).
    """
    if any(j == 0 for j in p.J):
        raise ZeroDivisionError("J_i must be nonzero to derive effective parameters")
    sites = p.guide_sites()
    detunings = [p.omega_c[i] - sum(p.omega_p[s] for s in sites[i]) / len(sites[i]) for i in range(p.n_guides)]
    kappa = p.kappa
    gamma = p.gamma_p
    Gamma, x, y, z = [], [], [], []
    bare_split = 4.0 if p.geometry == "ring3" else 2.0
    for i, delta in enumerate(detunings):
        g = 2.0 * p.J[i] ** 2 * kappa / (kappa**2 + 4.0 * delta**2)
        Gamma.append(g)
        x.append(-p.alpha[i] * cmath.exp(1j * p.phi[i]) * (2.0 * delta + 1j * kappa) / (p.J[i] * kappa))
        y.append(-2.0 * delta / kappa)
        z.append(1.0 + gamma / (bare_split * g))
    return EffectiveParams(
        n_sites=p.n_sites, Gamma=tuple(Gamma), x=tuple(x), y=tuple(y), z=tuple(z), n_p=p.n_p
    )


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
# L(θ) = Σ_k c_k(θ)·L_k. A model is stated once, as fixed operator pieces per
# geometry (ModelPieces) plus a coefficient map; build_model and the compiled
# sweeps (experiments.CompiledModel) both start from these two.


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
def _ring3_pieces() -> ModelPieces:
    space = HilbertSpace((2, 2, 2))
    P = _qubit_ops(space.factor_dims)
    hams = []
    for i in range(3):
        j = (i + 1) % 3
        hams += [_herm(P[i].conj().T @ P[j]), *_herm_pair(P[i].conj().T + P[j].conj().T)]
    groups = [_group((P[i], P[i])) for i in range(3)]
    groups += [_group((P[i], P[(i + 1) % 3]), (P[(i + 1) % 3], P[i])) for i in range(3)]
    return ModelPieces(space, tuple(hams), tuple(groups))


def _ring3_coefficients(p: EffectiveParams) -> list[float]:
    """Three-qubit ring with guides eliminated:
    H = Σ_i Γ_i [ y_i P_i†P_{i+1} + x_i (P_i† + P_{i+1}†) ] + h.c. (cyclic);
    site i decays with weight Γ_{i−1}z_{i−1} + Γ_i z_i, and guide i mixes its
    two neighbours through the cross terms F_{i,i+1}, F_{i+1,i} at weight Γ_i.

    Coefficients: per guide i, Γ_i y_i, Re Γ_i x_i, Im Γ_i x_i; then the three
    site decay weights; then the three cross weights Γ_i."""
    c = []
    for i in range(3):
        gx = p.Gamma[i] * p.x[i]
        c += [p.Gamma[i] * p.y[i], gx.real, gx.imag]
    c += [p.Gamma[i - 1] * p.z[i - 1] + p.Gamma[i] * p.z[i] for i in range(3)]
    return c + list(p.Gamma)


@cache
def _pair_pieces() -> ModelPieces:
    space = HilbertSpace((2, 2))
    P1, P2 = _qubit_ops(space.factor_dims)
    hams = (
        _herm(P1.conj().T @ P2),
        *_herm_pair(P1.conj().T),
        *_herm_pair(P1.conj().T + P2.conj().T),
        *_herm_pair(P2.conj().T),
    )
    groups = (_group((P1, P1)), _group((P2, P2)), _group((P1, P2), (P2, P1)))
    return ModelPieces(space, hams, groups)


def _pair_coefficients(p: EffectiveParams) -> list[float]:
    """Two qubits, three guides (ends drive one qubit each, middle couples both):
    H = Γ₂y₂ P₁†P₂ + (Γ₁x₁+Γ₂x₂) P₁† + (Γ₂x₂+Γ₃x₃) P₂† + h.c.;
    diagonal decay weights Γ₂z₂+Γ₁ and Γ₂z₂+Γ₃, cross weight Γ₂.

    Coefficients: Γ₂y₂; Re and Im of Γ₁x₁, Γ₂x₂, Γ₃x₃; the two decay weights;
    the cross weight."""
    g1, g2, g3 = p.Gamma
    c = [g2 * p.y[1]]
    for gx in (g1 * p.x[0], g2 * p.x[1], g3 * p.x[2]):
        c += [gx.real, gx.imag]
    return c + [g2 * p.z[1] + g1, g2 * p.z[1] + g3, g2]


@cache
def _thermal_pieces() -> ModelPieces:
    space = HilbertSpace((2, 2))
    P1, P2 = _qubit_ops(space.factor_dims)
    U1, U2 = _frozen(P1.conj().T), _frozen(P2.conj().T)
    hams = (_herm(U1 @ P2), *_herm_pair(U1 + U2))
    groups = (_group((P1, P1)), _group((U1, U1)), _group((P2, P2)), _group((U2, U2)),
              _group((P1, P2), (P2, P1)))
    return ModelPieces(space, hams, groups)


def _thermal_coefficients(p: EffectiveParams) -> list[float]:
    """Two qubits sharing one guide, with local thermal pumping.

    At zero temperature this is the single-guide limit of the pair model:
    H = Γy P₁†P₂ + Γx (P₁† + P₂†) + h.c., diagonal weights Γz, cross weight Γ.
    The bare qubit decay hidden in z (γ = 2Γ(z−1)) is promoted to its thermal
    form: downward weight Γ + γ(n_p+1)/2, upward weight γ·n_p/2 per site.

    Coefficients: Γy, Re Γx, Im Γx; per site the downward and upward weights; Γ."""
    gam_big = p.Gamma[0]
    gx = gam_big * p.x[0]
    gamma = 2.0 * gam_big * (p.z[0] - 1.0)
    w_down = gam_big + gamma * (p.n_p + 1.0) / 2.0
    w_up = gamma * p.n_p / 2.0
    return [gam_big * p.y[0], gx.real, gx.imag, w_down, w_up, w_down, w_up, gam_big]


def _build_micro(p: MicroParams) -> BuildResult:
    """Full model: qubits plus truncated guide modes, still in the rotating frame.

    Factor order is qubits first, then guides, so the polariton marginal is
    ``partial_trace(rho, range(n_sites))``. Decay weights follow the κ/2, γ/2
    convention with the thermal (n_c, n_p) splittings applied to both.
    """
    space = _micro_space(p)
    P = [embed(SIGMA_MINUS, i, space) for i in range(p.n_sites)]
    lower = np.diag(np.sqrt(np.arange(1, p.n_boson)), 1).astype(complex)
    A = [embed(lower, p.n_sites + g, space) for g in range(p.n_guides)]

    d = space.dim
    h = np.zeros((d, d), dtype=complex)
    for g, ag in enumerate(A):
        h += (p.omega_c[g] - p.omega_d) * (ag.conj().T @ ag)
    for s, ps in enumerate(P):
        h += (p.omega_p[s] - p.omega_d) * (ps.conj().T @ ps)
    half = np.zeros((d, d), dtype=complex)
    for g, sites in enumerate(p.guide_sites()):
        b = sum(P[s] for s in sites)
        half += p.J[g] * (A[g].conj().T @ b)
        half += p.alpha[g] * cmath.exp(1j * p.phi[g]) * A[g].conj().T
    h = hermitize(h) + half + half.conj().T

    terms = []
    for ag in A:
        terms.append(DissipatorTerm(ag, ag, p.kappa * (p.n_c + 1.0) / 2.0))
        if p.n_c > 0:
            terms.append(DissipatorTerm(ag.conj().T, ag.conj().T, p.kappa * p.n_c / 2.0))
    for ps in P:
        if p.gamma_p > 0:
            terms.append(DissipatorTerm(ps, ps, p.gamma_p * (p.n_p + 1.0) / 2.0))
            if p.n_p > 0:
                terms.append(DissipatorTerm(ps.conj().T, ps.conj().T, p.gamma_p * p.n_p / 2.0))
    return space, h, terms


def _micro_space(p: MicroParams) -> HilbertSpace:
    return HilbertSpace([2] * p.n_sites + [p.n_boson] * p.n_guides)


# --- declarative model specification -----------------------------------------

_EFF_N_GUIDES = {"ring3_eff": 3, "pair_eff": 3, "pair_thermal": 1}
_EFF_N_SITES = {"ring3_eff": 3, "pair_eff": 2, "pair_thermal": 2}


@dataclass(frozen=True)
class ModelSpec:
    """Named model plus its parameter set; the unit handled by sweeps and the CLI."""

    model: str
    params: EffectiveParams | MicroParams

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODEL_NAMES}")
        if self.model == "micro":
            if not isinstance(self.params, MicroParams):
                raise ValueError("micro model needs MicroParams")
            d = _micro_space(self.params).dim
            if 16 * d**4 > MICRO_L_BYTES_BUDGET:
                raise ValueError(
                    f"dense Liouvillian of dimension {d}² needs {16 * d**4 / 2**20:.0f} MiB, "
                    f"over the budget of {MICRO_L_BYTES_BUDGET / 2**20:.0f} MiB"
                )
        else:
            if not isinstance(self.params, EffectiveParams):
                raise ValueError(f"{self.model} needs EffectiveParams")
            if self.params.n_sites != _EFF_N_SITES[self.model]:
                raise ValueError(f"{self.model} needs n_sites={_EFF_N_SITES[self.model]}")
            if len(self.params.Gamma) != _EFF_N_GUIDES[self.model]:
                raise ValueError(f"{self.model} needs {_EFF_N_GUIDES[self.model]} guide entries")
            if self.params.n_p != 0 and self.model != "pair_thermal":
                raise ValueError(f"n_p must be 0 on {self.model}, which has no thermal pumping; got {self.params.n_p}")


def build_model(spec: ModelSpec) -> BuildResult:
    """(space, h, terms) of a model: the one build route. An effective model is
    its pieces at its coefficients; ``micro`` is built term by term."""
    if spec.model == "micro":
        return _build_micro(spec.params)
    return model_pieces(spec.model).build(coefficients(spec))


_AFFINE = {
    "ring3_eff": (_ring3_pieces, _ring3_coefficients),
    "pair_eff": (_pair_pieces, _pair_coefficients),
    "pair_thermal": (_thermal_pieces, _thermal_coefficients),
}


def model_pieces(model: str) -> ModelPieces:
    """The fixed operator pieces of an effective model (cached, read-only)."""
    return _AFFINE[model][0]()


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
        c = _AFFINE[model][1](SimpleNamespace(**columns))
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
def _schema(cls) -> dict[str, tuple[type, bool, bool]]:
    """Each field of a params dataclass: (value type, is a tuple, is required)."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in fields(cls):
        hint = hints[f.name]
        is_list = typing.get_origin(hint) is tuple
        schema[f.name] = (typing.get_args(hint)[0] if is_list else hint, is_list, f.default is MISSING)
    return schema


@cache
def _json_fields(model: str) -> dict[str, tuple[type, bool, bool]]:
    """The schema of a model's JSON keys; an effective model's name implies its n_sites."""
    if model == "micro":
        return _schema(MicroParams)
    return {k: v for k, v in _schema(EffectiveParams).items() if k != "n_sites"}


def model_spec_from_json(obj: dict) -> ModelSpec:
    """Strict decoder for the documented ModelSpec JSON schema."""
    if not isinstance(obj, dict):
        raise ConfigError("model spec must be a JSON object")
    model = obj.get("model")
    if model not in MODEL_NAMES:
        raise ConfigError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")
    schema = _json_fields(model)
    unknown = set(obj) - set(schema) - {"model"}
    if unknown:
        raise ConfigError(f"unknown model keys: {sorted(unknown)}")
    missing = sorted(k for k, (_, _, required) in schema.items() if required and k not in obj)
    if missing:
        raise ConfigError(f"missing model keys: {missing}")
    values = {} if model == "micro" else {"n_sites": _EFF_N_SITES[model]}
    for name, (kind, is_list, _) in schema.items():
        if name in obj:
            decode = _DECODERS[kind]
            values[name] = decode_list(obj[name], name, decode) if is_list else decode(obj[name], name)
    return ModelSpec(model, (MicroParams if model == "micro" else EffectiveParams)(**values))


def model_spec_to_json(spec: ModelSpec) -> dict:
    """The inverse of :func:`model_spec_from_json`; complex values as [re, im]."""
    obj = {"model": spec.model}
    for name, (kind, is_list, _) in _json_fields(spec.model).items():
        value = getattr(spec.params, name)
        encode = (lambda v: [v.real, v.imag]) if kind is complex else (lambda v: v)
        obj[name] = [encode(v) for v in value] if is_list else encode(value)
    return obj


def _parse_path(spec: ModelSpec, path: str) -> tuple[str, int | None, str | None]:
    """Split ``field[idx].component`` and validate it against the spec.

    Float and complex fields are addressable, integer ones are not; list fields
    need an index and complex ones a component."""
    body = path
    comp = None
    if "." in body:
        body, comp = body.split(".", 1)
        if comp not in _COMPONENTS:
            raise ValueError(f"unknown path component {comp!r} in {path!r}")
    idx = None
    if body.endswith("]"):
        field_name, _, rest = body.partition("[")
        idx = int(rest[:-1])
        body = field_name
    kind, is_list, _ = _json_fields(spec.model).get(body, (int, False, False))
    if kind is int:
        raise ValueError(f"unknown parameter field {body!r} for model {spec.model}")
    if is_list:
        if idx is None:
            raise ValueError(f"field {body!r} needs an index in path {path!r}")
        if not 0 <= idx < len(getattr(spec.params, body)):
            raise ValueError(f"index out of range in path {path!r}")
    elif idx is not None:
        raise ValueError(f"field {body!r} is scalar; no index allowed in {path!r}")
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


def apply_path(spec: ModelSpec, path: str, value: float) -> ModelSpec:
    """Functionally update one scalar parameter addressed by a path string."""
    return PathSetter(spec, (path,))((value,))


# --- bundled operating points -------------------------------------------------

def fig3_ring_spec(phi1: float = np.pi, phi3: float = 0.0, drive: float = 1.67) -> ModelSpec:
    """Ring model at the phase-control operating point (z₁=z₃=1.01, z₂=11).

    The end-guide hoppings y₁ = y₃ = 15 reproduce the published concurrence
    maximum of 0.417; the middle drive and hopping are left at zero, where they
    have no measurable influence.
    """
    params = EffectiveParams(
        n_sites=3,
        Gamma=(1.0, 1e-3, 1.0),
        x=(drive * cmath.exp(1j * phi1), 0.0, drive * cmath.exp(1j * phi3)),
        y=(15.0, 0.0, 15.0),
        z=(1.01, 11.0, 1.01),
    )
    return ModelSpec("ring3_eff", params)


def fig5_pair_spec(phi1: float = np.pi, phi3: float = 0.0, drive: float = 5.0) -> ModelSpec:
    """Two-qubit, three-guide model at the published maximum (C = 0.470)."""
    params = EffectiveParams(
        n_sites=2,
        Gamma=(1.0, 76.0, 1.0),
        x=(drive * cmath.exp(1j * phi1), 0.0, drive * cmath.exp(1j * phi3)),
        y=(0.0, 0.0, 0.0),
        z=(1.01, 1.01, 1.01),
    )
    return ModelSpec("pair_eff", params)


def thermal_pair_spec(x: complex, n_p: float = 0.0, y: float = 15.0, z: float = 1.01) -> ModelSpec:
    """Single-guide thermal pair at the thermalization-map operating point."""
    params = EffectiveParams(n_sites=2, Gamma=(1.0,), x=(x,), y=(y,), z=(z,), n_p=n_p)
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
