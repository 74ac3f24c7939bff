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
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .linalg import HilbertSpace, embed, hermitize
from .superop import DissipatorTerm

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

# J <= WEAK_COUPLING_RATIO * kappa counts as the adiabatic-elimination regime.
WEAK_COUPLING_RATIO = 0.1

# Largest dense Liouvillian (complex128, d² × d²) a micro model may need.
# Admits the ring at n_boson=2 (d = 64, 256 MiB); rejects it at n_boson=3
# (d = 216, about 35 GB).
MICRO_L_BYTES_BUDGET = 512 * 2**20

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
        d = 2**self.n_sites * self.n_boson**n_guides
        if 16 * d**4 > MICRO_L_BYTES_BUDGET:
            raise ValueError(
                f"dense Liouvillian of dimension {d}² needs {16 * d**4 / 2**20:.0f} MiB, "
                f"over the budget of {MICRO_L_BYTES_BUDGET / 2**20:.0f} MiB"
            )
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


def derive_effective(p: MicroParams, detunings: tuple[float, ...] | None = None) -> EffectiveParams:
    """Map microscopic parameters to the eliminated-guide ones.

    Per guide i:  Gamma_i = 2 J_i² κ / (κ² + 4 Δ_i²),
    x_i = −α_i e^{iφ_i} (2Δ_i + iκ)/(J_i κ),  y_i = −2Δ_i/κ.

    The guide detunings Δ_i default to the frequency mismatch between guide i
    and the mean of its adjacent qubits; pass ``detunings`` to override.
    The decay dressing z splits the bare qubit decay γ across the adjacent
    guide terms: z_i = 1 + γ/(4Γ_i) when every site touches two guides (ring),
    z = 1 + γ/(2Γ) for the single-guide pair where each site touches one.
    """
    if any(j == 0 for j in p.J):
        raise ZeroDivisionError("J_i must be nonzero to derive effective parameters")
    if detunings is None:
        sites = p.guide_sites()
        detunings = tuple(
            p.omega_c[i] - sum(p.omega_p[s] for s in sites[i]) / len(sites[i])
            for i in range(p.n_guides)
        )
    elif len(detunings) != p.n_guides:
        raise ValueError("need one detuning per guide")
    kappa = p.kappa
    gamma = p.gamma_p
    Gamma, x, y, z = [], [], [], []
    bare_split = 2.0 if p.geometry == "pair1" else 4.0
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


def _thermal_drive(x: complex) -> float:
    """The single-guide thermal model takes a real drive x >= 0."""
    if x.imag != 0 or x.real < 0:
        raise ValueError(f"thermal-model drive x must be real and >= 0 (its phase is a gauge), got {x}")
    return x.real


def _qubit_ops(space: HilbertSpace) -> list[np.ndarray]:
    return [embed(SIGMA_MINUS, i, space) for i in range(space.n_factors)]


def build_ring3_effective(p: EffectiveParams) -> BuildResult:
    """Three-qubit ring model with guides eliminated.

    H = Σ_i Γ_i [ y_i P_i†P_{i+1} + x_i (P_i† + P_{i+1}†) ] + h.c. (cyclic);
    site i decays with weight Γ_{i−1}z_{i−1} + Γ_i z_i, and guide i mixes its
    two neighbours through the cross terms F_{i,i+1}, F_{i+1,i} at weight Γ_i.
    """
    if p.n_sites != 3 or len(p.Gamma) != 3:
        raise ValueError("ring model needs n_sites=3 and three guide parameter entries")
    space = HilbertSpace((2, 2, 2))
    P = _qubit_ops(space)
    h = np.zeros((8, 8), dtype=complex)
    for i in range(3):
        j = (i + 1) % 3
        h += p.Gamma[i] * p.y[i] * (P[i].conj().T @ P[j])
        h += p.Gamma[i] * p.x[i] * (P[i].conj().T + P[j].conj().T)
    h = h + h.conj().T
    terms = []
    for i in range(3):
        w = p.Gamma[i - 1] * p.z[i - 1] + p.Gamma[i] * p.z[i]
        terms.append(DissipatorTerm(P[i], P[i], w))
    for i in range(3):
        j = (i + 1) % 3
        terms.append(DissipatorTerm(P[i], P[j], p.Gamma[i]))
        terms.append(DissipatorTerm(P[j], P[i], p.Gamma[i]))
    return space, h, terms


def build_pair_effective(p: EffectiveParams) -> BuildResult:
    """Two qubits, three guides (ends drive one qubit each, middle couples both).

    H = Γ₂y₂ P₁†P₂ + (Γ₁x₁+Γ₂x₂) P₁† + (Γ₂x₂+Γ₃x₃) P₂† + h.c.;
    diagonal decay weights Γ₂z₂+Γ₁ and Γ₂z₂+Γ₃, cross weight Γ₂.
    """
    if p.n_sites != 2 or len(p.Gamma) != 3:
        raise ValueError("pair model needs n_sites=2 and three guide parameter entries")
    space = HilbertSpace((2, 2))
    P1, P2 = _qubit_ops(space)
    g1, g2, g3 = p.Gamma
    h = g2 * p.y[1] * (P1.conj().T @ P2)
    h = h + (g1 * p.x[0] + g2 * p.x[1]) * P1.conj().T
    h = h + (g2 * p.x[1] + g3 * p.x[2]) * P2.conj().T
    h = h + h.conj().T
    terms = [
        DissipatorTerm(P1, P1, g2 * p.z[1] + g1),
        DissipatorTerm(P2, P2, g2 * p.z[1] + g3),
        DissipatorTerm(P1, P2, g2),
        DissipatorTerm(P2, P1, g2),
    ]
    return space, h, terms


def build_pair_thermal(p: EffectiveParams) -> BuildResult:
    """Two qubits sharing one guide, with local thermal pumping.

    At zero temperature this is the single-guide limit of the pair model:
    diagonal weights Γz, cross weights Γ, drive Γx on both qubits. The bare
    qubit decay hidden in z (γ = 2Γ(z−1)) is promoted to its thermal form:
    downward weight γ(n_p+1)/2, upward weight γ·n_p/2 per site.
    """
    if p.n_sites != 2 or len(p.Gamma) != 1:
        raise ValueError("thermal pair model needs n_sites=2 and scalar guide parameters")
    x = _thermal_drive(p.x[0])
    gam_big = p.Gamma[0]
    gamma = 2.0 * gam_big * (p.z[0] - 1.0)
    space = HilbertSpace((2, 2))
    P1, P2 = _qubit_ops(space)
    h = gam_big * p.y[0] * (P1.conj().T @ P2)
    h = h + gam_big * x * (P1.conj().T + P2.conj().T)
    h = h + h.conj().T
    w_down = gam_big + gamma * (p.n_p + 1.0) / 2.0
    w_up = gamma * p.n_p / 2.0
    terms = []
    for P in (P1, P2):
        terms.append(DissipatorTerm(P, P, w_down))
        if w_up > 0:
            terms.append(DissipatorTerm(P.conj().T, P.conj().T, w_up))
    terms.append(DissipatorTerm(P1, P2, gam_big))
    terms.append(DissipatorTerm(P2, P1, gam_big))
    return space, h, terms


def build_full_micro(p: MicroParams) -> BuildResult:
    """Full model: qubits plus truncated guide modes, still in the rotating frame.

    Factor order is qubits first, then guides, so the polariton marginal is
    ``partial_trace(rho, range(n_sites))``. Decay weights follow the κ/2, γ/2
    convention with the thermal (n_c, n_p) splittings applied to both.
    """
    dims = [2] * p.n_sites + [p.n_boson] * p.n_guides
    space = HilbertSpace(dims)
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


# --- declarative model specification -----------------------------------------

_BUILDERS = {
    "ring3_eff": build_ring3_effective,
    "pair_eff": build_pair_effective,
    "pair_thermal": build_pair_thermal,
    "micro": build_full_micro,
}

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
        else:
            if not isinstance(self.params, EffectiveParams):
                raise ValueError(f"{self.model} needs EffectiveParams")
            if self.params.n_sites != _EFF_N_SITES[self.model]:
                raise ValueError(f"{self.model} needs n_sites={_EFF_N_SITES[self.model]}")
            if len(self.params.Gamma) != _EFF_N_GUIDES[self.model]:
                raise ValueError(f"{self.model} needs {_EFF_N_GUIDES[self.model]} guide entries")
            if self.model == "pair_thermal":
                _thermal_drive(self.params.x[0])


def build_model(spec: ModelSpec) -> BuildResult:
    return _BUILDERS[spec.model](spec.params)


def _complex_pair(v) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ValueError(f"complex values are [re, im] pairs, got {v!r}")
    return complex(float(v[0]), float(v[1]))


_EFF_KEYS = {"model", "Gamma", "x", "y", "z", "n_p"}
_MICRO_KEYS = {
    "model", "n_sites", "J", "kappa", "gamma_p", "alpha", "phi",
    "omega_c", "omega_p", "omega_d", "n_boson", "n_c", "n_p",
}


def model_spec_from_json(obj: dict) -> ModelSpec:
    """Strict decoder for the documented ModelSpec JSON schema."""
    if not isinstance(obj, dict):
        raise ValueError("model spec must be a JSON object")
    model = obj.get("model")
    if model not in MODEL_NAMES:
        raise ValueError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")
    allowed = _MICRO_KEYS if model == "micro" else _EFF_KEYS
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown model keys: {sorted(unknown)}")
    try:
        if model == "micro":
            params: EffectiveParams | MicroParams = MicroParams(
                n_sites=int(obj["n_sites"]),
                J=tuple(obj["J"]),
                kappa=float(obj["kappa"]),
                gamma_p=float(obj["gamma_p"]),
                alpha=tuple(obj["alpha"]),
                phi=tuple(obj["phi"]),
                omega_c=tuple(obj["omega_c"]),
                omega_p=tuple(obj["omega_p"]),
                omega_d=float(obj["omega_d"]),
                n_boson=int(obj.get("n_boson", 3)),
                n_c=float(obj.get("n_c", 0.0)),
                n_p=float(obj.get("n_p", 0.0)),
            )
        else:
            params = EffectiveParams(
                n_sites=_EFF_N_SITES[model],
                Gamma=tuple(obj["Gamma"]),
                x=tuple(_complex_pair(v) for v in obj["x"]),
                y=tuple(obj["y"]),
                z=tuple(obj["z"]),
                n_p=float(obj.get("n_p", 0.0)),
            )
    except KeyError as exc:
        raise ValueError(f"missing model key: {exc.args[0]}") from exc
    return ModelSpec(model, params)


def model_spec_to_json(spec: ModelSpec) -> dict:
    p = spec.params
    if spec.model == "micro":
        assert isinstance(p, MicroParams)
        return {
            "model": spec.model,
            "n_sites": p.n_sites,
            "J": list(p.J),
            "kappa": p.kappa,
            "gamma_p": p.gamma_p,
            "alpha": list(p.alpha),
            "phi": list(p.phi),
            "omega_c": list(p.omega_c),
            "omega_p": list(p.omega_p),
            "omega_d": p.omega_d,
            "n_boson": p.n_boson,
            "n_c": p.n_c,
            "n_p": p.n_p,
        }
    assert isinstance(p, EffectiveParams)
    return {
        "model": spec.model,
        "Gamma": list(p.Gamma),
        "x": [[v.real, v.imag] for v in p.x],
        "y": list(p.y),
        "z": list(p.z),
        "n_p": p.n_p,
    }


# --- parameter paths ----------------------------------------------------------

_COMPLEX_FIELDS = {"x"}
_LIST_FIELDS_EFF = {"Gamma", "x", "y", "z"}
_SCALAR_FIELDS_EFF = {"n_p"}
_LIST_FIELDS_MICRO = {"J", "alpha", "phi", "omega_c", "omega_p"}
_SCALAR_FIELDS_MICRO = {"kappa", "gamma_p", "omega_d", "n_c", "n_p"}


def _parse_path(spec: ModelSpec, path: str) -> tuple[str, int | None, str | None]:
    """Split ``field[idx].component`` and validate it against the spec."""
    body = path
    comp = None
    if "." in body:
        body, comp = body.split(".", 1)
        if comp not in ("re", "im", "abs", "phase"):
            raise ValueError(f"unknown path component {comp!r} in {path!r}")
    idx = None
    if body.endswith("]"):
        field_name, _, rest = body.partition("[")
        idx = int(rest[:-1])
        body = field_name
    is_micro = spec.model == "micro"
    list_fields = _LIST_FIELDS_MICRO if is_micro else _LIST_FIELDS_EFF
    scalar_fields = _SCALAR_FIELDS_MICRO if is_micro else _SCALAR_FIELDS_EFF
    if body in list_fields:
        if idx is None:
            raise ValueError(f"field {body!r} needs an index in path {path!r}")
        if not 0 <= idx < len(getattr(spec.params, body)):
            raise ValueError(f"index out of range in path {path!r}")
    elif body in scalar_fields:
        if idx is not None:
            raise ValueError(f"field {body!r} is scalar; no index allowed in {path!r}")
    else:
        raise ValueError(f"unknown parameter field {body!r} for model {spec.model}")
    if comp is not None and body not in _COMPLEX_FIELDS:
        raise ValueError(f"component {comp!r} only applies to complex fields, path {path!r}")
    if body in _COMPLEX_FIELDS and comp is None:
        raise ValueError(f"complex field {body!r} needs .re/.im/.abs/.phase in path {path!r}")
    return body, idx, comp


def validate_path(spec: ModelSpec, path: str) -> None:
    _parse_path(spec, path)


def apply_path(spec: ModelSpec, path: str, value: float) -> ModelSpec:
    """Functionally update one scalar parameter addressed by a path string."""
    field_name, idx, comp = _parse_path(spec, path)
    value = float(value)
    current = getattr(spec.params, field_name)
    if idx is None:
        params = replace(spec.params, **{field_name: value})
        return ModelSpec(spec.model, params)
    items = list(current)
    if comp is None:
        items[idx] = value
    else:
        old = complex(items[idx])
        if comp == "re":
            items[idx] = complex(value, old.imag)
        elif comp == "im":
            items[idx] = complex(old.real, value)
        elif comp == "abs":
            items[idx] = value * cmath.exp(1j * cmath.phase(old)) if old != 0 else complex(value, 0.0)
        else:  # phase
            items[idx] = abs(old) * cmath.exp(1j * value)
    params = replace(spec.params, **{field_name: tuple(items)})
    return ModelSpec(spec.model, params)


def resolve_path(spec: ModelSpec, path: str) -> float:
    field_name, idx, comp = _parse_path(spec, path)
    current = getattr(spec.params, field_name)
    if idx is None:
        return float(current)
    v = current[idx]
    if comp is None:
        return float(v)
    v = complex(v)
    return {"re": v.real, "im": v.imag, "abs": abs(v), "phase": cmath.phase(v)}[comp]


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


def thermal_pair_spec(x: float, n_p: float = 0.0, y: float = 15.0, z: float = 1.01) -> ModelSpec:
    """Single-guide thermal pair at the thermalization-map operating point."""
    params = EffectiveParams(
        n_sites=2, Gamma=(1.0,), x=(complex(x, 0.0),), y=(y,), z=(z,), n_p=n_p
    )
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


def bundled_models() -> dict[str, ModelSpec]:
    """The default model instances exercised by the property and acceptance suites."""
    return {
        "fig3_ring": fig3_ring_spec(),
        "fig5_pair": fig5_pair_spec(),
        "thermal_pair": thermal_pair_spec(x=2.0, n_p=0.0),
        "validation_micro": validation_micro_spec(),
    }
