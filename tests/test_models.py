import cmath
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import bundled_models
from polariton_ring import models
from polariton_ring.linalg import HilbertSpace, herm_defect, partial_trace
from polariton_ring.models import (
    EffectiveParams,
    MicroParams,
    ModelSpec,
    apply_path,
    build_model,
    derive_effective,
    fig3_ring_spec,
    fig5_pair_spec,
    model_spec_from_json,
    model_spec_to_json,
    thermal_pair_spec,
    validation_micro_spec,
)
from polariton_ring.observables import concurrence, gibbs_two_qubit, trace_distance
from polariton_ring.steady import steady_state_on
from polariton_ring.superop import assemble


def micro_pair(J=1.0, kappa=10.0, gamma=0.0, alpha=0.0, phi=0.0, omega_c=5.0, omega_p=(5.0, 5.0)):
    return MicroParams(
        n_sites=2, J=(J,), kappa=kappa, gamma_p=gamma, alpha=(alpha,), phi=(phi,),
        omega_c=(omega_c,), omega_p=omega_p, omega_d=5.0, n_boson=3,
    )


# --- derive_effective ------------------------------------------------------------

def test_derive_effective_resonant():
    eff = derive_effective(micro_pair())
    assert abs(eff.Gamma[0] - 0.2) <= 1e-14
    assert abs(eff.y[0]) == 0.0


def test_derive_effective_z_ring_convention():
    # gamma=0.008 with Gamma=0.2 gives z = 1 + 0.008/(4*0.2) = 1.01 on the ring
    p = MicroParams(
        n_sites=3, J=(1.0, 1.0, 1.0), kappa=10.0, gamma_p=0.008,
        alpha=(0.0, 0.0, 0.0), phi=(0.0, 0.0, 0.0),
        omega_c=(5.0, 5.0, 5.0), omega_p=(5.0, 5.0, 5.0), omega_d=5.0,
    )
    eff = derive_effective(p)
    assert np.allclose(eff.Gamma, 0.2)
    assert np.allclose(eff.z, 1.01)


def test_derive_effective_drive_formula():
    eff = derive_effective(micro_pair(alpha=1.0, phi=np.pi))
    assert abs(eff.x[0] - 1j) <= 1e-14


def test_derive_effective_zero_detuning_gives_zero_y():
    eff = derive_effective(micro_pair())
    assert eff.y == (0.0,)


def test_derive_effective_detuning_override():
    # the guide 2.5 below both qubits: Δ = −2.5
    eff = derive_effective(micro_pair(omega_c=2.5))
    assert abs(eff.y[0] - 0.5) <= 1e-14


def test_derive_effective_zero_j_raises():
    p = micro_pair()
    object.__setattr__(p, "J", (0.0,))
    with pytest.raises(ZeroDivisionError):
        derive_effective(p)


def test_fig3_z_identity():
    # common gamma with z2=11, z1=1.01 forces Gamma1/Gamma2 = 1000
    z1, z2 = 1.01, 11.0
    assert (z2 - 1.0) / (z1 - 1.0) == pytest.approx(1000.0)
    params = fig3_ring_spec().params
    assert params.Gamma[0] / params.Gamma[1] == pytest.approx(1000.0)


# --- ring builder ----------------------------------------------------------------

def test_ring_undriven_steady_is_ground():
    spec = fig3_ring_spec()
    params = EffectiveParams(
        n_sites=3, Gamma=spec.params.Gamma, x=(0.0, 0.0, 0.0), y=(0.0, 0.0, 0.0), z=spec.params.z
    )
    space, h, terms = build_model(ModelSpec("ring3_eff", params))
    report = steady_state_on(assemble(h, terms), space)
    assert report.rho.mat[0, 0].real == pytest.approx(1.0, abs=1e-10)


def test_ring_fig3_concurrence_value():
    space, h, terms = build_model(fig3_ring_spec())
    report = steady_state_on(assemble(h, terms), space)
    c = concurrence(partial_trace(report.rho, [1, 2]))
    assert c == pytest.approx(0.417, abs=0.005)


def test_ring_site_decay_weight_identity():
    # with a common gamma the diagonal weight is Gamma_{i-1} + Gamma_i + gamma/2
    gamma = 0.04
    Gamma = (1.0, 0.5, 2.0)
    z = tuple(1.0 + gamma / (4 * g) for g in Gamma)
    params = EffectiveParams(n_sites=3, Gamma=Gamma, x=(0.1, 0.1, 0.1), y=(0.0, 0.0, 0.0), z=z)
    space, h, terms = build_model(ModelSpec("ring3_eff", params))
    diag_weights = [t.weight for t in terms[:3]]
    for i in range(3):
        assert diag_weights[i] == pytest.approx(Gamma[(i - 1) % 3] + Gamma[i] + gamma / 2)


def test_ring_cyclic_permutation_invariance():
    params = EffectiveParams(
        n_sites=3, Gamma=(1.0, 1.0, 1.0), x=(0.3 + 0.1j,) * 3, y=(2.0,) * 3, z=(1.05,) * 3
    )
    space, h, terms = build_model(ModelSpec("ring3_eff", params))
    liouv = assemble(h, terms)
    # permutation sending site i to i+1
    perm = np.zeros((8, 8))
    for b in range(8):
        bits = [(b >> 2) & 1, (b >> 1) & 1, b & 1]
        shifted = [bits[2], bits[0], bits[1]]
        b2 = (shifted[0] << 2) | (shifted[1] << 1) | shifted[2]
        perm[b2, b] = 1.0
    pp = np.kron(perm.conj(), perm)
    assert np.abs(pp.conj().T @ liouv.mat @ pp - liouv.mat).max() <= 1e-12


def test_ring_param_length_mismatch():
    with pytest.raises(ValueError):
        EffectiveParams(n_sites=3, Gamma=(1.0, 1.0), x=(0, 0, 0), y=(0, 0, 0), z=(1, 1, 1))


# --- pair builder ----------------------------------------------------------------

def test_pair_fig5_concurrence_value():
    space, h, terms = build_model(fig5_pair_spec())
    report = steady_state_on(assemble(h, terms), space)
    assert concurrence(report.rho) == pytest.approx(0.470, abs=0.01)


def test_pair_undriven_ground():
    params = EffectiveParams(
        n_sites=2, Gamma=(1.0, 76.0, 1.0), x=(0.0, 0.0, 0.0), y=(0.0, 0.0, 0.0), z=(1.01,) * 3
    )
    space, h, terms = build_model(ModelSpec("pair_eff", params))
    report = steady_state_on(assemble(h, terms), space)
    assert report.rho.mat[0, 0].real == pytest.approx(1.0, abs=1e-10)


def test_pair_hamiltonian_hermitian(rng):
    for _ in range(10):
        x = tuple(rng.normal() + 1j * rng.normal() for _ in range(3))
        params = EffectiveParams(
            n_sites=2, Gamma=(1.0, 5.0, 2.0), x=x, y=(0.0, rng.normal(), 0.0), z=(1.0, 1.2, 1.0)
        )
        _, h, _ = build_model(ModelSpec("pair_eff", params))
        assert herm_defect(h) == 0.0


def test_pair_dissipator_weights_quoted_form():
    params = EffectiveParams(
        n_sites=2, Gamma=(1.0, 76.0, 2.0), x=(0.0, 0.0, 0.0), y=(0.0,) * 3, z=(1.0, 1.01, 1.0)
    )
    _, _, terms = build_model(ModelSpec("pair_eff", params))
    weights = [t.weight for t in terms]
    assert weights[0] == pytest.approx(76.0 * 1.01 + 1.0)
    assert weights[1] == pytest.approx(76.0 * 1.01 + 2.0)
    assert weights[2] == weights[3] == pytest.approx(76.0)


# --- thermal pair builder ----------------------------------------------------------

def test_thermal_undriven_zero_temperature_ground():
    spec = thermal_pair_spec(x=0.0, n_p=0.0)
    space, h, terms = build_model(spec)
    report = steady_state_on(assemble(h, terms), space)
    assert report.rho.mat[0, 0].real == pytest.approx(1.0, abs=1e-9)


def test_thermal_detailed_balance_limit():
    # Gamma -> 0 with fixed bare decay: steady state is the product Gibbs state
    n_p = 0.5
    gamma = 0.02
    big_gamma = 1e-6
    z = 1.0 + gamma / (2 * big_gamma)
    spec = thermal_pair_spec(x=0.0, n_p=n_p, y=0.0, z=z)
    params = EffectiveParams(
        n_sites=2, Gamma=(big_gamma,), x=(0.0,), y=(0.0,), z=(z,), n_p=n_p
    )
    space, h, terms = build_model(ModelSpec("pair_thermal", params))
    report = steady_state_on(assemble(h, terms), space)
    p_e = n_p / (2 * n_p + 1)
    single = np.diag([1 - p_e, p_e])
    want = np.kron(single, single).astype(complex)
    assert np.abs(report.rho.mat - want).max() <= 1e-4
    # matches the Bose-Einstein Gibbs state at the corresponding temperature
    t = 1.0 / np.log(1.0 / n_p + 1.0)
    assert trace_distance(report.rho, gibbs_two_qubit(t)) <= 1e-4


def test_thermal_drive_phase_is_a_gauge():
    # rho(x e^{i theta}) = e^{i theta N} rho(x) e^{-i theta N}, N the total excitation number
    n = np.array([0.0, 1.0, 1.0, 2.0])

    def rho(spec):
        space, h, terms = build_model(spec)
        return steady_state_on(assemble(h, terms), space).rho.mat

    spec = thermal_pair_spec(x=1.7, n_p=0.3)
    base = rho(spec)
    for theta in (0.4, np.pi / 2, np.pi, -2.5):
        u = np.diag(np.exp(1j * theta * n))
        assert np.abs(rho(apply_path(spec, "x[0].phase", theta)) - u @ base @ u.conj().T).max() <= 1e-12


def test_thermal_rejects_negative_occupation():
    with pytest.raises(ValueError):
        EffectiveParams(n_sites=2, Gamma=(1.0,), x=(0.0,), y=(0.0,), z=(1.0,), n_p=-0.1)


# --- micro builder -----------------------------------------------------------------

def test_micro_undriven_steady_is_vacuum_ground():
    p = MicroParams(
        n_sites=2, J=(0.05,), kappa=1.0, gamma_p=0.01, alpha=(0.0,), phi=(0.0,),
        omega_c=(1.0,), omega_p=(1.0, 1.0), omega_d=1.0, n_boson=3,
    )
    space, h, terms = build_model(ModelSpec("micro", p))
    report = steady_state_on(assemble(h, terms), space)
    assert report.rho.mat[0, 0].real == pytest.approx(1.0, abs=1e-8)


def test_micro_truncation_convergence():
    margs = []
    for nb in (2, 3, 4):
        spec = validation_micro_spec(n_boson=nb)
        space, h, terms = build_model(spec)
        report = steady_state_on(assemble(h, terms), space)
        margs.append(partial_trace(report.rho, [0, 1]))
    assert trace_distance(margs[0], margs[1]) <= 1e-4
    assert trace_distance(margs[1], margs[2]) <= 1e-4


def ring_micro_json(n_boson):
    return {
        "model": "micro", "n_sites": 3, "J": [0.05] * 3, "kappa": 1.0, "gamma_p": 0.0,
        "alpha": [0.0] * 3, "phi": [0.0] * 3, "omega_c": [1.0] * 3, "omega_p": [1.0] * 3,
        "omega_d": 1.0, "n_boson": n_boson,
    }


def test_micro_dimension_guard():
    # the dense L of the ring at n_boson=2 is 4096² complex (256 MiB): admitted;
    # at n_boson=3 it is 46656² (about 35 GB): rejected when the ModelSpec is
    # made, before anything is built. MicroParams alone carries no budget.
    assert model_spec_from_json(ring_micro_json(2)).params.geometry == "ring3"
    for n_boson in (3, 5):
        with pytest.raises(ValueError, match="budget"):
            model_spec_from_json(ring_micro_json(n_boson))
    params = MicroParams(
        n_sites=3, J=(0.05,) * 3, kappa=1.0, gamma_p=0.0, alpha=(0.0,) * 3,
        phi=(0.0,) * 3, omega_c=(1.0,) * 3, omega_p=(1.0,) * 3, omega_d=1.0, n_boson=3,
    )
    with pytest.raises(ValueError, match="budget"):
        ModelSpec("micro", params)
    from polariton_ring.experiments import validate_effective

    with pytest.raises(ValueError, match="budget"):
        validate_effective(params)


def test_params_reject_non_finite():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            EffectiveParams(n_sites=2, Gamma=(bad,), x=(0.0,), y=(0.0,), z=(1.0,))
        with pytest.raises(ValueError, match="finite"):
            EffectiveParams(n_sites=2, Gamma=(1.0,), x=(complex(0.0, bad),), y=(0.0,), z=(1.0,))
        with pytest.raises(ValueError, match="finite"):
            EffectiveParams(n_sites=2, Gamma=(1.0,), x=(0.0,), y=(0.0,), z=(bad,))
        with pytest.raises(ValueError, match="finite"):
            micro_pair(kappa=bad)
        with pytest.raises(ValueError, match="finite"):
            micro_pair(omega_p=(5.0, bad))


def test_micro_thermal_occupations_detailed_balance():
    # undriven thermal model: qubits and guide settle at their reservoir
    # occupations (weak J, truncation shaves a little off the guide mean)
    p = MicroParams(
        n_sites=2, J=(0.02,), kappa=1.0, gamma_p=0.05, alpha=(0.0,), phi=(0.0,),
        omega_c=(1.0,), omega_p=(1.0, 1.0), omega_d=1.0, n_boson=3, n_c=0.1, n_p=0.2,
    )
    space, h, terms = build_model(ModelSpec("micro", p))
    report = steady_state_on(assemble(h, terms), space)
    qubit = partial_trace(report.rho, [0])
    assert qubit.mat[1, 1].real == pytest.approx(0.2 / 1.4, abs=0.02)
    guide = partial_trace(report.rho, [2])
    n_guide = sum(k * guide.mat[k, k].real for k in range(3))
    assert n_guide == pytest.approx(0.1, abs=0.02)


def test_micro_weak_driving_warning():
    with pytest.warns(UserWarning):
        MicroParams(
            n_sites=2, J=(0.5,), kappa=1.0, gamma_p=0.0, alpha=(0.1,), phi=(0.0,),
            omega_c=(1.0,), omega_p=(1.0, 1.0), omega_d=1.0,
        )


def test_micro_geometries():
    assert validation_micro_spec().params.geometry == "pair1"
    ring = MicroParams(
        n_sites=3, J=(0.05,) * 3, kappa=1.0, gamma_p=0.0, alpha=(0.0,) * 3,
        phi=(0.0,) * 3, omega_c=(1.0,) * 3, omega_p=(1.0,) * 3, omega_d=1.0, n_boson=2,
    )
    assert ring.geometry == "ring3"
    assert ring.guide_sites() == [(0, 1), (1, 2), (2, 0)]
    pair3 = MicroParams(
        n_sites=2, J=(0.05,) * 3, kappa=1.0, gamma_p=0.0, alpha=(0.0,) * 3,
        phi=(0.0,) * 3, omega_c=(1.0,) * 3, omega_p=(1.0, 1.0), omega_d=1.0, n_boson=2,
    )
    assert pair3.geometry == "pair3"
    assert pair3.guide_sites() == [(0,), (0, 1), (1,)]


def test_all_bundled_hamiltonians_hermitian():
    for name, spec in bundled_models().items():
        _, h, _ = build_model(spec)
        assert herm_defect(h) <= 1e-12, name


# --- ModelSpec JSON and paths ---------------------------------------------------------

def test_model_spec_json_roundtrip():
    for spec in bundled_models().values():
        blob = json.dumps(model_spec_to_json(spec))
        back = model_spec_from_json(json.loads(blob))
        assert back == spec


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_model_spec_json_roundtrip_on_configs(name):
    cfg = json.loads((CONFIGS / name).read_text())
    models_in = [cfg[key] for key in ("model", "micro") if key in cfg]
    assert len(models_in) == (name != "thermal_map.json")
    for obj in models_in:
        spec = model_spec_from_json(obj)
        assert model_spec_from_json(model_spec_to_json(spec)) == spec


def test_bundled_operating_points_equal_shipped_configs():
    # the acceptance suite checks these specs; the benchmark runs the configs
    def config_model(name, key="model"):
        return model_spec_from_json(json.loads((CONFIGS / name).read_text())[key])

    assert apply_path(config_model("fig3_sweep.json"), "x[0].phase", np.pi) == fig3_ring_spec()
    assert apply_path(config_model("fig5_sweep.json"), "x[0].phase", np.pi) == fig5_pair_spec()
    assert config_model("validate.json", "micro") == validation_micro_spec()


# The path table written out apart from the params dataclasses, so that the one
# derived from their annotations cannot drift: indexed real lists, complex lists
# with a component, float scalars. Integer fields (n_sites, n_boson) are not
# addressable.
_PATH_FIELDS = {
    "effective": ({"Gamma", "y", "z"}, {"x"}, {"n_p"}),
    "micro": ({"J", "alpha", "phi", "omega_c", "omega_p"}, set(), {"kappa", "gamma_p", "omega_d", "n_c", "n_p"}),
}


def _candidate_paths():
    names = sorted({f for fields in _PATH_FIELDS.values() for group in fields for f in group}
                   | {"n_sites", "n_boson", "model", "nonsense"})
    for name in names:
        for idx in ("", "[0]", "[1]", "[2]", "[3]"):
            for comp in ("", ".re", ".im", ".abs", ".phase", ".foo"):
                yield name + idx + comp


def _addressable_paths(spec):
    real, cplx, scalars = _PATH_FIELDS["micro" if spec.model == "micro" else "effective"]
    paths = set(scalars)
    for name in real | cplx:
        for i in range(len(getattr(spec.params, name))):
            paths |= {f"{name}[{i}].{c}" for c in ("re", "im", "abs", "phase")} if name in cplx else {f"{name}[{i}]"}
    return paths


_PATH_SPECS = [fig3_ring_spec(), fig5_pair_spec(), thermal_pair_spec(x=1.0), validation_micro_spec(),
               model_spec_from_json(ring_micro_json(2))]


@pytest.mark.parametrize("spec", _PATH_SPECS, ids=["ring3_eff", "pair_eff", "pair_thermal", "micro_pair1", "micro_ring3"])
def test_parse_path_table(spec):
    accepted = set()
    for path in _candidate_paths():
        try:
            models._parse_path(spec, path)
        except ValueError:
            continue
        accepted.add(path)
    assert accepted == _addressable_paths(spec)


# Fields whose domain is a half-line; the setter test maps its values into it.
# n_p is one only where there is thermal pumping (pair_thermal and micro); on
# ring3_eff and pair_eff its domain is the point 0.
_HALF_LINE = {"Gamma", "z", "n_p", "J", "alpha", "kappa", "gamma_p", "n_c"}


def _in_domain(spec, path, value):
    """``value`` mapped into the domain of ``path`` on ``spec``."""
    field_name = path.split("[")[0]
    if field_name == "n_p" and spec.model in ("ring3_eff", "pair_eff"):
        return 0.0
    return 1.0 + abs(value) if field_name in _HALF_LINE else value


@st.composite
def _path_values(draw):
    """A model and 1-5 (path, value) pairs on it, paths drawn with repetition."""
    spec = draw(st.sampled_from(_PATH_SPECS))
    path = st.sampled_from(sorted(_addressable_paths(spec)))
    pairs = draw(st.lists(st.tuples(path, st.floats(-4.0, 4.0)), min_size=1, max_size=5))
    return spec, [(p, _in_domain(spec, p, v)) for p, v in pairs]


@pytest.mark.filterwarnings("ignore:parameters leave the weak-driving regime")
@given(_path_values())
# two components of one complex entry, and a zero entry (x[1] of both figure models) under .abs and .phase
@example((fig5_pair_spec(), [("x[0].re", 1.5), ("x[0].im", -2.0), ("x[0].abs", 3.0), ("x[0].phase", -0.3)]))
@example((fig3_ring_spec(), [("x[1].abs", 2.0), ("x[1].phase", 0.5)]))
@example((fig5_pair_spec(), [("x[1].phase", 0.5), ("x[1].abs", -2.0), ("y[1]", 3.0)]))
def test_path_setter_equals_chained_apply_path(case):
    spec, pairs = case
    chained = spec
    for path, value in pairs:
        chained = apply_path(chained, path, value)
    paths, values = zip(*pairs)
    # repr prints every float exactly, signed zeros included: a bitwise comparison
    assert repr(models.PathSetter(spec, paths)(values)) == repr(chained)


@st.composite
def _path_rows(draw):
    """An effective model, 1-4 paths on it (with repetition) and 1-4 rows of
    one value per path."""
    spec = draw(st.sampled_from(_PATH_SPECS[:3]))
    paths = draw(st.lists(st.sampled_from(sorted(_addressable_paths(spec))), min_size=1, max_size=4))
    rows = draw(st.lists(st.lists(st.floats(-4.0, 4.0), min_size=len(paths), max_size=len(paths)),
                         min_size=1, max_size=4))
    return spec, paths, [[_in_domain(spec, p, v) for p, v in zip(paths, row)] for row in rows]


def assert_rows_are_coefficients_of_specs(spec, paths, values):
    setter = models.PathSetter(spec, paths)
    rows = setter.rows(np.array(values))
    want = np.array([models.coefficients(setter(v)) for v in values])
    # the bytes, so that the sign of a zero counts
    assert rows.shape == want.shape and rows.tobytes() == want.tobytes()


@given(_path_rows())
# two paths on one complex entry; .abs and .phase at an entry of 0 (x[1] of both figure models)
@example((fig5_pair_spec(), ["x[0].re", "x[0].phase"], [[1.5, -0.3], [-0.0, 2.0], [0.0, 0.0]]))
@example((fig3_ring_spec(), ["x[1].abs", "x[1].phase", "x[1].abs"], [[2.0, 0.5, -1.0], [0.0, 1.0, 3.0]]))
@example((fig5_pair_spec(), ["x[1].abs", "x[0].im", "x[0].abs"], [[-2.0, 0.0, 0.5], [0.0, -1.0, 0.0]]))
@example((thermal_pair_spec(x=1.0), ["x[0].phase", "x[0].re", "Gamma[0]", "n_p"], [[0.3, -0.7, 2.0, 1.0]]))
# products that underflow to a signed zero: Γ₁x₁, and .abs, where a later
# .abs turns that zero's sign into a phase of π or −π
@example((thermal_pair_spec(x=1.0), ["Gamma[0]", "x[0].im"], [[1e-300, -1e-30]]))
@example((fig3_ring_spec(), ["x[1].abs", "x[1].im", "x[1].abs"], [[1.0, 2.2250738585072014e-308, -2.549271472805174e-229]]))
@example((thermal_pair_spec(x=1.0), ["x[0].im", "x[0].abs", "x[0].abs"], [[1.1125369292536007e-308, -1.175494351e-38, 1.0]]))
def test_path_rows_equal_coefficients_of_the_set_specs(case):
    assert_rows_are_coefficients_of_specs(*case)


def test_path_rows_overflow_to_non_finite_rows_quietly():
    # Γ₁x₁ overflows at Γ₁ = 1e300 although both are finite: that row is not
    # finite, still equals the spec's coefficients, and numpy stays quiet
    spec = apply_path(fig5_pair_spec(), "x[0].re", 1e10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = models.PathSetter(spec, ["Gamma[0]"]).rows(np.array([[1.0], [1e300]]))
        assert np.isfinite(rows[0]).all() and not np.isfinite(rows[1]).all()
        assert_rows_are_coefficients_of_specs(spec, ["Gamma[0]"], [[1.0], [1e300]])


def test_path_setter_parses_each_path_once(monkeypatch):
    calls = []
    honest = models._parse_path
    monkeypatch.setattr(models, "_parse_path", lambda spec, path: calls.append(path) or honest(spec, path))
    setter = models.PathSetter(fig3_ring_spec(), ("x[0].phase", "x[2].phase"))
    for phase in np.linspace(0.0, 1.0, 5):
        setter((phase, -phase))
    assert calls == ["x[0].phase", "x[2].phase"]
    with pytest.raises(ValueError, match="index out of range"):
        models.PathSetter(fig3_ring_spec(), ("x[0].phase", "x[3].phase"))


def test_model_spec_rejects_unknown_keys():
    obj = model_spec_to_json(fig5_pair_spec())
    obj["typo_field"] = 1.0
    with pytest.raises(ValueError, match="unknown model keys"):
        model_spec_from_json(obj)


def test_model_spec_rejects_bad_model():
    with pytest.raises(ValueError, match="unknown model"):
        model_spec_from_json({"model": "nope"})


def test_model_spec_complex_encoding():
    obj = model_spec_to_json(fig5_pair_spec(phi1=0.5))
    assert obj["x"][0] == [pytest.approx(5 * np.cos(0.5)), pytest.approx(5 * np.sin(0.5))]
    with pytest.raises(ValueError, match="re, im"):
        obj2 = dict(obj)
        obj2["x"] = [1.0, 0.0, 0.0]
        model_spec_from_json(obj2)


def test_apply_path_phase_and_abs():
    spec = fig5_pair_spec(phi1=0.0)
    spec2 = apply_path(spec, "x[0].phase", np.pi / 2)
    assert spec2.params.x[0] == pytest.approx(5j)
    spec3 = apply_path(spec2, "x[0].abs", 2.0)
    assert spec3.params.x[0] == pytest.approx(2j)
    assert cmath.phase(spec3.params.x[0]) == pytest.approx(np.pi / 2)
    spec4 = apply_path(spec, "x[1].re", 0.25)
    assert spec4.params.x[1] == 0.25


def test_apply_path_micro_and_errors():
    spec = validation_micro_spec()
    spec2 = apply_path(spec, "phi[0]", 1.5)
    assert spec2.params.phi[0] == 1.5
    spec3 = apply_path(spec, "kappa", 2.0)
    assert spec3.params.kappa == 2.0
    with pytest.raises(ValueError):
        apply_path(spec, "nonsense", 1.0)
    with pytest.raises(ValueError):
        apply_path(spec, "phi", 1.0)  # missing index
    with pytest.raises(ValueError):
        apply_path(spec, "phi[9]", 1.0)
    with pytest.raises(ValueError):
        apply_path(fig5_pair_spec(), "x[0]", 1.0)  # complex needs a component
    with pytest.raises(ValueError):
        apply_path(fig5_pair_spec(), "y[0].phase", 1.0)  # real field, no component


def test_model_spec_type_checks():
    with pytest.raises(ValueError):
        ModelSpec("micro", fig5_pair_spec().params)
    with pytest.raises(ValueError):
        ModelSpec("pair_thermal", fig5_pair_spec().params)


@pytest.mark.parametrize("spec", [fig3_ring_spec(), fig5_pair_spec()], ids=["ring3_eff", "pair_eff"])
def test_n_p_is_zero_without_thermal_pumping(spec):
    # only pair_thermal reads n_p; elsewhere a nonzero one would be dropped silently
    assert apply_path(spec, "n_p", 0.0) == spec
    with pytest.raises(ValueError, match=f"n_p must be 0 on {spec.model}"):
        apply_path(spec, "n_p", 0.5)
    assert apply_path(thermal_pair_spec(x=1.0), "n_p", 0.5).params.n_p == 0.5


# --- cached qubit operators -------------------------------------------------------


def test_cached_qubit_operators_are_read_only():
    for dims in ((2, 2), (2, 2, 2)):
        ops = models._qubit_ops(dims)
        assert len(ops) == len(dims)
        for op in ops:
            assert not op.flags.writeable
            with pytest.raises(ValueError):
                op[0, 0] = 1.0
    _, _, terms = build_model(fig5_pair_spec())
    assert terms[0].left is models._qubit_ops((2, 2))[0]


def test_builds_share_no_mutable_state():
    first = build_model(fig5_pair_spec(phi1=0.3))
    second = build_model(thermal_pair_spec(x=2.0, n_p=0.2))
    arrays = [
        [first[1]] + [a for t in first[2] for a in (t.left, t.right)],
        [second[1]] + [a for t in second[2] for a in (t.left, t.right)],
    ]
    assert first[1].flags.writeable and second[1].flags.writeable
    for a in arrays[0]:
        for b in arrays[1]:
            if np.shares_memory(a, b):
                assert not a.flags.writeable and not b.flags.writeable


def test_qubit_operators_embedded_once_per_geometry(monkeypatch):
    for spec in (fig3_ring_spec(), fig5_pair_spec()):
        build_model(spec)

    def fail(*args, **kwargs):
        raise AssertionError("embed called for a cached geometry")

    monkeypatch.setattr(models, "embed", fail)
    for spec in (fig3_ring_spec(phi1=0.1), fig5_pair_spec(phi1=0.2), thermal_pair_spec(x=1.0)):
        build_model(spec)


# --- affine form: pieces and coefficients -------------------------------------------


def _sigma_minus(n):
    return [models.embed(models.SIGMA_MINUS, i, HilbertSpace((2,) * n)) for i in range(n)]


def reference_generator(spec):
    """The effective models written out term by term, independently of the
    pieces: (h, [(left, right, weight), ...])."""
    p = spec.params
    if spec.model == "ring3_eff":
        P = _sigma_minus(3)
        h = np.zeros((8, 8), dtype=complex)
        terms = [(P[i], P[i], p.Gamma[i - 1] * p.z[i - 1] + p.Gamma[i] * p.z[i]) for i in range(3)]
        for i in range(3):
            j = (i + 1) % 3
            h += p.Gamma[i] * (p.y[i] * P[i].conj().T @ P[j] + p.x[i] * (P[i].conj().T + P[j].conj().T))
            terms += [(P[i], P[j], p.Gamma[i]), (P[j], P[i], p.Gamma[i])]
    elif spec.model == "pair_eff":
        P1, P2 = _sigma_minus(2)
        g1, g2, g3 = p.Gamma
        h = g2 * p.y[1] * P1.conj().T @ P2 + (g1 * p.x[0] + g2 * p.x[1]) * P1.conj().T
        h = h + (g2 * p.x[1] + g3 * p.x[2]) * P2.conj().T
        terms = [(P1, P1, g2 * p.z[1] + g1), (P2, P2, g2 * p.z[1] + g3), (P1, P2, g2), (P2, P1, g2)]
    else:
        P1, P2 = _sigma_minus(2)
        g = p.Gamma[0]
        gamma = 2 * g * (p.z[0] - 1)
        h = g * p.y[0] * P1.conj().T @ P2 + g * p.x[0] * (P1.conj().T + P2.conj().T)
        terms = []
        for P in (P1, P2):
            terms.append((P, P, g + gamma * (p.n_p + 1) / 2))
            if p.n_p * gamma > 0:
                terms.append((P.conj().T, P.conj().T, gamma * p.n_p / 2))
        terms += [(P1, P2, g), (P2, P1, g)]
    return h + h.conj().T, terms


def test_builders_match_written_out_models(rng):
    specs = [s for s in bundled_models().values() if s.model != "micro"]
    for _ in range(5):
        x = tuple(complex(*rng.normal(size=2)) for _ in range(3))
        y, z, gam = rng.normal(size=3) * 5, 1 + rng.uniform(0, 3, 3), rng.uniform(0.1, 3, 3)
        specs.append(ModelSpec("ring3_eff", EffectiveParams(3, tuple(gam), x, tuple(y), tuple(z))))
        specs.append(ModelSpec("pair_eff", EffectiveParams(2, tuple(gam), x, tuple(y), tuple(z))))
        specs.append(thermal_pair_spec(x=x[0], n_p=rng.uniform(0, 1), y=y[0], z=z[0]))
    for spec in specs:
        _, h, terms = build_model(spec)
        want_h, want_terms = reference_generator(spec)
        assert np.abs(h - want_h).max() <= 1e-14 * max(np.abs(want_h).max(), 1.0)
        assert len(terms) == len(want_terms)
        for term, (left, right, weight) in zip(terms, want_terms):
            assert np.array_equal(term.left, left) and np.array_equal(term.right, right)
            assert term.weight == pytest.approx(weight, rel=1e-15)


@pytest.mark.parametrize("name, n_hams, n_groups", [("ring3_eff", 9, 6), ("pair_eff", 7, 3), ("pair_thermal", 3, 5)])
def test_model_pieces_shape_and_read_only(name, n_hams, n_groups):
    pieces = models.model_pieces(name)
    assert pieces is models.model_pieces(name)
    assert (len(pieces.hams), len(pieces.groups)) == (n_hams, n_groups)
    spec = {s.model: s for s in bundled_models().values()}[name]
    assert models.coefficients(spec).shape == (n_hams + n_groups,)
    for h in pieces.hams:
        assert herm_defect(h) == 0.0 and not h.flags.writeable
    for group in pieces.groups:
        for term in group:
            assert term.weight == 1.0
            assert not term.left.flags.writeable and not term.right.flags.writeable


def test_thermal_up_pumping_only_when_occupied():
    # n_p = 0 leaves the upward groups out of the build, as before the affine form
    _, _, cold = build_model(thermal_pair_spec(x=1.0, n_p=0.0))
    _, _, warm = build_model(thermal_pair_spec(x=1.0, n_p=0.2))
    assert (len(cold), len(warm)) == (4, 6)


def test_model_space():
    assert models.model_space(fig3_ring_spec()).factor_dims == (2, 2, 2)
    assert models.model_space(thermal_pair_spec(x=1.0)).factor_dims == (2, 2)
    assert models.model_space(validation_micro_spec(n_boson=3)).factor_dims == (2, 2, 3)
    with pytest.raises(KeyError):
        models.coefficients(validation_micro_spec())
