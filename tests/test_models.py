import json

import numpy as np
import pytest

from polariton_ring.linalg import HilbertSpace, herm_defect, partial_trace
from polariton_ring.models import (
    EffectiveParams,
    MicroParams,
    ModelSpec,
    apply_path,
    build_full_micro,
    build_model,
    build_pair_effective,
    build_pair_thermal,
    build_ring3_effective,
    bundled_models,
    derive_effective,
    fig3_ring_spec,
    fig5_pair_spec,
    model_spec_from_json,
    model_spec_to_json,
    resolve_path,
    thermal_pair_spec,
    validation_micro_spec,
)
from polariton_ring.observables import ThermalSpec, concurrence, gibbs_two_qubit, trace_distance
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
        omega_c=(5.0, 5.0, 5.0), omega_p=(5.0, 5.0, 5.0), omega_d=5.0, n_boson=2,
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
    eff = derive_effective(micro_pair(), detunings=(-2.5,))
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
    space, h, terms = build_ring3_effective(params)
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
    space, h, terms = build_ring3_effective(params)
    diag_weights = [t.weight for t in terms[:3]]
    for i in range(3):
        assert diag_weights[i] == pytest.approx(Gamma[(i - 1) % 3] + Gamma[i] + gamma / 2)


def test_ring_cyclic_permutation_invariance():
    params = EffectiveParams(
        n_sites=3, Gamma=(1.0, 1.0, 1.0), x=(0.3 + 0.1j,) * 3, y=(2.0,) * 3, z=(1.05,) * 3
    )
    space, h, terms = build_ring3_effective(params)
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
    space, h, terms = build_pair_effective(params)
    report = steady_state_on(assemble(h, terms), space)
    assert report.rho.mat[0, 0].real == pytest.approx(1.0, abs=1e-10)


def test_pair_hamiltonian_hermitian(rng):
    for _ in range(10):
        x = tuple(rng.normal() + 1j * rng.normal() for _ in range(3))
        params = EffectiveParams(
            n_sites=2, Gamma=(1.0, 5.0, 2.0), x=x, y=(0.0, rng.normal(), 0.0), z=(1.0, 1.2, 1.0)
        )
        _, h, _ = build_pair_effective(params)
        assert herm_defect(h) == 0.0


def test_pair_dissipator_weights_quoted_form():
    params = EffectiveParams(
        n_sites=2, Gamma=(1.0, 76.0, 2.0), x=(0.0, 0.0, 0.0), y=(0.0,) * 3, z=(1.0, 1.01, 1.0)
    )
    _, _, terms = build_pair_effective(params)
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
    space, h, terms = build_pair_thermal(params)
    report = steady_state_on(assemble(h, terms), space)
    p_e = n_p / (2 * n_p + 1)
    single = np.diag([1 - p_e, p_e])
    want = np.kron(single, single).astype(complex)
    assert np.abs(report.rho.mat - want).max() <= 1e-4
    # matches the Bose-Einstein Gibbs state at the corresponding temperature
    t = 1.0 / np.log(1.0 / n_p + 1.0)
    assert trace_distance(report.rho, gibbs_two_qubit(ThermalSpec(T=t))) <= 1e-4


def test_thermal_rejects_bad_drive():
    for x in (1j, -1.0, complex(1.0, 1e-3)):
        params = EffectiveParams(n_sites=2, Gamma=(1.0,), x=(x,), y=(0.0,), z=(1.0,))
        with pytest.raises(ValueError, match="drive"):
            build_pair_thermal(params)
        with pytest.raises(ValueError, match="drive"):
            ModelSpec("pair_thermal", params)
    with pytest.raises(ValueError, match="drive"):
        apply_path(thermal_pair_spec(x=1.0), "x[0].re", -1.0)


def test_thermal_rejects_negative_occupation():
    with pytest.raises(ValueError):
        EffectiveParams(n_sites=2, Gamma=(1.0,), x=(0.0,), y=(0.0,), z=(1.0,), n_p=-0.1)


# --- micro builder -----------------------------------------------------------------

def test_micro_undriven_steady_is_vacuum_ground():
    p = MicroParams(
        n_sites=2, J=(0.05,), kappa=1.0, gamma_p=0.01, alpha=(0.0,), phi=(0.0,),
        omega_c=(1.0,), omega_p=(1.0, 1.0), omega_d=1.0, n_boson=3,
    )
    space, h, terms = build_full_micro(p)
    report = steady_state_on(assemble(h, terms), space)
    assert report.rho.mat[0, 0].real == pytest.approx(1.0, abs=1e-8)


def test_micro_truncation_convergence():
    margs = []
    for nb in (2, 3, 4):
        spec = validation_micro_spec(n_boson=nb)
        space, h, terms = build_full_micro(spec.params)
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
    # at n_boson=3 it is 46656² (about 35 GB): rejected before anything is built
    assert model_spec_from_json(ring_micro_json(2)).params.geometry == "ring3"
    for n_boson in (3, 5):
        with pytest.raises(ValueError, match="budget"):
            model_spec_from_json(ring_micro_json(n_boson))
    with pytest.raises(ValueError, match="budget"):
        MicroParams(
            n_sites=3, J=(0.05,) * 3, kappa=1.0, gamma_p=0.0, alpha=(0.0,) * 3,
            phi=(0.0,) * 3, omega_c=(1.0,) * 3, omega_p=(1.0,) * 3, omega_d=1.0, n_boson=3,
        )


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
    space, h, terms = build_full_micro(p)
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
    assert resolve_path(spec3, "x[0].phase") == pytest.approx(np.pi / 2)
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
