import re

import numpy as np
import pytest

from helpers import (
    CATALOG_DRAWS,
    prune,
    random_boost,
    random_density,
    random_kraus_channel,
    random_unitary,
)
from kraussim.channels import (
    KrausChannel,
    WignerBoost,
    apply_channel,
    bit_flip,
    channel_from_dict,
    channel_to_dict,
    depolarizing,
    generalized_amplitude_damping,
    heisenberg_weyl,
    hw_dephasing,
    hw_phase,
    hw_shift,
    l1_coherence,
    load_channel,
    pauli_channel,
    phase_damping,
    qutrit_amplitude_damping,
    save_channel,
    spin_boost_channel,
    validate_cptp,
    wigner_channel,
    wigner_rotation,
)
from kraussim import channels
from kraussim.numerics import MAX_DIM, DensityMatrix, bloch_state, uniform_state

PLUS = DensityMatrix(np.full((2, 2), 0.5))
UNIFORM3 = DensityMatrix(np.full((3, 3), 1.0 / 3.0))


def test_catalog_channels_are_cptp():
    rng = np.random.default_rng(100)
    for label, draw, _dim in CATALOG_DRAWS:
        for _ in range(10):
            report = validate_cptp(draw(rng))
            assert report.passed, f"{label}: residual {report.residual}"


def test_broken_channel_reports_residual_half():
    broken = KrausChannel((np.sqrt(0.5) * np.eye(2, dtype=complex),), label="broken")
    report = validate_cptp(broken)
    assert not report.passed
    assert abs(report.residual - 0.5) < 1e-15


def test_kraus_channel_shape_validation():
    with pytest.raises(ValueError):
        KrausChannel(())
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2), np.eye(3)))
    with pytest.raises(ValueError):
        KrausChannel((np.ones((2, 3)),))


def test_kraus_channel_rejects_non_finite_entries():
    k1 = np.eye(2, dtype=complex)
    k1[1, 0] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match=r"Kraus operator 1 entry \(1, 0\) is not finite: infj"):
        KrausChannel((np.eye(2), k1))
    # the catalog reaches the same check through its parameters
    with pytest.raises(ValueError, match=r"Kraus operator 0 entry \(0, 0\) is not finite"):
        spin_boost_channel(np.nan)


def test_bit_phase_flip_coherence_curve():
    for p in np.linspace(0, 1, 11):
        ch = pauli_channel(1 - p, 0.0, 0.0, p)
        assert abs(l1_coherence(apply_channel(ch, PLUS)) - abs(1 - 2 * p)) < 1e-10


def test_two_branch_flips_match_pauli_mixture():
    # the dedicated constructors use two Kraus operators, not four, but
    # generate the same map
    from kraussim.channels import bit_phase_flip, phase_flip

    rng = np.random.default_rng(42)
    for p in (0.0, 0.3, 1.0):
        for two_op, four_op in (
            (bit_flip(p), pauli_channel(1 - p, p, 0, 0)),
            (phase_flip(p), pauli_channel(1 - p, 0, p, 0)),
            (bit_phase_flip(p), pauli_channel(1 - p, 0, 0, p)),
        ):
            assert len(two_op.kraus_ops) == 2
            rho = random_density(rng, 2)
            assert np.allclose(
                apply_channel(two_op, rho).matrix, apply_channel(four_op, rho).matrix, atol=1e-12
            )


def test_bit_flip_leaves_plus_invariant():
    assert abs(l1_coherence(apply_channel(bit_flip(0.7), PLUS)) - 1.0) < 1e-12


def test_depolarizing_limits():
    rho = random_density(np.random.default_rng(8), 2)
    assert np.allclose(apply_channel(depolarizing(0.0), rho).matrix, rho.matrix, atol=1e-12)
    assert np.allclose(apply_channel(depolarizing(1.0), rho).matrix, np.eye(2) / 2, atol=1e-12)
    assert len(depolarizing(0.5).kraus_ops) == 4


def test_phase_damping_coherence():
    for p in np.linspace(0, 1, 11):
        c = l1_coherence(apply_channel(phase_damping(p), PLUS))
        assert abs(c - np.sqrt(1 - p)) < 1e-10


def test_gad_coherence_independent_of_excitation():
    for p in np.linspace(0, 1, 11):
        for n in (0.0, 0.25, 0.5, 1.0):
            ch = generalized_amplitude_damping(p, n)
            assert abs(l1_coherence(apply_channel(ch, PLUS)) - np.sqrt(1 - p)) < 1e-10


def test_hw_operator_commutation():
    # Z(k) X(j) = w^{jk} X(j) Z(k) with w = exp(2 pi i / d)
    d = 3
    w = np.exp(2j * np.pi / d)
    for j in range(d):
        for k in range(d):
            lhs = hw_phase(d, k) @ hw_shift(d, j)
            rhs = w ** (j * k) * hw_shift(d, j) @ hw_phase(d, k)
            assert np.allclose(lhs, rhs, atol=1e-12)
    assert np.allclose(hw_shift(d, 1) @ np.array([1, 0, 0]), np.array([0, 1, 0]), atol=1e-15)


def test_uniform_hw_mixture_twirls_to_maximally_mixed():
    rng = np.random.default_rng(77)
    twirl = heisenberg_weyl(3, np.full((3, 3), 1.0 / 9.0))
    for _ in range(50):
        rho = random_density(rng, 3)
        assert np.allclose(apply_channel(twirl, rho).matrix, np.eye(3) / 3, atol=1e-10)


def test_hw_dephasing_preserves_populations():
    rng = np.random.default_rng(13)
    for p0 in (0.0, 0.4, 1.0):
        ch = hw_dephasing(3, p0)
        rho = random_density(rng, 3)
        out = apply_channel(ch, rho)
        assert np.allclose(np.diag(out.matrix), np.diag(rho.matrix), atol=1e-14)


def test_hw_dephasing_off_diagonal_factor():
    # every off-diagonal is damped by sqrt(sum of squared weight gaps) / sqrt(2)
    rng = np.random.default_rng(14)
    for p0 in (0.0, 0.25, 0.5, 0.9):
        p1 = p2 = (1 - p0) / 2
        factor = np.sqrt((p0 - p1) ** 2 + (p0 - p2) ** 2 + (p1 - p2) ** 2) / np.sqrt(2)
        out = apply_channel(hw_dephasing(3, p0), rng_rho := random_density(rng, 3))
        for j in range(3):
            for k in range(3):
                if j != k:
                    assert abs(abs(out.matrix[j, k]) - abs(rng_rho.matrix[j, k]) * factor) < 1e-10


def test_hw_dephasing_anchor_values():
    assert abs(l1_coherence(apply_channel(hw_dephasing(3, 0.5), UNIFORM3)) - 0.5) < 1e-10
    assert abs(l1_coherence(apply_channel(hw_dephasing(3, 1.0), UNIFORM3)) - 2.0) < 1e-10
    assert l1_coherence(apply_channel(hw_dephasing(3, 1.0 / 3.0), UNIFORM3)) < 1e-10


def test_hw_dephasing_checks_d_before_building_an_operator(monkeypatch):
    # d = 2000 once built 2000 dense 2000 x 2000 operators, about 128 GB,
    # before KrausChannel checked the dimension, and d = 1024 16 GiB; the
    # d operators may hold at most MAX_DIM**2 entries, so d <= 101, and no
    # operator is built for a d outside that
    monkeypatch.setattr(channels, "hw_phase", lambda d, k: pytest.fail("an operator was built"))
    for d in (0, 1):
        with pytest.raises(ValueError, match=f"^qudit dimension d={d} outside \\[2, 101\\]$"):
            hw_dephasing(d, 0.5)
    for d in (102, MAX_DIM, MAX_DIM + 1, 2000, 10**400):
        with pytest.raises(ValueError, match=f"^qudit dimension d={d} outside \\[2, 101\\]: {d}\\^1 operators "
                                             f"of {d} x {d} would hold {d**3} complex entries, above "
                                             f"MAX_DIM\\*\\*2 = {MAX_DIM**2}$"):
            hw_dephasing(d, 0.5)


def test_heisenberg_weyl_checks_d_before_building_an_operator(monkeypatch):
    # d^2 operators of d x d: at most MAX_DIM**2 entries allow d <= 32
    build = channels.hw_shift
    monkeypatch.setattr(channels, "hw_shift", lambda d, j: pytest.fail("an operator was built"))
    with pytest.raises(ValueError, match=f"^qudit dimension d=33 outside \\[2, 32\\]: 33\\^2 operators of 33 x 33 "
                                         f"would hold {33**4} complex entries, above MAX_DIM\\*\\*2 = {MAX_DIM**2}$"):
        heisenberg_weyl(33, None)
    monkeypatch.setattr(channels, "hw_shift", build)
    assert heisenberg_weyl(32, np.full((32, 32), 1.0 / 1024)).n_kraus == 32**2
    assert hw_dephasing(101, 0.5).n_kraus == 101


def _qutrit_adc_closed_form(gamma, last_coeff):
    return (2.0 / 3.0) * (abs(1 - gamma) ** 1.5 + abs(1 - gamma)) + last_coeff * abs(
        (np.sqrt(2) * gamma + 1) * np.sqrt(1 - gamma)
    )


def test_qutrit_adc_coherence():
    assert (
        abs(l1_coherence(apply_channel(qutrit_amplitude_damping(0.5), UNIFORM3)) - 1.3737734478532149)
        < 1e-10
    )
    assert abs(l1_coherence(apply_channel(qutrit_amplitude_damping(0.0), UNIFORM3)) - 2.0) < 1e-10
    for gamma in np.linspace(0, 1, 21):
        c = l1_coherence(apply_channel(qutrit_amplitude_damping(gamma), UNIFORM3))
        assert abs(c - _qutrit_adc_closed_form(gamma, 2.0 / 3.0)) < 1e-10


def test_kraus_unitary_freedom():
    rng = np.random.default_rng(55)
    for _ in range(10):
        ch = random_kraus_channel(rng, 2, 3)
        u = random_unitary(rng, 3)
        mixed = KrausChannel(
            tuple(sum(u[i, j] * ch.kraus_ops[j] for j in range(3)) for i in range(3))
        )
        assert validate_cptp(mixed).passed
        rho = random_density(rng, 2)
        assert np.allclose(
            apply_channel(ch, rho).matrix, apply_channel(mixed, rho).matrix, atol=1e-10
        )


def test_wigner_rotation_reference_values():
    boost = WignerBoost(
        rapidity=1.0,
        boost_direction=np.array([1.0, 0.0, 0.0]),
        momentum_rapidity=1.0,
        momentum_directions=(np.array([0.0, 0.0, 1.0]),),
    )
    rot = wigner_rotation(boost, 0)
    assert abs(rot.angle - 0.420783961638073) < 1e-12
    assert np.allclose(rot.axis, [0.0, -1.0, 0.0], atol=1e-12)
    assert abs(np.cos(rot.angle / 2) - 0.9779491273072459) < 1e-12


def test_wigner_rotation_collinear_is_identity():
    boost = WignerBoost(
        rapidity=0.8,
        boost_direction=np.array([0.0, 0.0, 1.0]),
        momentum_rapidity=1.5,
        momentum_directions=(np.array([0.0, 0.0, 1.0]),),
    )
    rot = wigner_rotation(boost, 0)
    assert abs(rot.angle) < 1e-12
    assert np.allclose(rot.axis, [0.0, 0.0, 1.0])  # conventional axis at identity


def test_wigner_angle_normalization():
    rng = np.random.default_rng(31)
    for _ in range(100):
        boost = random_boost(rng)
        rot = wigner_rotation(boost, 0)
        # cos^2 + |sin n|^2 reassembled from the stored (angle, axis)
        total = np.cos(rot.angle / 2) ** 2 + np.sin(rot.angle / 2) ** 2 * np.dot(rot.axis, rot.axis)
        assert abs(total - 1.0) < 1e-10


def test_wigner_channel_unital():
    rng = np.random.default_rng(32)
    for _ in range(20):
        ch = wigner_channel(random_boost(rng))
        acc = sum(k @ k.conj().T for k in ch.kraus_ops)
        assert np.allclose(acc, np.eye(2), atol=1e-10)
        mixed = DensityMatrix(np.eye(2) / 2)
        assert np.allclose(apply_channel(ch, mixed).matrix, np.eye(2) / 2, atol=1e-10)


def test_spin_boost_coherence_is_cosine():
    for theta in np.linspace(0, np.pi / 2, 9):
        ch = spin_boost_channel(theta)
        assert abs(l1_coherence(apply_channel(ch, PLUS)) - np.cos(theta)) < 1e-10


def test_wigner_channel_with_opposite_momenta_matches_spin_boost():
    # two momenta mirrored about the boost axis give the +/- theta pair
    theta = 0.7
    boost = WignerBoost(
        rapidity=1.0,
        boost_direction=np.array([1.0, 0.0, 0.0]),
        momentum_rapidity=1.0,
        momentum_directions=(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])),
    )
    ch = wigner_channel(boost)
    assert len(ch.kraus_ops) == 2
    rho = random_density(np.random.default_rng(4), 2)
    angle = wigner_rotation(boost, 0).angle
    ref = spin_boost_channel(angle)
    assert np.allclose(apply_channel(ch, rho).matrix, apply_channel(ref, rho).matrix, atol=1e-10)


def test_channel_serialization_round_trip(tmp_path):
    ch = generalized_amplitude_damping(0.3, 0.25)
    data = channel_to_dict(ch)
    back = channel_from_dict(data)
    assert back.dim == ch.dim and back.label == ch.label
    for a, b in zip(ch.kraus_ops, back.kraus_ops):
        assert np.array_equal(a, b)
    path = tmp_path / "gad.channel.json"
    save_channel(ch, str(path))
    loaded = load_channel(str(path))
    assert np.array_equal(loaded.kraus_ops[0], ch.kraus_ops[0])
    assert loaded.params == ch.params


def test_channel_from_dict_rejects_garbage():
    with pytest.raises((KeyError, ValueError, TypeError)):
        channel_from_dict({"dim": 2})


def test_prune_drops_zero_operators():
    ch = depolarizing(0.0)  # three branches carry weight exactly 0
    kept = prune(ch)
    assert len(kept.kraus_ops) == 1
    assert np.allclose(kept.kraus_ops[0], np.eye(2), atol=1e-15)
    assert len(ch.kraus_ops) == 4  # original untouched


def test_channel_from_dict_rejects_booleans_and_strings():
    # a boolean once read as 1.0 and a string that spells a number as that
    # number; each is rejected, naming the param or the operator and entry
    for value in (True, "0.3"):
        data = channel_to_dict(bit_flip(0.3))
        data["params"]["p"] = value
        with pytest.raises(ValueError, match=f"^params.p: must be a real number, got {re.escape(repr(value))}$"):
            channel_from_dict(data)
    for entry in (["1", 0], [0.0, "0"], [0.5, False]):
        data = channel_to_dict(bit_flip(0.3))
        data["kraus"][1][0][1] = entry
        with pytest.raises(ValueError, match=f"^Kraus operator 1 entry \\(0, 1\\): must be a number or \\[re, im\\], got {re.escape(repr(entry))}$"):
            channel_from_dict(data)
    # integers are numbers
    data = channel_to_dict(bit_flip(0.0))
    data["params"]["p"] = 0
    data["kraus"][0] = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    assert channel_from_dict(data).params == {"p": 0.0}
