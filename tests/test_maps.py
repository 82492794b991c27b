"""Identity-map tension and bi-tension fields and their defining identities."""

import numpy as np

from statmanifold import (
    centroaffine_power_surface,
    evaluate_spec,
    flat_constant_cubic,
    random_polynomial_cubic,
)
from statmanifold.pipeline import band_agreement, residual_table


def identity_report(instance, count=None, seed=None):
    """(stat, identity map, its residual table with identities and conditions in one dict)."""
    geom, stat, ident = evaluate_spec(instance.spec, count=count, seed=seed)
    identities, conditions = residual_table(geom, stat, ident)
    return stat, ident, {**identities, **conditions}


def flags(res, tolerance=1e-8):
    """The semi-equiaffine flag and the flag agreement, as run_diagnostics derives them."""
    t_res, b_res = (float(np.max(res[name])) for name in ("semi_equiaffine", "bitension"))
    return t_res <= tolerance, band_agreement(t_res, b_res, tolerance)


def test_tension_fields_for_riemannian_structure():
    _, ident, _ = identity_report(flat_constant_cubic(2, {}), count=10)
    assert np.max(np.abs(ident.tau)) == 0.0
    assert np.max(np.abs(ident.taubar)) == 0.0
    assert np.max(np.abs(ident.tau2)) < 1e-14
    assert np.max(np.abs(ident.taubar2)) < 1e-14


def test_tension_is_minus_tchebychev():
    stat, ident, res = identity_report(centroaffine_power_surface(1.0, 2.0))
    assert np.max(res["tension_is_minus_tchebychev"]) < 1e-10
    assert np.max(res["conjugate_tension_is_tchebychev"]) < 1e-10
    assert np.max(res["harmonic_tension_vanishes"]) == 0.0
    # eta = (0, -1/x2) pattern: tau = -T with T the raised covector
    np.testing.assert_allclose(ident.tau, -stat.T, atol=1e-12)
    np.testing.assert_allclose(ident.taubar, stat.T, atol=1e-12)


def test_difftension_everywhere():
    for inst in (
        flat_constant_cubic(2, {"111": 2.0}),
        centroaffine_power_surface(1.0, 2.0),
        random_polynomial_cubic(2, 2, seed=12),
    ):
        _, _, res = identity_report(inst)
        assert np.max(res["difftension"]) < 1e-12


def test_parallel_tchebychev_gives_vanishing_bitension():
    _, ident, res = identity_report(flat_constant_cubic(2, {"111": 2.0}), count=30)
    assert np.max(np.abs(ident.tau2)) < 1e-10
    assert np.max(np.abs(ident.taubar2)) < 1e-10
    assert flags(res) == (True, "consistent")


def test_bitension_paths_agree_on_random_cubics():
    for seed in range(8):
        _, _, res = identity_report(random_polynomial_cubic(2, 2, seed=seed), count=40)
        assert np.max(res["bitension_path_independence"]) < 1e-8


def test_main1_identities_hold_even_when_conditions_fail():
    _, ident, res = identity_report(random_polynomial_cubic(2, 2, seed=31), count=60)
    assert np.max(res["main1_identity_a"]) < 1e-8
    assert np.max(res["main1_identity_b"]) < 1e-8
    # the instance itself is generically not semi-equiaffine
    assert flags(res) == (False, "consistent")
    assert np.max(np.abs(ident.tau2)) > 1e-3


def test_main1_identities_on_centroaffine():
    _, _, res = identity_report(centroaffine_power_surface(1.0, 2.0))
    assert np.max(res["main1_identity_a"]) < 1e-8
    assert np.max(res["main1_identity_b"]) < 1e-8
    assert flags(res) == (True, "consistent")


def test_flag_equivalence_hysteresis_band():
    # a tolerance placed just under the actual residual lands in the 10x
    # dead band and must report inconclusive instead of flapping
    _, ident, res = identity_report(random_polynomial_cubic(2, 2, seed=31), count=40)
    residual = float(np.max(np.abs(ident.t1)))
    assert flags(res, residual / 5.0)[1] == "inconclusive"
    assert flags(res, residual * 2.0)[1] == "consistent"


def test_semi_equiaffine_flag_tracks_bitension_flag():
    cases = [
        (flat_constant_cubic(3, {"123": 0.75}), True),
        (centroaffine_power_surface(2.0, 3.0), True),
        (random_polynomial_cubic(2, 1, seed=5), False),
    ]
    for inst, expected in cases:
        _, ident, res = identity_report(inst)
        assert flags(res) == (expected, "consistent")
        bitension = max(np.max(np.abs(ident.tau2)), np.max(np.abs(ident.taubar2)))
        assert bool(bitension <= 1e-8) is expected
