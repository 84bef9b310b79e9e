import dataclasses
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from minkgeom import (calculus, cli, duality, hypersurface as hs, isoparametric as iso, norms,
                      sampling)
from minkgeom.errors import MinkGeomError, NotIsoparametric, NotMonotone

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


class SqrtProfile:
    """phi(t) = sqrt(2t): turns the sphere potential into a distance function."""

    def phi(self, t):
        return np.sqrt(2.0 * t)

    def derivatives(self, t):
        v = np.sqrt(2.0 * t)
        return (v, 1.0 / v, -1.0 / (2.0 * t * v), 0.0, 0.0)


class TestSampling:
    def test_sphere_levels_hit(self, randers3):
        f = calculus.sphere_potential(randers3)
        s = iso.sample_level(randers3, f, 2.0, 32)
        assert len(s.points) == 32 and s.skipped == 0
        for x in s.points:
            assert randers3.value(x) == pytest.approx(2.0, abs=1e-10)
            assert abs(f.value(x) - 2.0) <= 1e-10 * 3.0

    def test_linear_levels_hit(self, randers3):
        c = np.array([1.0, 2.0, 0.5])
        f = calculus.linear_field(c)
        s = iso.sample_level(randers3, f, 1.0, 32)
        for x in s.points:
            assert c @ x == pytest.approx(1.0, abs=1e-10)

    def test_example4_levels_hit(self, randers3_mixed):
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        s = iso.sample_level(randers3_mixed, f, 1.0, 32)
        for x in s.points:
            assert f.value(x) == pytest.approx(1.0, abs=1e-9)

    def test_determinism(self, randers3):
        f = calculus.sphere_potential(randers3)
        a = iso.sample_level(randers3, f, 1.0, 16, seed=3)
        b = iso.sample_level(randers3, f, 1.0, 16, seed=3)
        assert np.array_equal(a.points, b.points)
        c = iso.sample_level(randers3, f, 1.0, 16, seed=4)
        assert not np.allclose(a.points, c.points)

    def test_range_enforced(self, randers3):
        f = calculus.sphere_potential(randers3)
        with pytest.raises(ValueError):
            iso.sample_level(randers3, f, -1.0, 16)

    def test_one_geometry_per_point(self, alphabeta3, quartic3, randers3, monkeypatch,
                                    tmp_path):
        # F*, Delta f and the frame share one Legendre inversion and one
        # subspace-dual reduction per accepted point, and later stages (the
        # curvature table, the Randers witness) read the frames sampling built;
        # the alpha-beta inversion is the family's hook, never Newton
        calls = {"inverse": 0, "newton": 0, "subspace_dual": 0, "geometry": 0, "d2": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        cylinder = calculus.cylinder_potential(quartic3, 2)
        monkeypatch.setattr(duality, "legendre_inverse",
                            counting("inverse", duality.legendre_inverse))
        monkeypatch.setattr(duality, "legendre_inverse_newton",
                            counting("newton", duality.legendre_inverse_newton))
        monkeypatch.setattr(duality, "subspace_dual",
                            counting("subspace_dual", duality.subspace_dual))
        s = iso.sample_level(alphabeta3, calculus.sphere_potential(alphabeta3), 2.0, 8)
        assert calls["inverse"] == len(s.points) == 8
        assert calls["newton"] == 0
        s = iso.sample_level(quartic3, cylinder, 2.0, 8)
        assert len(s.points) == 8 and calls["subspace_dual"] <= len(s.points)

        monkeypatch.setattr(hs, "point_geometry", counting("geometry", hs.point_geometry))
        config = CONFIGS / "randers_cylinder.json"
        assert cli.main(["curvatures", str(config), "--out", str(tmp_path)]) == 0
        assert calls["geometry"] == 3 * 64

        monkeypatch.setattr(calculus.ScalarField, "d2",
                            counting("d2", calculus.ScalarField.d2))
        rep = iso.verify(randers3, calculus.sphere_potential(randers3), [0.5, 2.0, 4.5],
                         count=16)
        assert rep.witness is not None
        assert calls["d2"] == sum(len(s.points) for s in rep.samples) == 48


def _counted(field, calls):
    """A copy of ``field`` that counts its value and d1 calls into ``calls``."""
    def counting(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper
    return dataclasses.replace(field, value_fn=counting("value", field.value_fn),
                               d1_fn=counting("d1", field.d1_fn))


class TestRadialRoot:
    @pytest.mark.parametrize("case", ["randers-sphere", "randers-hyperplane",
                                      "randers-cylinder", "alphabeta-sphere",
                                      "cubic-of-sphere"])
    def test_polish_cost_per_ray(self, case, randers3, alphabeta3):
        # value calls beyond the ladder: the regula falsi trials alone
        field, t = {
            "randers-sphere": (calculus.sphere_potential(randers3), 2.0),
            "randers-hyperplane": (calculus.linear_field([1.0, 2.0, 0.5]), 0.5),
            "randers-cylinder": (calculus.cylinder_potential(randers3, 2), 2.0),
            "alphabeta-sphere": (calculus.sphere_potential(alphabeta3), 2.0),
            # phi(s) = s + s^3 makes f of degree 6 along the ray: the regula
            # falsi keeps one end for many steps unless the halving runs
            "cubic-of-sphere": (calculus.reparametrized_field(
                calculus.sphere_potential(randers3),
                norms.PolynomialProfile([0.0, 1.0, 0.0, 1.0])), 10.0),
        }[case]
        calls = {"value": 0, "d1": 0}
        field = _counted(field, calls)
        anchor = np.asarray(field.anchor, dtype=float)
        found = 0
        for d in sampling.sphere_directions(field.dim, 16, seed=0):
            for ray in (d, -d):
                calls.update(value=0, d1=0)
                s = iso._radial_root(field, anchor, ray, t)
                assert calls["value"] - len(iso._LADDER) <= 12
                if s is not None:
                    break
            if s is None:
                continue
            found += 1
            assert abs(field.value(anchor + s * ray) - t) <= iso.LEVEL_RESIDUAL * (1.0 + abs(t))
        assert found == 16

    @pytest.mark.parametrize("case", ["randers-sphere", "randers-reverse-sphere",
                                      "randers-hyperplane", "randers-cylinder",
                                      "norm-plus-linear", "alphabeta-sphere",
                                      "cubic-of-sphere", "small-level"])
    def test_met_level_skips_the_polish(self, case, randers3, randers3_mixed, alphabeta3):
        # the regula falsi alone meets the level to 1e-13 |t| on every found
        # ray, and only f is evaluated: no d1 call.  At t = 2^-39 a bound
        # relative to 1 + |t| would admit points percents off the level
        field, t = {
            "randers-sphere": (calculus.sphere_potential(randers3), 2.0),
            "randers-reverse-sphere": (calculus.sphere_potential(randers3, reverse=True), -2.0),
            "randers-hyperplane": (calculus.linear_field([1.0, 2.0, 0.5]), 0.5),
            "randers-cylinder": (calculus.cylinder_potential(randers3, 2), 2.0),
            "norm-plus-linear": (calculus.norm_plus_linear(randers3_mixed, 2), 1.0),
            "alphabeta-sphere": (calculus.sphere_potential(alphabeta3), 2.0),
            "cubic-of-sphere": (calculus.reparametrized_field(
                calculus.sphere_potential(randers3),
                norms.PolynomialProfile([0.0, 1.0, 0.0, 1.0])), 10.0),
            "small-level": (calculus.sphere_potential(randers3), 2.0 * 2.0**-40),
        }[case]
        calls = {"value": 0, "d1": 0}
        field = _counted(field, calls)
        anchor = np.asarray(field.anchor, dtype=float)
        found = 0
        for d in sampling.sphere_directions(field.dim, 16, seed=0):
            for ray in (d, -d):
                s = iso._radial_root(field, anchor, ray, t)
                if s is not None:
                    break
            if s is None:
                continue
            found += 1
            assert abs(field.value(anchor + s * ray) - t) <= 1e-13 * abs(t)
        assert found == 16
        assert calls["d1"] == 0

    def test_zero_level_stops_on_the_bracket_width(self):
        # at t = 0 the residual stop admits only an exact zero, so the width
        # stop 1e-13 s (or an exact zero) ends the search at |x| = sqrt(3)
        field = calculus.custom_field(3, lambda x: x @ x - 3.0)
        s = iso._radial_root(field, np.zeros(3), np.array([1.0, 0.0, 0.0]), 0.0)
        assert s == pytest.approx(np.sqrt(3.0), rel=1e-13, abs=0.0)

    def test_error_inside_the_bracket_skips_the_ray(self):
        # f = |x|^2 raises on a shell strictly inside the rung step that
        # brackets t = 1.5; the first regula falsi trial lands in the shell,
        # the root sqrt(1.5) does not
        t, lo, hi = 1.5, 1.19, 1.215
        a = int(np.searchsorted(iso._LADDER, np.sqrt(t))) - 1
        assert iso._LADDER[a] < lo < hi < np.sqrt(t) < iso._LADDER[a + 1]

        def value(x, shell=True):
            if shell and lo < np.linalg.norm(x) < hi:
                raise MinkGeomError("undefined on the shell")
            return x @ x

        def field(shell):
            return calculus.custom_field(3, lambda x: value(x, shell), lambda x: 2.0 * x,
                                         lambda x: 2.0 * np.eye(3))

        d = np.array([1.0, 0.0, 0.0])
        assert iso._radial_root(field(False), np.zeros(3), d, t) == pytest.approx(np.sqrt(t))
        assert iso._radial_root(field(True), np.zeros(3), d, t) is None

    @pytest.mark.parametrize("k", [-20, 7, 30])
    def test_points_scale_with_the_level(self, randers3, k):
        # f = F^2/2 is 2-homogeneous: level c^2 t is c times level t, and a
        # power of 2 moves the ladder by whole rungs
        f = calculus.sphere_potential(randers3)
        c = 2.0**k
        base = iso.sample_level(randers3, f, 2.0, 16, seed=3).points
        scaled = iso.sample_level(randers3, f, c * c * 2.0, 16, seed=3).points
        assert scaled.shape == base.shape
        err = np.linalg.norm(scaled - c * base, axis=1) / (c * np.linalg.norm(base, axis=1))
        assert np.max(err) <= 1e-13


class TestVerify:
    def test_sphere_isoparametric(self, randers3):
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=32)
        assert rep.transnormal and rep.isoparametric
        assert rep.constant_principal_curvatures
        assert rep.group_structure == (2,)
        # profiles: a = sqrt(2t), b = n
        assert np.allclose(rep.a_nodes[:, 1], np.sqrt(2 * rep.a_nodes[:, 0]), atol=1e-10)
        assert np.allclose(rep.b_nodes[:, 1], 3.0, atol=1e-10)

    def test_sphere_isoparametric_at_large_scale(self, randers3):
        # critical-point and level tests are relative: x -> cx changes nothing
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [1e20, 1e21, 1e22], count=16)
        assert (rep.transnormal_verdict, rep.isoparametric_verdict) == ("yes", "yes")
        assert np.allclose(rep.a_nodes[:, 1], np.sqrt(2 * rep.a_nodes[:, 0]), rtol=1e-10)

    def test_linear_isoparametric(self, randers3):
        f = calculus.linear_field([1.0, 2.0, 0.5])
        rep = iso.verify(randers3, f, [1.0, 2.0, 3.0], count=32)
        assert rep.isoparametric
        fstar = duality.dual_norm(randers3, np.array([1.0, 2.0, 0.5]))
        assert np.allclose(rep.a_nodes[:, 1], fstar, atol=1e-12)
        assert np.allclose(rep.b_nodes[:, 1], 0.0, atol=1e-12)

    def test_example4_transnormal_only(self, randers3_mixed):
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        rep = iso.verify(randers3_mixed, f, [0.8, 1.0, 1.25], count=32)
        assert rep.transnormal_verdict == "yes"
        assert rep.isoparametric_verdict == "no"
        assert not rep.isoparametric
        assert np.allclose(rep.a_nodes[:, 1], 1.0, atol=1e-10)
        for st in rep.level_stats:
            assert st["lap_spread"] >= 1e-2

    def test_isoparametric_implies_transnormal(self, randers3_mixed):
        # structural monotonicity of the combined verdict
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        rep = iso.verify(randers3_mixed, f, [0.8, 1.0, 1.25], count=32)
        assert not (rep.isoparametric and not rep.transnormal)

    def test_profile_well_defined_across_levels(self, randers3):
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 1.0, 2.0, 3.0, 4.5], count=32)
        for st in rep.level_stats:
            assert st["fstar_spread"] <= 1e-6 * (1.0 + abs(st["fstar_mean"]))
            assert st["lap_spread"] <= 1e-6 * (1.0 + abs(st["lap_mean"]))

    def test_witness_agreement(self, randers3, randers3_mixed):
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=32)
        assert rep.witness["r1_pass"] and rep.witness["r2_pass"]
        f4 = calculus.norm_plus_linear(randers3_mixed, 2)
        rep4 = iso.verify(randers3_mixed, f4, [0.8, 1.0, 1.25], count=32)
        assert rep4.witness["r1_pass"] and not rep4.witness["r2_pass"]

    def test_needs_three_levels(self, randers3):
        f = calculus.sphere_potential(randers3)
        with pytest.raises(ValueError):
            iso.verify(randers3, f, [1.0, 2.0], count=32)


class TestIdentities:
    def test_sphere_numbers(self, randers3):
        # t = 2: sum k = -1 and a' - b/a = 0.5 - 1.5
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=32)
        table = iso.consistency_identities(rep)
        assert table["max_sum_k_vs_profile"] <= 1e-6
        assert table["max_riccati"] <= 1e-6
        assert table["max_model_sum_sq"] <= 1e-9
        s = rep.samples[1]
        assert float(np.sum(s.curvatures[0])) == pytest.approx(-1.0, abs=1e-9)

    def test_hyperplane_residuals_vanish(self, randers3):
        f = calculus.linear_field([1.0, 2.0, 0.5])
        rep = iso.verify(randers3, f, [1.0, 2.0, 3.0], count=32)
        table = iso.consistency_identities(rep)
        assert table["max_sum_k_vs_profile"] <= 1e-10
        assert table["max_riccati"] <= 1e-10

    def test_cylinder_numbers(self):
        # t = 1/2 (r = 1): sum k = -1 = a' - b/a = 1 - 2
        norm = norms.RandersNorm([0.3, 0.0, 0.0])
        f = calculus.cylinder_potential(norm, 2)
        rep = iso.verify(norm, f, [0.125, 0.5, 1.125], count=32)
        table = iso.consistency_identities(rep)
        assert table["max_sum_k_vs_profile"] <= 1e-6
        assert table["max_model_sum_sq"] <= 1e-9
        s = rep.samples[1]
        assert float(np.sum(s.curvatures[0])) == pytest.approx(-1.0, abs=1e-9)

    def test_sphere_numbers_at_small_scale(self, randers3):
        # levels c^2 t with c = 1e-6: points scale by c, curvatures by 1/c,
        # and the flow step h = FLOW_STEP a(t) shrinks with a(t) = c sqrt(2t)
        c = 1e-6
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [c * c * 0.5, c * c * 2.0, c * c * 4.5], count=32)
        assert (rep.transnormal_verdict, rep.isoparametric_verdict) == ("yes", "yes")
        assert rep.witness["r1_pass"] and rep.witness["r2_pass"]
        assert rep.witness["r2_max"] <= 1e-12
        table = iso.consistency_identities(rep)
        assert table["max_sum_k_vs_profile"] <= 1e-6 / c
        assert table["max_riccati"] <= 1e-6 / c**2
        assert table["max_model_sum_sq"] <= 1e-9 / c**2

    def test_requires_isoparametric(self, randers3_mixed):
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        rep = iso.verify(randers3_mixed, f, [0.8, 1.0, 1.25], count=32)
        with pytest.raises(NotIsoparametric):
            iso.consistency_identities(rep)


class TestFlow:
    def test_sphere_arclength_is_radius_gap(self, randers3):
        f = calculus.sphere_potential(randers3)
        s = iso.sample_level(randers3, f, 0.5, 8)
        res = iso.f_segment_flow(randers3, f, s.points[0], 0.5, 2.0)
        assert res.arclength == pytest.approx(1.0, abs=1e-6)  # r: 1 -> 2
        assert res.chord_deviation <= 1e-6
        assert f.value(res.endpoint) == pytest.approx(2.0, abs=1e-10)

    def test_arclength_matches_profile_quadrature(self, randers3):
        f = calculus.sphere_potential(randers3)
        s = iso.sample_level(randers3, f, 0.5, 8)
        res = iso.f_segment_flow(randers3, f, s.points[1], 0.5, 2.0)

        def a(t):  # the transnormal profile, from a small level sample
            return float(iso.sample_level(randers3, f, t, 8).fstar.mean())

        integral, _ = quad(lambda t: 1.0 / a(t), 0.5, 2.0, limit=100)
        assert res.arclength == pytest.approx(integral, abs=1e-6)

    def test_linear_constant_speed(self, randers3):
        c = np.array([1.0, 2.0, 0.5])
        f = calculus.linear_field(c)
        fstar = duality.dual_norm(randers3, c)
        s = iso.sample_level(randers3, f, 1.0, 8)
        res = iso.f_segment_flow(randers3, f, s.points[0], 1.0, 3.0)
        assert res.arclength == pytest.approx(2.0 / fstar, rel=1e-9)
        assert res.chord_deviation <= 1e-9

    def test_reverse_sphere_flow(self, randers3):
        f = calculus.sphere_potential(randers3, reverse=True)
        s = iso.sample_level(randers3, f, -4.5, 8)
        res = iso.f_segment_flow(randers3, f, s.points[0], -4.5, -0.5)
        assert res.arclength == pytest.approx(2.0, abs=1e-6)  # r: 3 -> 1

    def test_flow_rejects_wrong_start(self, randers3):
        f = calculus.sphere_potential(randers3)
        with pytest.raises(ValueError):
            iso.f_segment_flow(randers3, f, np.array([5.0, 0.0, 0.0]), 0.5, 2.0)


class TestReparametrization:
    def test_linear_profile_doubles_a(self, randers3):
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=32)
        rep2 = iso.reparametrize_isoparametric(rep, norms.PolynomialProfile([0.0, 2.0]))
        assert rep2.isoparametric
        # a_new(2t) = 2 a(t)
        for (t, a), (t2, a2) in zip(rep.a_nodes, rep2.a_nodes):
            assert t2 == pytest.approx(2 * t)
            assert a2 == pytest.approx(2 * a, rel=1e-9)

    def test_sqrt_profile_gives_distance_function(self, randers3):
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=32)
        rep2 = iso.reparametrize_isoparametric(rep, SqrtProfile())
        assert rep2.isoparametric
        assert np.allclose(rep2.a_nodes[:, 1], 1.0, atol=1e-9)
        # b_new(u) = (n - 1) / u at u = sqrt(2t)
        for u, bval in rep2.b_nodes:
            assert bval == pytest.approx(2.0 / u, rel=1e-9)

    def test_cubic_profile_on_hyperplane(self, randers3):
        f = calculus.linear_field([1.0, 2.0, 0.5])
        rep = iso.verify(randers3, f, [1.0, 2.0, 3.0], count=32)
        rep2 = iso.reparametrize_isoparametric(rep, norms.PolynomialProfile([0, 0, 0, 1.0]))
        assert rep2.isoparametric

    def test_transform_formulas(self, randers3):
        # a_new = phi' a, b_new = phi'' a^2 + phi' b at matched levels
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=32)
        prof = norms.PolynomialProfile([0.0, 1.0, 0.25])
        rep2 = iso.reparametrize_isoparametric(rep, prof)
        for (t, a), (t2, a2), (_, b), (_, b2) in zip(
                rep.a_nodes, rep2.a_nodes, rep.b_nodes, rep2.b_nodes):
            _, dp, d2p, *_ = prof.derivatives(t)
            assert t2 == pytest.approx(prof.derivatives(t)[0])
            assert a2 == pytest.approx(dp * a, rel=1e-9)
            assert b2 == pytest.approx(d2p * a**2 + dp * b, rel=1e-9)

    def test_monotonicity_enforced(self, randers3):
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=32)
        with pytest.raises(NotMonotone):
            iso.reparametrize_isoparametric(rep, norms.PolynomialProfile([0.0, -1.0]))

    def test_requires_isoparametric_report(self, randers3_mixed):
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        rep = iso.verify(randers3_mixed, f, [0.8, 1.0, 1.25], count=32)
        with pytest.raises(NotIsoparametric):
            iso.reparametrize_isoparametric(rep, norms.PolynomialProfile([0.0, 2.0]))


class TestReportSerialization:
    def test_json_schema_and_determinism(self, randers3, tmp_path):
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=16)
        rep.scenario_id = "unit"
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        rep.write_json(p1)
        rep2 = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=16)
        rep2.scenario_id = "unit"
        rep2.write_json(p2)
        assert p1.read_bytes() == p2.read_bytes()
        import json
        data = json.loads(p1.read_text())
        assert data["schema"] == 1
        assert data["verdicts"]["isoparametric"] == "yes"
        assert data["profiles"]["a"][0][0] == 0.5

    def test_csv_columns(self, randers3, tmp_path):
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=16)
        rep.scenario_id = "unit"
        path = tmp_path / "s.csv"
        rep.write_csv(path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["scenario", "level"] + [f"x{i}" for i in range(1, 7)] + \
            ["fstar_df", "laplacian"] + [f"k{i}" for i in range(1, 6)]
        assert len(lines) == 1 + 3 * 16
        first = lines[1].split(",")
        assert first[0] == "unit"
        assert first[5] == "" and first[-1] == ""  # padding columns empty
