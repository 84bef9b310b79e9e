import json

import pytest

from minkgeom import cli, isoparametric


def run(args):
    return cli.main([str(a) for a in args])


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


SPHERE = {
    "scenario": "cli-sphere",
    "norm": {"family": "randers", "b": [0.5, 0.0, 0.0]},
    "field": {"catalog": "sphere"},
    "levels": [0.5, 2.0, 4.5],
    "samples": 24,
    "expect": {"transnormal": True, "isoparametric": True},
}


class TestVerifyCommand:
    def test_expectation_met(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", SPHERE)
        assert run(["verify", cfg, "--out", tmp_path / "out"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["schema"] == 1
        assert report["scenario"] == "cli-sphere"
        assert report["verdicts"]["isoparametric"] == "yes"
        assert (tmp_path / "out" / "samples.csv").exists()

    def test_verdict_mismatch_exits_2(self, tmp_path):
        bad = dict(SPHERE)
        bad["norm"] = {"family": "randers", "b": [0.1, 0.0, 0.2]}
        bad["field"] = {"catalog": "norm_plus_linear", "m": 2}
        bad["levels"] = [0.8, 1.0, 1.25]
        bad["expect"] = {"transnormal": True, "isoparametric": True}
        cfg = write_config(tmp_path, "bad.json", bad)
        assert run(["verify", cfg, "--out", tmp_path / "out"]) == 2

    def test_malformed_value_exits_1(self, tmp_path, capsys):
        bad = dict(SPHERE)
        bad["samples"] = "many"
        cfg = write_config(tmp_path, "m.json", bad)
        assert run(["verify", cfg, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert "verification needs" in err or "error" in err

    def test_unknown_key_reports_path(self, tmp_path, capsys):
        bad = dict(SPHERE)
        bad["norm"] = {"family": "randers", "b": [0.5, 0, 0], "bee": 1}
        cfg = write_config(tmp_path, "u.json", bad)
        assert run(["verify", cfg, "--out", tmp_path / "out"]) == 1
        assert "norm.bee" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value,where", [
        ("verify", "expect", {"transnormall": True}, "expect.transnormall"),
        ("verify", "expect", True, "expect"),
        ("verify", "expect", {"transnormal": "no"}, "expect.transnormal"),
        ("verify", "output", True, "output"),
        ("verify", "output", {"json": 3}, "output.json"),
        ("verify", "scenario", 3, "scenario"),
        ("verify", "levels", [0.5, 2.0], "levels"),
        ("verify", "levels", [0.5, -2.0, 4.5], "levels[1]"),
        ("verify", "levels", [0.5, 10**400, 4.5], "levels[1]"),
        ("verify", "samples", 4, "samples"),
        ("verify", "tolerance", float("nan"), "tolerance"),
        ("verify", "tolerance", -1, "tolerance"),
        ("curvatures", "tolerance", -1.0, "tolerance"),
        ("verify", "norm", {"family": "randers", "b": ["x", 0, 0]}, "norm.b[0]"),
        ("curvatures", "levels", [], "levels"),
    ], ids=["unknown-expect-key", "expect-not-object", "expect-not-bool",
            "output-not-object", "output-name-not-string", "scenario-not-string",
            "too-few-levels", "level-outside-range", "level-beyond-float", "too-few-samples",
            "tolerance-not-finite", "tolerance-negative", "curvatures-tolerance-negative",
            "b-not-number", "curvatures-no-levels"])
    def test_bad_block_rejected_before_computing(self, tmp_path, capsys, command, key, value,
                                                where):
        cfg = write_config(tmp_path, "b.json", {**SPHERE, key: value})
        out = tmp_path / "out"
        out.mkdir()
        assert run([command, cfg, "--out", out]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {where}: ")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("command", ["verify", "curvatures", "dualcheck"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_not_finite_or_negative_rejected_before_computing(self, tmp_path, capsys,
                                                                   command, tol):
        cfg = write_config(tmp_path, "t.json", SPHERE)
        out = tmp_path / "out"
        out.mkdir()
        assert run([command, cfg, "--out", out, "--tol", tol]) == 1
        assert capsys.readouterr().err.startswith("config error: --tol: ")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("command", ["verify", "curvatures", "dualcheck"])
    def test_a_failed_dump_writes_no_file(self, tmp_path, monkeypatch, command):
        def fail(obj):
            raise ValueError("non-finite float in report")

        monkeypatch.setattr(isoparametric, "dumps_17g", fail)
        monkeypatch.setattr(cli, "dumps_17g", fail)
        cfg = write_config(tmp_path, "s.json", {**SPHERE, "samples": 8})
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(ValueError, match="non-finite"):
            run([command, cfg, "--out", out])
        assert not list(out.iterdir())

    def test_json_syntax_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"norm": \n !')
        assert run(["verify", path, "--out", tmp_path / "out"]) == 1
        assert ":2:" in capsys.readouterr().err

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", SPHERE)
        assert run(["verify", cfg, "--out", tmp_path / "a"]) == 0
        assert run(["verify", cfg, "--out", tmp_path / "b"]) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()
        assert (tmp_path / "a" / "samples.csv").read_bytes() == \
            (tmp_path / "b" / "samples.csv").read_bytes()

    def test_seed_changes_samples(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", SPHERE)
        run(["verify", cfg, "--out", tmp_path / "a"])
        run(["verify", cfg, "--out", tmp_path / "b", "--seed", 7])
        assert (tmp_path / "a" / "samples.csv").read_bytes() != \
            (tmp_path / "b" / "samples.csv").read_bytes()

    def test_strategy_override(self, tmp_path):
        cfg_data = dict(SPHERE)
        cfg_data["norm"] = {"family": "kth_root", "k": 4, "dim": 3}
        cfg_data["tolerance"] = 1e-4
        cfg = write_config(tmp_path, "k.json", cfg_data)
        assert run(["verify", cfg, "--out", tmp_path / "out", "--strategy", "fd"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["norm"]["strategy"] == "fd"
        assert report["derivative_strategy"] == "fd"


    ALPHA_BETA = {"family": "alpha_beta", "dim": 3, "b_scalar": 0.3,
                  "profile": {"type": "polynomial", "coeffs": [1.0, 1.0, 0.1]}}

    def test_each_family_keeps_its_default_strategy(self, tmp_path):
        # no strategy in the config or on the command line: alpha-beta runs
        # its jets, Randers its closed forms
        for norm, want in ((self.ALPHA_BETA, "taylor"), (SPHERE["norm"], "analytic")):
            cfg = write_config(tmp_path, "d.json", {**SPHERE, "norm": norm, "samples": 8})
            assert run(["verify", cfg, "--out", tmp_path / want]) == 0
            report = json.loads((tmp_path / want / "report.json").read_text())
            assert report["norm"]["strategy"] == report["derivative_strategy"] == want

    @pytest.mark.parametrize("where", ["config", "option"])
    def test_analytic_alpha_beta_is_a_config_error(self, tmp_path, capsys, where):
        norm = {**self.ALPHA_BETA, "strategy": "analytic"} if where == "config" else self.ALPHA_BETA
        cfg = write_config(tmp_path, "d.json", {**SPHERE, "norm": norm})
        extra = ["--strategy", "analytic"] if where == "option" else []
        assert run(["verify", cfg, "--out", tmp_path / "out", *extra]) == 1
        assert "alpha_beta family has no analytic derivatives" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()


class TestCurvaturesCommand:
    def test_sphere_table(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", SPHERE)
        assert run(["curvatures", cfg, "--out", tmp_path / "out"]) == 0
        lines = (tmp_path / "out" / "curvatures.csv").read_text().splitlines()
        assert lines[0].startswith("scenario,level,group,kappa")
        assert len(lines) == 4  # one group per level
        payload = json.loads((tmp_path / "out" / "curvatures.json").read_text())
        assert payload["levels"][1]["groups"][0][0] == pytest.approx(-0.5, abs=1e-9)
        assert payload["levels"][0]["cartan_formula_residual"] <= 1e-8

    def test_cylinder_two_groups_and_products(self, tmp_path):
        cfg = {
            "norm": {"family": "randers", "b": [0.3, 0.0, 0.0]},
            "field": {"catalog": "cylinder", "m": 2},
            "levels": [0.5],
            "samples": 16,
        }
        path = write_config(tmp_path, "c.json", cfg)
        assert run(["curvatures", path, "--out", tmp_path / "out"]) == 0
        payload = json.loads((tmp_path / "out" / "curvatures.json").read_text())
        level = payload["levels"][0]
        assert len(level["groups"]) == 2
        assert level["sectional_products"][0] == pytest.approx(0.0, abs=1e-10)
        assert level["two_curvature_residual"] <= 1e-8

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_tolerance_holds_at_every_scale(self, tmp_path, scale):
        # the residuals have degrees -1 (Cartan's formula) and -2 (the two
        # curvatures) in the radius: at levels x1e-12 they read about
        # 2.9e-10 and 2.2e-4, which the check divides by max |kappa| and kappa^2
        cfg = {
            "norm": {"family": "randers", "b": [0.3, 0.0, 0.0, 0.0, 0.2]},
            "field": {"catalog": "cylinder", "m": 3},
            "levels": [scale * t for t in (0.5, 2.0, 4.5)],
            "samples": 16,
        }
        path = write_config(tmp_path, "c.json", cfg)
        assert run(["curvatures", path, "--out", tmp_path / "out"]) == 0
        assert run(["curvatures", path, "--out", tmp_path / "out", "--tol", 1e-20]) == 2


class TestDualcheckCommand:
    def test_randers_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", {
            "norm": {"family": "randers", "b": [0.5, 0.0, 0.0]},
            "trials": 200,
        })
        assert run(["dualcheck", cfg, "--out", tmp_path / "out"]) == 0
        payload = json.loads((tmp_path / "out" / "dualcheck.json").read_text())
        assert all(payload["pass"].values())
        assert payload["residuals"]["lemma61"] <= 1e-7

    def test_quartic_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", {
            "norm": {"family": "kth_root", "k": 4, "dim": 3},
            "trials": 200,
        })
        assert run(["dualcheck", cfg, "--out", tmp_path / "out"]) == 0

    @pytest.mark.parametrize("norm", [
        {"family": "kth_root", "k": 4, "dim": 3},
        {"family": "alpha_beta", "dim": 3, "b_scalar": 0.3,
         "profile": {"type": "polynomial", "coeffs": [1.0, 1.0, 0.1]}},
    ], ids=["kth_root", "alpha_beta"])
    def test_reports_only_the_checks_it_ran(self, tmp_path, norm):
        # the Newton agreement runs for every family, Lemma 6.1 for Randers
        # norms alone
        cfg = write_config(tmp_path, "d.json", {"norm": norm, "trials": 50})
        assert run(["dualcheck", cfg, "--out", tmp_path / "out"]) == 0
        payload = json.loads((tmp_path / "out" / "dualcheck.json").read_text())
        for key in ("residuals", "thresholds", "pass"):
            assert sorted(payload[key]) == ["dual_agreement", "norm_preservation", "roundtrip"]

    def test_lemma61_needs_three_dimensions(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", {
            "norm": {"family": "randers", "b": [0.5, 0.0]}, "trials": 50})
        assert run(["dualcheck", cfg, "--out", tmp_path / "out"]) == 0
        payload = json.loads((tmp_path / "out" / "dualcheck.json").read_text())
        assert sorted(payload["pass"]) == ["dual_agreement", "norm_preservation", "roundtrip"]

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_rejected_before_computing(self, tmp_path, capsys, trials):
        cfg = write_config(tmp_path, "d.json", {
            "norm": {"family": "randers", "b": [0.5, 0.0, 0.0]},
            "trials": trials,
        })
        out = tmp_path / "out"
        out.mkdir()
        assert run(["dualcheck", cfg, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("config error: trials: ")
        assert not list(out.iterdir())

    def test_impossible_tolerance_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", {
            "norm": {"family": "randers", "b": [0.5, 0.0, 0.0]},
            "trials": 50,
        })
        assert run(["dualcheck", cfg, "--out", tmp_path / "out", "--tol", 1e-18]) == 2
