"""Tests of the benchmark itself: every output check rejects a wrong answer.

Run with ``python3 -m pytest perfbench -q`` from the checkout root.
"""

import dataclasses
import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostclock  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from minkgeom import calculus, isoparametric, norms  # noqa: E402


def _scenario(label, scenarios):
    return next(sc for sc in scenarios if sc.label == label)


@pytest.fixture(scope="module")
def randers():
    return workloads.randers_scenarios()


def _verify(sc, count=8):
    return isoparametric.verify(sc.norm, sc.field, sc.levels, count=count, seed=7)


class TestVerifyChecks:
    @pytest.mark.parametrize("label", ["sphere", "reverse-sphere", "hyperplane", "cylinder",
                                       "counterexample"])
    def test_model_fields_pass(self, randers, label):
        sc = _scenario(label, randers)
        items, error = workloads.check_report(sc, _verify(sc))
        assert error is None
        assert items == 3 * 8

    def test_expected_yes_on_counterexample_fails(self, randers):
        sc = _scenario("counterexample", randers)
        wrong = dataclasses.replace(sc, expect=("yes", "yes"))
        items, error = workloads.check_report(wrong, _verify(sc))
        assert items == 0 and "verdicts" in error

    @pytest.mark.parametrize("which", ["a", "b"])
    def test_profile_off_by_more_than_tolerance_fails(self, randers, which):
        sc = _scenario("sphere", randers)
        ref = getattr(sc, f"{which}_ref")
        wrong = dataclasses.replace(sc, **{f"{which}_ref": lambda t: ref(t) * (1 + 1e-8)})
        items, error = workloads.check_report(wrong, _verify(sc))
        assert items == 0 and error.startswith(f"sphere: {which}(")

    def test_hyperplane_profile_is_the_dual_norm_of_c(self, randers):
        sc = _scenario("hyperplane", randers)
        assert sc.a_ref(1.0) == pytest.approx(2.061784257290817, rel=1e-15)

    def test_alpha_beta_cylinder_passes(self):
        sc = _scenario("cylinder-n3", workloads.alpha_beta_scenarios())
        assert workloads.check_report(sc, _verify(sc))[1] is None


@pytest.fixture(scope="module")
def kernel_state():
    return workloads.KernelWorkload().setup(3, ROOT)


def _first_bundle(state, label):
    _, norm, y, xr, yr = next(entry for entry in state["mixes"][0] if entry[0] == label)
    return norm, workloads.kernel_bundle(norm, y, xr, yr)


class TestKernelChecks:
    @pytest.mark.parametrize("label", ["randers-n3", "randers-n6", "kth_root-n3",
                                       "kth_root-n6", "alpha_beta-n3", "alpha_beta-n6"])
    def test_every_family_passes(self, kernel_state, label):
        norm, bundle = _first_bundle(kernel_state, label)
        assert workloads.check_bundle(norm, bundle) == (1, None)

    @pytest.mark.parametrize("field, identity", [
        ("y_back", "L^-1(L(y)) = y"),
        ("fstar", "F*(L(y)) = F(y)"),
        ("gstar", "g*(L(y)) g(y) = I"),
        ("xi", "L(y) = legendre"),
        ("Q", "1 - Q = alpha(1 - b^2)"),
    ])
    def test_corrupted_output_fails(self, kernel_state, field, identity):
        norm, bundle = _first_bundle(kernel_state, "randers-n3")
        bad = dataclasses.replace(bundle, **{field: getattr(bundle, field) * (1 + 1e-6)})
        items, error = workloads.check_bundle(norm, bad)
        assert items == 0 and error.startswith(identity)

    @pytest.mark.parametrize("tensor, identity", [("d2", "g(y)y = L(y)"), ("d3", "d3.y = 0"),
                                                  ("d4", "d4.y = -d3")])
    def test_corrupted_tensor_fails(self, kernel_state, tensor, identity):
        norm, bundle = _first_bundle(kernel_state, "alpha_beta-n3")
        d = bundle.d
        noisy = getattr(d, tensor) + 1e-6 * np.random.default_rng(0).standard_normal(
            getattr(d, tensor).shape)
        bad = dataclasses.replace(bundle, d=dataclasses.replace(d, **{tensor: noisy}))
        items, error = workloads.check_bundle(norm, bad)
        assert items == 0 and error.startswith(identity)

    def test_kth_root_directions_stay_off_the_coordinate_hyperplanes(self, kernel_state):
        for mix in kernel_state["mixes"]:
            for label, _, y, _, _ in mix:
                if label.startswith("kth_root"):
                    assert np.min(np.abs(y)) >= 0.25 * np.max(np.abs(y)) - 1e-15

    def test_a_mix_fails_on_its_first_wrong_bundle(self, kernel_state):
        norm, bundle = _first_bundle(kernel_state, "kth_root-n6")
        bad = dataclasses.replace(bundle, fstar=bundle.fstar * 2)
        assert workloads.check_mix([("a", norm, bundle), ("b", norm, bundle)]) == (2, None)
        items, error = workloads.check_mix([("a", norm, bundle), ("b", norm, bad)])
        assert items == 0 and error.startswith("b: F*(L(y)) = F(y)")

    def test_inputs_come_from_the_seed(self):
        a = workloads.KernelWorkload().setup(5, ROOT)["mixes"][3][0][2]
        b = workloads.KernelWorkload().setup(5, ROOT)["mixes"][3][0][2]
        c = workloads.KernelWorkload().setup(6, ROOT)["mixes"][3][0][2]
        assert np.array_equal(a, b) and not np.array_equal(a, c)


def _cli_result(rc=0, reports=None):
    return workloads.CliResult(rc, 1000, {"r.json": "aa"} if reports is None else reports,
                               10, "error: boom\n", None)


class TestCliChecks:
    inv = workloads.Invocation("verify", "demos/configs/randers_sphere.json")

    def test_same_reports_pass(self):
        first = {}
        assert workloads.check_cli(self.inv, _cli_result(), first) == (1, None)
        assert workloads.check_cli(self.inv, _cli_result(), first) == (1, None)

    def test_nonzero_exit_fails(self):
        items, error = workloads.check_cli(self.inv, _cli_result(rc=2), {})
        assert items == 0 and "exit 2" in error

    def test_changed_report_bytes_fail(self):
        first = {}
        workloads.check_cli(self.inv, _cli_result(), first)
        items, error = workloads.check_cli(self.inv, _cli_result(reports={"r.json": "bb"}), first)
        assert items == 0 and "differ" in error

    def test_missing_report_fails(self):
        assert workloads.check_cli(self.inv, _cli_result(reports={}), {})[0] == 0

    def test_every_config_and_command(self):
        invs = workloads.cli_invocations(ROOT)
        commands = [i.command for i in invs]
        assert (commands.count("verify"), commands.count("curvatures"),
                commands.count("dualcheck")) == (4, 4, 1)


class TestTail:
    def test_ten_samples_beyond(self):
        values = list(range(1, 26))
        value, pct = run.tail(values)
        assert sum(v > value for v in values) == 10
        assert pct == pytest.approx(60.0)

    def test_needs_eleven_samples(self):
        assert np.isnan(run.tail(list(range(10)))[0])


class TestHostClock:
    def test_scale_is_nominal_over_the_mean_of_the_samples_around(self):
        nominal = hostclock.REF_NOMINAL_S
        assert hostclock.HostClock.scale(2.0, 2 * nominal, 2 * nominal) == pytest.approx(1.0)
        assert hostclock.HostClock.scale(1.0, nominal, 3 * nominal) == pytest.approx(0.5)

    def test_each_operation_is_scaled_by_the_samples_before_and_after_it(self, monkeypatch):
        nominal = hostclock.REF_NOMINAL_S
        ticks = iter([nominal, 3 * nominal, nominal])
        clock = hostclock.HostClock()
        monkeypatch.setattr(clock, "sample", lambda: next(ticks))
        ops = [workloads.Op(f"op{i}", lambda: None, lambda result: (1, None)) for i in range(2)]

        class Two:
            def ops(self, state):
                return ops

        records, passes, _ = run.run_passes(Two(), {}, 0.0, 1, clock=clock)
        assert passes == 1
        assert [r.scaled / r.seconds for r in records] == pytest.approx([0.5, 0.5])

    def test_factor_is_nominal_over_median_sample(self):
        clock = hostclock.HostClock()
        clock.samples = [2 * hostclock.REF_NOMINAL_S, hostclock.REF_NOMINAL_S,
                         9 * hostclock.REF_NOMINAL_S]
        assert clock.factor() == pytest.approx(0.5)

    def test_samples_run_without_garbage_collection(self, monkeypatch):
        seen = []
        monkeypatch.setattr(hostclock, "reference_kernel", lambda: seen.append(gc.isenabled()))
        clock = hostclock.HostClock()
        clock.sample()
        assert seen == [False]
        assert gc.isenabled()


class TestTracing:
    def test_spans_and_counts_on_a_randers_verify(self):
        norm = norms.RandersNorm([0.5, 0.0, 0.0])
        field = calculus.sphere_potential(norm)
        originals = (isoparametric.sample_level, calculus.ScalarField.value,
                     isoparametric.laplacian)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            span = tracer.begin_op(1)
            isoparametric.verify(norm, field, [0.5, 2.0, 4.5], count=8)
            tracer.end_op(span)
        finally:
            tracer.unhook()
        assert (isoparametric.sample_level, calculus.ScalarField.value,
                isoparametric.laplacian) == originals
        assert tracer.missing == []
        m = layers.per_layer(tracer, int(tracer.counters["level_points"]), 1.0, {}, 0)
        assert set(m) == set(layers.PER_LAYER)
        assert m["trace.points"] == 24
        assert m["duality.newton_solves_per_point"] == 0
        assert 150 < m["isoparametric.field_evals_per_point"] < 260
        assert m["isoparametric.accepted_frac"] == 1.0
        assert sum(m[f"trace.self_frac.{layer}"] for layer in tracing.LAYERS) == pytest.approx(1.0)

    def test_dump_and_load_round_trip(self, tmp_path):
        tracer = tracing.Tracer()
        outer = tracer.begin(tracer.name_id("a"))
        tracer.end(tracer.begin(tracer.name_id("b"), 7))
        tracer.end(outer)
        tracer.count("level_points", 3)
        tracer.dump(str(tmp_path / "t.json"))
        back, header = tracing.Tracer.load(str(tmp_path / "t.json"))
        assert back.names == ["a", "b"] and list(back.parent) == [-1, 0]
        assert list(back.tag) == [0, 7] and back.counters == {"level_points": 3}
        merged = tracing.Tracer()
        root = merged.begin_op(4)
        merged.end_op(root)
        merged.absorb(back, root, 4)
        assert list(merged.parent) == [-1, 0, 1] and list(merged.op) == [4, 4, 4]

    def test_importtime_parsing(self):
        text = ("import time: self [us] | cumulative | imported package\n"
                "import time:       100 |        100 |     numpy.core\n"
                "import time:       200 |        300 |   scipy.optimize\n"
                "import time:        50 |       1000 | minkgeom\n"
                "import time:        20 |         20 | minkgeom.cli\n")
        summary = tracing.import_summary(tracing.parse_importtime(text))
        assert summary["minkgeom_s"] == pytest.approx(1020e-6)
        assert summary["scipy_optimize_s"] == pytest.approx(300e-6)


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "randers-verify", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
