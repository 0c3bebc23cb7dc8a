"""End-to-end command line checks, via subprocess except where a test must start no process."""

import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dysonmap import cli

SRC = str(Path(__file__).resolve().parent.parent / "src")

TINY = """\
schema: 1
name: tiny
dim: 12
guard: 4
kappa: 0.1
perturbation_order: 2
grid: {t0: 0.0, t1: 6.283185307179586, steps: 1500}
omega: {form: constant, c: [1.0, 0.0]}
alpha: {form: constant, c: [0.0, 1.0]}
beta: {form: constant, c: [0.0, 1.0]}
"""

CONTROL = """\
schema: 1
name: control
dim: 12
guard: 4
kappa: 0.1
perturbation_order: 2
grid: {t0: 0.0, t1: 6.283185307179586, steps: 1500}
omega: {form: constant, c: [1.0, 0.0]}
alpha: {form: constant, c: [1.0, 0.0]}
beta: {form: constant, c: [0.0, 1.0]}
"""

SERIES_HEADER = (
    "t,u_re,u_im,f_re,f_im,theta_re,theta_im,chi,Phi_0,Phi_1,Phi_2,Phi_3,"
    "metric_constancy,r2,r7,equivalence_sanity,equivalence_fixed_metric,"
    "equivalence_observable"
)


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    # absolute, so the uninstalled package imports from any working directory
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "dysonmap.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "tiny.yaml").write_text(TINY)
    (root / "control.yaml").write_text(CONTROL)
    return root


@pytest.fixture(scope="module")
def tiny_run_out(work):
    out = work / "run1"
    proc = run_cli("run", str(work / "tiny.yaml"), "--out", str(out))
    return proc, out


class TestRun:
    def test_passes_and_writes_artifacts(self, tiny_run_out):
        proc, out = tiny_run_out
        assert proc.returncode == 0, proc.stderr
        assert "PASS pt_label=UNBROKEN" in proc.stdout
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["scenario"] == "tiny"
        assert summary["failing"] == []

    def test_rerun_is_byte_identical(self, work, tiny_run_out):
        _, out = tiny_run_out
        out2 = work / "run2"
        proc = run_cli("run", str(work / "tiny.yaml"), "--out", str(out2))
        assert proc.returncode == 0
        for name in ("series.csv", "summary.json"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_series_table_layout(self, tiny_run_out):
        _, out = tiny_run_out
        lines = (out / "series.csv").read_text().rstrip("\n").split("\n")
        assert lines[0] == SERIES_HEADER
        assert len(lines) == 1502  # header + one row per grid point
        cols = lines[0].split(",")
        i_r2, i_r7 = cols.index("r2"), cols.index("r7")
        first = lines[1].split(",")
        second = lines[2].split(",")
        last = lines[-1].split(",")
        # the flow-identity stencil needs a neighbor on each side
        assert first[i_r2] == "" and first[i_r7] == ""
        assert second[i_r2] != "" and second[i_r7] != ""
        assert last[i_r2] == "" and last[i_r7] == ""
        assert float(first[0]) == 0.0
        assert float(last[0]) == pytest.approx(6.283185307179586)

    def test_control_fails_with_named_checks(self, work):
        out = work / "ctrl"
        proc = run_cli("run", str(work / "control.yaml"), "--out", str(out))
        assert proc.returncode == 1
        assert "FAIL failing=" in proc.stdout
        for token in ("(ii)", "metric_constancy", "r7", "pt_label=BROKEN"):
            assert token in proc.stdout

    def test_no_drive_hits_integrator_floor(self, work):
        out = work / "k0"
        proc = run_cli(
            "run", str(work / "tiny.yaml"), "--set", "kappa=0.0", "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        checks = json.loads((out / "summary.json").read_text())["checks"]
        assert checks["metric_constancy"]["value"] < 1e-7
        assert checks["r2"]["value"] < 1e-6
        assert checks["r7"]["value"] < 1e-10

    def test_set_override_changes_physics(self, work):
        out = work / "khalf"
        proc = run_cli(
            "run", str(work / "tiny.yaml"), "--set", "kappa=0.05", "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        checks = json.loads((out / "summary.json").read_text())["checks"]
        # terminal deviation scales as pi kappa^2
        assert checks["analytic_vs_numeric"]["value"] == pytest.approx(
            math.pi * 0.05**2, rel=2e-3
        )

    def test_exponent_notation_in_set(self, work):
        out = work / "kappa_exp_set"
        proc = run_cli(
            "diagnose", str(work / "tiny.yaml"), "--set", "kappa=1e-3", "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["validation"]["gamma0"] == [0.0, -0.002]

    def test_exponent_notation_in_scenario_file(self, work):
        path = work / "kappa_exp.yaml"
        path.write_text(TINY.replace("kappa: 0.1", "kappa: 1e-1"))
        out = work / "kappa_exp_file"
        proc = run_cli("diagnose", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["validation"]["gamma0"] == [0.0, -0.2]

    def test_lambda0_shifts_the_derived_gamma0(self, work):
        # the constraint fixes gamma0 + lambda0* = kappa [beta* - alpha]/omega = -0.2i
        out = work / "lambda0"
        proc = run_cli("diagnose", "s1", "--set", "lambda0=[0,0.1]", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["validation"]["gamma0"] == [0.0, -0.1]
        assert all(c["passed"] for c in summary["validation"]["checks"].values())
        assert summary["passed"] is True


class TestConfigErrors:
    @pytest.mark.parametrize("kappa", ["-0.2", ".nan", ".inf"])
    def test_negative_kappa(self, work, kappa):
        proc = run_cli("run", str(work / "tiny.yaml"), "--set", f"kappa={kappa}")
        assert proc.returncode == 2, proc.stderr
        assert "configuration error: kappa must be >= 0 and finite" in proc.stderr

    def test_unknown_key_suggests_nearest(self, work):
        proc = run_cli("run", str(work / "tiny.yaml"), "--set", "omga=2.0")
        assert proc.returncode == 2
        assert "omega" in proc.stderr

    def test_unknown_schema(self, work):
        bad = work / "bad_schema.yaml"
        bad.write_text(TINY.replace("schema: 1", "schema: 2"))
        proc = run_cli("run", str(bad))
        assert proc.returncode == 2

    def test_missing_file(self, work):
        proc = run_cli("run", str(work / "nope.yaml"))
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "extra", [("--set", "kappa=0.1"), ("--axis", "kappa:0.05:0.1:2")], ids=["set", "axis"]
    )
    def test_top_level_list_with_overrides(self, work, extra):
        bad = work / "list.yaml"
        bad.write_text("- 1\n- 2\n")
        proc = run_cli("pt-phase", str(bad), *extra)
        assert proc.returncode == 2, proc.stderr
        assert "must contain a mapping at top level" in proc.stderr

    @pytest.mark.parametrize("command", ["pt-phase", "sweep"])
    @pytest.mark.parametrize("axis", ["kappa:0:inf:2", "kappa:0:inf:1", "kappa:nan:0.1:2",
                                      "kappa:-inf:0:3"])
    def test_non_finite_axis_ends_are_config_errors(self, work, command, axis):
        # refused before linspace, which towards inf turns a finite start
        # into nan with a RuntimeWarning, and an error that blames the point
        proc = run_cli(command, "s1", "--axis", axis, "--out", str(work / "non_finite_axis"))
        assert proc.returncode == 2, proc.stderr
        start, stop = axis.split(":")[1:3]
        assert proc.stderr == (
            f"configuration error: --axis kappa: start and stop must be finite, got {start}:{stop}\n")

    def test_first_order_closed_forms_are_refused(self, work):
        bad = work / "first_order.yaml"
        bad.write_text(TINY.replace("perturbation_order: 2", "perturbation_order: 1"))
        proc = run_cli("run", str(bad), "--out", str(work / "first_order"))
        assert proc.returncode == 2, proc.stderr
        assert "first-order closed forms were removed" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_step_guard_maps_to_exit_3(self, work):
        proc = run_cli("run", str(work / "tiny.yaml"), "--set", "grid.steps=50")
        assert proc.returncode == 3
        assert "1416" in proc.stderr

    def test_huge_frequency_is_refused_by_the_step_guard(self):
        # ||H||_F squared overflows here; the guard must still name a step count
        proc = run_cli("diagnose", "s1", "--set", "omega.c.re=1e160", "--set", "kappa=0")
        assert proc.returncode == 3, proc.stderr
        assert "numerical failure: step guard" in proc.stderr
        assert "use at least" in proc.stderr
        # the product and the step count are shown in a few significant digits
        assert re.search(r"\d{21,}", proc.stderr) is None, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("diagnose", "s1", "--set", "grid.steps=1000000000000"),
            ("pt-phase", "s1", "--axis", "kappa:0:1:1000000000000"),
        ],
        ids=["diagnose", "pt-phase"],
    )
    def test_impossible_size_maps_to_exit_3(self, work, args):
        # a 7.28 TiB grid, which the allocator refuses at once
        proc = run_cli(*args, "--out", str(work / "impossible"))
        assert proc.returncode == 3, proc.stderr
        assert "numerical failure:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_run_needs_four_levels_below_the_guard_band(self, capsys, monkeypatch):
        # series.csv reports Phi_0..Phi_3; dim 8 under the default guard 6
        # leaves two levels, refused before the workup steps anything
        def workup(*args, **kwargs):
            raise AssertionError("the workup ran")

        monkeypatch.setattr(cli, "scenario_workup", workup)
        assert cli.main(["run", "s1", "--set", "dim=8", "--out", "unused"]) == 2
        assert "need dim - guard >= 4; got dim 8, guard 6" in capsys.readouterr().err

    def test_non_finite_coefficient_maps_to_exit_3(self):
        proc = run_cli(
            "diagnose", "s1", "--set", "dim=8", "--set", "guard=2", "--set", "grid.steps=400",
            "--set", "alpha={form: exp_ramp, c: 1.0, sigma: 800.0}",
        )
        assert proc.returncode == 3, proc.stderr
        assert "numerical failure: operator entries must be finite" in proc.stderr


class TestOverrides:
    @pytest.mark.parametrize(
        "key, values",
        [
            ("alpha.c.arg", [0.0, 0.4, 1.3, math.pi]),
            ("alpha.c.abs", [0.5, 1.0, 2.5]),
            ("kappa", [0.05, 0.1, 0.2]),
        ],
    )
    def test_axis_points_copy_only_their_path(self, key, values):
        doc, _ = cli._load_doc("s1")
        base = copy.deepcopy(doc)
        for v in values:
            want = copy.deepcopy(base)
            cli._assign(want, key, v)
            assert cli._overridden(doc, key, v) == want
        assert doc == base


class TestIntegerAxes:
    def test_whole_number_points_are_ints(self):
        assert cli._parse_axis("dim:20:30:3") == ("dim", [20, 25, 30])
        assert all(type(v) is int for v in cli._parse_axis("dim:20:30:3")[1])
        _, points = cli._parse_axis("kappa:1:-0.0:3")
        assert [type(v) for v in points] == [int, float, float]
        assert cli._fmt(points[-1]) == "-0"

    def test_pt_phase_scans_dim(self, work):
        out = work / "pt_dim"
        proc = run_cli("pt-phase", "s1", "--axis", "dim:20:30:3", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = (out / "pt_phase.csv").read_text().rstrip("\n").split("\n")
        assert [row.split(",")[0] for row in lines[1:]] == ["20", "25", "30"]

    def test_sweep_scans_grid_steps(self, work):
        out = work / "sweep_steps"
        proc = run_cli("sweep", str(work / "tiny.yaml"), "--axis", "grid.steps:1500:1600:2",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = (out / "sweep.csv").read_text().rstrip("\n").split("\n")
        assert [row.split(",")[0] for row in lines[1:]] == ["1500", "1600"]

    @pytest.mark.parametrize("command, axis", [
        ("pt-phase", "dim:20:21:3"),
        ("pt-phase", "guard:4:5:3"),
        ("sweep", "grid.steps:1500.5:1600.5:2"),
    ])
    def test_non_integral_points_stay_config_errors(self, work, command, axis):
        proc = run_cli(command, str(work / "tiny.yaml"), "--axis", axis,
                       "--out", str(work / "non_integral"))
        assert proc.returncode == 2, proc.stderr
        assert f"{axis.split(':')[0]}: expected an integer, got " in proc.stderr


class TestSweep:
    def test_scan_writes_table(self, work):
        out = work / "sweep1"
        proc = run_cli(
            "sweep", str(work / "tiny.yaml"), "--axis", "kappa:0.05:0.1:3",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        lines = (out / "sweep.csv").read_text().rstrip("\n").split("\n")
        assert lines[0] == "kappa,pt_label,im_energy_max,metric_constancy_max,isospectrality_max"
        assert len(lines) == 4
        for row in lines[1:]:
            assert row.split(",")[1] == "UNBROKEN"

    def test_parallel_scan_identical(self, work):
        out = work / "sweep2"
        proc = run_cli(
            "sweep", str(work / "tiny.yaml"), "--axis", "kappa:0.05:0.1:3",
            "--out", str(out), env_extra={"DYSONMAP_WORKERS": "2"},
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "sweep.csv").read_bytes() == (work / "sweep1" / "sweep.csv").read_bytes()

    def test_worker_errors_keep_exit_code(self, work):
        args = (
            "sweep", "s1", "--set", "dim=8", "--set", "guard=2", "--set", "grid.steps=10",
            "--axis", "kappa:0.05:0.1:2",
        )
        serial = run_cli(*args, "--out", str(work / "sweep_err1"),
                         env_extra={"DYSONMAP_WORKERS": "1"})
        parallel = run_cli(*args, "--out", str(work / "sweep_err2"),
                           env_extra={"DYSONMAP_WORKERS": "2"})
        assert serial.returncode == 3, serial.stderr
        assert parallel.returncode == 3, parallel.stderr
        assert "numerical failure: step guard" in parallel.stderr
        assert parallel.stderr == serial.stderr

    def test_workers_must_be_an_integer(self, work):
        proc = run_cli(
            "sweep", str(work / "tiny.yaml"), "--axis", "kappa:0.05:0.1:2",
            "--out", str(work / "sweep_bad_workers"), env_extra={"DYSONMAP_WORKERS": "abc"},
        )
        assert proc.returncode == 2, proc.stderr
        assert "configuration error: DYSONMAP_WORKERS: expected an integer" in proc.stderr

    def test_pool_is_no_larger_than_the_axis(self, work, monkeypatch):
        seen = []

        class SerialPool:  # starts no process
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setenv("DYSONMAP_WORKERS", "64")
        out = work / "sweep_short_axis"
        args = ["sweep", str(work / "tiny.yaml"), "--axis", "kappa:0.05:0.1:2", "--out", str(out)]
        assert cli.main(args) == 0
        assert seen == [2]


class TestPtPhase:
    def test_drive_phase_scan(self, work):
        out = work / "pt"
        proc = run_cli(
            "pt-phase", "s1", "--axis", "alpha.c.arg:0:3.141592653589793:9",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert "label changes" in proc.stdout
        lines = (out / "pt_phase.csv").read_text().rstrip("\n").split("\n")
        assert lines[0] == "alpha.c.arg,pt_label,im_energy_max,boundary_quantity"
        assert len(lines) == 10
        labels = []
        for row in lines[1:]:
            phi_s, label, im_s, boundary_s = row.split(",")
            phi = float(phi_s)
            labels.append(label)
            assert abs(float(boundary_s) - abs(math.cos(phi))) < 1e-9
            assert abs(float(im_s) - 2 * 0.1**2 * abs(math.cos(phi))) < 1e-8
        assert [i for i, lab in enumerate(labels) if lab == "UNBROKEN"] == [4]

    def test_single_point_summary(self, work):
        out = work / "pt_one"
        proc = run_cli("pt-phase", "s1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "label: UNBROKEN" in proc.stdout
        for flag in ("omega_conjugate_even", "alpha_conjugate_odd", "beta_conjugate_odd"):
            assert f"  {flag}: yes" in proc.stdout
        lines = (out / "pt_phase.csv").read_text().rstrip("\n").split("\n")
        assert len(lines) == 2

    def test_directory_does_not_shadow_bundled_name(self, tmp_path):
        (tmp_path / "s1").mkdir()  # e.g. left by `dysonmap run s1 --out s1`
        proc = run_cli("pt-phase", "s1", "--out", "pt", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "label: UNBROKEN" in proc.stdout

    def test_directory_path_is_a_config_error(self, tmp_path):
        (tmp_path / "s1").mkdir()
        proc = run_cli("pt-phase", str(tmp_path / "s1"), cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "configuration error" in proc.stderr


def test_diagnose_prints_check_table(work):
    out = work / "diag"
    proc = run_cli("diagnose", str(work / "tiny.yaml"), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "PASS pt_label=UNBROKEN" in proc.stdout
    assert "metric_constancy" in proc.stdout
    assert (out / "summary.json").exists()


def test_outputs_do_not_depend_on_blas_threads(work):
    # at dim 12 the LU solves of the isospectrality check used to move the
    # summary in its last digits between one and two BLAS threads
    outs = []
    for threads in ("1", "2"):
        out = work / f"threads{threads}"
        proc = run_cli(
            "run", "s1", "--set", "dim=12", "--set", "grid.steps=2000", "--out", str(out),
            env_extra={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("summary.json", "series.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestLegacyPerturbationOrder:
    """perturbation_order only selected the removed first-order closed forms."""

    @pytest.mark.parametrize("name", ["s1", "s2", "kappa_zero", "gamma_drift", "time_independent"])
    def test_bundled_scenarios_do_not_set_it(self, name):
        doc, _ = cli._load_doc(name)
        assert "perturbation_order" not in doc

    def test_second_order_is_a_no_op(self):
        doc, stem = cli._load_doc("s1")
        legacy = dict(doc, perturbation_order=2)
        assert cli.scenario_from_doc(legacy, stem) == cli.scenario_from_doc(doc, stem)

    @pytest.mark.parametrize("value", [0, 3, "2"])
    def test_any_other_value_is_a_config_error(self, value):
        doc, stem = cli._load_doc("s1")
        with pytest.raises(cli.ConfigError, match="perturbation_order"):
            cli.scenario_from_doc(dict(doc, perturbation_order=value), stem)
