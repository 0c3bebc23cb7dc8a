"""Self-tests of the benchmark: tracing, naming, unpatching and the gate.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

import run
import tracer
import verdict
from workloads import VARIANTS, WORKLOADS, Invocation

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# dim 8 with a narrow guard band and a few hundred steps: every layer runs
# in about a second.
TINY_SETS = ["--set", "dim=8", "--set", "guard=2", "--set", "grid.steps=800"]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A runner for a tiny `run s1`, and the verdict record of one run of it."""
    work = tmp_path_factory.mktemp("tiny")
    runner = run.Runner(ROOT, Invocation(["run", "s1", *TINY_SETS], {}, 1), work)
    sample, rec, out = runner.cli()
    assert rec is not None, (work / "cli1.log").read_text()
    return runner, rec, out


def test_traced_tiny_run_emits_every_per_layer_metric(tiny):
    runner, ref, _ = tiny
    metrics, problems, _ = run.trace(runner, ref)
    assert problems == [[], []]
    names = [m["name"] for m in SPEC["per_layer"]]
    assert set(names) <= set(metrics)
    spans = [sp for rec in tracer.read_records(runner.work / "trace") for sp in rec["spans"]]
    assert {sp["name"] for sp in spans} == {f"{m}.{f}" for m, f in tracer.SPAN_TARGETS}
    assert len({sp["invocation"] for sp in spans}) == 1
    assert metrics["propagation.GeneratorFn.calls"] > 0
    assert metrics["fock_algebra.FockOperator.constructed"] > 0


def test_every_name_is_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))


def _lookup_sites():
    import dysonmap.cli  # noqa: F401
    from dysonmap.fock_algebra import FockOperator
    from dysonmap.propagation import GeneratorFn

    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "dysonmap"]
    owners += [FockOperator, GeneratorFn]
    return {(repr(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_uninstall_restores_every_attribute(tmp_path):
    import dysonmap.diagnostics as diagnostics

    before = _lookup_sites()
    original = diagnostics.propagate_dyson
    t = tracer.Tracer(tmp_path, "test")
    t.install()
    try:
        assert diagnostics.propagate_dyson is not original
    finally:
        t.uninstall()
    after = _lookup_sites()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def test_worker_spans_are_collected(tmp_path):
    inv = Invocation(["sweep", "gamma_drift", *TINY_SETS[:4], "--set", "grid.steps=1600",
                      "--axis", "kappa:0.05:0.1:2"], {"DYSONMAP_WORKERS": "2"}, 2)
    runner = run.Runner(ROOT, inv, tmp_path)
    sample, rec, _ = runner.cli(tmp_path / "trace")
    assert sample.exit_code == 1, (tmp_path / "cli1.log").read_text()
    records = tracer.read_records(tmp_path / "trace")
    spans = [sp for r in records for sp in r["spans"]]
    main = [sp for sp in spans if sp["name"] == "cli.main"]
    assert len(main) == 1
    workups = [sp for sp in spans if sp["name"] == "diagnostics.scenario_workup"]
    assert len(workups) == 2
    assert all(sp["parent"] == main[0]["id"] for sp in workups)
    assert len({r["pid"] for r in records}) >= 2
    assert tracer.layer_metrics(records)["propagation.GeneratorFn.calls"] > 0


def test_gate_flags_a_perturbed_check_value(tiny):
    _, ref, out = tiny
    assert verdict.mismatches(ref, ref) == []
    summary_path = out / "summary.json"
    original = summary_path.read_text()
    doc = json.loads(original)
    try:
        doc["checks"]["r2"]["value"] *= 1 + 1e-4
        summary_path.write_text(json.dumps(doc))
        perturbed = verdict.record("run", out, 1)
        assert any(m.startswith("check.r2:") for m in verdict.mismatches(perturbed, ref))
        doc["checks"]["r2"]["value"] = json.loads(original)["checks"]["r2"]["value"] * (1 + 1e-9)
        summary_path.write_text(json.dumps(doc))
        rounded = verdict.record("run", out, 1)
        assert verdict.mismatches(rounded, ref) == []
        assert not verdict.identical(rounded, ref)
    finally:
        summary_path.write_text(original)


def test_gate_flags_a_changed_verdict():
    ref = json.loads((run.BENCH_DIR / "reference" / "pt_scan.json").read_text())["variants"]["0"]
    rec = copy.deepcopy(ref)
    rec["exact"]["pt_label_runs"][1][0] = "BROKEN"
    assert verdict.mismatches(rec, ref)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_matches_the_workload_inputs(workload):
    doc = json.loads((run.BENCH_DIR / "reference" / f"{workload}.json").read_text())
    assert sorted(doc["variants"], key=int) == [str(v) for v in range(VARIANTS)]
    for variant, ref in doc["variants"].items():
        inv = WORKLOADS[workload](int(variant))
        assert ref["args"] == inv.args and ref["env"] == inv.env
