"""Command-line interface: scenario files in, tables and summaries out.

Scenario files are YAML trees carrying a ``schema: 1`` marker; complex
scalars are written as ``[re, im]`` pairs.  The same convention covers
``--set`` overrides and sweep axes, which address nested keys with dots
(``grid.steps``, ``alpha.c``) and may drill into a complex leaf with the
suffixes ``.re``, ``.im``, ``.abs``, ``.arg``.

Commands: ``run`` (full diagnostics, per-point series table plus summary),
``diagnose`` (summary only), ``sweep`` (one row per axis point),
``pt-phase`` (symmetry flags and phase labels, no trajectories).  Exit
codes: 0 all checks pass, 1 check failure, 2 configuration error,
3 numerical failure.  Outputs are byte-identical across reruns of the
same configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .diagnostics import DiagnosticsReport, scenario_workup
from .errors import (
    ConfigError,
    DivergenceError,
    DysonMapError,
    ExponentialRangeError,
    IllConditionedError,
    InvalidDimensionError,
    ScenarioInvalidError,
    SingularityError,
    StepSizeError,
)
from .model_oscillator import (
    CoefficientSpec,
    Scenario,
    lr_phase,
    pt_analysis,
    pt_symmetry,
)
from .propagation import TimeGrid

SCHEMA_VERSION = 1
_FLOAT_FMT = "%.17g"

_TOP_KEYS = {
    "schema", "name", "dim", "guard", "kappa", "perturbation_order",
    "grid", "omega", "alpha", "beta", "gamma0", "lambda0", "theta0",
}
_TOP_REQUIRED = ("schema", "kappa", "grid", "omega", "alpha", "beta")
_GRID_KEYS = {"t0", "t1", "steps"}
_COEFF_KEYS = {
    "constant": {"form", "c"},
    "polynomial": {"form", "coeffs"},
    "sinusoid": {"form", "a", "b", "c", "nu"},
    "exp_ramp": {"form", "c", "sigma"},
}

_NUMERICAL_ERRORS = (
    InvalidDimensionError,
    StepSizeError,
    DivergenceError,
    IllConditionedError,
    ExponentialRangeError,
    SingularityError,
    MemoryError,  # an array too large to allocate, e.g. from an absurd step count
)


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads 1e-3 as a float (YAML 1.1 wants 1.0e-3)."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(\.[0-9_]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"),
)


def _suggest(key: str, pool) -> str:
    close = difflib.get_close_matches(key, sorted(pool), n=1)
    return f"; nearest valid key: {close[0]!r}" if close else ""


def _check_keys(d: dict, allowed, path: str):
    for k in d:
        if k not in allowed:
            loc = f"{path}.{k}" if path else str(k)
            raise ConfigError(f"unknown key {loc!r}{_suggest(str(k), allowed)}")


def _number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {v!r}")
    return float(v)


def _integer(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    return v


def _complex_leaf(v, path: str) -> complex:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_number(v[0], f"{path}[0]"), _number(v[1], f"{path}[1]"))
    raise ConfigError(f"{path}: expected a number or [re, im] pair, got {v!r}")


def _coeff_from_doc(v, path: str) -> CoefficientSpec:
    if not isinstance(v, dict):
        raise ConfigError(f"{path}: expected a mapping with a 'form' key")
    form = v.get("form")
    if form not in _COEFF_KEYS:
        raise ConfigError(
            f"{path}.form: expected one of {sorted(_COEFF_KEYS)}, got {form!r}"
        )
    _check_keys(v, _COEFF_KEYS[form], path)
    try:
        if form == "constant":
            if "c" not in v:
                raise ConfigError(f"{path}.c: required for constant form")
            return CoefficientSpec.constant(_complex_leaf(v["c"], f"{path}.c"))
        if form == "polynomial":
            coeffs = v.get("coeffs")
            if not isinstance(coeffs, (list, tuple)) or not coeffs:
                raise ConfigError(f"{path}.coeffs: expected a nonempty list")
            return CoefficientSpec.polynomial(
                *(_complex_leaf(c, f"{path}.coeffs[{i}]") for i, c in enumerate(coeffs))
            )
        if form == "sinusoid":
            if "nu" not in v:
                raise ConfigError(f"{path}.nu: required for sinusoid form")
            return CoefficientSpec.sinusoid(
                a=_complex_leaf(v.get("a", 0.0), f"{path}.a"),
                b=_complex_leaf(v.get("b", 0.0), f"{path}.b"),
                nu=_number(v["nu"], f"{path}.nu"),
                c=_complex_leaf(v.get("c", 0.0), f"{path}.c"),
            )
        for key in ("c", "sigma"):
            if key not in v:
                raise ConfigError(f"{path}.{key}: required for exp_ramp form")
        return CoefficientSpec.exp_ramp(
            c=_complex_leaf(v["c"], f"{path}.c"), sigma=_number(v["sigma"], f"{path}.sigma")
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def scenario_from_doc(doc, default_name: str = "") -> Scenario:
    """Build and validate a Scenario from a parsed configuration tree."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario file must contain a mapping at top level")
    _check_keys(doc, _TOP_KEYS, "")
    for key in _TOP_REQUIRED:
        if key not in doc:
            raise ConfigError(f"missing required key {key!r}")
    schema = doc["schema"]
    if schema != SCHEMA_VERSION:
        raise ConfigError(
            f"schema: unsupported version {schema!r}; this build reads schema {SCHEMA_VERSION}"
        )
    gd = doc["grid"]
    if not isinstance(gd, dict):
        raise ConfigError("grid: expected a mapping with t0, t1, steps")
    _check_keys(gd, _GRID_KEYS, "grid")
    for key in _GRID_KEYS:
        if key not in gd:
            raise ConfigError(f"grid.{key}: required")
    try:
        grid = TimeGrid(
            t0=_number(gd["t0"], "grid.t0"),
            t1=_number(gd["t1"], "grid.t1"),
            steps=_integer(gd["steps"], "grid.steps"),
        )
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    kwargs = dict(
        omega=_coeff_from_doc(doc["omega"], "omega"),
        alpha=_coeff_from_doc(doc["alpha"], "alpha"),
        beta=_coeff_from_doc(doc["beta"], "beta"),
        kappa=_number(doc["kappa"], "kappa"),
        grid=grid,
        name=str(doc.get("name", default_name)),
    )
    if "dim" in doc:
        kwargs["dim"] = _integer(doc["dim"], "dim")
    if "guard" in doc:
        kwargs["guard"] = _integer(doc["guard"], "guard")
    # files written for the removed first-order closed forms may still say 2
    if "perturbation_order" in doc and _integer(doc["perturbation_order"],
                                                "perturbation_order") != 2:
        raise ConfigError(
            "perturbation_order: the first-order closed forms were removed; the closed "
            "forms are exact, so the key may only be 2, which changes nothing"
        )
    if doc.get("gamma0") is not None:
        kwargs["gamma0"] = _complex_leaf(doc["gamma0"], "gamma0")
    if "lambda0" in doc:
        kwargs["lambda0"] = _complex_leaf(doc["lambda0"], "lambda0")
    if "theta0" in doc:
        kwargs["theta0"] = _complex_leaf(doc["theta0"], "theta0")
    try:
        return Scenario(**kwargs)
    except (ValueError, DysonMapError) as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_scenario_path(ref: str) -> Path:
    p = Path(ref)
    if p.is_file():
        return p
    stem = ref if ref.endswith(".yaml") else ref + ".yaml"
    bundled = resources.files("dysonmap").joinpath("scenarios", stem)
    try:
        if bundled.is_file():
            with resources.as_file(bundled) as real:
                return Path(real)
    except (FileNotFoundError, ModuleNotFoundError):
        pass
    raise ConfigError(f"scenario {ref!r} is neither a file nor a bundled scenario name")


def _load_doc(ref: str) -> tuple[dict, str]:
    path = _resolve_scenario_path(ref)
    try:
        doc = yaml.load(path.read_text(), Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1} column {mark.column + 1}" if mark else ""
        raise ConfigError(f"parse error in {path}{where}: {exc}") from exc
    if doc is None:
        raise ConfigError(f"{path}: empty scenario file")
    if not isinstance(doc, dict):  # overrides walk the tree as nested mappings
        raise ConfigError(f"{path}: scenario file must contain a mapping at top level")
    return doc, path.stem


def _parse_cli_value(raw: str):
    try:
        return yaml.load(raw, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse value {raw!r}: {exc}") from exc


def _assign(doc: dict, dotted: str, value):
    """Set a nested key, with .re/.im/.abs/.arg accessors on complex leaves."""
    parts = dotted.split(".")
    accessor = None
    if len(parts) > 1 and parts[-1] in ("re", "im", "abs", "arg"):
        accessor = parts[-1]
        parts = parts[:-1]
    node = doc
    for seg in parts[:-1]:
        nxt = node.get(seg)
        if not isinstance(nxt, dict):
            raise ConfigError(f"override path {dotted!r}: {seg!r} is not a section")
        node = nxt
    leaf = parts[-1]
    if accessor is None:
        node[leaf] = value
        return
    old = node.get(leaf, 0.0)
    z = _complex_leaf(old, dotted)
    v = _number(value, dotted)
    if accessor == "re":
        z = complex(v, z.imag)
    elif accessor == "im":
        z = complex(z.real, v)
    elif accessor == "abs":
        z = v * np.exp(1j * np.angle(z)) if z != 0 else complex(v, 0.0)
    else:
        z = abs(z) * np.exp(1j * v)
    node[leaf] = [float(z.real), float(z.imag)]


def _overridden(doc: dict, dotted: str, value) -> dict:
    """doc with one override applied, copying only the sections on its path.

    The base doc is left untouched, so every axis point starts from it.
    """
    out = dict(doc)
    node = out
    for seg in dotted.split(".")[:-1]:
        nxt = node.get(seg)
        if not isinstance(nxt, dict):
            break
        node[seg] = dict(nxt)
        node = node[seg]
    _assign(out, dotted, value)
    return out


def _apply_sets(doc: dict, sets: list[str]):
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        _assign(doc, key.strip(), _parse_cli_value(raw))


def _fmt(x) -> str:
    return _FLOAT_FMT % float(x)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (bool, type(None), str, int)):
        return obj
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return None if math.isnan(x) else x
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot serialize {type(obj)}")


def _summary_doc(report: DiagnosticsReport, command: str) -> dict:
    checks = {
        c.name: {
            "passed": c.passed,
            "value": c.value,
            "tolerance": c.tolerance,
            "note": c.note,
        }
        for c in report.checks
    }
    validation = {
        "gamma0": complex(report.validation.gamma0),
        "lambda0": complex(report.validation.lambda0),
        "checks": {
            k: {"passed": c.passed, "value": c.value, "detail": c.note}
            for k, c in report.validation.checks.items()
        },
    }
    tol = dataclasses.asdict(report.tolerances)
    return _json_ready(
        {
            "schema": SCHEMA_VERSION,
            "command": command,
            "scenario": report.scenario_name,
            "passed": report.passed,
            "failing": list(report.failing()),
            "pt_label": report.pt.label,
            "tail_mass_max": report.tail_mass_max,
            "condition_max": report.condition_max,
            "checks": checks,
            "validation": validation,
            "tolerances": tol,
        }
    )


def _write_json(path: Path, doc: dict):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


_PHASES = 4  # series.csv reports Phi_0 .. Phi_3

_RESIDUAL_COLUMNS = (
    "metric_constancy", "r2", "r7",
    "equivalence_sanity", "equivalence_fixed_metric", "equivalence_observable",
)


def _series_table(report, s_run, lr) -> tuple[list[str], Iterator[list[str]]]:
    """Header and rows of the per-grid-point table: closed forms then residual series.

    The values sit in one (points, columns) array, with a mask of the cells
    that hold one (a strided series leaves the others blank); each row is
    formatted as it is read, so only one row of text is held at a time.
    """
    grid = s_run.grid
    header = ["t", "u_re", "u_im", "f_re", "f_im", "theta_re", "theta_im", "chi",
              *(f"Phi_{m}" for m in range(_PHASES)), *_RESIDUAL_COLUMNS]
    values = np.zeros((grid.steps + 1, len(header)))
    held = np.zeros(values.shape, dtype=bool)
    values[:, 0] = grid.points
    held[:, 0] = True
    if lr is not None:
        closed = (lr.u.real, lr.u.imag, lr.f.real, lr.f.imag, lr.theta.real, lr.theta.imag,
                  lr.chi, *(lr_phase(s_run, lr, m) for m in range(_PHASES)))
        for j, col in enumerate(closed, start=1):
            values[:, j] = col
        held[:, 1 : len(closed) + 1] = True
    for j, name in enumerate(_RESIDUAL_COLUMNS, start=len(header) - len(_RESIDUAL_COLUMNS)):
        ser = report.series.get(name)
        if ser is not None:
            ks = np.rint((ser.times - grid.t0) / grid.dt).astype(int)
            values[ks, j] = ser.samples
            held[ks, j] = True

    def rows():
        for k in range(grid.steps + 1):
            yield [_fmt(v) if h else "" for v, h in zip(values[k].tolist(), held[k].tolist())]

    return header, rows()


def _write_csv(path: Path, header: list[str], rows: Iterable[Sequence[str]]):
    """Write the header and then each row as it comes, one line each."""
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _cmd_run(args) -> int:
    doc, stem = _load_doc(args.scenario)
    _apply_sets(doc, args.set or [])
    s = scenario_from_doc(doc, stem)
    if s.dim - s.guard < _PHASES:  # else the workup runs in full before lr_phase refuses
        raise ConfigError(f"run writes Phi_0..Phi_{_PHASES - 1}, which need dim - guard >= "
                          f"{_PHASES}; got dim {s.dim}, guard {s.guard}")
    report, s_run, lr = scenario_workup(s, stride=1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header, rows = _series_table(report, s_run, lr)
    _write_csv(out / "series.csv", header, rows)
    _write_json(out / "summary.json", _summary_doc(report, "run"))
    print(f"wrote {out / 'series.csv'}")
    print(f"wrote {out / 'summary.json'}")
    _print_verdict(report)
    return 0 if report.passed else 1


def _cmd_diagnose(args) -> int:
    doc, stem = _load_doc(args.scenario)
    _apply_sets(doc, args.set or [])
    s = scenario_from_doc(doc, stem)
    report, _, _ = scenario_workup(s)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "summary.json", _summary_doc(report, "diagnose"))
    print(f"wrote {out / 'summary.json'}")
    for c in report.checks:
        state = "skip" if c.passed is None else ("pass" if c.passed else "FAIL")
        bound = "" if c.tolerance is None else f" (tol {c.tolerance:.3g})"
        val = "" if math.isnan(c.value) else f" value {c.value:.6g}"
        print(f"  {state:4s} {c.name}{val}{bound}")
    _print_verdict(report)
    return 0 if report.passed else 1


def _print_verdict(report: DiagnosticsReport):
    if report.passed:
        print(f"PASS pt_label={report.pt.label}")
    else:
        print(f"FAIL failing={','.join(report.failing())} pt_label={report.pt.label}")


def _parse_axis(axis: str) -> tuple[str, list[float | int]]:
    """The key and points of an axis.

    A whole-number point is an int, so that integer keys (dim, guard,
    grid.steps) can be scanned.  -0.0 stays a float: it prints as -0, the
    int 0 as 0.
    """
    parts = axis.rsplit(":", 3)
    if len(parts) != 4:
        raise ConfigError(f"--axis expects key:start:stop:count, got {axis!r}")
    key, start, stop, count = parts
    try:
        lo, hi, n = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigError(f"--axis {axis!r}: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"--axis {key}: start and stop must be finite, got {start}:{stop}")
    if n < 1:
        raise ConfigError(f"--axis count must be >= 1, got {n}")
    return key, [int(v) if v.is_integer() and (v or math.copysign(1.0, v) > 0) else v
                 for v in np.linspace(lo, hi, n).tolist()]


def _sweep_point(payload) -> tuple[str, str, str, str, str, bool]:
    doc, stem, key, value = payload
    s = scenario_from_doc(_overridden(doc, key, value), stem)
    report, _, _ = scenario_workup(s)
    iso = report.outcome("isospectrality")
    iso_cell = "" if iso.passed is None else _fmt(iso.value)
    return (
        _fmt(value),
        report.pt.label,
        _fmt(max(report.pt.im_energy_max)),
        _fmt(report.outcome("metric_constancy").value),
        iso_cell,
        report.passed,
    )


def _cmd_sweep(args) -> int:
    doc, stem = _load_doc(args.scenario)
    _apply_sets(doc, args.set or [])
    key, values = _parse_axis(args.axis)
    payloads = [(doc, stem, key, v) for v in values]
    raw = os.environ.get("DYSONMAP_WORKERS", "1")
    try:
        workers = min(int(raw), len(payloads))
    except ValueError:
        raise ConfigError(f"DYSONMAP_WORKERS: expected an integer, got {raw!r}") from None
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, payloads))
    else:
        results = [_sweep_point(p) for p in payloads]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = [key, "pt_label", "im_energy_max", "metric_constancy_max", "isospectrality_max"]
    rows = [list(r[:5]) for r in results]
    _write_csv(out / "sweep.csv", header, rows)
    print(f"wrote {out / 'sweep.csv'}")
    return 0 if all(r[5] for r in results) else 1


def _cmd_pt_phase(args) -> int:
    doc, stem = _load_doc(args.scenario)
    _apply_sets(doc, args.set or [])
    if args.axis:
        key, values = _parse_axis(args.axis)
        rows = []
        labels = []
        for v in values:
            s = scenario_from_doc(_overridden(doc, key, v), stem)
            pt = pt_analysis(s)
            labels.append(pt.label)
            rows.append(
                [_fmt(v), pt.label, _fmt(max(pt.im_energy_max)), _fmt(pt.boundary_quantity)]
            )
        header = [key, "pt_label", "im_energy_max", "boundary_quantity"]
        for i in range(1, len(labels)):
            if labels[i] != labels[i - 1]:
                print(f"label changes {labels[i - 1]} -> {labels[i]} between rows {i - 1} and {i}")
    else:
        s = scenario_from_doc(doc, stem)
        pt = pt_analysis(s)
        header = ["scenario", "pt_label", "im_energy_max", "boundary_quantity"]
        rows = [[s.name or stem, pt.label, _fmt(max(pt.im_energy_max)), _fmt(pt.boundary_quantity)]]
        for name, (ok, value) in pt_symmetry(s).items():
            print(f"  {name}: {'yes' if ok else 'no'} (deviation {value:.3g})")
        print(f"  label: {pt.label}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "pt_phase.csv", header, rows)
    print(f"wrote {out / 'pt_phase.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dysonmap",
        description="Time-dependent map diagnostics for the driven-oscillator model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario file path or bundled scenario name")
        p.add_argument("--out", default="dysonmap_out", help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a scenario key (repeatable)")

    p_run = sub.add_parser("run", help="full diagnostics with per-point series table")
    common(p_run)
    p_diag = sub.add_parser("diagnose", help="diagnostics summary only")
    common(p_diag)
    p_sweep = sub.add_parser("sweep", help="scan one scalar parameter")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True, metavar="KEY:START:STOP:COUNT")
    p_pt = sub.add_parser("pt-phase", help="PT symmetry flags and phase label, no trajectories")
    common(p_pt)
    p_pt.add_argument("--axis", metavar="KEY:START:STOP:COUNT")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "diagnose": _cmd_diagnose,
        "sweep": _cmd_sweep,
        "pt-phase": _cmd_pt_phase,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ScenarioInvalidError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
