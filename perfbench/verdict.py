"""Correctness gate: an invocation's verdict record against the reference.

A record holds the exit code, the failing-check set and per-check pass
states, the PT labels and sweep rows, and the check values.  An invocation
fails when any exact field differs from the reference, or when a value
moves by more than `VALUE_RTOL * |reference| + VALUE_ATOL`: a rounding-level
change passes, a changed result does not.  The SHA-256 of every output
file is recorded too; byte identity is reported but does not gate, because
a change of the stepper may move the last printed digits.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

VALUE_RTOL = 1e-6
VALUE_ATOL = 1e-12

# Long CSV columns are compared at every PT_STRIDE-th row plus their sum and
# maximum, which keeps the recorded reference small.
PT_STRIDE = 80


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _float(cell: str):
    return None if cell == "" else float(cell)


def _runs(labels: list[str]) -> list[list]:
    """Run-length encoding of a label column."""
    out: list[list] = []
    for label in labels:
        if out and out[-1][0] == label:
            out[-1][1] += 1
        else:
            out.append([label, 1])
    return out


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def record(command: str, out_dir: Path, exit_code: int) -> dict:
    """The verdict record of one invocation's outputs."""
    out_dir = Path(out_dir)
    rec = {
        "exact": {"exit_code": exit_code},
        "values": {},
        "files": {p.name: _sha256(p) for p in sorted(out_dir.iterdir()) if p.is_file()},
    }
    exact, values = rec["exact"], rec["values"]
    if command in ("run", "diagnose"):
        doc = json.loads((out_dir / "summary.json").read_text())
        exact["passed"] = doc["passed"]
        exact["failing"] = sorted(doc["failing"])
        exact["pt_label"] = doc["pt_label"]
        exact["check_states"] = {k: c["passed"] for k, c in doc["checks"].items()}
        values.update({f"check.{k}": c["value"] for k, c in doc["checks"].items()})
        values["tail_mass_max"] = doc["tail_mass_max"]
        values["condition_max"] = doc["condition_max"]
        if command == "run":
            header, rows = _read_csv(out_dir / "series.csv")
            exact["series_header"] = header
            exact["series_rows"] = len(rows)
    elif command == "sweep":
        header, rows = _read_csv(out_dir / "sweep.csv")
        exact["header"] = header
        exact["pt_labels"] = [row[1] for row in rows]
        for i, row in enumerate(rows):
            for name, cell in zip(header, row):
                if name != "pt_label":
                    values[f"row{i}.{name}"] = _float(cell)
    elif command == "pt-phase":
        header, rows = _read_csv(out_dir / "pt_phase.csv")
        exact["header"] = header
        exact["rows"] = len(rows)
        exact["pt_label_runs"] = _runs([row[1] for row in rows])
        for col, name in enumerate(header):
            if name == "pt_label":
                continue
            column = [float(row[col]) for row in rows]
            values[f"{name}.sum"] = math.fsum(column)
            values[f"{name}.max"] = max(column)
            for i in range(0, len(column), PT_STRIDE):
                values[f"{name}[{i}]"] = column[i]
    else:
        raise ValueError(f"unknown command {command!r}")
    return rec


def _value_mismatch(key, got, ref) -> str | None:
    if got is None or ref is None:
        return None if got is None and ref is None else f"{key}: {got!r} != {ref!r}"
    if math.isnan(got) or math.isnan(ref):
        return None if math.isnan(got) and math.isnan(ref) else f"{key}: {got!r} != {ref!r}"
    if abs(got - ref) > VALUE_RTOL * abs(ref) + VALUE_ATOL:
        return f"{key}: {got!r} differs from reference {ref!r} beyond bound"
    return None


def mismatches(rec: dict, ref: dict) -> list[str]:
    """Every way `rec` fails the reference `ref`; empty when it passes."""
    out = []
    for key in sorted(set(rec["exact"]) | set(ref["exact"])):
        got, want = rec["exact"].get(key), ref["exact"].get(key)
        if got != want:
            out.append(f"{key}: {_short(got)} != reference {_short(want)}")
    for key in sorted(set(rec["values"]) | set(ref["values"])):
        if key not in rec["values"] or key not in ref["values"]:
            out.append(f"{key}: present in only one of output and reference")
            continue
        msg = _value_mismatch(key, rec["values"][key], ref["values"][key])
        if msg:
            out.append(msg)
    return out


def identical(rec: dict, ref: dict) -> bool:
    """Whether every output file is byte-identical to the reference."""
    return rec["files"] == ref["files"]


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 120 else text[:117] + "..."
