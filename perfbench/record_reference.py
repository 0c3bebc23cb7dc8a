"""Record the reference verdicts of every workload variant.

Usage (from the root of a checkout):
    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each input variant of each named workload (all four by default) once,
untraced, and writes `perfbench/reference/<workload>.json`.  Refuses to
write a workload whose exit code differs from the one it must return.
The reference is the program's behaviour at the commit it was recorded on;
re-recording it after a change would hide exactly what the gate is for.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import BENCH_DIR, Runner, versions
from workloads import EXPECTED_EXIT, VARIANTS, WORKLOADS


def record_workload(root: Path, name: str) -> dict:
    variants = {}
    for variant in range(VARIANTS):
        inv = WORKLOADS[name](variant)
        work = root / ".perfbench_work" / f"reference-{name}-{variant}"
        work.mkdir(parents=True, exist_ok=True)
        sample, rec, _ = Runner(root, inv, work).cli()
        if rec is None or sample.exit_code != EXPECTED_EXIT[name]:
            raise SystemExit(f"{name} variant {variant}: exit {sample.exit_code}, "
                             f"expected {EXPECTED_EXIT[name]}")
        print(f"{name} variant {variant}: exit {sample.exit_code}, {sample.wall_s:.1f} s",
              flush=True)
        variants[str(variant)] = {"args": inv.args, "env": inv.env, **rec}
    return {"workload": name, "recorded_with": versions(), "variants": variants}


def main(names):
    root = Path.cwd()
    out_dir = BENCH_DIR / "reference"
    out_dir.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        doc = record_workload(root, name)
        (out_dir / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
