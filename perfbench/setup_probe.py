"""Set-up probe: start Python, import dysonmap, load and build a scenario.

Usage: python3 setup_probe.py SCENARIO [SETS_JSON]

Does what every CLI invocation does before its first layer call: interpreter
start-up, `import dysonmap.cli`, the YAML load of the bundled scenario, the
overrides in SETS_JSON (dotted keys) and `scenario_from_doc`.  Prints the
CLOCK_MONOTONIC time in nanoseconds at which that finished, and the path of
the imported package, so the caller can check which copy it measured.
"""

import json
import sys
import time
from importlib import resources

import yaml

import dysonmap
from dysonmap.cli import scenario_from_doc


def main(argv):
    name = argv[0]
    sets = json.loads(argv[1]) if len(argv) > 1 else {}
    path = resources.files("dysonmap").joinpath("scenarios", f"{name}.yaml")
    doc = yaml.safe_load(path.read_text())
    for dotted, value in sets.items():
        *parents, leaf = dotted.split(".")
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = value
    scenario_from_doc(doc, name)
    done = time.monotonic_ns()
    print(json.dumps({"done_ns": done, "package": dysonmap.__file__}))


if __name__ == "__main__":
    main(sys.argv[1:])
