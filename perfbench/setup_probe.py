"""One cold set-up, timed inside a fresh interpreter.

Usage: python3 setup_probe.py '<json spec>'

The spec is a list of [scenario path, list of rule overrides]. The probe
times ``import diffnet.cli`` plus, for every scenario, ``load_scenario`` and,
for every rule override (or the scenario's own rules when the list is
empty), the combination-matrix build and its validation, as the CLI does
before any work. It prints the elapsed seconds.
"""

import json
import sys
import time


def main() -> None:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    from diffnet.cli import load_scenario
    from diffnet.combine import matrices_from_rules
    from diffnet.network import validate

    for path, overrides in spec:
        scenario = load_scenario(path)
        for rules in overrides or [{}]:
            matrices, _ = matrices_from_rules(
                scenario.network, {**scenario.rules, **rules}, base_dir=scenario.base_dir
            )
            if not validate(scenario.network, matrices).ok:
                raise SystemExit(f"set-up probe: matrices for {path} failed validation")
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
