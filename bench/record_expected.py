#!/usr/bin/env python3
"""Re-capture bench/expected.json: exit code and stdout digest of every command.

    python3 bench/record_expected.py

Records each workload's set-up and pass commands at the default seed.  Run
it only when a change alters dflab's output on purpose, and say why in the
change's notes: the benchmark's gate pins these bytes.
"""

import json
import shutil
import sys

import run
import workloads as wl


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    expected = {}
    for name in wl.WORKLOADS:
        setup, cmds = wl.workload(name, wl.DEFAULT_SEED)
        cache = run.WORK / "record" / name
        shutil.rmtree(cache, ignore_errors=True)
        for cmd in [setup, *cmds]:
            _, code, _, stdout = run.spawn(["-m", "dflab", *cmd], run.child_env(cache))
            expected[wl.command_key(cmd)] = [code, wl.digest(stdout)]
            print(code, wl.command_key(cmd))
    wl.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
