"""Regenerate reference.json: the exit code and stdout digest of every
command the workloads can run, for each of the pinned profile seeds.

    python3 perfbench/pin.py

The benchmark counts any command whose exit code or digest differs from
this file as failed.  Re-pin only when a change alters output bytes on
purpose, and say so in CHANGES.md.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from child import run_commands  # noqa: E402
from workloads import PROFILE_SEEDS, REFERENCE, WORKLOADS, commands, key  # noqa: E402


def main() -> int:
    cmds = {}
    for wl in WORKLOADS.values():
        for seed in range(PROFILE_SEEDS):
            for argv in commands(wl, seed):
                cmds[key(argv)] = argv
    results = run_commands(list(cmds.values()))
    pinned = {k: {"rc": r["rc"], "sha256": r["sha256"], "rows": r["rows"]}
              for k, r in zip(cmds, results)}
    with open(REFERENCE, "w") as f:
        json.dump({"commands": pinned}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"pinned {len(pinned)} commands in {REFERENCE.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
