"""The benchmark's workloads: fixed lists of nlcx commands.

Why each workload exists is in README.md beside this file.  The only
command that depends on the seed is experiments' `profile`; the seed is
folded onto PROFILE_SEEDS pinned profile seeds so that every seed has a
reference output to check against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

PROFILE_SEEDS = 16  # profile seeds 0..15 have pinned outputs


@dataclass(frozen=True)
class Workload:
    name: str
    fields: tuple[int, ...]  # every field order the commands build
    focus: tuple[str, ...]  # busy metrics of the layer the workload is for
    commands: tuple[tuple[str, ...], ...]


WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep",
        (29, 25), ("complexity.profile.busy_s",),
        (("verify", "--construction", "inversive", "--q", "29", "--kmax", "2"),
         ("verify", "--construction", "hermitian", "--ell", "5", "--kmax", "2"))),
    Workload(
        "experiments",
        (2, 3), ("complexity.at_most.busy_s", "complexity.profile.busy_s"),
        (("count", "--q", "2", "--k", "1", "--n", "17", "--m", "4"),
         ("count", "--q", "3", "--k", "1", "--n", "9", "--m", "3"),
         ("profile", "--q", "3", "--k", "1", "--nmax", "48", "--samples", "100",
          "--seed", "{seed}"))),
    Workload(
        "large-field",
        (1024, 2048), ("complexity.linear_profile.busy_s",),
        (("verify", "--construction", "inversive", "--q", "1024", "--kinds", "lin"),
         ("verify", "--construction", "inversive", "--q", "2048", "--kinds", "lin",
          "--n-max", "900"))),
)}


def profile_seed(seed: int) -> int:
    return seed % PROFILE_SEEDS


def commands(workload: Workload, seed: int) -> list[list[str]]:
    ps = str(profile_seed(seed))
    return [[ps if tok == "{seed}" else tok for tok in cmd]
            for cmd in workload.commands]


def option(argv, flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def units(argv, rows: int) -> int:
    """Work one command does: verify rows written, sequences classified
    by count (q**n), or Monte Carlo samples drawn by profile."""
    if argv[0] == "verify":
        return rows
    if argv[0] == "count":
        return option(argv, "--q") ** option(argv, "--n")
    if argv[0] == "profile":
        return option(argv, "--samples")
    raise ValueError(f"no work unit for command {argv[0]!r}")


RATE_NAMES = {"verify": "checks_per_s", "count": "seqs_per_s",
              "profile": "samples_per_s"}


def key(argv) -> str:
    return " ".join(argv)


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)["commands"]
