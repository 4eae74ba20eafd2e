"""nlcx benchmark.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 55 --trace 0

Runs one workload's nlcx commands through nlcx.cli.main, each repetition
in a fresh interpreter, for about --seconds seconds.  Every command's
exit code and stdout digest are checked against reference.json.  With
--trace 0 it reports the end-to-end metrics (medians over repetitions);
with --trace 1 it reports per-layer metrics from a span pass, a
counting pass and a field microbenchmark.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
--workload all runs every workload in turn and prints one table.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from statistics import median  # noqa: E402

from workloads import (RATE_NAMES, WORKLOADS, commands, key,  # noqa: E402
                       load_reference, profile_seed, units)

MIN_REPS = 3
SETUP_SAMPLES = 5  # at least; set-up-only children fill SETUP_SHARE of the run
SETUP_SHARE = 0.1
RUN_LIMIT_S = 170  # the whole run, children included, ends within this
ALL_FIELDS = tuple(sorted({q for w in WORKLOADS.values() for q in w.fields}))

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class HarnessError(RuntimeError):
    pass


class Runner:
    """Starts child interpreters and checks their command outputs."""

    def __init__(self, reference: dict, deadline: float):
        self.reference = reference
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def child(self, mode: str, fields, cmds=None) -> dict:
        argv = [sys.executable, str(HERE / "child.py"), mode, str(SRC),
                ",".join(str(q) for q in fields)]
        if cmds is not None:
            argv.append(json.dumps(cmds))
        env = {k: v for k, v in os.environ.items() if k != "NLCX_THREADS"}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError(f"out of time before the {mode} pass")
        try:
            proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"{mode} pass ran past the {RUN_LIMIT_S} s limit")
        if proc.returncode != 0 or not proc.stdout.strip():
            raise HarnessError(f"{mode} pass exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-800:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if cmds is not None:
            self.check(cmds, result["commands"])
        return result

    def check(self, cmds, results) -> None:
        for argv, res in zip(cmds, results, strict=True):
            ref = self.reference[key(argv)]
            self.attempted += 1
            if res["rc"] != ref["rc"] or res["sha256"] != ref["sha256"]:
                self.failed += 1
                self.mismatches.append(f"{key(argv)}: rc {res['rc']!r}, "
                                       f"sha256 {res['sha256'][:12]}")


def rep_metrics(cmds, rep: dict) -> dict:
    """End-to-end figures of one repetition."""
    out = {"setup_s": rep["setup_s"],
           "wall_s": sum(c["s"] for c in rep["commands"]),
           "peak_rss_mb": rep["rss_mb"]}
    work: dict = {}
    for argv, c in zip(cmds, rep["commands"]):
        u, s = work.get(argv[0], (0, 0.0))
        work[argv[0]] = (u + units(argv, c["rows"]), s + c["s"])
    for kind, (u, s) in work.items():
        out[RATE_NAMES[kind]] = u / s
    return out


def measure(runner: Runner, wl, cmds, seconds: float) -> tuple[dict, dict]:
    """Untraced repetitions for about `seconds`, then medians."""
    start = time.monotonic()
    setups: list[float] = []
    while (len(setups) < SETUP_SAMPLES - MIN_REPS
           or time.monotonic() - start < SETUP_SHARE * seconds):
        setups.append(runner.child("setup", wl.fields)["setup_s"])
    reps, durations = [], []
    while True:
        t = time.monotonic()
        reps.append(runner.child("run", wl.fields, cmds))
        durations.append(time.monotonic() - t)
        if (len(reps) >= MIN_REPS
                and time.monotonic() - start + median(durations) > seconds):
            break
    per_rep = [rep_metrics(cmds, r) for r in reps]
    setups += [r["setup_s"] for r in reps]
    summary = {name: median(m[name] for m in per_rep) for name in per_rep[0]}
    summary["setup_s"] = median(setups)
    raw = {"reps": len(reps), "setup_samples": setups,
           "wall_s": [m["wall_s"] for m in per_rep],
           "probe_s": [r["probe_s"] for r in reps]}
    return summary, raw


def traced(runner: Runner, wl, cmds, seconds: float) -> tuple[dict, dict]:
    """Counting pass once, field microbenchmark, then untraced/span pass
    pairs for about `seconds`; per-layer values are medians over pairs."""
    start = time.monotonic()
    counting = runner.child("count", wl.fields, cmds)
    fields: dict = {}
    for q in ALL_FIELDS:
        fields.update(runner.child("field", [q]))
    plain, spanned, durations = [], [], []
    while True:
        t = time.monotonic()
        plain.append(runner.child("run", wl.fields, cmds))
        spanned.append(runner.child("spans", wl.fields, cmds))
        durations.append(time.monotonic() - t)
        if time.monotonic() - start + median(durations) > seconds:
            break
    layers = [s["layers"] for s in spanned]
    out = {name: median(lay[name] for lay in layers) for name in layers[0]}
    plain_wall = median(sum(c["s"] for c in r["commands"]) for r in plain)
    traced_wall = out.pop("_wall_s")
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1
    out.update(counting["counts"])
    out.update(fields)
    focus = sum(out[name] for name in wl.focus)
    raw = {"pairs": len(plain), "traced_wall_s": traced_wall,
           "untraced_wall_s": plain_wall,
           "focus_frac": focus / traced_wall,
           "tails": spanned[-1]["tails"],
           "probe_s": [r["probe_s"] for r in plain + spanned]}
    return out, raw


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_per_s"):
        return "1/s"
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("_ns", "ns"),
                         ("_frac", "frac")):
        if name.endswith(suffix):
            return unit
    return "count"


def row(workload: str, name: str, value, unit: str) -> str:
    shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
    return f"{workload:12s} {name:36s} {shown:>16s} {unit}"


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 reference: dict, deadline: float) -> dict:
    wl = WORKLOADS[name]
    cmds = commands(wl, seed)
    missing = [key(c) for c in cmds if key(c) not in reference]
    if missing:
        raise HarnessError(f"no reference output for: {missing}")
    runner = Runner(reference, deadline)
    runner.child("setup", [])  # warm-up: byte-compile nlcx, fill the file cache
    if trace:
        values, raw = traced(runner, wl, cmds, seconds)
        metrics = values
    else:
        values, raw = measure(runner, wl, cmds, seconds)
        metrics = {k: values[k] for k in END_TO_END}
    record = {"workload": name, "seed": seed, "profile_seed": profile_seed(seed),
              "trace": int(trace), "seconds": seconds, "python": platform.python_version(),
              "cpu_count": os.cpu_count(), "git_sha": git_sha(),
              "commands": [["nlcx", *c] for c in cmds],
              "raw": raw, "mismatches": runner.mismatches}
    print("perfbench record " + json.dumps(record))
    for k, v in values.items():
        print(row(name, k, v, unit_of(k)))
    print(row(name, "fail_frac", runner.failed / runner.attempted, "frac")
          + f" ({runner.failed}/{runner.attempted} commands)")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        if not (SRC / "nlcx" / "__init__.py").is_file():
            raise HarnessError(f"nlcx sources not found under {SRC}")
        reference = load_reference()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), reference, deadline)
    except (HarnessError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
