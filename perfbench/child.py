"""One fresh interpreter of the benchmark; run.py starts it and reads the
JSON object it prints as its last line.

    python3 child.py MODE SRC FIELDS [COMMANDS_JSON]

MODE is one of
  run    set up, run the commands untraced (the end-to-end pass);
  spans  set up, wrap each layer's public functions in spans, run;
  count  set up, count Field method calls and solver systems, run;
  setup  set up only;
  field  cold build and ns/op of the single field order in FIELDS.
SRC is the directory holding the nlcx package.  FIELDS is a comma list
of field orders.  Set-up is `import nlcx` plus building those fields;
it is timed before anything else is imported, so it reads what a CLI
invocation pays.
"""

import sys
import time


def _setup(src: str, fields) -> float:
    sys.path.insert(0, src)
    start = time.perf_counter()
    import nlcx
    import nlcx.cli
    from nlcx.finite_field import field_of_order
    for q in fields:
        field_of_order(q)
    elapsed = time.perf_counter() - start
    if not nlcx.__file__.startswith(src):
        raise SystemExit(f"nlcx imported from {nlcx.__file__}, not from {src}")
    return elapsed


def probe() -> float:
    """Fixed pure-Python loop; its time tracks host speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def data_rows(text: str) -> int:
    """Output lines that are neither '#' comments nor the header row."""
    return max(0, sum(1 for ln in text.splitlines() if not ln.startswith("#")) - 1)


def run_commands(commands) -> list[dict]:
    import contextlib
    import hashlib
    import io
    import nlcx.cli

    results = []
    for argv in commands:
        main = nlcx.cli.main  # looked up per call so a span wrapper applies
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed command, not a harness error
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        text = out.getvalue()
        results.append({"rc": rc, "sha256": hashlib.sha256(text.encode()).hexdigest(),
                        "s": elapsed, "rows": data_rows(text)})
    return results


# -- span pass --------------------------------------------------------------------

TRACED = {
    "cli": ("main",),
    "bounds": ("verify", "summarize"),
    "stats": ("exhaustive_count", "monte_carlo_profile", "empirical_constant"),
    "complexity": ("profile", "linear_profile", "complexity_at_most",
                   "nonlinear_complexity", "total_degree_complexity",
                   "linear_complexity", "max_order_complexity"),
    "generators": ("inversive_finite", "inversive_periodic", "random_sequence"),
    "hermitian": ("hermitian_sequence",),
}


def install_spans(recorder) -> None:
    """Wrap each traced function once and put the wrapper under every name
    that refers to it in the nlcx modules, since callers such as stats
    and bounds import functions by name."""
    import importlib
    mods = {name: importlib.import_module(f"nlcx.{name}") for name in TRACED}
    wrappers = {}
    for layer, names in TRACED.items():
        for fn_name in names:
            fn = getattr(mods[layer], fn_name)
            wrappers[id(fn)] = recorder.wrap(f"{layer}.{fn_name}", fn)
    for mod in mods.values():
        for attr, val in list(vars(mod).items()):
            if id(val) in wrappers:
                setattr(mod, attr, wrappers[id(val)])


def span_metrics(agg: dict, wall_s: float) -> dict:
    from statistics import median

    from spans import percentile_or_zero
    fns, layers = agg["functions"], agg["layers"]
    empty = {"calls": 0, "busy_s": 0.0, "durations": []}
    prof = fns.get("complexity.profile", empty)
    most = fns.get("complexity.complexity_at_most", empty)
    lin = fns.get("complexity.linear_profile", empty)

    def layer(name, what):
        return layers.get(name, {}).get(what, 0.0)

    pd, md = prof["durations"], most["durations"]
    return {
        "complexity.profile.busy_s": prof["busy_s"],
        "complexity.profile.calls": prof["calls"],
        "complexity.profile.p50_ms": median(pd) * 1e3 if pd else 0.0,
        "complexity.profile.p90_ms": percentile_or_zero(pd, 0.90) * 1e3,
        "complexity.at_most.busy_s": most["busy_s"],
        "complexity.at_most.calls": most["calls"],
        "complexity.at_most.p50_us": median(md) * 1e6 if md else 0.0,
        "complexity.at_most.p99_us": percentile_or_zero(md, 0.99) * 1e6,
        "complexity.linear_profile.busy_s": lin["busy_s"],
        "stats.self_s": layer("stats", "self_s"),
        "bounds.self_s": layer("bounds", "self_s"),
        "cli.self_s": layer("cli", "self_s"),
        "generators.busy_s": layer("generators", "busy_s"),
        "hermitian.busy_s": layer("hermitian", "busy_s"),
        "_wall_s": wall_s,
    }


def span_tails(agg: dict) -> dict:
    """Per function with enough calls: the highest percentile with at
    least ten samples beyond it, and its value."""
    from spans import nearest_rank, tail_percentile
    out = {}
    for name, f in agg["functions"].items():
        frac = tail_percentile(len(f["durations"]))
        if frac is not None:
            out[name] = {"samples": len(f["durations"]), "percentile": frac,
                         "value_s": nearest_rank(sorted(f["durations"]), frac)}
    return out


# -- counting pass ----------------------------------------------------------------

FIELD_OPS = ("add", "sub", "mul", "inv", "pow")


def install_counters(counts: dict) -> None:
    from nlcx import complexity
    from nlcx.finite_field import Field

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for op in FIELD_OPS:
        counts[f"finite_field.{op}.calls"] = 0
        setattr(Field, op, counted(f"finite_field.{op}.calls", getattr(Field, op)))

    # One call of _new_system is one solver system; monomial_count alone
    # would count F_2 systems twice.
    counts["complexity.systems"] = counts["complexity.columns"] = 0
    new_system = complexity._new_system

    def counted_system(*args):
        system = new_system(*args)
        counts["complexity.systems"] += 1
        counts["complexity.columns"] += system.ncols
        return system

    complexity._new_system = counted_system


# -- field microbenchmark ---------------------------------------------------------

def field_bench(src: str, q: int) -> dict:
    sys.path.insert(0, src)
    from nlcx.finite_field import field_of_order
    start = time.perf_counter()
    F = field_of_order(q)
    build_s = time.perf_counter() - start

    n = 10_000
    state, pairs = 12345, []
    for _ in range(n):  # fixed LCG: the operand list is the same on every run
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        pairs.append(((state >> 20) % q, (state >> 40) % q))
    units = [a or 1 for a, _ in pairs]

    def loop2(fn):
        start = time.perf_counter()
        for a, b in pairs:
            fn(a, b)
        return time.perf_counter() - start

    def loop1(fn):
        start = time.perf_counter()
        for a in units:
            fn(a)
        return time.perf_counter() - start

    from statistics import median

    def ns(loop, fn, empty):
        base = median(loop(empty) for _ in range(5))
        return max(0.0, median(loop(fn) for _ in range(5)) - base) / n * 1e9

    out = {f"finite_field.q{q}.build_s": build_s}
    for op in ("add", "sub", "mul"):
        out[f"finite_field.q{q}.{op}_ns"] = ns(loop2, getattr(F, op), lambda a, b: None)
    out[f"finite_field.q{q}.inv_ns"] = ns(loop1, F.inv, lambda a: None)
    return out


def passes(mode: str, commands) -> dict:
    """Everything after set-up: the commands of one pass, then the probe."""
    import resource
    result = {}
    if mode == "spans":
        from spans import Recorder, aggregate
        rec = Recorder()
        install_spans(rec)
        cmds = run_commands(commands)
        agg = aggregate(rec.spans)
        result["layers"] = span_metrics(agg, sum(c["s"] for c in cmds))
        result["tails"] = span_tails(agg)
    elif mode == "count":
        counts: dict = {}
        install_counters(counts)
        cmds = run_commands(commands)
        result["counts"] = counts
    elif mode == "run":
        cmds = run_commands(commands)
    elif mode == "setup":
        cmds = []
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["commands"] = cmds
    result["probe_s"] = probe()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main(argv) -> int:
    mode, src, fields = argv[1], argv[2], [int(x) for x in argv[3].split(",") if x]
    if mode == "field":
        result = field_bench(src, fields[0])
    else:
        result = {"setup_s": _setup(src, fields)}
        import json  # only after set-up is timed
        result.update(passes(mode, json.loads(argv[4]) if len(argv) > 4 else []))
    import json
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
