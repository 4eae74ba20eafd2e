"""Command-line interface.

Subcommands: gen (write a sequence file), analyze (complexity of a
sequence file), verify (bound sweeps), count (exhaustive counting),
profile (Monte Carlo), hermitian (geometry dumps).  Exit codes: 0 for
success with all checks passing, 1 when a bound check fails, 2 for
usage, parameter and guard errors.

Every command writes through _write.  A JSON document carries
"schema": 1 and a "meta" object with the reproducibility stanza
(parameters, field description, tool version); CSV and the other text
outputs start with the same stanza as '#' comments.  A sequence file
from gen carries it after its own header line, and analyze's one-line
text format carries none.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, bounds, stats
from . import complexity as cx
from .finite_field import field_of_order, make_field
from .generators import (inversive_finite, inversive_periodic, random_sequence,
                         read_sequence, sequence_to_text)
from .hermitian import HermitianCurve, apply_automorphism_to_h

SCHEMA = 1


def _threads(args) -> int:
    n = args.threads
    if n is None:
        env = os.environ.get("NLCX_THREADS", "1")
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"NLCX_THREADS must be an integer, not {env!r}") from None
    if n < 1:
        raise ValueError("thread count must be >= 1")
    return n


def _params(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "out", "format") and v is not None}


def _stanza(args, field=None) -> list[str]:
    lines = [f"nlcx {__version__}",
             "params " + " ".join(f"{k}={v}" for k, v in _params(args).items())]
    if field is not None:
        lines.append("field " + field.describe())
    return lines


def _meta(args, field=None) -> dict:
    meta = {"version": __version__, "params": _params(args)}
    if field is not None:
        meta["field"] = field.describe()
    return meta


def _write(args, doc, header, rows, field=None, notes=()) -> None:
    """Write a command's output to --out or stdout.  With --format json
    that is doc() after "schema", with "meta" added (in its place if the
    document already holds the key).  Otherwise it is the stanza and notes
    as '#' comments, then the header, if any, and the lines of rows; with
    --format text it is the rows alone.  Only the form written is built:
    doc is a function and rows may be a generator."""
    fmt = getattr(args, "format", None)
    if fmt == "json":
        import json  # here, not at the top: only JSON output needs it
        text = json.dumps({"schema": SCHEMA, **doc(), "meta": _meta(args, field)},
                          indent=2)
    elif fmt == "text":
        text = "\n".join(rows)
    else:
        lines = [f"# {s}" for s in [*_stanza(args, field), *notes]]
        text = "\n".join([*lines, *([header] if header else []), *rows])
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _field_from_args(args):
    field = field_of_order(args.q)
    if args.primitive is None:
        return field
    return make_field(field.p, field.e, primitive=args.primitive)


# -- gen ---------------------------------------------------------------------

def cmd_gen(args) -> int:
    kind = args.kind
    if kind == "hermitian":
        if args.ell is None:
            raise ValueError("--ell is required for hermitian sequences")
        curve = HermitianCurve(args.ell, allow_large=args.allow_large)
        seq = curve.sequence()
        field = curve.field
    else:
        if args.q is None:
            raise ValueError("--q is required for this kind")
        field = _field_from_args(args)
        if kind == "inversive":
            seq = inversive_finite(field, a=args.a if args.a is not None else 1)
        elif kind == "periodic":
            if args.d is None:
                raise ValueError("--d is required for periodic sequences")
            n = args.n if args.n is not None else 3 * args.d
            seq = inversive_periodic(field, args.d, n,
                                     b=args.b if args.b is not None else 1,
                                     c=args.c)
        elif kind == "random":
            if args.n is None:
                raise ValueError("--n is required for random sequences")
            seq = random_sequence(field, args.n, args.seed)
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(f"unknown kind {kind!r}")
    # a sequence file is gen's text format, with the stanza after its header
    text = sequence_to_text(seq, extra_comments=_stanza(args, field))
    _write(args, None, None, text.splitlines())
    return 0


# -- analyze -------------------------------------------------------------------

# kind -> (sequence, k, witness) -> ComplexityReport
_ANALYZERS = {
    "nk": lambda seq, k, witness: cx.nonlinear_complexity(seq, k, witness=witness),
    "lk": lambda seq, k, witness: cx.total_degree_complexity(seq, k, witness=witness),
    "lin": lambda seq, k, witness: cx.linear_complexity(seq, witness=witness),
    "moc": lambda seq, k, witness: cx.max_order_complexity(seq, witness=witness),
}


def cmd_analyze(args) -> int:
    seq = read_sequence(args.infile)
    kind = args.kind
    if kind in ("nk", "lk") and args.k is None:
        raise ValueError(f"--k is required for kind {kind}")
    if args.profile:
        prof = cx.profile(seq, args.k, kind)
        _write(args, lambda: {"kind": kind, "k": args.k, "profile": prof}, "n,value",
               (f"{n},{v}" for n, v in enumerate(prof, start=1)), seq.field)
        return 0
    rep = _ANALYZERS[kind](seq, args.k, args.witness)

    def doc():
        out = {"kind": rep.kind, "k": rep.k, "n": rep.n, "value": rep.value, "meta": None}
        if args.witness and rep.witness is not None:
            out["witness"] = rep.witness.to_json()
        return out

    if args.format == "text":
        row = f"{rep.kind} complexity of n={rep.n} sequence: {rep.value}"
    else:
        row = f"{rep.kind},{'' if rep.k is None else rep.k},{rep.n},{rep.value}"
    _write(args, doc, "kind,k,n,value", [row], seq.field)
    return 0


# -- verify --------------------------------------------------------------------

def cmd_verify(args) -> int:
    kinds = tuple(args.kinds.split(",")) if args.kinds else None
    k_values = list(range(1, args.kmax + 1))
    checks = bounds.verify(args.construction, q=args.q, ell=args.ell,
                           k_values=k_values, kinds=kinds, d=args.d,
                           periods=args.periods, n_max=args.n_max,
                           allow_large=bool(args.allow_large))
    summary = bounds.summarize(checks)

    def doc():
        return {"summary": summary, "meta": None, "checks": [{
            "theorem": ch.theorem, "q": ch.q, "k": ch.k, "n": ch.n, "d": ch.d,
            "ell": ch.ell, "bound": [ch.bound.numerator, ch.bound.denominator],
            "computed": ch.computed, "pass": ch.passed} for ch in checks]}

    rows = (f"{ch.theorem},{ch.n},{ch.k},{ch.bound.numerator},{ch.bound.denominator},"
            f"{ch.computed},{str(ch.passed).lower()}" for ch in checks)
    _write(args, doc, "theorem,n,k,bound_num,bound_den,computed,pass", rows)
    if args.format != "json":
        import json
        print(json.dumps({"schema": SCHEMA, "summary": summary}), file=sys.stderr)
    return 0 if summary["all_passed"] else 1


# -- count ----------------------------------------------------------------------

def cmd_count(args) -> int:
    res = stats.exhaustive_count(args.q, args.k, args.n, args.m,
                                 threads=_threads(args))
    _write(args, lambda: {"meta": None, "q": res.q, "k": res.k, "n": res.n, "m": res.m,
                          "count": res.count, "bound": res.bound, "pass": res.passed},
           "q,k,n,m,count,bound,pass",
           [f"{res.q},{res.k},{res.n},{res.m},{res.count},{res.bound},"
            f"{str(res.passed).lower()}"])
    return 0 if res.passed else 1


# -- profile ----------------------------------------------------------------------

def _default_grid(nmax: int) -> list[int]:
    grid = []
    n = 2
    while n <= nmax:
        grid.append(n)
        n *= 2
    if grid and grid[-1] != nmax:
        grid.append(nmax)
    return grid or [nmax]


def cmd_profile(args) -> int:
    if args.grid:
        grid = [int(tok) for tok in args.grid.split(",")]
    else:
        grid = _default_grid(args.nmax)
    ps = stats.monte_carlo_profile(args.q, args.k, grid, args.samples,
                                   args.seed, threads=_threads(args))
    slope = stats.empirical_constant(ps) if len(ps.grid) >= 3 else None

    def doc():
        return {"meta": None, "q": ps.q, "k": ps.k, "samples": ps.samples,
                "seed": ps.seed, "empirical_slope": slope, "rows": [{
                    "n": r.n, "mean": r.mean, "min": r.vmin, "max": r.vmax,
                    "p05": r.p05, "p50": r.p50, "p95": r.p95, "ref": r.ref,
                    "below1": r.below1, "below2": r.below2} for r in ps.rows]}

    rows = (f"{r.n},{r.mean:.4f},{r.vmin},{r.vmax},{r.p05},{r.p50},{r.p95},{r.ref:.4f}"
            for r in ps.rows)
    notes = [] if slope is None else [f"empirical_slope {slope:.6f}"]
    _write(args, doc, "n,mean,min,max,p05,p50,p95,ref", rows, notes=notes)
    return 0


# -- hermitian ---------------------------------------------------------------------

def cmd_hermitian(args) -> int:
    curve = HermitianCurve(args.ell, allow_large=args.allow_large)
    lines = []
    if args.dump == "points":
        for P in curve.points():
            lines.append("inf" if P.is_infinity else f"{P.x} {P.y}")
    elif args.dump == "orbits":
        table = curve.orbits()
        for i, orb in enumerate(table.orbits):
            tag = " (Q-orbit)" if i == table.q_orbit_index else ""
            lines.append(f"orbit {i}{tag}: " +
                         " ".join(f"({P.x},{P.y})" for P in orb))
        lines.append("other: " + " ".join(
            "inf" if P.is_infinity else f"({P.x},{P.y})"
            for P in table.other_points))
    else:  # h
        h = curve.construct_h()
        lines.append(f"Q = ({h.a}, {h.b})")
        lines.append(f"h = {h}")
        lines.append(f"valuation_at_infinity = {h.valuation_at_infinity()}")
        if args.t:
            ht = apply_automorphism_to_h(h, args.t)
            lines.append(f"phi^{args.t} h = {ht}")
    _write(args, None, None, lines, curve.field)
    return 0


# -- parser -------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nlcx",
        description="sequence complexity workbench over finite fields")
    ap.add_argument("--version", action="version", version=f"nlcx {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-o", "--out", help="output file (default stdout)")

    def workers(p):
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes (default: NLCX_THREADS or 1; "
                            "at most one per CPU)")

    g = sub.add_parser("gen", help="generate a sequence file")
    g.add_argument("--kind", required=True,
                   choices=["inversive", "periodic", "random", "hermitian"])
    g.add_argument("--q", type=int)
    g.add_argument("--ell", type=int)
    g.add_argument("--a", type=int)
    g.add_argument("--b", type=int)
    g.add_argument("--c", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--primitive", type=int,
                   help="override the canonical primitive element (encoding)")
    g.add_argument("--allow-large", action="store_true")
    common(g)
    g.set_defaults(func=cmd_gen, format="text")

    a = sub.add_parser("analyze", help="complexity of a sequence file")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--kind", required=True, choices=list(_ANALYZERS))
    a.add_argument("--k", type=int)
    a.add_argument("--profile", action="store_true",
                   help="per-prefix profile instead of a single value")
    a.add_argument("--witness", action="store_true",
                   help="include the feedback map in JSON output")
    a.add_argument("--format", choices=["json", "csv", "text"], default=None)
    common(a)
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify", help="bound sweeps for one construction")
    v.add_argument("--construction", required=True,
                   choices=["inversive", "periodic", "hermitian"])
    v.add_argument("--q", type=int)
    v.add_argument("--ell", type=int)
    v.add_argument("--kmax", type=int, default=2)
    v.add_argument("--kinds", help="comma list of nk,lk,lin (defaults per construction)")
    v.add_argument("--d", type=int, help="single period for periodic (default: all)")
    v.add_argument("--periods", type=int, default=3,
                   help="periodic sweep length as a multiple of d")
    v.add_argument("--n-max", type=int)
    # default None, not False: the params stanza of a run without the
    # flag stays as it was before the flag existed
    v.add_argument("--allow-large", action="store_true", default=None,
                   help="allow Hermitian ell beyond the default range")
    v.add_argument("--format", choices=["csv", "json"], default="csv")
    common(v)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("count", help="exhaustive low-complexity count")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--format", choices=["csv", "json"], default="csv")
    common(c)
    workers(c)
    c.set_defaults(func=cmd_count)

    p = sub.add_parser("profile", help="Monte Carlo complexity profile")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--grid", help="comma list of lengths (default: powers of two)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    common(p)
    workers(p)
    p.set_defaults(func=cmd_profile)

    h = sub.add_parser("hermitian", help="curve geometry dumps")
    h.add_argument("--ell", type=int, required=True)
    h.add_argument("--dump", choices=["points", "orbits", "h"], default="h")
    h.add_argument("--t", type=int, default=0,
                   help="also show the automorphism image of h")
    h.add_argument("--allow-large", action="store_true")
    common(h)
    h.set_defaults(func=cmd_hermitian)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "profile", False) and args.format != "json":
        args.format = "csv"  # analyze: a profile has no one-line text form
    elif getattr(args, "format", "") is None:
        args.format = "json"
    try:
        return args.func(args)
    except cx.GuardExceeded as exc:
        print(f"error: guard exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
