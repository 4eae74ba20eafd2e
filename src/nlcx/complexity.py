"""Exact sequence-complexity analyzers.

The central question: the shortest feedback length m for which some
polynomial map f with a degree cap regenerates the sequence through
s_{i+m} = f(s_i, ..., s_{i+m-1}).  For fixed m the existence of f is a
linear question in the coefficients of f, decided exactly over the field:
by Gaussian elimination over the monomial columns (packed._PackedSystem)
when they cost less than the rows can span, and otherwise by a
column-space system that never lists the monomials (span._SpanSystem;
_new_system prices both).  Elimination runs on packed rows: one int per
row, one cell of base-p digits per column, column 0 in the top cell, so
a row's pivot comes from its bit length.  It runs the same way over every
field, with no field multiplication per step; over F_2 a row is a
bitmask.  A row is built one variable at a time from the last up, so a
longer length's row extends a shorter one's: a packed system keeps each
target's row and the search hands that store to the next length's
system, which extends it instead of rebuilding it (_search).  Likewise
a span system at m is lengthened to m + 1 in place, and each row it
carries runs only the new level (_SpanSystem.lengthen).  Two
degree regimes are supported: degree at most k in every variable
separately ("each"), and total degree at most k ("total").  Linear
complexity is computed by Berlekamp-Massey.

Which basis: fixed when a system is built.  With no witness wanted,
"each"-mode elimination runs in the Lagrange basis on the nodes 0..kcap
(packed.BasisValues), where a term at a node fills one column of
its block.  That keeps the column span, so every value, profile and count
is the one the monomials give.  A witness search builds monomials only.

Total degree 1 needs no system at all.  An affine map
s_{i+m} = c + sum_j a_j s_{i+j} fits N terms exactly when the first
differences d_i = s_{i+1} - s_i (N - 1 terms) satisfy a homogeneous
recurrence of length m: subtracting consecutive equations cancels c, and
conversely the first equation fixes c and each d-equation carries it to
the next.  So that complexity is 0 while the prefix is zero and
max(1, L(d_1..d_{N-1})) after, from one Berlekamp-Massey scan of d.

Conventions: the all-zero sequence has complexity 0; a one-term nonzero
sequence has complexity 1 (a length-1 feedback map is vacuously valid).
Witness terms are listed with their monomials in lexicographic order, the
last variable fastest.  A witness from a monomial system is canonical:
pivots are the lex-first columns and free coefficients are zero.  A
witness from a column-space system is a basic solution with at most
n - m terms, one per basis column.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .finite_field import Field
from .generators import Sequence
from .packed import (DEFAULT_MAX_MONOMIALS, GuardExceeded, _PackedSystem, _slot_rule,
                     monomial_count, monomial_exponents)
from .span import _SpanSystem

DEFAULT_MAX_ENUM = 1 << 24

_MODES = {"nk": "each", "lk": "total"}


class FeedbackPolynomial(NamedTuple):
    """A feedback map in m variables; coeffs maps exponent vectors to
    nonzero coefficient encodings."""

    m: int
    k: int
    mode: str  # "each" or "total"
    coeffs: tuple[tuple[tuple[int, ...], int], ...]

    def evaluate(self, field: Field, window) -> int:
        acc = 0
        for exps, c in self.coeffs:
            term = c
            for j, e in enumerate(exps):
                if e:
                    term = field.mul(term, field.pow(window[j], e))
                    if term == 0:
                        break
            acc = field.add(acc, term)
        return acc

    def replay(self, field: Field, init, length: int) -> list[int]:
        """Regenerate a sequence of the given length from its first m terms."""
        vals = list(init[: self.m])
        if len(vals) < self.m:
            raise ValueError("need at least m initial terms")
        while len(vals) < length:
            vals.append(self.evaluate(field, vals[-self.m:] if self.m else []))
        return vals[:length]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "mode": self.mode,
            "coeffs": [{"exp": list(e), "c": c} for e, c in self.coeffs],
        }


class ComplexityReport(NamedTuple):
    kind: str  # "nk" | "lk" | "lin" | "moc"
    k: Optional[int]
    n: int
    value: int
    witness: Optional[FeedbackPolynomial] = None


def _new_system(field: Field, m: int, k: int, mode: str, max_monomials: int,
                rows: int, lagrange: bool = False, store: Optional[dict] = None):
    """The solver system for length-m maps fed at most `rows` rows: a span
    system (q > 2) when the monomials outnumber its candidate columns and
    also cost more, else the packed system, in the Lagrange basis if
    lagrange, which keeps its rows' bodies in store if given one
    (_PackedSystem.feed); max_monomials bounds the columns built.  A span
    system at m - 1 handed in as store is lengthened rather than a new
    one built, and a packed system after a span one gets no store.  A
    packed monomial column is w * e bits of each row, so it is priced in
    64-bit words against one word per span candidate; the span system is
    also used wherever the monomials alone pass max_monomials."""
    q = field.q
    ncols = monomial_count(m, k, mode, per_var=q - 1)
    held = m * (min(k, q - 1) + 1) * max(rows, 1)
    bits = _slot_rule(field.p, field.e)[0] * field.e
    lengthen = getattr(store, "lengthen", None)  # a span system's store is itself
    if q > 2 and ncols > held and (ncols * bits > 64 * held or ncols > max_monomials):
        if held > max_monomials:
            raise GuardExceeded("span candidate columns", held, max_monomials)
        if lengthen and store.m == m - 1:
            lengthen(rows)
            return store
        return _SpanSystem(field, m, k, mode, rows)
    return _PackedSystem(field, m, k, mode, lagrange, max_monomials, None if lengthen else store)


def _witness_from(system, m: int, k: int, mode: str) -> FeedbackPolynomial:
    sol = system.solution()
    cols = [i for i, c in enumerate(sol) if c]
    coeffs = tuple(sorted(zip(system.exponents(cols), (sol[i] for i in cols))))
    return FeedbackPolynomial(m=m, k=k, mode=mode, coeffs=coeffs)


def _full_function_space(field: Field, k: int, mode: str) -> bool:
    # with per-variable degrees up to q - 1 every map F_q^m -> F_q is a
    # polynomial, so solvability degenerates to a window consistency scan
    return mode == "each" and k >= field.q - 1


def _windows_consistent(vals, n: int, m: int, seen: dict) -> bool:
    for i in range(n - m):
        w = tuple(vals[i:i + m])
        t = vals[i + m]
        if seen.setdefault(w, t) != t:
            return False
    return True


def _affine_profile(field: Field, vals, cap: int) -> list[int]:
    """The total-degree-1 profile of vals, from one Berlekamp-Massey scan
    of the first differences d_i = s_{i+1} - s_i, cut before the first
    prefix whose value exceeds cap (see the module docstring)."""
    sub = field.sub
    diffs = [sub(b, a) for a, b in zip(vals, vals[1:])]
    lin = [0] + _berlekamp_massey(field, diffs, cap)[0]
    first = next((i for i, v in enumerate(vals) if v), len(vals))
    return list(itertools.takewhile(lambda m: m <= cap, (
        max(L, int(i >= first)) for i, L in enumerate(lin))))


def _search(field: Field, vals, k: int, mode: str, max_monomials: int,
            cap: int, witness: bool = False):
    """(profile, system): the complexity of every prefix of vals, and the
    system of the last length fed every row, or None where a window scan
    or Berlekamp-Massey decided (_full_function_space, affine maps), vals
    is all zero or the search stopped.

    Profiles are nondecreasing, so each length m is tried once, at the
    prefix where m - 1 failed: its system is fed the equation of each
    target of that prefix, then of each later term (feed, the one call a
    search makes on a system).  Packed rows are extended per target, not
    rebuilt per length: the row of target t at length m is its row at a
    shorter length with the variables up to m - 1 on top, so a packed
    system keeps the longest body built for each target, and the
    outgrown system hands that store to the next length's.  The store
    lives for one call, holds one body per target and is dropped once a
    span system, which keeps none, takes over.  A span system's store is
    itself: the next length's span system is that one lengthened, and its
    rows carried over, when the lengths are consecutive
    (_SpanSystem.lengthen).  A length at which two equal windows of the
    prefix are followed by different terms builds no system; the
    outgrown one is kept until the next is built.  The search stops
    before the first prefix whose complexity would exceed cap.
    Packed "each"-mode systems are built in the Lagrange basis unless a
    witness is wanted: then every system is a monomial one, so the last
    gives the canonical witness.
    """
    if mode == "total" and k == 1:
        return _affine_profile(field, vals, cap), None
    seen = {} if _full_function_space(field, k, mode) else None
    out: list[int] = []
    m, system = 0, None
    for idx, v in enumerate(vals):
        if m == 0:
            ok = not v  # the first nonzero term: search from m = 1
        elif seen is not None:
            ok = seen.setdefault(tuple(vals[idx - m:idx]), v) == v
        else:
            ok = system.feed(vals, idx)
        # a length-max(idx, 1) map always fits the first idx + 1 terms
        while not ok:
            if m == cap:
                return out, None
            m += 1
            if seen is not None:
                seen.clear()
                ok = _windows_consistent(vals, idx + 1, m, seen)
            # equal windows followed by different terms: no map of any
            # degree fits, so no system is built for this m
            elif _windows_consistent(vals, idx + 1, m, {}):
                # the outgrown system hands on its store, if any, and goes
                system = _new_system(field, m, k, mode, max_monomials, len(vals) - m,
                                     not witness, {} if system is None else system.store)
                ok = all(system.feed(vals, t) for t in range(m, idx + 1))
        out.append(m)
    return out, system


def _check_seq(s: Sequence):
    if len(s.values) < 1:
        raise ValueError("sequence must have at least one term")


def _complexity(s: Sequence, k: int, kind: str, max_monomials: int,
                want_witness: bool) -> ComplexityReport:
    _check_seq(s)
    if k < 1:
        raise ValueError("degree cap k must be >= 1")
    mode = _MODES[kind]
    vals = s.values
    n = len(vals)
    prof, system = _search(s.field, vals, k, mode, max_monomials, n, want_witness)
    m = prof[-1]
    wit = None
    # no witness for the zero sequence, nor for one term (no equations)
    if want_witness and 0 < m < n:
        if system is None:  # decided by a window scan or Berlekamp-Massey
            system = _new_system(s.field, m, k, mode, max_monomials, n - m, False)
            for t in range(m, n):
                system.feed(vals, t)
        wit = _witness_from(system, m, k, mode)
    return ComplexityReport(kind, k, n, m, wit)


def nonlinear_complexity(s: Sequence, k: int, *,
                         max_monomials: int = DEFAULT_MAX_MONOMIALS,
                         witness: bool = True) -> ComplexityReport:
    """Shortest feedback length with degree <= k in each variable."""
    return _complexity(s, k, "nk", max_monomials, witness)


def total_degree_complexity(s: Sequence, k: int, *,
                            max_monomials: int = DEFAULT_MAX_MONOMIALS,
                            witness: bool = True) -> ComplexityReport:
    """Shortest feedback length with total degree <= k."""
    return _complexity(s, k, "lk", max_monomials, witness)


def max_order_complexity(s: Sequence, *,
                         max_monomials: int = DEFAULT_MAX_MONOMIALS,
                         witness: bool = True) -> ComplexityReport:
    """Shortest feedback length with no degree restriction at all.

    Over F_q every function of m variables is a polynomial of degree at
    most q - 1 in each variable, so this equals the "each" analyzer at
    k = q - 1.
    """
    rep = _complexity(s, s.field.q - 1, "nk", max_monomials, witness)
    return ComplexityReport("moc", rep.k, rep.n, rep.value, rep.witness)


def _berlekamp_massey(field: Field, vals,
                      cap: Optional[int] = None) -> tuple[list[int], list[int]]:
    """Return (profile, C): the shortest LFSR length of every prefix, and
    the final connection polynomial C(x) = 1 + C[1] x + ... + C[L] x^L with
    sum_j C[j] s_{i-j} == 0, where L = profile[-1].  Given a cap, the scan
    stops before the first prefix whose length exceeds it, and C is then
    of no use."""
    n = len(vals)
    add, mul = field.add, field.mul
    C = [1] + [0] * n
    B = [1] + [0] * n
    L, m, b, lb = 0, 1, 1, 0  # deg C <= L and deg B <= lb
    out = []
    for i in range(n):
        d = vals[i]
        for j in range(1, L + 1):
            d = add(d, mul(C[j], vals[i - j]))
        if d == 0:
            m += 1
        else:
            coef = field.neg(mul(d, field.inv(b)))
            T = C[:] if 2 * L <= i else None
            for j in range(min(lb, n - m) + 1):
                C[j + m] = add(C[j + m], mul(coef, B[j]))
            if T is None:
                m += 1
            else:
                L, B, b, m, lb = i + 1 - L, T, d, 1, L
        if cap is not None and L > cap:
            break
        out.append(L)
    return out, C[:L + 1]


def linear_complexity(s: Sequence, *, witness: bool = True) -> ComplexityReport:
    """Berlekamp-Massey.  A sequence of n-1 zeros followed by a nonzero
    term has linear complexity n; only homogeneous recurrences count."""
    _check_seq(s)
    field = s.field
    vals = s.values
    n = len(vals)
    if not any(vals):
        return ComplexityReport("lin", None, n, 0)
    prof, C = _berlekamp_massey(field, vals)
    L = prof[-1]
    wit = None
    if witness and 1 <= L < n:
        coeffs = []
        for i in range(1, L + 1):
            c = field.neg(C[i])
            if c:
                exp = tuple(1 if j == L - i else 0 for j in range(L))
                coeffs.append((exp, c))
        coeffs.sort()
        wit = FeedbackPolynomial(m=L, k=1, mode="total", coeffs=tuple(coeffs))
    return ComplexityReport("lin", None, n, L, wit)


def linear_profile(s: Sequence) -> list[int]:
    """Linear complexity of every prefix, from the Berlekamp-Massey scan."""
    _check_seq(s)
    return _berlekamp_massey(s.field, s.values)[0]


def profile(s: Sequence, k: Optional[int], kind: str = "nk", *,
            max_monomials: int = DEFAULT_MAX_MONOMIALS) -> list[int]:
    """Complexity of every prefix s_1..s_n for n = 1..len(s).

    Profiles are nondecreasing in n, so one warm-started search serves
    every prefix: each feedback length is tried once and its system grows
    one equation at a time (see _search).
    """
    if kind == "lin":
        return linear_profile(s)
    if kind == "moc":
        return profile(s, s.field.q - 1, "nk", max_monomials=max_monomials)
    if kind not in _MODES:
        raise ValueError(f"unknown profile kind {kind!r}")
    if k is None or k < 1:
        raise ValueError("degree cap k must be >= 1")
    _check_seq(s)
    return _search(s.field, s.values, k, _MODES[kind], max_monomials, len(s))[0]


def complexity_at_most(field: Field, vals, k: int, cap: int, mode: str = "each",
                       max_monomials: int = DEFAULT_MAX_MONOMIALS) -> bool:
    """Whether the complexity of vals is <= cap, searching no further."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if cap >= max(len(vals) - 1, 1):
        # a length-(n-1) constant map always reproduces the final term, and
        # a single term sits at 1
        return True
    return len(_search(field, vals, k, mode, max_monomials, cap)[0]) == len(vals)


def brute_force_complexity(s: Sequence, k: int, kind: str = "nk", *,
                           max_enum: int = DEFAULT_MAX_ENUM) -> int:
    """Independent oracle: enumerate every feedback map coefficient vector
    and test the recurrence directly.

    At m = n - 1 the constant map equal to the final term always fits, so
    enumeration only runs for m <= n - 2 (guarded by max_enum).
    """
    _check_seq(s)
    if k < 1:
        raise ValueError("degree cap k must be >= 1")
    mode = _MODES[kind]
    field = s.field
    q = field.q
    vals = s.values
    n = len(vals)
    if not any(vals):
        return 0
    if n == 1:
        return 1
    for m in range(1, n - 1):
        exps = monomial_exponents(m, k, mode, per_var=q - 1)
        ncols = len(exps)
        total = q ** ncols
        if total > max_enum:
            raise GuardExceeded("feedback map enumeration", total, max_enum)
        supports = [tuple((j, e) for j, e in enumerate(E) if e) for E in exps]
        rows = []
        for i in range(n - m):
            window = vals[i:i + m]
            mv = []
            for sup in supports:
                term = 1
                for j, e in sup:
                    term = field.mul(term, field.pow(window[j], e))
                    if term == 0:
                        break
                mv.append(term)
            rows.append((mv, vals[i + m]))
        if q == 2:
            masks = [(sum(1 << t for t, x in enumerate(mv) if x), tgt)
                     for mv, tgt in rows]
            for f_bits in range(total):
                if all((f_bits & mask).bit_count() & 1 == tgt
                       for mask, tgt in masks):
                    return m
        else:
            add, mul = field.add, field.mul
            for coeffs in itertools.product(range(q), repeat=ncols):
                ok = True
                for mv, tgt in rows:
                    acc = 0
                    for t, c in enumerate(coeffs):
                        if c and mv[t]:
                            acc = add(acc, mul(c, mv[t]))
                    if acc != tgt:
                        ok = False
                        break
                if ok:
                    return m
    # m = n - 1: the constant map f == s_n satisfies the single equation
    return n - 1
