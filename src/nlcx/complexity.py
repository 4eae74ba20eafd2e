"""Exact sequence-complexity analyzers.

The central question: the shortest feedback length m for which some
polynomial map f with a degree cap regenerates the sequence through
s_{i+m} = f(s_i, ..., s_{i+m-1}).  For fixed m the existence of f is a
linear question in the coefficients of f, decided exactly over the field:
by Gaussian elimination over the monomial columns when there are few of
them, and otherwise by a column-space system that never lists the
monomials (_new_system picks by size).  Two degree regimes are supported:
degree at most k in every variable separately ("each"), and total degree
at most k ("total").  Linear complexity is computed by Berlekamp-Massey.

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
from dataclasses import dataclass
from math import comb
from typing import Optional

from .finite_field import Field
from .generators import Sequence

DEFAULT_MAX_MONOMIALS = 1 << 20
DEFAULT_MAX_ENUM = 1 << 24

_MODES = {"nk": "each", "lk": "total"}


class GuardExceeded(ValueError):
    """A cost guard tripped; carries the offending size and the limit."""

    def __init__(self, what: str, size: int, limit: int):
        self.what, self.size, self.limit = what, size, limit
        super().__init__(f"{what}: size {size} exceeds guard {limit}")


def monomial_count(m: int, k: int, mode: str, per_var: Optional[int] = None) -> int:
    """Number of exponent vectors; per_var additionally caps each exponent.

    Capping at q - 1 never changes the realizable functions over F_q
    (x**q and x agree pointwise, and reduction only lowers degrees), so
    the solvers pass per_var = q - 1 to keep the basis free of redundant
    columns.
    """
    if per_var is None or per_var >= k:
        return (k + 1) ** m if mode == "each" else comb(m + k, k)
    if mode == "each":
        return (per_var + 1) ** m
    # total budget k with each exponent <= per_var, counted by DP
    counts = [1] + [0] * k
    for _ in range(m):
        nxt = [0] * (k + 1)
        for t, c in enumerate(counts):
            if c:
                for e in range(min(per_var, k - t) + 1):
                    nxt[t + e] += c
        counts = nxt
    return sum(counts)


def monomial_exponents(m: int, k: int, mode: str,
                       per_var: Optional[int] = None) -> list[tuple[int, ...]]:
    """Exponent vectors in lexicographic order, last variable fastest."""
    cap = k if per_var is None else min(k, per_var)
    if mode == "each":
        return list(itertools.product(range(cap + 1), repeat=m))
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple, rest: int, budget: int):
        if rest == 0:
            out.append(prefix)
            return
        for e in range(min(cap, budget) + 1):
            rec(prefix + (e,), rest - 1, budget - e)

    rec((), m, k)
    return out


@dataclass(frozen=True)
class FeedbackPolynomial:
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


@dataclass(frozen=True)
class ComplexityReport:
    kind: str  # "nk" | "lk" | "lin" | "moc"
    k: Optional[int]
    n: int
    value: int
    witness: Optional[FeedbackPolynomial] = None


# ---------------------------------------------------------------------------
# linear systems: one row per recurrence equation, one column per monomial,
# plus the augmented column.  Rows are fed one at a time so profiles can
# grow systems incrementally; add() returns False at the first row that
# makes the system inconsistent.

class _GenericSystem:
    def __init__(self, field: Field, m: int, k: int, mode: str):
        self.f = field
        self.m, self.k, self.mode = m, k, mode
        self.kcap = min(k, field.q - 1)
        self.exps = monomial_exponents(m, k, mode, per_var=self.kcap)
        self.supports = [tuple((j, e) for j, e in enumerate(E) if e) for E in self.exps]
        self.ncols = len(self.exps)
        self.basis: dict[int, list[int]] = {}

    def _build_row(self, window, target: int) -> list[int]:
        f = self.f
        k = self.kcap
        pw = [[1] + [f.pow(v, e) for e in range(1, k + 1)] for v in window]
        if self.mode == "each":
            row = [1]
            for j in range(self.m):
                pj = pw[j]
                row = [f.mul(r, pj[e]) if e else r for r in row for e in range(k + 1)]
        else:
            row = []
            for sup in self.supports:
                term = 1
                for j, e in sup:
                    term = f.mul(term, pw[j][e])
                    if term == 0:
                        break
                row.append(term)
        row.append(target)
        return row

    def reduce(self, row: list[int]) -> int:
        """Eliminate row in place against the basis, column by column, up
        to the first nonzero column that has no basis row; return that
        column, or ncols when every monomial column reduces to zero.  Only
        row is written, so removing a basis row undoes its add()."""
        f = self.f
        add, mul, neg = f.add, f.mul, f.neg
        ncols = self.ncols
        basis = self.basis
        for c in range(ncols):
            v = row[c]
            if v == 0:
                continue
            b = basis.get(c)
            if b is None:
                return c
            nv = neg(v)
            for j in range(c, ncols + 1):
                bj = b[j]
                if bj:
                    row[j] = add(row[j], mul(nv, bj))
        return ncols

    def add(self, window, target: int) -> bool:
        row = self._build_row(window, target)
        c = self.reduce(row)
        if c == self.ncols:
            return row[c] == 0
        v = row[c]
        if v != 1:
            iv = self.f.inv(v)
            mul = self.f.mul
            row = row[:c] + [mul(iv, x) for x in row[c:]]
        self.basis[c] = row
        return True

    def solution(self) -> list[int]:
        """Pivot variables by back-substitution, free variables zero."""
        f = self.f
        sol = [0] * self.ncols
        for c in sorted(self.basis, reverse=True):
            row = self.basis[c]
            acc = row[self.ncols]
            for j in range(c + 1, self.ncols):
                rj = row[j]
                if rj and sol[j]:
                    acc = f.sub(acc, f.mul(rj, sol[j]))
            sol[c] = acc
        return sol


class _Gf2System:
    """F_2 specialization: a row is one integer bitmask, the augmented bit
    is the highest index, elimination is xor with pivot at the lowest set
    bit."""

    def __init__(self, field: Field, m: int, k: int, mode: str):
        self.f = field
        self.m, self.k, self.mode = m, k, mode
        self.ncols = monomial_count(m, k, mode, per_var=1)
        self._exps: Optional[list] = None  # built lazily for witnesses
        # exponents are capped at q - 1 = 1, so every "each" basis here is
        # the multilinear one regardless of k
        self._fast = mode == "each"
        if not self._fast:
            self._exps = monomial_exponents(m, k, mode, per_var=1)
            self._supports = [tuple(j for j, e in enumerate(E) if e) for E in self._exps]
        self.basis: dict[int, int] = {}

    @property
    def exps(self) -> list[tuple[int, ...]]:
        if self._exps is None:
            self._exps = monomial_exponents(self.m, self.k, self.mode, per_var=1)
        return self._exps

    def _build_row(self, window, target: int) -> int:
        m = self.m
        if self._fast:
            # Monomials are subsets of variables; the monomial value is 1
            # exactly when the subset lies inside the window's support, so
            # the row is the sum of 2**index over submasks of the support.
            sup = 0
            for j, v in enumerate(window):
                if v:
                    sup |= 1 << (m - 1 - j)
            row = 1
            while sup:
                low = sup & -sup
                row |= row << (1 << (low.bit_length() - 1))
                sup ^= low
            if target:
                row |= 1 << self.ncols
            return row
        row = 0
        for idx, sup in enumerate(self._supports):
            val = 1
            for j in sup:
                if not window[j]:
                    val = 0
                    break
            if val:
                row |= 1 << idx
        if target:
            row |= 1 << self.ncols
        return row

    def add(self, window, target: int) -> bool:
        row = self._build_row(window, target)
        basis = self.basis
        aug_bit = 1 << self.ncols
        while row:
            low = row & -row
            if low == aug_bit:
                return False
            p = low.bit_length() - 1
            b = basis.get(p)
            if b is None:
                basis[p] = row
                return True
            row ^= b
        return True

    def solution(self) -> list[int]:
        ncols = self.ncols
        sol_bits = 0
        for p in sorted(self.basis, reverse=True):
            row = self.basis[p]
            rhs = (row >> ncols) & 1
            above = (row >> (p + 1)) & ((1 << (ncols - p - 1)) - 1)
            rhs ^= (above & (sol_bits >> (p + 1))).bit_count() & 1
            if rhs:
                sol_bits |= 1 << p
        return [(sol_bits >> c) & 1 for c in range(ncols)]


class _SpanLevel:
    """Level j of a _SpanSystem: the candidate monomials in the first j + 1
    variables, the basis picked among them, and each other candidate's
    relation over the basis on the rows fed so far."""

    def __init__(self):
        self.mons: list[tuple[int, ...]] = []  # exponent vector per candidate
        self.degs: list[int] = []
        self.src: list[tuple[int, int]] = []  # (parent basis position, e)
        self.rels: list[Optional[list[int]]] = []  # None for basis members
        self.basis: list[int] = []  # candidate indices, in pivot order
        self.pos: dict[int, int] = {}  # candidate index -> basis position
        self.kids: list[list[Optional[int]]] = []  # parent position -> e -> candidate


class _SpanSystem:
    """Column-space system: decides whether the targets lie in the span of
    the monomial columns without listing the monomials.

    Level j keeps a basis of at most r monomial columns in the first j + 1
    variables (r rows fed), picked from the candidates b * x_j**e with b in
    level j - 1's basis, and every other candidate's relation over it.
    Products of a spanning set with the powers of x_j span every monomial
    in one more variable, so the last level spans all monomial columns.  A
    row raises each level's rank by at most one, so it costs
    O(m * (k + 1) * r**2) field operations.  The lowest-degree candidate
    with a nonzero residual becomes the pivot, so a relation only uses
    basis members of at most the candidate's degree; in "total" mode that
    keeps every product needed by a new candidate's relation in range.
    ncols is the most candidate columns the system holds for `rows` rows.
    A row that add() rejects leaves the levels part-updated, so the system
    is spent after add() returns False; every caller drops it then.
    """

    def __init__(self, field: Field, m: int, k: int, mode: str, rows: int):
        self.f = field
        self.m, self.k, self.mode = m, k, mode
        self.kcap = min(k, field.q - 1)
        self.ncols = m * (self.kcap + 1) * max(rows, 1)
        self.levels = [_SpanLevel() for _ in range(m)]
        # level 0 grows from the empty monomial, a fixed basis of one
        self._grow(self.levels[0], (), 0, [])
        self.target: list[int] = []  # the target's relation over the last basis

    def _grow(self, lv: _SpanLevel, mon: tuple, deg: int, rel: list[int]):
        """Add the candidates mon * x_j**e for a new parent basis member
        whose relation over the parent basis was rel before it became a
        pivot; each gets the relation that follows on the rows fed so far."""
        f = self.f
        add, mul = f.add, f.mul
        parent = len(lv.kids)
        kids: list[Optional[int]] = []
        nb = len(lv.basis)
        for e in range(self.kcap + 1):
            if self.mode == "total" and deg + e > self.k:
                kids.append(None)
                continue
            acc = [0] * nb
            for i, a in enumerate(rel):
                if not a:
                    continue
                c = lv.kids[i][e]
                t = lv.pos.get(c)
                if t is not None:
                    acc[t] = add(acc[t], a)
                else:
                    for t, x in enumerate(lv.rels[c]):
                        if x:
                            acc[t] = add(acc[t], mul(a, x))
            kids.append(len(lv.mons))
            lv.mons.append(mon + (e,))
            lv.degs.append(deg + e)
            lv.src.append((parent, e))
            lv.rels.append(acc)
        lv.kids.append(kids)

    def add(self, window, target: int) -> bool:
        f = self.f
        sub, mul, inv, pow_ = f.sub, f.mul, f.inv, f.pow
        pvals = [1]  # values of the parent basis members on this row
        last = self.m - 1
        for j, lv in enumerate(self.levels):
            w = window[j]
            pw = [1] + [pow_(w, e) for e in range(1, self.kcap + 1)]
            vals = [mul(pvals[i], pw[e]) for i, e in lv.src]
            bvals = [vals[c] for c in lv.basis]
            pivot = None
            moved = []  # (candidate, residual) for every nonzero residual
            for c, rel in enumerate(lv.rels):
                if rel is None:
                    continue
                r = vals[c]
                for a, v in zip(rel, bvals):
                    if a and v:
                        r = sub(r, mul(a, v))
                if r:
                    moved.append((c, r))
                    if pivot is None or lv.degs[c] < lv.degs[pivot[0]]:
                        pivot = (c, r)
            if j == last:
                r = target
                for a, v in zip(self.target, bvals):
                    if a and v:
                        r = sub(r, mul(a, v))
                if r:
                    if pivot is None:
                        return False
                    moved.append((-1, r))
            if pivot is None:
                pvals = bvals
                continue
            p, rp = pivot
            prel = lv.rels[p]
            lv.rels[p] = None
            irp = inv(rp)
            for c, r in moved:
                if c == p:
                    continue
                g = mul(r, irp)
                rel = lv.rels[c] if c >= 0 else self.target
                for t, a in enumerate(prel):
                    if a:
                        rel[t] = sub(rel[t], mul(g, a))
                rel.append(g)
            nb = len(lv.basis)
            for rel in lv.rels:  # the new basis member is absent from the rest
                if rel is not None and len(rel) == nb:
                    rel.append(0)
            if j == last and len(self.target) == nb:
                self.target.append(0)
            lv.pos[p] = nb
            lv.basis.append(p)
            bvals.append(vals[p])
            if j < last:
                self._grow(self.levels[j + 1], lv.mons[p], lv.degs[p], prel)
            pvals = bvals
        return True

    @property
    def exps(self) -> list[tuple[int, ...]]:
        lv = self.levels[-1]
        return [lv.mons[c] for c in lv.basis]

    def solution(self) -> list[int]:
        """The target's coefficients over the last level's basis."""
        return list(self.target)


def _new_system(field: Field, m: int, k: int, mode: str, max_monomials: int,
                rows: int):
    """The solver system for length-m maps fed at most `rows` rows: a span
    system when that holds fewer columns than the monomial set (q > 2),
    else the monomial system; max_monomials bounds the columns built."""
    q = field.q
    ncols = monomial_count(m, k, mode, per_var=q - 1)
    held = m * (min(k, q - 1) + 1) * max(rows, 1)
    if q > 2 and ncols > held:
        if held > max_monomials:
            raise GuardExceeded("span candidate columns", held, max_monomials)
        return _SpanSystem(field, m, k, mode, rows)
    if ncols > max_monomials:
        raise GuardExceeded("monomial set", ncols, max_monomials)
    cls = _Gf2System if q == 2 else _GenericSystem
    return cls(field, m, k, mode)


def _feed(system, vals, n: int, m: int) -> bool:
    add = system.add
    for i in range(n - m):
        if not add(vals[i:i + m], vals[i + m]):
            return False
    return True


def _witness_from(system, m: int, k: int, mode: str) -> FeedbackPolynomial:
    sol = system.solution()
    exps = system.exps
    coeffs = tuple(sorted((exps[i], c) for i, c in enumerate(sol) if c))
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


def _least_fit(field: Field, vals, n: int, k: int, mode: str,
               max_monomials: int, m_min: int, m_max: int,
               seen: Optional[dict] = None):
    """The least m in m_min..m_max for which a length-m feedback map of the
    class fits the first n terms, with the solver system fed to decide it;
    (None, None) when there is none.  When _full_function_space holds, a
    window scan decides instead: no system is built (None), and seen, the
    caller's dict when given, is left holding the windows of the fit."""
    if seen is None and _full_function_space(field, k, mode):
        seen = {}
    for m in range(m_min, m_max + 1):
        if seen is not None:
            seen.clear()
            if _windows_consistent(vals, n, m, seen):
                return m, None
        else:
            system = _new_system(field, m, k, mode, max_monomials, len(vals) - m)
            if _feed(system, vals, n, m):
                return m, system
    return None, None


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
    if not any(vals):
        return ComplexityReport(kind, k, n, 0)
    m, system = _least_fit(s.field, vals, n, k, mode, max_monomials, 1, n - 1)
    if m is None:
        # n == 1 and s nonzero: a length-1 map is vacuously valid (no equations)
        return ComplexityReport(kind, k, n, 1)
    wit = None
    if want_witness:
        if system is None:  # decided by the window scan
            system = _new_system(s.field, m, k, mode, max_monomials, n - m)
            _feed(system, vals, n, m)
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


def _berlekamp_massey(field: Field, vals) -> tuple[list[int], list[int]]:
    """Return (profile, C): the shortest LFSR length of every prefix, and
    the final connection polynomial C(x) = 1 + C[1] x + ... + C[L] x^L with
    sum_j C[j] s_{i-j} == 0, where L = profile[-1]."""
    n = len(vals)
    add, mul = field.add, field.mul
    C = [1] + [0] * n
    B = [1] + [0] * n
    L, m, b = 0, 1, 1
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
            for j in range(n - m + 1):
                C[j + m] = add(C[j + m], mul(coef, B[j]))
            if T is None:
                m += 1
            else:
                L, B, b, m = i + 1 - L, T, d, 1
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

    Profiles are nondecreasing in n (a feedback map for a sequence also
    works for every prefix), so the search warm-starts at the previous
    prefix's value and systems grow one equation at a time; the feedback
    length is re-searched from scratch only when it must increase.
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
    mode = _MODES[kind]
    field = s.field
    vals = s.values
    seen = {} if _full_function_space(field, k, mode) else None
    out: list[int] = []
    m = 0
    system = None
    for idx, v in enumerate(vals):
        if m == 0:
            if v == 0:
                out.append(0)
                continue
            ok = False  # the first nonzero term: search from m = 1
        elif seen is not None:
            ok = seen.setdefault(tuple(vals[idx - m:idx]), v) == v
        else:
            ok = system.add(vals[idx - m:idx], v)
        if not ok:
            system = None  # free the outgrown system before the next is fed
            # a length-max(idx, 1) map always fits the first idx + 1 terms
            m, system = _least_fit(field, vals, idx + 1, k, mode, max_monomials,
                                   m + 1, max(idx, 1), seen)
            if m is None:  # never reached
                raise AssertionError("profile search overran the prefix")
        out.append(m)
    return out


def complexity_at_most(field: Field, vals, k: int, cap: int, mode: str = "each",
                       max_monomials: int = DEFAULT_MAX_MONOMIALS) -> bool:
    """Whether the complexity of vals is <= cap, searching no further."""
    n = len(vals)
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if not any(vals):
        return True
    if n == 1 or cap >= n - 1:
        # single-term sequences sit at 1; a length-(n-1) constant map
        # always reproduces the final term
        return cap >= 1
    return _least_fit(field, vals, n, k, mode, max_monomials, 1, cap)[0] is not None


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
