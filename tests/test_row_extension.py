"""Packed rows extended per target instead of rebuilt per length.

The row of target t at feedback length m is its row at any shorter
length L with the variables L..m - 1 on top, and the blocks a shorter
system places are those a longer one places.  So a packed system keeps
the longest body built for each target in its store, extends it in
feed, and the search hands the store to the next length's system
(complexity._search).  Checked here: every extension of a stored body
equals build_row's row bit for bit, and leaves the system build_row's
row would, in both modes and bases, over prime and extension fields, on
windows with zeros, and build_row's row holds the monomials' values; a
search with the store gives the profile, the witness and the systems of
one that builds every row from its window; and the store is gone once
the search returns.
"""

import random
import tracemalloc

import nlcx.complexity as cx
from nlcx.finite_field import field_of_order
from nlcx.generators import Sequence, inversive_finite, random_sequence
from nlcx.hermitian import hermitian_sequence

FIELDS = (2, 3, 4, 5, 9, 25, 29)
KINDS = (("each", True), ("each", False), ("total", False))  # (mode, lagrange)


def with_zeros(q, n, seed):
    """A sequence over F_q whose terms are zero a third of the time, so
    windows have zeros at every position and some are all zero."""
    rng = random.Random(seed)
    return [rng.randrange(1, q) if rng.random() < 2 / 3 else 0 for _ in range(n)]


def longest(q, k, mode):
    """The largest m tried: the columns stay in the hundreds."""
    cap, m = min(k, q - 1), 1
    while cx.monomial_count(m + 1, k, mode, per_var=cap) <= 300 and m < 6:
        m += 1
    return m


def monomial_row(system, window, target):
    """The entries of the row of window -> target, monomial by monomial."""
    f = system.f
    out = []
    for exps in system.exponents(range(system.ncols)):
        term = 1
        for v, e in zip(window, exps):
            term = f.mul(term, f.pow(v, e))
        out.append(term)
    return out + [target]


def test_extending_a_shorter_body_gives_the_row_built_from_scratch():
    for q in FIELDS:
        f = field_of_order(q)
        for k in (1, 2):
            for mode, lagrange in KINDS:
                top = longest(q, k, mode)
                vals = with_zeros(q, top + 40, q * 10 + k)
                for t in range(top, len(vals)):
                    # stored[L]: the store entry of t that a length-L
                    # system's feed leaves, from no stored body
                    stored = [None]
                    for L in range(1, top + 1):
                        system = cx._PackedSystem(f, L, k, mode, lagrange, store={})
                        system.feed(vals, t)
                        stored.append(system.store[t])
                        assert stored[L][0] == L
                    for m in range(1, top + 1):
                        window, target = vals[t - m:t], vals[t]
                        ref = cx._PackedSystem(f, m, k, mode, lagrange)
                        want = ref.build_row(window, target)
                        ok = ref.feed(vals, t)
                        if not lagrange and t < top + 3:
                            assert [ref.entry(want, c) for c in range(ref.ncols + 1)] == \
                                monomial_row(ref, window, target), (q, k, mode, window)
                        for L in range(m):
                            system = cx._PackedSystem(f, m, k, mode, lagrange, store={
                                t: stored[L]} if L else {})
                            where = (q, k, mode, lagrange, m, L, vals[t - m:t + 1])
                            assert system.feed(vals, t) == ok, where
                            assert system.basis == ref.basis, where
                            length, body = system.store[t]
                            assert length == m and system.row(body, target) == want, where


def from_scratch(system, vals, t):
    """feed with no store: every row built from its window."""
    c, row, _ = system.reduce(system.build_row(vals[t - system.m:t], vals[t]))
    if c < system.ncols:
        system.install(c, row)
    return c < system.ncols or not row


def searches(q):
    """(sequence, k) pairs over F_q: random with zeros, and a structured
    sequence whose long prefixes reach span systems at q > 9."""
    f = field_of_order(q)
    out = [(Sequence(f, with_zeros(q, 40, q)), k) for k in (1, 2)]
    out.append((random_sequence(f, 36, q), 2))
    if q in (25, 29):
        out.append((inversive_finite(f), 2))
    if q == 4:
        out.append((hermitian_sequence(2), 2))
    return out


def results(s, k):
    return (cx.profile(s, k, "nk"), cx.profile(s, k, "lk"),
            cx.nonlinear_complexity(s, k), cx.total_degree_complexity(s, k),
            [cx.complexity_at_most(s.field, s.values, k, c) for c in range(0, 12, 3)])


def test_search_with_the_store_matches_rows_built_from_scratch(monkeypatch):
    made, handed = [], []
    real = cx._new_system

    def recording(*args):
        system = real(*args)
        made.append((type(system).__name__, system.m, system.ncols,
                     getattr(system, "monomial", None)))
        handed.append(bool(system.store))  # a shorter system's bodies taken over
        return system

    monkeypatch.setattr(cx, "_new_system", recording)
    kinds = set()
    for q in FIELDS:
        for s, k in searches(q):
            made.clear()
            got, systems = results(s, k), made[:]
            with monkeypatch.context() as mp:
                mp.setattr(cx._PackedSystem, "feed", from_scratch)
                made.clear()
                assert results(s, k) == got, (q, k, s.values)
                assert made == systems, (q, k, s.values)
            kinds |= {(name, monomial) for name, _, _, monomial in systems}
    # both bases, and span systems after packed ones in one search
    assert kinds == {("_PackedSystem", True), ("_PackedSystem", False),
                     ("_SpanSystem", None)}, kinds
    assert any(handed)


def test_the_store_is_freed_when_the_search_returns():
    s = hermitian_sequence(5)  # 96 terms over F_25
    cx.profile(s, 1, "nk")  # the per-process caches: fields and basis values
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cx.profile(s, 1, "nk")
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the store and the systems held hundreds of KB while the search ran;
    # what is left is the interpreter's free lists, a few small objects
    assert peak - base > 200_000, peak - base
    assert after - base < 4_096, after - base


def test_a_witness_system_fed_once_keeps_no_store(monkeypatch):
    # the window scan decides max-order complexity, so the witness system
    # is built at the final length and fed each target once
    made = []
    real = cx._new_system
    monkeypatch.setattr(cx, "_new_system", lambda *args: made.append(real(*args)) or made[-1])
    s = random_sequence(field_of_order(3), 60, 1)
    rep = cx.max_order_complexity(s)
    assert rep.witness.replay(s.field, s.values, len(s)) == s.values
    assert [(type(x).__name__, x.store) for x in made] == [("_PackedSystem", None)]
