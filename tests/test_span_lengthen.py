"""Lengthening span systems in place (_SpanSystem.lengthen).

A search grows the feedback length one step at a time, and where the
span system at m is outgrown by one at m + 1, _new_system lengthens it
instead of building a new one.  A lengthened system must then be in the
state, cell for cell, of a fresh system fed the same rows, and a search
must give the same values and witness bytes as one that builds every
span system fresh.  Cells are compared by value, not as raw ints: a
lengthened system keeps the cells of its first length.  The search drops
its packed row store at the first span system, so it relies on the price
never going back from a span system to a packed one as m grows.
"""

import itertools
import json
import random

import pytest

import nlcx.complexity as cx
from nlcx.finite_field import field_of_order
from nlcx.generators import Sequence, inversive_finite, random_sequence
from test_row_extension import with_zeros
from test_span_oracle import ScalarSpanSystem

MODES = ("each", "total")
FIELDS = (3, 5, 7, 9, 25, 29)
NEW_SYSTEM = cx._new_system  # the real one, whatever stand-in a test installs


def cells(system, vec):
    """The field elements in the cells of a packed vector, up to its last
    nonzero one."""
    out = [system.entry(vec, c) for c in range(len(system._at))]
    while out and not out[-1]:
        out.pop()
    return out


def level_state(system, lv):
    width, cell = system._width, system._cell
    free = {d: [c for c in range(len(system._at)) if mask >> c * width & cell]
            for d, mask in lv.free.items()}
    return (lv.mons, lv.degs, lv.basis, free,
            [cells(system, v) for v in lv.cols], [cells(system, v) for v in lv.blocks])


def state(system, levels=slice(None)):
    return (system.m, system.ncols,
            [level_state(system, lv) for lv in system.levels[levels]])


def sequences(field, n, seed):
    q = field.q
    rng = random.Random(seed)
    out = [random_sequence(field, n, seed).values, with_zeros(q, n, seed),
           [rng.randrange(q) if rng.random() < 0.3 else 0 for _ in range(n)]]
    if q > 3:
        out.append(inversive_finite(field).values[:n])
    return out


def walk(field, vals, k, mode):
    """Feed one span system at every length m as a search does, each from
    the first row up to the first it rejects, lengthening it between
    lengths, and a fresh system per length the same rows.  Their feed
    results and last levels must agree after every row, and every level
    once the lengthened system has fed again every row it carried.
    Returns how many lengths ended with every level compared."""
    n, system, compared = len(vals), None, 0
    for m in range(1, n):
        rows = n - m
        if system is None:
            system = cx._SpanSystem(field, m, k, mode, rows)
        else:
            system.lengthen(rows)
        fresh = cx._SpanSystem(field, m, k, mode, rows)
        carried = len(system._track)
        for i in range(rows):
            ok = system.feed(vals, i + m)
            where = (field.q, vals, k, mode, m, i)
            assert ok == fresh.feed(vals, i + m), where
            assert state(system, slice(-1, None)) == state(fresh, slice(-1, None)), where
            if not ok:
                # the rejected row has been through every level
                assert system._track[i][0] == m, where
                break
        if i + 1 >= carried:
            assert state(system) == state(fresh), where
            compared += 1
    return compared


@pytest.mark.parametrize("q", FIELDS)
@pytest.mark.parametrize("mode", MODES)
def test_lengthened_matches_fresh_row_by_row(q, mode):
    field = field_of_order(q)
    compared = 0
    for k in (1, 2):
        for vals in sequences(field, 13, q * 10 + k):
            compared += walk(field, vals, k, mode)
    assert compared


def test_rejected_row_waits_at_the_new_level():
    # x_0 = 1 is followed by 2, then by 3: at m = 1 the row of target 3
    # is rejected after levels 0..m - 1; lengthened, it runs level 1 only
    field = field_of_order(5)
    vals = [1, 2, 1, 3, 4, 0, 2]
    system = cx._SpanSystem(field, 1, 1, "each", 6)
    assert system.feed(vals, 1) and system.feed(vals, 2)
    assert not system.feed(vals, 3)
    with pytest.raises(ValueError, match="none after a rejected one"):
        system.feed(vals, 4)
    system.lengthen(5)
    assert [level for level, _ in system._track] == [1, 1, 1]
    assert sorted(system.levels[1].grows) == [0, 1]  # level 0's pivots, by row
    fresh = cx._SpanSystem(field, 2, 1, "each", 5)
    for t in range(2, 6):
        assert system.feed(vals, t) and fresh.feed(vals, t)
    assert state(system) == state(fresh)
    assert not system.levels[1].grows
    assert [level for level, _ in system._track] == [2] * 4


@pytest.mark.parametrize("q", [5, 25, 29])
@pytest.mark.parametrize("mode", MODES)
def test_two_lengthens_in_a_row(q, mode):
    # with no feed between them, and with part of the carried rows fed
    # again between them, so rows wait at different levels
    field = field_of_order(q)
    cases = 0
    for k in (1, 2):
        for vals in sequences(field, 14, q + k):
            n = len(vals)
            for m in range(1, n - 3):
                for between in (0, 2):
                    system = cx._SpanSystem(field, m, k, mode, n - m)
                    fed = next((i for i in range(n - m) if not system.feed(vals, i + m)),
                               n - m)
                    if fed < 3:
                        continue
                    system.lengthen(n - m - 1)
                    for i in range(between):
                        if not system.feed(vals, i + m + 1):
                            break
                    else:
                        system.lengthen(n - m - 2)
                        levels = {level for level, _ in system._track}
                        assert levels == ({m + 1, m} if between else {m}), levels
                        fresh = cx._SpanSystem(field, m + 2, k, mode, n - m - 2)
                        for i in range(n - m - 2):
                            ok = system.feed(vals, i + m + 2)
                            assert ok == fresh.feed(vals, i + m + 2), (vals, m, i)
                            if not ok:
                                break
                        if i + 1 >= fed:
                            assert state(system) == state(fresh), (vals, k, m)
                            cases += 1
    assert cases


def recording(made, fresh_spans=False):
    """A stand-in for _new_system that records every system it returns and
    whether it is the outgrown one lengthened, and with fresh_spans builds
    every span system fresh."""

    def new_system(field, m, k, mode, limit, rows, lagrange=False, store=None,
                   outgrown=None):
        if fresh_spans:
            outgrown = None
        system = NEW_SYSTEM(field, m, k, mode, limit, rows, lagrange, store, outgrown)
        made.append((system, system is outgrown, rows))
        return system

    return new_system


def test_lengthened_and_fresh_systems_share_slots_and_decisions(monkeypatch):
    # inversive F_79 at k = 1: the first span system takes 65 rows, and
    # every later length lengthens it, down to fewer than 64 rows
    field = field_of_order(79)
    s = inversive_finite(field)
    vals, n = s.values, len(s)
    made = []
    monkeypatch.setattr(cx, "_new_system", recording(made))
    rep = cx.nonlinear_complexity(s, 1)
    spans = [(x, lengthened, rows) for x, lengthened, rows in made
             if isinstance(x, cx._SpanSystem)]
    assert spans[0][2] >= 64 and not spans[0][1]
    assert all(lengthened for _, lengthened, _ in spans[1:])
    assert any(rows < 64 for *_, rows in spans)
    # the same lengths again, a fresh system beside the lengthened one at
    # each: the same slots, and the same decision on every row
    first, system = n - spans[0][2], None
    for m in range(first, rep.value + 1):
        if system is None:
            system = cx._SpanSystem(field, m, 1, "each", n - m)
        else:
            system.lengthen(n - m)
        fresh = cx._SpanSystem(field, m, 1, "each", n - m)
        assert system._products == fresh._products, m
        for t in range(m, n):
            ok = system.feed(vals, t)
            assert ok == fresh.feed(vals, t), (m, t)
            if not ok:
                break
    assert ok and system.m == rep.value
    assert state(system) == state(fresh) == state(spans[-1][0])
    monkeypatch.setattr(cx, "_new_system", recording([], fresh_spans=True))
    assert cx.nonlinear_complexity(s, 1) == rep


def search_cases():
    out = []
    for q in (5, 7, 9):
        field = field_of_order(q)
        out += [(Sequence(field, vals), k) for vals in sequences(field, 30, q)[:3]
                for k in (1, 2)]
    for q in (25, 29):
        field = field_of_order(q)
        out += [(inversive_finite(field, a=a), k) for a in (1, 2) for k in (1, 2)]
        out.append((Sequence(field, with_zeros(q, 30, q)), 2))
    return out


def results(s, k):
    reports = [cx.nonlinear_complexity(s, k), cx.total_degree_complexity(s, k)]
    witnesses = [json.dumps(r.witness and r.witness.to_json()) for r in reports]
    return cx.profile(s, k, "nk"), cx.profile(s, k, "lk"), reports, witnesses


def test_searches_match_fresh_span_systems_and_the_scalar_oracle(monkeypatch):
    lengthened = scalar = 0
    for s, k in search_cases():
        made = []
        monkeypatch.setattr(cx, "_new_system", recording(made))
        got = results(s, k)
        lengthened += sum(x for _, x, _ in made)
        monkeypatch.setattr(cx, "_new_system", recording([], fresh_spans=True))
        assert results(s, k) == got, (s.field.q, k, s.values)
        # a witness from a span system: the scalar oracle's, fed from scratch
        n = len(s)
        for rep, mode in zip(got[2], MODES):
            m = rep.value
            if isinstance(cx._new_system(s.field, m, k, mode, cx.DEFAULT_MAX_MONOMIALS, n - m),
                          cx._SpanSystem):
                oracle = ScalarSpanSystem(s.field, m, k, mode, n - m)
                assert all(oracle.add(s.values[i:i + m], s.values[i + m])
                           for i in range(n - m))
                assert cx._witness_from(oracle, m, k, mode) == rep.witness
                scalar += 1
    assert lengthened and scalar


def test_new_system_lengthens_only_the_span_system_one_shorter():
    field = field_of_order(29)
    span = cx._new_system(field, 14, 2, "each", 1 << 20, 15)
    assert cx._new_system(field, 15, 2, "each", 1 << 20, 14, True, None, span) is span
    assert (span.m, span.rows, span.ncols) == (15, 14, 15 * 3 * 14)
    # a skipped length, or a guard that trips first, leaves it as it was
    other = cx._new_system(field, 17, 2, "each", 1 << 20, 12, True, None, span)
    assert other is not span and span.m == 15
    with pytest.raises(cx.GuardExceeded):
        cx._new_system(field, 16, 2, "each", 100, 13, True, None, span)
    assert span.m == 15
    # where the price picks a packed system, it takes the store it is
    # given and leaves the outgrown system alone
    store = {}
    packed = cx._new_system(field, 2, 2, "each", 1 << 20, 13, True, store, span)
    assert isinstance(packed, cx._PackedSystem) and packed.store is store
    assert span.m == 15
    with pytest.raises(ValueError, match="holds 15 rows, not 16"):
        span.lengthen(16)
    # an outgrown packed system at m - 1 gives way to a fresh span system
    # (F_5, k = 1, n = 8: packed at m = 6, span at m = 7)
    F5 = field_of_order(5)
    packed = cx._new_system(F5, 6, 1, "each", 1 << 20, 2, True, {})
    assert isinstance(packed, cx._PackedSystem)
    span = cx._new_system(F5, 7, 1, "each", 1 << 20, 1, True, None, packed)
    assert isinstance(span, cx._SpanSystem) and (span.m, packed.m) == (7, 6)


def test_the_price_never_goes_back_to_packed(monkeypatch):
    # along a search (rows = n - m), once _new_system picks a span system
    # it picks one at every longer length
    class Span:
        def __new__(cls, *args):
            return "span"

    class Packed:
        def __new__(cls, *args):
            return "packed"

    monkeypatch.setattr(cx, "_SpanSystem", Span)
    monkeypatch.setattr(cx, "_PackedSystem", Packed)
    switches = 0
    for q in (3, 4, 5, 9, 25, 29, 49, 101):
        field = field_of_order(q)
        for k, mode in itertools.product(range(1, 5), MODES):
            for n in range(2, 301):
                span = False
                for m in range(1, n):
                    picked = cx._new_system(field, m, k, mode, cx.DEFAULT_MAX_MONOMIALS,
                                            n - m) == "span"
                    assert picked or not span, (q, k, mode, n, m)
                    switches += picked and not span and m > 1
                    span = picked
    assert switches  # searches that go from packed systems to span ones
