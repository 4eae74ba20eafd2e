"""Differential suite for the column-space solver (_SpanSystem).

The span system is driven directly at every feedback length m and checked
against the packed monomial system and the list-based oracle of
test_packed (which must agree with each other), or the window scan where
every map is a polynomial, against brute_force_complexity, and by
replaying every witness it returns.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlcx.complexity as cx
from nlcx.bounds import all_passed, verify
from nlcx.finite_field import field_of_order
from nlcx.generators import Sequence
from test_packed import ListSystem

F3 = field_of_order(3)
MODES = ("each", "total")
REFERENCE_COLUMNS = 4096  # the most columns a reference system may list


def rows_accepted(system, vals, m):
    """Rows the system accepts before the first it rejects.  A length-m map
    fits the prefix of length n exactly when this is >= n - m."""
    for i in range(len(vals) - m):
        if not system.feed(vals, i + m):
            return i
    return len(vals) - m


def reference_rows(field, vals, m, k, mode, window_scan):
    if window_scan:  # every map is a polynomial: windows must agree
        seen = {}
        for i in range(len(vals) - m):
            if seen.setdefault(tuple(vals[i:i + m]), vals[i + m]) != vals[i + m]:
                return i
        return len(vals) - m
    rows = rows_accepted(cx._PackedSystem(field, m, k, mode), vals, m)
    assert rows == rows_accepted(ListSystem(field, m, k, mode), vals, m)
    return rows


def check_witness(field, vals, m, k, mode, system):
    w = cx._witness_from(system, m, k, mode)
    assert w.replay(field, vals[:m], len(vals)) == list(vals)
    assert len(w.coeffs) <= len(vals) - m
    assert [e for e, _ in w.coeffs] == sorted(e for e, _ in w.coeffs)
    for e, c in w.coeffs:
        assert c and max(e) <= min(k, field.q - 1)
        if mode == "total":
            assert sum(e) <= k


def span_vs_reference(field, vals, k, mode, max_columns=None, window_scan=False):
    """Rows accepted by the span system at every m, after checking them
    against the monomial system (or the window scan) and checking the span
    witness of every full fit."""
    n = len(vals)
    accepted = {}
    for m in range(1, n):
        if max_columns and cx.monomial_count(m, k, mode, field.q - 1) > max_columns:
            break
        span = cx._SpanSystem(field, m, k, mode, n - m)
        got = rows_accepted(span, vals, m)
        assert got == reference_rows(field, vals, m, k, mode, window_scan), \
            (field.q, vals, k, mode, m)
        if got == n - m:
            check_witness(field, vals, m, k, mode, span)
        accepted[m] = got
    return accepted


def least_fit(vals, accepted, n):
    """Complexity of the prefix of length n from the rows accepted at each m."""
    if not any(vals[:n]):
        return 0
    for m in range(1, n):
        if accepted[m] >= n - m:
            return m
    return 1  # n == 1


def affine_representatives(q, n):
    """One sequence of length n per class under s -> a * s + b (a != 0):
    first term 0, first nonzero term 1.  Such maps carry a feedback map f
    to a * f((x - b) / a) + b, which keeps every degree cap, so every
    sequence fits exactly where its representative does."""
    for tail in itertools.product(range(q), repeat=n - 1):
        if not any(tail) or tail[next(i for i, v in enumerate(tail) if v)] == 1:
            yield [0, *tail]


# brute force enumerates q**columns maps; these prefix lengths keep it small
BRUTE_FORCE_N = {(1, "each"): 5, (1, "total"): 5, (2, "each"): 3, (2, "total"): 4}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mode", MODES)
def test_span_matches_references_exhaustively(k, mode):
    # every F_3 sequence of length <= 7 is, up to an affine map, a prefix of
    # a representative of length 7, and the rows accepted at each m decide
    # every prefix at once
    kind = "nk" if mode == "each" else "lk"
    window_scan = cx._full_function_space(F3, k, mode)
    oracle = {}
    for vals in affine_representatives(3, 7):
        accepted = span_vs_reference(F3, vals, k, mode, window_scan=window_scan)
        for n in range(1, BRUTE_FORCE_N[k, mode] + 1):
            prefix = tuple(vals[:n])
            if prefix not in oracle:
                oracle[prefix] = cx.brute_force_complexity(
                    Sequence(F3, list(prefix)), k, kind)
            assert least_fit(vals, accepted, n) == oracle[prefix], (prefix, k, mode)


def test_span_matches_gf2_system():
    F2 = field_of_order(2)
    for vals in itertools.product(range(2), repeat=7):
        for k, mode in ((1, "each"), (1, "total"), (2, "total")):
            span_vs_reference(F2, list(vals), k, mode)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4, 5, 7, 9]), st.data())
def test_span_matches_monomial_system_hypothesis(q, data):
    field = field_of_order(q)
    vals = data.draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=12))
    k = data.draw(st.integers(1, 3))
    mode = data.draw(st.sampled_from(MODES))
    span_vs_reference(field, vals, k, mode, REFERENCE_COLUMNS)


def test_new_system_selection_and_guard():
    F29 = field_of_order(29)
    # inversive-sized: (k+1)**m columns against m * (k+1) * rows candidates
    assert isinstance(cx._new_system(F29, 14, 2, "each", 1 << 20, 15), cx._SpanSystem)
    assert isinstance(cx._new_system(F29, 3, 2, "each", 1 << 20, 15), cx._PackedSystem)
    assert isinstance(cx._new_system(field_of_order(2), 14, 1, "each", 1 << 20, 15),
                      cx._PackedSystem)
    with pytest.raises(cx.GuardExceeded) as err:
        cx._new_system(F29, 14, 2, "each", 100, 15)
    assert (err.value.what, err.value.size, err.value.limit) == \
        ("span candidate columns", 14 * 3 * 15, 100)


def test_inversive_q49_in_reach():
    # 2**21 monomial columns at k = 1; the span systems hold a few hundred
    checks = verify("inversive", q=49, k_values=[1, 2])
    assert checks and all_passed(checks)


def test_new_system_rule_keeps_packed_and_guards(monkeypatch):
    # span systems are picked by pricing a packed column in 64-bit words;
    # every system the rule counting columns alone made packed stays
    # packed, and exactly the same guards trip, with the same sizes
    packed = cx._PackedSystem

    def built(*args):  # the real constructor, which holds the column guard
        packed(*args)
        return "packed"

    class Span:  # a class, which _new_system's isinstance test accepts
        def __new__(cls, *args):
            return "span"

    monkeypatch.setattr(cx, "_PackedSystem", built)
    monkeypatch.setattr(cx, "_SpanSystem", Span)
    moved = 0
    for q in (3, 4, 5, 9, 25, 29, 49):
        field = field_of_order(q)
        for m, k, mode, rows, limit in itertools.product(
                range(1, 17), (1, 2, 3), MODES, (1, 15, 100, 1000), (10, 1 << 20)):
            ncols = cx.monomial_count(m, k, mode, per_var=q - 1)
            held = m * (min(k, q - 1) + 1) * rows
            if ncols > held:  # the rule counting columns alone
                old = ("span candidate columns", held, limit) if held > limit else "span"
            else:
                old = ("monomial set", ncols, limit) if ncols > limit else "packed"
            try:
                new = cx._new_system(field, m, k, mode, limit, rows)
            except cx.GuardExceeded as err:
                new = (err.what, err.size, err.limit)
            if old == "span" and new == "packed":
                moved += 1
            else:
                assert new == old, (q, m, k, mode, rows, limit)
    assert moved
    # Hermitian ell = 7, nk at k = 1, m = 13: 8,192 columns of 26 bits each
    # cost 3,328 words against 13 * 2 * 275 = 7,150 span candidates
    assert cx._new_system(field_of_order(49), 13, 1, "each", 1 << 20, 275) == "packed"


@pytest.mark.parametrize("q, count", [(3, 2), (5, 1)])
def test_packed_choice_matches_span_systems(q, count, monkeypatch):
    # where the rule now picks a packed system over a span system, values
    # and profiles are those found with span systems throughout, and the
    # witnesses, now canonical ones, replay
    field = field_of_order(q)
    rng = random.Random(q)
    seqs = [Sequence(field, [rng.randrange(q) for _ in range(96)])
            for _ in range(count)]
    cases = list(itertools.product(seqs, (1, 2)))
    picked = []
    new_system = cx._new_system

    def recording(field, m, k, mode, limit, rows, lagrange, store=None, outgrown=None):
        system = new_system(field, m, k, mode, limit, rows, lagrange, store, outgrown)
        picked.append(isinstance(system, cx._PackedSystem) and
                      system.ncols > m * (min(k, q - 1) + 1) * rows)
        return system

    monkeypatch.setattr(cx, "_new_system", recording)
    got = []
    for s, k in cases:
        rep = cx.nonlinear_complexity(s, k)
        assert rep.witness.replay(field, s.values, 96) == s.values
        got.append((cx.profile(s, k, "nk"), rep.value))
    assert any(picked)  # some packed system holds more columns than a span one
    monkeypatch.setattr(cx, "_new_system", lambda field, m, k, mode, limit, rows, lagrange,
                        store=None, outgrown=None: cx._SpanSystem(field, m, k, mode, rows))
    for (s, k), (prof, value) in zip(cases, got):
        assert cx.profile(s, k, "nk") == prof and prof[-1] == value
