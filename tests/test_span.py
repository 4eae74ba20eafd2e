"""Differential suite for the column-space solver (_SpanSystem).

The span system is driven directly at every feedback length m and checked
against the packed monomial system and the list-based oracle of
test_packed (which must agree with each other), or the window scan where
every map is a polynomial, against brute_force_complexity, and by
replaying every witness it returns.
"""

import itertools

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
        if not system.add(vals[i:i + m], vals[i + m]):
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
