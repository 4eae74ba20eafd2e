import hashlib
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlcx.complexity as cx
from nlcx.finite_field import field_of_order
from nlcx.generators import Sequence, inversive_finite, random_sequence
from nlcx.hermitian import hermitian_sequence

F2 = field_of_order(2)
F3 = field_of_order(3)
F4 = field_of_order(4)
F5 = field_of_order(5)
ANALYZERS = {"nk": cx.nonlinear_complexity, "lk": cx.total_degree_complexity}


def seq(q, vals):
    return Sequence(field_of_order(q), list(vals))


def cold_search(field, vals, k, mode):
    """The oracle for the warm-started search: (complexity, system) with,
    for each m from 1, a fresh solver system fed every row of vals; the
    system is the first that accepts them all (None for the zero sequence
    and for one term, which fit with no equation)."""
    n = len(vals)
    if not any(vals):
        return 0, None
    for m in range(1, n):
        system = cx._new_system(field, m, k, mode, cx.DEFAULT_MAX_MONOMIALS, n - m)
        if all(system.feed(vals, t) for t in range(m, n)):
            return m, system
    return 1, None


def test_monomial_count():
    assert cx.monomial_count(3, 2, "each") == 27
    assert cx.monomial_count(3, 2, "total") == math.comb(5, 2) == 10
    assert cx.monomial_count(1, 4, "each") == 5
    assert cx.monomial_count(1, 4, "total") == 5


def test_monomial_exponents_each():
    exps = cx.monomial_exponents(2, 1, "each")
    assert exps == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_monomial_exponents_total():
    exps = cx.monomial_exponents(2, 2, "total")
    assert set(exps) == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}
    assert len(exps) == cx.monomial_count(2, 2, "total")
    for e in cx.monomial_exponents(3, 2, "total"):
        assert sum(e) <= 2


def test_all_zero_is_zero():
    for q in (2, 3, 5):
        s = seq(q, [0] * 6)
        assert cx.nonlinear_complexity(s, 1).value == 0
        assert cx.total_degree_complexity(s, 2).value == 0
        assert cx.linear_complexity(s).value == 0
        assert cx.max_order_complexity(s).value == 0


def test_single_term():
    assert cx.nonlinear_complexity(seq(5, [3]), 1).value == 1
    assert cx.nonlinear_complexity(seq(5, [0]), 1).value == 0
    assert cx.linear_complexity(seq(5, [3])).value == 1


def test_worked_example_inversive_q5():
    # (1, 2, 3): m=1 works with f(x) = x + 1
    rep = cx.nonlinear_complexity(seq(5, [1, 2, 3]), 1)
    assert rep.value == 1
    assert rep.witness is not None
    assert rep.witness.coeffs == (((0,), 1), ((1,), 1))


def test_worked_example_periodic_q7():
    # (6, 1, 3, 6, 1, 3): no 1-variable linear map, but m=2 works
    rep = cx.nonlinear_complexity(seq(7, [6, 1, 3, 6, 1, 3]), 1)
    assert rep.value == 2


def test_berlekamp_massey_examples():
    # impulse: L((0,...,0,1)) = n
    assert cx.linear_complexity(seq(2, [0, 0, 1])).value == 3
    assert cx.linear_complexity(seq(5, [0, 0, 0, 0, 2])).value == 5
    # (1, 2, 3) over F5 satisfies s_j = 2 s_{j-1} + 4 s_{j-2}
    assert cx.linear_complexity(seq(5, [1, 2, 3])).value == 2
    # constant nonzero sequence has L = 1
    assert cx.linear_complexity(seq(3, [2, 2, 2, 2])).value == 1
    # alternating over F2: s_{j} = s_{j-2}
    assert cx.linear_complexity(seq(2, [1, 0, 1, 0, 1, 0])).value == 2


def test_berlekamp_massey_cap_cuts_the_profile():
    # with a cap the scan stops before the first prefix whose length exceeds it
    for q in (2, 5, 9):
        f = field_of_order(q)
        for seed in range(10):
            vals = random_sequence(f, 30, seed).values
            prof = cx._berlekamp_massey(f, vals)[0]
            for cap in range(17):
                assert cx._berlekamp_massey(f, vals, cap)[0] == \
                    list(itertools.takewhile(lambda L: L <= cap, prof))


def test_linear_witness_replays():
    s = seq(5, [1, 2, 3, 1, 0, 2, 4, 4, 3])
    rep = cx.linear_complexity(s)
    w = rep.witness
    assert w is not None
    assert w.replay(F5, s.values[:rep.value], len(s)) == s.values


def test_witness_replay_property():
    for q in (2, 3, 4, 5):
        f = field_of_order(q)
        for seed in range(25):
            s = random_sequence(f, 14, seed)
            for k in (1, 2):
                for fn in (cx.nonlinear_complexity, cx.total_degree_complexity):
                    rep = fn(s, k)
                    if rep.witness is None:
                        assert rep.value == 0
                        continue
                    m = rep.witness.m
                    assert rep.witness.replay(f, s.values[:m], len(s)) == s.values
    # the window scan decides this one; its witness needs 9**8 monomials,
    # so it comes from a span system
    s = seq(9, [0] * 8 + [1])
    rep = cx.max_order_complexity(s)
    assert rep.value == 8
    assert rep.witness.replay(s.field, s.values[:8], len(s)) == s.values


def test_witness_respects_degree_caps():
    s = seq(3, [1, 0, 2, 2, 0, 1, 1, 2])
    for k in (1, 2):
        w = cx.nonlinear_complexity(s, k).witness
        assert all(max(e) <= k for e, _ in w.coeffs)
        w = cx.total_degree_complexity(s, k).witness
        assert all(sum(e) <= k for e, _ in w.coeffs)


def test_profile_matches_direct_computation():
    for q, k, kind in [(2, 1, "nk"), (3, 1, "nk"), (3, 2, "lk"), (5, 2, "nk"),
                       (4, 1, "lk")]:
        f = field_of_order(q)
        s = random_sequence(f, 18, 99 + q)
        prof = cx.profile(s, k, kind)
        direct = [cold_search(f, s.values[:n], k, cx._MODES[kind])[0]
                  for n in range(1, len(s) + 1)]
        assert prof == direct


def test_search_matches_cold_search():
    # window scan (F_2 and F_3 at k = q - 1 "each"), packed systems, and
    # span systems (the inversive sequences, whose m is near n / (k + 1))
    cases = [(random_sequence(F2, 20, 1), 1, "nk"),
             (random_sequence(F3, 16, 2), 2, "nk"),
             (seq(3, [0, 0, 0, 2, 0, 0, 0, 1, 1]), 1, "nk"),
             (random_sequence(F3, 16, 3), 1, "lk"),
             (random_sequence(F5, 14, 4), 2, "nk"),
             (random_sequence(field_of_order(25), 12, 5), 1, "nk"),
             (random_sequence(field_of_order(25), 12, 6), 2, "lk"),
             (inversive_finite(field_of_order(25)), 1, "nk")]
    F29 = field_of_order(29)
    cases += [(inversive_finite(F29, a=a), k, kind)
              for a, k, kind in ((1, 1, "nk"), (2, 2, "nk"), (3, 1, "lk"))]
    spans = 0
    for s, k, kind in cases:
        f, vals, mode = s.field, s.values, cx._MODES[kind]
        prof = cx.profile(s, k, kind)
        for n in range(1, len(s) + 1):
            m, system = cold_search(f, vals[:n], k, mode)
            assert prof[n - 1] == m, (s.field.q, k, kind, n)
        rep = ANALYZERS[kind](s, k)
        assert rep.value == m
        want = None if system is None else cx._witness_from(system, m, k, mode)
        assert rep.witness == want
        spans += isinstance(system, cx._SpanSystem)
        for cap in range(len(s) + 1):
            assert cx.complexity_at_most(f, vals, k, cap, mode) == (m <= cap)
    assert spans >= 3


def test_one_system_per_length_tried(monkeypatch):
    made = []
    new_system = cx._new_system

    def counted(field, m, *args):
        made.append(m)
        return new_system(field, m, *args)

    monkeypatch.setattr(cx, "_new_system", counted)
    s = random_sequence(F3, 20, 7)
    rep = cx.nonlinear_complexity(s, 1, witness=False)
    assert made == list(range(1, rep.value + 1))
    made.clear()
    rep = cx.nonlinear_complexity(inversive_finite(field_of_order(29)), 1)
    assert made == list(range(1, rep.value + 1))
    made.clear()
    # a window scan decides; only the witness builds a system
    s = random_sequence(F2, 20, 7)
    assert cx.nonlinear_complexity(s, 1, witness=False).value > 1
    assert made == []
    rep = cx.nonlinear_complexity(s, 1)
    assert made == [rep.value]


def test_conflicting_windows_build_no_system(monkeypatch):
    made = []
    new_system = cx._new_system

    def counted(field, m, *args):
        made.append(m)
        return new_system(field, m, *args)

    monkeypatch.setattr(cx, "_new_system", counted)
    # the m = 2 system fails at the last term, where the window (1, 2, 0)
    # is followed by 2 after being followed by 1: no map of any degree fits
    # at m = 3, so the search goes on to m = 4 without a system at 3
    s = seq(3, [1, 2, 0, 1, 1, 2, 0, 2])
    assert cx.profile(s, 1, "nk") == [1, 1, 1, 1, 2, 2, 2, 4]
    assert made == [1, 2, 4]
    made.clear()
    # the impulse repeats the zero window below m = n - 1
    assert cx.nonlinear_complexity(seq(3, [0, 0, 0, 0, 1]), 1).value == 4
    assert made == [4]


def check_affine(s, cold):
    """lk at k = 1 (Berlekamp-Massey on the differences) against the cold
    search: the profile at every prefix, the value with its witness, and
    complexity_at_most at every cap.  cold(vals) gives the cold search's
    (value, system) of a prefix."""
    f, vals, n = s.field, s.values, len(s)
    assert cx.profile(s, 1, "lk") == [cold(vals[:i])[0] for i in range(1, n + 1)]
    m, system = cold(vals)
    rep = cx.total_degree_complexity(s, 1)
    assert rep.value == m
    want = None if system is None else cx._witness_from(system, m, 1, "total")
    assert rep.witness == want
    for cap in range(n + 1):
        assert cx.complexity_at_most(f, vals, 1, cap, "total") == (m <= cap)


def test_affine_matches_cold_search_exhaustive():
    # every F_2 sequence of length <= 8 and every F_3 sequence of length <= 6;
    # shorter sequences come first, so every prefix is already in `cold`
    for q, nmax in ((2, 8), (3, 6)):
        f = field_of_order(q)
        cold = {}
        for n in range(1, nmax + 1):
            for vals in itertools.product(range(q), repeat=n):
                cold[vals] = cold_search(f, vals, 1, "total")
                check_affine(Sequence(f, list(vals)), lambda v: cold[tuple(v)])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([4, 5, 7, 8, 9, 25]), st.data())
def test_affine_matches_cold_search_hypothesis(q, data):
    f = field_of_order(q)
    n = data.draw(st.integers(1, 14))
    term = st.one_of(st.just(0), st.integers(0, q - 1))  # zeros are common
    vals = data.draw(st.lists(term, min_size=n, max_size=n))
    check_affine(Sequence(f, vals), lambda v: cold_search(f, v, 1, "total"))


def test_affine_values_build_one_system(monkeypatch):
    made = []
    new_system = cx._new_system

    def counted(field, m, *args):
        made.append(m)
        return new_system(field, m, *args)

    monkeypatch.setattr(cx, "_new_system", counted)
    for s in (random_sequence(F3, 20, 7), inversive_finite(field_of_order(29)),
              hermitian_sequence(4)):
        prof = cx.profile(s, 1, "lk")
        assert cx.total_degree_complexity(s, 1, witness=False).value == prof[-1]
        assert cx.complexity_at_most(s.field, s.values, 1, prof[-1] - 1, "total") is False
        assert made == []
        rep = cx.total_degree_complexity(s, 1)
        assert made == [rep.value] and 1 < rep.value < len(s)
        made.clear()
    # the monomial guard only sees the witness's system of m + 1 columns
    s = inversive_finite(field_of_order(29))
    assert cx.profile(s, 1, "lk", max_monomials=1)[-1] == 13
    assert cx.total_degree_complexity(s, 1, witness=False, max_monomials=1).value == 13
    with pytest.raises(cx.GuardExceeded):
        cx.total_degree_complexity(s, 1, max_monomials=13)
    assert cx.total_degree_complexity(s, 1, max_monomials=14).witness is not None


def test_each_mode_exponents_are_column_digits():
    # a column's exponents are the base-(kcap + 1) digits of its index
    for q, m, k in ((2, 1, 1), (2, 6, 1), (3, 3, 2), (3, 2, 5), (4, 3, 2),
                    (5, 2, 4), (9, 2, 3), (25, 1, 7)):
        system = cx._PackedSystem(field_of_order(q), m, k, "each")
        exps = cx.monomial_exponents(m, k, "each", per_var=q - 1)
        assert system.exponents(range(system.ncols)) == exps
        picked = [system.ncols - 1, 0, system.ncols // 2]
        assert system.exponents(picked) == [exps[c] for c in picked]


def test_span_witness_pinned():
    # a basic solution of the column-space system at m = 13; pinned so that
    # the order in which its rows are fed cannot change unnoticed
    rep = cx.nonlinear_complexity(inversive_finite(field_of_order(29)), 1)
    assert rep.value == 13 and len(rep.witness.coeffs) == 14
    doc = json.dumps(rep.witness.to_json(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == \
        "facefdbf558d7ad3cd69ffcdebb70e00d6c02745510a876e78dea0a5ea833417"


def test_profile_lin_and_moc_dispatch():
    s = seq(2, [1, 1, 0, 1, 0, 0, 1])
    assert cx.profile(s, None, "lin") == cx.linear_profile(s)
    assert cx.profile(s, None, "moc")[-1] == cx.max_order_complexity(s).value


def test_profile_nondecreasing():
    for q in (2, 3, 5):
        f = field_of_order(q)
        for seed in range(10):
            s = random_sequence(f, 20, seed)
            for prof in (cx.profile(s, 1, "nk"), cx.profile(s, 2, "lk"),
                         cx.linear_profile(s)):
                assert all(a <= b for a, b in zip(prof, prof[1:]))


def test_linear_profile_matches_bm():
    for q in (2, 3, 5):
        f = field_of_order(q)
        s = random_sequence(f, 25, 4)
        prof = cx.linear_profile(s)
        direct = [cx.linear_complexity(s.prefix(n), witness=False).value
                  for n in range(1, 26)]
        assert prof == direct


def test_moc_equals_nk_at_large_k():
    for q in (2, 3, 4):
        f = field_of_order(q)
        for seed in range(10):
            s = random_sequence(f, 12, seed)
            moc = cx.max_order_complexity(s, witness=False).value
            assert cx.nonlinear_complexity(s, q - 1, witness=False).value == moc
            assert cx.nonlinear_complexity(s, q, witness=False).value == moc
            assert cx.nonlinear_complexity(s, q + 3, witness=False).value == moc


def test_moc_distinct_window_characterization():
    # MOC is the least m at which equal m-windows always share their successor,
    # since any map on windows extends to a polynomial once k >= q-1
    f = F2
    for seed in range(40):
        s = random_sequence(f, 16, seed)
        moc = cx.max_order_complexity(s, witness=False).value
        if moc == 0:
            continue
        for m in range(1, 16):
            windows = {}
            ok = True
            for i in range(16 - m):
                w = tuple(s.values[i:i + m])
                nxt = s.values[i + m]
                if windows.setdefault(w, nxt) != nxt:
                    ok = False
                    break
            if ok:
                assert moc == m
                break


def test_order_chain():
    for q in (2, 3, 5):
        f = field_of_order(q)
        for seed in range(30):
            s = random_sequence(f, 15, seed)
            L = cx.linear_complexity(s, witness=False).value
            l1 = cx.total_degree_complexity(s, 1, witness=False).value
            n1 = cx.nonlinear_complexity(s, 1, witness=False).value
            assert L >= l1 >= L - 1
            assert l1 >= n1
            for k in (1, 2, 3):
                lk = cx.total_degree_complexity(s, k, witness=False).value
                nk = cx.nonlinear_complexity(s, k, witness=False).value
                assert lk >= nk


def test_antitone_in_k():
    for q in (2, 3, 5):
        f = field_of_order(q)
        for seed in range(20):
            s = random_sequence(f, 15, seed)
            vals = [cx.nonlinear_complexity(s, k, witness=False).value
                    for k in (1, 2, 3, 4)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_brute_force_equivalence_spot():
    # enumeration explodes fast; keep to the envelope where q**ncols is sane
    for seed in range(15):
        s = random_sequence(F2, 6, seed)
        for k in (1, 2):
            assert (cx.brute_force_complexity(s, k) ==
                    cx.nonlinear_complexity(s, k, witness=False).value)
    for seed in range(10):
        s = random_sequence(F3, 4, seed + 100)
        for kind in ("nk", "lk"):
            fn = cx.nonlinear_complexity if kind == "nk" else cx.total_degree_complexity
            assert (cx.brute_force_complexity(s, 2, kind=kind) ==
                    fn(s, 2, witness=False).value)


def test_complexity_at_most_consistency():
    # F_2 at k = 1 takes the window-scan path; the other inputs build systems
    for field, k, mode in ((F3, 1, "each"), (F2, 1, "each"), (F2, 1, "total"),
                           (F3, 2, "total"), (F4, 1, "total")):
        for seed in range(20):
            s = random_sequence(field, 8, seed)
            v = cold_search(field, s.values, k, mode)[0]
            for cap in range(8):
                assert cx.complexity_at_most(field, s.values, k, cap, mode) == (v <= cap)


def test_guard_raises():
    # impulse sequence needs m = n-1, so the monomial guard trips at m = 3
    s = seq(2, [0] * 10 + [1])
    with pytest.raises(cx.GuardExceeded):
        cx.nonlinear_complexity(s, 1, max_monomials=4)
    with pytest.raises(cx.GuardExceeded):
        cx.brute_force_complexity(seq(3, [1, 0, 2, 1, 0, 2, 2, 1]), 2,
                                  max_enum=10)
    err = None
    try:
        cx.nonlinear_complexity(s, 1, max_monomials=4)
    except cx.GuardExceeded as e:
        err = e
    assert err.size > err.limit
    assert isinstance(err, ValueError)


def test_impulse_needs_maximum_order():
    # the all-zero window repeats with conflicting successors at every m < n-1
    for n in (4, 6, 9):
        s = seq(2, [0] * (n - 1) + [1])
        assert cx.nonlinear_complexity(s, 1, witness=False).value == n - 1
        assert cx.max_order_complexity(s, witness=False).value == n - 1


def test_range_invariant():
    for q in (2, 3, 5):
        f = field_of_order(q)
        for seed in range(20):
            s = random_sequence(f, 10, seed)
            if all(v == 0 for v in s.values):
                continue
            for k in (1, 2):
                v = cx.nonlinear_complexity(s, k, witness=False).value
                assert 1 <= v <= len(s) - 1


def test_equal_window_different_successor_forces_growth():
    # two identical windows followed by different symbols rule out that m
    s = seq(2, [0, 0, 1, 0, 0, 0, 1])
    # windows of length 2: (0,0)->1 at i=1 and (0,0)->0 at i=4
    assert cx.nonlinear_complexity(s, 1, witness=False).value > 2


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 4, 5]), st.data())
def test_scalar_invariance(q, data):
    f = field_of_order(q)
    n = data.draw(st.integers(2, 10))
    vals = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    c = data.draw(st.integers(1, q - 1))
    s = Sequence(f, vals)
    t = Sequence(f, [f.mul(c, v) for v in vals])
    for k in (1, 2):
        assert (cx.nonlinear_complexity(s, k, witness=False).value ==
                cx.nonlinear_complexity(t, k, witness=False).value)
    assert (cx.linear_complexity(s, witness=False).value ==
            cx.linear_complexity(t, witness=False).value)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=14))
def test_prefix_monotone_hypothesis(vals):
    s = Sequence(F2, vals)
    prof = cx.profile(s, 1, "nk")
    assert all(a <= b for a, b in zip(prof, prof[1:]))
    assert prof[-1] == cx.nonlinear_complexity(s, 1, witness=False).value


def test_feedback_polynomial_to_json():
    rep = cx.nonlinear_complexity(seq(5, [1, 2, 3]), 1)
    doc = rep.witness.to_json()
    assert doc["m"] == 1 and doc["k"] == 1 and doc["mode"] == "each"
    assert doc["coeffs"] == [{"exp": [0], "c": 1}, {"exp": [1], "c": 1}]
