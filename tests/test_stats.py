import itertools
import math
import pickle
import sys

import pytest

import nlcx.complexity as cx
import nlcx.stats as stats
from nlcx.finite_field import field_of_order
from nlcx.generators import Sequence, child_seed, random_sequence


def test_spot_count_q2_n3_m1():
    # hand enumeration: of the 8 binary triples only 001 and 110 need m = 2
    res = stats.exhaustive_count(2, 1, 3, 1)
    assert res.count == 6
    assert res.bound == 8
    assert res.passed


def test_counting_bound_formula():
    res = stats.exhaustive_count(2, 1, 4, 2)
    assert res.bound == 2 ** ((1 + 1) ** 2 + 2) == 64
    res = stats.exhaustive_count(3, 1, 3, 1)
    assert res.bound == 3 ** 3


def test_count_against_direct_scan():
    q, k, n, m = 2, 1, 6, 2
    f = field_of_order(q)
    direct = 0
    for code in range(q ** n):
        vals, c = [], code
        for _ in range(n):
            vals.append(c % q)
            c //= q
        s = Sequence(f, vals)
        if cx.nonlinear_complexity(s, k, witness=False).value <= m:
            direct += 1
    res = stats.exhaustive_count(q, k, n, m)
    assert res.count == direct
    assert res.count <= res.bound


def test_counting_bound_digits_guard(monkeypatch):
    # 2^(2^13 + 13) has 2,470 digits and prints; 2^(2^14 + 14) has 4,937,
    # past the interpreter's default int-to-str limit of 4,300
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    assert stats._counting_bound(2, 1, 13) == 2 ** 8205
    with pytest.raises(cx.GuardExceeded) as err:
        stats._counting_bound(2, 1, 14)
    assert (err.value.what, err.value.size) == ("count bound digits", 4937)
    with pytest.raises(cx.GuardExceeded) as err:
        stats.exhaustive_count(2, 1000, 5, 4)
    assert err.value.what == "count bound digits"


def test_count_edge_cases():
    # n = 1: all q sequences have complexity <= 1; only the zero one is <= 0
    assert stats.exhaustive_count(3, 1, 1, 1).count == 3
    assert stats.exhaustive_count(3, 1, 1, 0).count == 1
    # m >= n - 1 admits every sequence
    assert stats.exhaustive_count(2, 1, 4, 3).count == 16
    assert stats.exhaustive_count(2, 1, 4, 5).count == 16


def test_count_monotone_in_m():
    prev = 0
    for m in (0, 1, 2, 3, 4):
        c = stats.exhaustive_count(2, 1, 5, m).count
        assert c >= prev
        prev = c
    assert prev == 32
    # exactly the impulse and its complement sit at the n-1 ceiling
    assert stats.exhaustive_count(2, 1, 5, 3).count == 30


def _count_by_enumeration(q: int, k: int, n: int, m: int) -> int:
    """The oracle: complexity_at_most on each of the q^n sequences, by
    integer code with the first term the least significant digit."""
    field = field_of_order(q)
    count = 0
    vals = [0] * n
    for code in range(q ** n):
        for i in range(n):
            code, vals[i] = divmod(code, q)
        if cx.complexity_at_most(field, vals, k, m):
            count += 1
    return count


# criterion 7's grid, then sets over F_3, F_4 and F_5 at k = 1 and 2: the
# window walk where k >= q - 1, the elimination walk elsewhere
ORACLE_SETS = ([(2, 1, n, m) for n in range(3, 13) for m in (1, 2, 3)]
               + [(3, 1, 7, 2), (3, 1, 7, 3), (4, 1, 6, 2), (5, 2, 5, 2),
                  (4, 2, 6, 2), (3, 2, 7, 2), (5, 1, 5, 1), (3, 1, 8, 1)])


def test_count_walk_matches_enumeration():
    for q, k, n, m in ORACLE_SETS:
        assert stats.exhaustive_count(q, k, n, m).count == \
            _count_by_enumeration(q, k, n, m), (q, k, n, m)


def test_orbit_walk_matches_enumeration():
    # the walk's nodes are the prefixes of length m..n that a length-m map
    # fits, so its weighted node total is the sum of the counts at each
    # length; exhaustive_count decides m >= n - 1 without a walk
    for q, k, n, m in ORACLE_SETS:
        if m >= n - 1:
            continue
        assert stats._walk(q, k, n, m, 10 ** 9, 0, q ** m) == (
            _count_by_enumeration(q, k, n, m),
            sum(_count_by_enumeration(q, k, L, m) for L in range(m, n + 1))), \
            (q, k, n, m)


def test_orbit_roots_one_per_affine_orbit():
    # orbits under x -> a*x + b computed with the field's own arithmetic
    for q in (2, 3, 4, 5, 8, 9):
        f = field_of_order(q)
        for m in (1, 2, 3):
            windows = list(itertools.product(range(q), repeat=m))
            orbit = {w: frozenset(tuple(f.add(f.mul(a, x), b) for x in w)
                                  for a in range(1, q) for b in range(q))
                     for w in windows}
            roots = {}
            for code, weight in stats._orbit_roots(q, m, 0, q ** m):
                w = []
                for _ in range(m):
                    code, d = divmod(code, q)
                    w.append(d)
                roots[tuple(w)] = weight
            assert len(roots) == len(set(orbit.values())), (q, m)
            assert {orbit[w] for w in roots} == set(orbit.values()), (q, m)
            assert all(len(orbit[w]) == weight for w, weight in roots.items())


def test_orbit_walk_starts_one_root_per_orbit(monkeypatch):
    started = []
    orbit_roots = stats._orbit_roots

    def counted(*args):
        for root in orbit_roots(*args):
            started.append(root)
            yield root

    monkeypatch.setattr(stats, "_orbit_roots", counted)
    # (3, 1, 9, 3) goes from 27 roots to 5, (2, 1, 17, 4) from 16 to 8
    for q, k, n, m, roots in ((3, 1, 9, 3, 5), (2, 1, 17, 4, 8),
                              (4, 1, 6, 2, 2), (9, 1, 5, 3, 11)):
        started.clear()
        stats.exhaustive_count(q, k, n, m)
        assert len(started) == roots == 1 + (q ** (m - 1) - 1) // (q - 1)
        assert sum(weight for _, weight in started) == q ** m


def test_orbit_walk_splits_at_every_cut():
    q, k, n, m = 3, 1, 8, 2
    for cut in range(q ** m + 1):
        a = stats._walk(q, k, n, m, 10 ** 9, 0, cut)
        b = stats._walk(q, k, n, m, 10 ** 9, cut, q ** m)
        assert (a[0] + b[0], a[1] + b[1]) == (423, 1491), cut


def test_orbit_walk_stops_near_the_budget():
    # a trip stops inside the root whose weighted nodes pass the budget,
    # at most one step past it: q leaves and the next child, weighted by
    # q(q - 1)
    q, k, n, m = 3, 1, 8, 2
    for budget in range(1, 1491, 7):
        nodes = stats._walk(q, k, n, m, budget, 0, q ** m)[1]
        assert budget < nodes <= budget + (q + 1) * q * (q - 1), budget


def test_count_pinned_and_reach_values():
    # the two counts of the benchmark's experiments workload, which the
    # enumeration reached in seconds, then lengths that no enumeration reaches
    assert stats.exhaustive_count(2, 1, 17, 4).count == 6010
    assert stats.exhaustive_count(3, 1, 9, 3).count == 12297
    assert stats.exhaustive_count(2, 1, 64, 2).count == 26
    assert stats.exhaustive_count(2, 1, 64, 4).count == 7882
    # walks in the Lagrange basis over F_4 (char 2, e = 2) and F_5, and at k = 2
    assert stats.exhaustive_count(4, 1, 7, 2).count == 2764
    assert stats.exhaustive_count(5, 1, 6, 2).count == 10365
    assert stats.exhaustive_count(3, 2, 8, 2).count == 1611


def test_count_walk_needs_no_recursion():
    # 5000 levels deep, past the interpreter's recursion limit
    assert stats.exhaustive_count(2, 1, 5000, 1).count == 6


def test_count_guard():
    # max_sequences bounds the nodes the walk visits, not q^n: 2^40
    # sequences take 958 nodes
    assert stats.exhaustive_count(2, 1, 40, 2).count == 26
    with pytest.raises(cx.GuardExceeded, match="count walk nodes"):
        stats.exhaustive_count(2, 1, 10, 2, max_sequences=100)  # 178 nodes
    # 2053 roots with up to 2053 children each, over the default budget
    with pytest.raises(cx.GuardExceeded, match="count walk nodes"):
        stats.exhaustive_count(2053, 1, 3, 1)
    # the roots and the all-zero path, q^m + n - m, are checked up front
    with pytest.raises(cx.GuardExceeded, match="size 1000000002 exceeds"):
        stats.exhaustive_count(2, 1, 10 ** 9, 2)


def test_count_column_guard_trips_when_the_walk_builds_its_system(monkeypatch):
    # The bound's exponent (k+1)^m + m is at least the column count, so at
    # the default int-to-str limit the digit guard trips first; with the
    # bound out of the way the walk's own system refuses 2**21 columns
    # when it is built, before any mask or root (roots are stubbed out, so
    # a walk without the guard ends at once instead of running for hours)
    from test_packed import traced
    monkeypatch.setattr(stats, "_counting_bound", lambda q, k, m: 0)
    monkeypatch.setattr(stats, "_orbit_roots", lambda *args: iter(()))
    walks, walk = [], stats._walk
    monkeypatch.setattr(stats, "_walk", lambda *args: walks.append(args) or walk(*args))
    errors = []

    def count():
        try:
            stats.exhaustive_count(3, 1, 23, 21, max_sequences=3 ** 22)
        except cx.GuardExceeded as err:
            errors.append((err.what, err.size, err.limit))

    assert traced(count)[1] < 64 * 1024
    assert errors == [("monomial set", 2 ** 21, 2 ** 20)]
    assert len(walks) == 1


def test_count_thread_invariance():
    for args in ((2, 1, 8, 2), (3, 1, 9, 3)):
        a = stats.exhaustive_count(*args, threads=1)
        b = stats.exhaustive_count(*args, threads=3)
        assert a == b
    # (3, 1, 8, 2) visits 1491 nodes; the guard trips below that at any
    # worker count, though no shard alone then exceeds it
    assert stats._walk(3, 1, 8, 2, 10 ** 9, 0, 9) == (423, 1491)
    for threads in (1, 3):
        assert stats.exhaustive_count(3, 1, 8, 2, max_sequences=1491,
                                      threads=threads).count == 423
        with pytest.raises(cx.GuardExceeded, match="count walk nodes"):
            stats.exhaustive_count(3, 1, 8, 2, max_sequences=1490,
                                   threads=threads)


def test_worker_count_is_clamped(monkeypatch):
    # only the arithmetic is checked; no worker process is started
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 4)
    assert stats._worker_count(100000, 16) == 4
    assert stats._worker_count(3, 16) == 3
    assert stats._worker_count(8, 2) == 2
    assert stats._worker_count(1, 16) == 1
    assert stats._worker_count(0, 16) == 1
    monkeypatch.setattr(stats.os, "cpu_count", lambda: None)
    assert stats._worker_count(8, 16) == 1


def test_guard_trip_in_a_worker_keeps_its_type(monkeypatch):
    err = pickle.loads(pickle.dumps(cx.GuardExceeded("x", 5, 4)))
    assert type(err) is cx.GuardExceeded
    assert (err.what, err.size, err.limit, str(err)) == \
        ("x", 5, 4, "x: size 5 exceeds guard 4")
    # two workers however many CPUs the host has
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 2)
    for threads in (1, 2):
        with pytest.raises(cx.GuardExceeded, match="monomial set"):
            stats.monte_carlo_profile(5, 1, [30], 4, 1, threads=threads,
                                      max_monomials=10)


def test_monte_carlo_profile_deterministic():
    a = stats.monte_carlo_profile(2, 1, [8, 16], 40, seed=11)
    b = stats.monte_carlo_profile(2, 1, [8, 16], 40, seed=11)
    c = stats.monte_carlo_profile(2, 1, [8, 16], 40, seed=12)
    assert a == b
    assert a != c


def test_monte_carlo_profile_thread_invariance():
    a = stats.monte_carlo_profile(3, 1, [6, 12], 30, seed=5, threads=1)
    b = stats.monte_carlo_profile(3, 1, [6, 12], 30, seed=5, threads=4)
    assert a.rows == b.rows


def test_monte_carlo_rows_are_coherent():
    ps = stats.monte_carlo_profile(2, 1, [4, 8, 16], 60, seed=3)
    assert [r.n for r in ps.rows] == [4, 8, 16]
    for r in ps.rows:
        assert r.vmin <= r.p05 <= r.p50 <= r.p95 <= r.vmax
        assert r.vmin <= r.mean <= r.vmax
        assert 0 <= r.below1 <= 1 and 0 <= r.below2 <= 1
        assert r.below2 <= r.below1
        assert r.ref == pytest.approx(math.log2(r.n))
        assert 0 <= r.vmax <= r.n - 1


def test_monte_carlo_grid_is_sorted_and_deduped():
    ps = stats.monte_carlo_profile(2, 1, [8, 4, 8], 10, seed=1)
    assert ps.grid == (4, 8)


def test_monte_carlo_rejects_bad_grid():
    with pytest.raises(ValueError):
        stats.monte_carlo_profile(2, 1, [], 10, seed=1)
    with pytest.raises(ValueError):
        stats.monte_carlo_profile(2, 1, [0, 4], 10, seed=1)
    with pytest.raises(ValueError):
        stats.monte_carlo_profile(2, 1, [4], 0, seed=1)


def test_empirical_constant_positive_for_growing_profile():
    ps = stats.monte_carlo_profile(2, 1, [4, 8, 16, 32], 50, seed=9)
    c = stats.empirical_constant(ps)
    assert c > 0
    with pytest.raises(ValueError):
        stats.empirical_constant(
            stats.monte_carlo_profile(2, 1, [4, 8], 10, seed=1))


def _window_scan_moc(vals) -> int:
    """Least m at which equal m-windows always carry the same successor.

    The README's `moc` definition, with its conventions: the all-zero
    sequence has complexity 0 and any other sequence at least 1.
    """
    if not any(vals):
        return 0
    for m in range(1, len(vals)):
        successor = {}
        if all(successor.setdefault(tuple(vals[i:i + m]), vals[i + m])
               == vals[i + m] for i in range(len(vals) - m)):
            return m
    return len(vals)


def test_criterion_10_means_match_window_scan():
    # criterion 10's pinned samples, solved without the complexity module:
    # over F_2, N^(1) is the maximum-order complexity
    grid, samples, seed = [16, 32, 64, 128], 500, 20260816
    ps = stats.monte_carlo_profile(2, 1, grid, samples, seed=seed)
    f2 = field_of_order(2)
    seqs = [random_sequence(f2, max(grid), child_seed(seed, i)).values
            for i in range(samples)]
    means = [sum(_window_scan_moc(v[:n]) for v in seqs) / samples
             for n in grid]
    assert [r.mean for r in ps.rows] == means


def test_nearest_rank_percentiles():
    rows = stats.monte_carlo_profile(2, 1, [8], 1, seed=2).rows
    # with a single sample every percentile is that sample
    r = rows[0]
    assert r.vmin == r.p05 == r.p50 == r.p95 == r.vmax
