"""The Lagrange basis that decides per-variable-cap ("each") systems.

Without a witness, profile, complexity_at_most, verify and the count walk
build "each"-mode packed systems in the Lagrange basis on the nodes with
encodings 0..kcap instead of the monomials.  The change of basis is a
tensor power of an invertible Vandermonde matrix, so every decision must
be the one the monomial basis makes: checked here row by row on the
systems, on whole profiles and caps through the monomial search that
witnesses use, and on the count walk.  The basis values themselves are
checked against their definition.
"""

import itertools
import random

import pytest

import nlcx.complexity as cx
import nlcx.stats as stats
from nlcx.finite_field import field_of_order
from nlcx.generators import Sequence, random_sequence
from nlcx.packed import basis_values

# char 2 and e > 1 included; each field has a k < q - 1
FIELDS = (3, 4, 5, 7, 8, 9, 25, 27)


def caps(q):
    return range(1, min(3, q - 2) + 1)


def values_at(f, basis, v, cap):
    """[b_0(v), ..., b_cap(v)] from basis[v]'s chain of steps (r, t):
    b_t(v) is r (v where r = 0) times the previous step's value."""
    out, value, last = [0] * (cap + 1), 1, -1
    for r, t in basis[v]:
        assert last < t <= cap, (v, t)  # t increasing
        value = f.mul(value, r or v)
        assert value, (v, t)  # only nonzero values are listed
        out[t], last = value, t
    return out


def sequences(q, k, count, n, seed):
    """Random sequences over F_q, and as many using only the node values
    0..k, where every Lagrange block is a unit vector."""
    rng = random.Random(seed)
    top = min(k, q - 1) + 1
    return ([[rng.randrange(q) for _ in range(n)] for _ in range(count)]
            + [[rng.randrange(top) for _ in range(n)] for _ in range(count)])


def test_lagrange_values_interpolate_on_the_nodes():
    for q in FIELDS:
        f = field_of_order(q)
        for cap in caps(q):
            lag = basis_values(f, cap)
            mono = cx._PackedSystem(f, 1, cap, "each")._same  # at every v != 0
            nodes = range(cap + 1)
            for u in nodes:  # L_t(u) = 1 if t = u else 0
                want = [int(t == u) for t in nodes]
                assert values_at(f, lag, u, cap) == want, (q, cap)
            for v in range(q):
                L = values_at(f, lag, v, cap)
                if v:
                    assert values_at(f, {v: mono}, v, cap) == [f.pow(v, j) for j in nodes]
                for j in nodes:  # sum_t L_t(v) * t**j = v**j
                    acc = 0
                    for t in nodes:
                        acc = f.add(acc, f.mul(L[t], f.pow(t, j)))
                    assert acc == f.pow(v, j), (q, cap, v, j)
            # the Lagrange values are stored as they are read, and a
            # Lagrange system keeps no monomial chain
            assert len(lag) == q
            assert cx._PackedSystem(f, 1, cap, "each", True)._same is None


def test_lagrange_rows_hold_the_lagrange_values():
    # column (t_0, ..., t_{m-1}) of an "each"-mode Lagrange row holds
    # prod_j b_{t_j}(v_j), b_t(x) = prod_{u != t} (x - u) / (t - u) over the
    # nodes u = 0..kcap; so a window of nodes alone is a unit row
    for q, k, m in ((3, 1, 3), (4, 1, 3), (5, 2, 2), (7, 3, 2), (9, 2, 2), (8, 2, 2)):
        f = field_of_order(q)
        system = cx._PackedSystem(f, m, k, "each", True)
        cap = system.kcap
        nodes = range(cap + 1)

        def b(t, x):
            acc = 1
            for u in nodes:
                if u != t:
                    acc = f.mul(acc, f.mul(f.sub(x, u), f.inv(f.sub(t, u))))
            return acc

        cols = list(itertools.product(nodes, repeat=m))  # lex, last fastest
        assert len(cols) == system.ncols
        for window in itertools.product(range(q), repeat=m):
            row = system.build_row(list(window), 0)
            for c, ts in enumerate(cols):
                want = 1
                for t, v in zip(ts, window):
                    want = f.mul(want, b(t, v))
                assert system.entry(row, c) == want, (q, k, window, ts)
            if max(window) <= cap:
                assert row == system.put(0, cols.index(window), 1), (q, window)


def rows_agree(f, vals, k, m):
    """Feed the rows of vals to a Lagrange and a monomial system of length
    m; before each row, the row with target 0 must be dependent in both
    or in neither, with the same forced term, and then both must accept
    or reject it and reach the same rank."""
    lag = cx._PackedSystem(f, m, k, "each", True)
    mono = cx._PackedSystem(f, m, k, "each")
    assert mono.monomial and not lag.monomial
    for i in range(len(vals) - m):
        window = vals[i:i + m]
        forced = []
        for system in (lag, mono):
            c, row, _ = system.reduce(system.build_row(window, 0))
            dependent = c == system.ncols
            forced.append(system.entry(row, system.ncols) if dependent else None)
        assert forced[0] == forced[1], (f.q, vals, k, m, i)
        ok = lag.feed(vals, i + m)
        assert ok == mono.feed(vals, i + m), (f.q, vals, k, m, i)
        assert len(lag.basis) == len(mono.basis), (f.q, vals, k, m, i)
        if not ok:
            return


def test_lagrange_and_monomial_systems_agree_row_by_row():
    for q in FIELDS:
        f = field_of_order(q)
        for k in caps(q):
            for vals in sequences(q, k, 4, 14, q * 10 + k):
                for m in range(1, 5):
                    if cx.monomial_count(m, k, "each", q - 1) <= 256:
                        rows_agree(f, vals, k, m)


@pytest.fixture
def made(monkeypatch):
    """Every system _new_system returns, in order."""
    out = []
    new_system = cx._new_system

    def recording(*args):
        system = new_system(*args)
        out.append(system)
        return system

    monkeypatch.setattr(cx, "_new_system", recording)
    return out


def test_lagrange_decisions_match_the_monomial_search(made):
    # the monomial search is the one a witness runs: the same profile, and
    # complexity_at_most at every cap matches its final value
    for q in FIELDS:
        f = field_of_order(q)
        for k in caps(q):
            for vals in sequences(q, k, 3, 24, q * 100 + k):
                n = len(vals)
                mono = cx._search(f, vals, k, "each", cx.DEFAULT_MAX_MONOMIALS, n,
                                  True)[0]
                assert cx.profile(Sequence(f, vals), k, "nk") == mono, (q, k, vals)
                for cap in range(n + 1):
                    assert cx.complexity_at_most(f, vals, k, cap) == (mono[-1] <= cap)
    packed = [s for s in made if isinstance(s, cx._PackedSystem)]
    assert any(not s.monomial for s in packed)
    assert any(s.monomial for s in packed)


def test_count_walk_agrees_with_the_monomial_walk(monkeypatch):
    sets = [(3, 1, 9, 3), (4, 1, 7, 2), (5, 1, 6, 2), (3, 2, 8, 2), (7, 1, 5, 2),
            (8, 2, 5, 2), (9, 1, 5, 2)]
    got = {s: stats._walk(*s, 10 ** 9, 0, s[0] ** s[3]) for s in sets}
    monkeypatch.setattr(stats, "_PackedSystem", lambda field, m, k, mode, lagrange, limit:
                        cx._PackedSystem(field, m, k, mode, False, limit))
    for s in sets:
        assert stats._walk(*s, 10 ** 9, 0, s[0] ** s[3]) == got[s], s


def test_lagrange_system_gives_no_witness():
    f = field_of_order(5)
    vals = random_sequence(f, 12, 3).values
    system = cx._PackedSystem(f, 2, 1, "each", True)
    for t in range(2, len(vals)):
        if not system.feed(vals, t):
            break
    with pytest.raises(ValueError):
        system.solution()
    with pytest.raises(ValueError):
        system.exponents([0])
    with pytest.raises(ValueError):
        cx._witness_from(system, 2, 1, "each")
    # "total" mode keeps its monomials
    total = cx._PackedSystem(f, 2, 2, "total", True)
    assert total.monomial
    assert total.exponents(range(total.ncols)) == cx.monomial_exponents(2, 2, "total")


def test_witness_search_builds_monomial_systems(made):
    for q in (3, 5, 9):
        s = random_sequence(field_of_order(q), 30, q)
        rep = cx.nonlinear_complexity(s, 1)
        assert rep.witness.replay(s.field, s.values, len(s)) == s.values
    assert made and all(s.monomial for s in made if isinstance(s, cx._PackedSystem))
