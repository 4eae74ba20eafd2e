"""Differential suite for the packed monomial system (_PackedSystem).

The oracle is ListSystem below: Gaussian elimination on rows that hold one
field element per column, updated with one Field add and mul at a time.
Both systems are fed the same rows at every feedback length m, and they
must agree on every row they build, on the rows they accept, on every
pivot row and on the solution, and so on the canonical witness.  The slot
arithmetic of the packed rows, and the multiples x**i * b stored with each
pivot row b, are checked on their own against element-wise Field
arithmetic, at every field shape the workbench supports.
"""

import itertools
import random
import tracemalloc

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import nlcx.complexity as cx
from nlcx.finite_field import field_of_order

MODES = ("each", "total")


class ListSystem:
    """Reference monomial system: a row is a list of field elements, the
    augmented entry last.  Each row is eliminated against the pivot rows
    in column order up to its first nonzero column without one, which
    becomes its pivot, and is stored scaled to 1 there."""

    def __init__(self, field, m, k, mode):
        self.f = field
        self.m, self.k, self.mode = m, k, mode
        self.kcap = min(k, field.q - 1)
        self.exps = cx.monomial_exponents(m, k, mode, per_var=self.kcap)
        self.ncols = len(self.exps)
        self.basis = {}

    def exponents(self, cols):
        return [self.exps[c] for c in cols]

    def build_row(self, window, target):
        f = self.f
        row = []
        for exps in self.exps:
            term = 1
            for v, e in zip(window, exps):
                term = f.mul(term, f.pow(v, e))
            row.append(term)
        return row + [target]

    def reduce(self, row):
        f = self.f
        for c in range(self.ncols):
            v = row[c]
            if v == 0:
                continue
            b = self.basis.get(c)
            if b is None:
                return c
            nv = f.neg(v)
            for j in range(c, self.ncols + 1):
                row[j] = f.add(row[j], f.mul(nv, b[j]))
        return self.ncols

    def add(self, window, target):
        row = self.build_row(window, target)
        c = self.reduce(row)
        if c == self.ncols:
            return row[c] == 0
        iv = self.f.inv(row[c])
        self.basis[c] = [self.f.mul(iv, x) for x in row]
        return True

    def feed(self, vals, t):
        return self.add(vals[t - self.m:t], vals[t])

    def solution(self):
        f = self.f
        sol = [0] * self.ncols
        for c in sorted(self.basis, reverse=True):
            row = self.basis[c]
            acc = row[self.ncols]
            for j in range(c + 1, self.ncols):
                acc = f.sub(acc, f.mul(row[j], sol[j]))
            sol[c] = acc
        return sol


def pack(system, elems):
    """The packed row of a list of field elements, one per column."""
    row = 0
    for c, v in enumerate(elems):
        row = system.put(row, c, v)
    return row


def unpack(system, row, slots):
    return [system.entry(row, c) for c in range(slots)]


def packed_vs_oracle(field, vals, k, mode, max_columns=None):
    """Feed both systems the rows of vals at every m; return the rows
    accepted at each m after checking that the systems agree throughout."""
    n = len(vals)
    accepted = {}
    for m in range(1, n):
        if max_columns and cx.monomial_count(m, k, mode, field.q - 1) > max_columns:
            break
        packed = cx._PackedSystem(field, m, k, mode)
        # each row's elimination clears its lowest nonzero column for good,
        # so a broken one fails here instead of spinning
        packed.basis = CountedBasis((n - m) * (packed.ncols + 1))
        oracle = ListSystem(field, m, k, mode)
        assert packed.ncols == oracle.ncols
        slots = packed.ncols + 1
        rows = 0
        for i in range(n - m):
            window, target = vals[i:i + m], vals[i + m]
            assert unpack(packed, packed.build_row(window, target), slots) == \
                oracle.build_row(window, target), (field.q, vals, k, mode, m, i)
            ok = packed.feed(vals, i + m)
            assert ok == oracle.feed(vals, i + m), (field.q, vals, k, mode, m, i)
            if not ok:
                break
            rows += 1
        assert sorted(packed.basis) == sorted(oracle.basis)
        for c, mults in packed.basis.items():
            assert unpack(packed, mults[0], slots) == oracle.basis[c]
        assert packed.solution() == oracle.solution()
        assert cx._witness_from(packed, m, k, mode) == \
            cx._witness_from(oracle, m, k, mode)
        accepted[m] = rows
    return accepted


def test_packed_matches_oracle_exhaustively_f2():
    F2 = field_of_order(2)
    for vals in itertools.product(range(2), repeat=7):
        for k, mode in ((1, "each"), (1, "total"), (2, "total")):
            packed_vs_oracle(F2, list(vals), k, mode)


def test_packed_matches_oracle_exhaustively_f3():
    F3 = field_of_order(3)
    for vals in itertools.product(range(3), repeat=5):
        for k in (1, 2):
            for mode in MODES:
                packed_vs_oracle(F3, list(vals), k, mode)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 4, 5, 7, 8, 9, 25, 27, 49]), st.data())
def test_packed_matches_oracle_hypothesis(q, data):
    field = field_of_order(q)
    vals = data.draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=12))
    k = data.draw(st.integers(1, 3))
    mode = data.draw(st.sampled_from(MODES))
    packed_vs_oracle(field, vals, k, mode, max_columns=256)


# p in {2, 3, 5, 7, 251, 65521}, then F_4, F_8, F_9, F_25, F_3^10, F_2^16
SLOT_FIELDS = (2, 3, 5, 7, 251, 65521, 4, 8, 9, 25, 3 ** 10, 2 ** 16)


def test_slot_arithmetic_matches_field():
    rng = random.Random(7)
    for q in SLOT_FIELDS:
        f = field_of_order(q)
        system = cx._PackedSystem(f, 3, 2, "each")  # 27 columns
        slots = system.ncols + 1
        top = q - 1
        for trial in range(30):
            if trial == 0:  # every slot at its largest value before reduction
                a, r, b = f.neg(1), [top] * slots, [top] * slots
            else:
                a = rng.randrange(q)
                r = [rng.randrange(q) for _ in range(slots)]
                b = [rng.randrange(q) for _ in range(slots)]
            # r + a * b, a * b from the digits of a's cell times x**i * b
            row = system.muladd([pack(system, r)], [system._cell_of(a)], pack(system, b))[0]
            assert unpack(system, row, slots) == \
                [f.add(x, f.mul(a, y)) for x, y in zip(r, b)], (q, trial)
            if a:
                assert unpack(system, system.scaled(pack(system, b), a), slots) == \
                    [f.mul(a, y) for y in b], (q, trial)
            # the pivot is the lowest nonzero column; reduce scales it to 1
            lead = rng.randrange(slots - 1)
            r = [0] * lead + [rng.randrange(1, q)] + \
                [rng.randrange(q) for _ in range(slots - lead - 1)]
            c, row, iv = system.reduce(pack(system, r))
            assert c == lead and iv == f.inv(r[lead]), (q, trial)
            assert unpack(system, row, slots) == [f.mul(iv, x) for x in r], (q, trial)
        # the multiply-shift reduction is exact up to the largest slot value
        if f.p > 2:
            biggest = (f.p - 1) * (1 + f.e * (f.p - 1))
            values = [biggest - d for d in range(min(10, biggest + 1))] + \
                [0, 1, f.p - 1, f.p, f.p + 1, 2 * f.p - 1]
            values += [rng.randrange(biggest + 1) for _ in range(slots - len(values))]
            x = sum(v << c * system.w for c, v in enumerate(values))
            got = system._mod(x)
            assert [got >> c * system.w & system._slot for c in range(len(values))] \
                == [v % f.p for v in values], q


class CountedBasis(dict):
    """A pivot-row store that counts reduce's steps, one get() per step,
    and fails once they pass a limit instead of letting reduce spin."""

    def __init__(self, limit):
        super().__init__()
        self.left = limit

    def get(self, key, default=None):
        self.left -= 1
        assert self.left >= 0, "reduce took more steps than columns"
        return super().get(key, default)


def test_pivot_rows_stored_with_their_multiples():
    # eliminating a column adds integer multiples of x**i * b, so each
    # stored multiple must be x**i times the pivot row b, entry by entry
    rng = random.Random(5)
    for q in SLOT_FIELDS:
        f = field_of_order(q)
        system = cx._PackedSystem(f, 3, 2, "each")
        slots = system.ncols + 1
        # each step clears the row's lowest nonzero column for good
        system.basis = CountedBasis(12 * slots)
        for _ in range(12):
            system.feed([rng.randrange(q) for _ in range(4)], 3)
        assert system.basis, q
        for c, mults in system.basis.items():
            assert len(mults) == f.e
            b = unpack(system, mults[0], slots)
            assert b[c] == 1 and not any(b[:c]), (q, c)
            for i, row in enumerate(mults):
                assert unpack(system, row, slots) == \
                    [f.mul(f.p ** i, x) for x in b], (q, c, i)


def traced(run):
    """(left, peak): the memory that tracemalloc sees allocated by run() and
    still held when it returns, and the most held while it ran."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_large_fields_build_rows_and_allocate_no_field_sized_table():
    # one entry per field element would take 8 bytes * q alone.  A first
    # run fills the caches keyed by system shape, so what it leaves held
    # shows a cached table; the peak of a second run, which meets those
    # caches warm, shows a transient one
    rng, seqs = random.Random(11), random.Random(12)
    for q in (65521, 2 ** 16, 3 ** 10):
        f = field_of_order(q)  # the field's own tables are built here
        vals = [rng.randrange(q) for _ in range(6)]

        def against_oracle():
            for k, mode in ((2, "each"), (3, "total")):
                packed_vs_oracle(f, vals, k, mode, max_columns=64)

        left, peak = traced(against_oracle)[0], traced(against_oracle)[1]
        assert left < q and peak < q, (q, left, peak)
        # a packed system keeps no state per multiplier it has seen, so
        # many rows with many distinct entries cost no more
        seq = [seqs.randrange(q) for _ in range(200)]

        def packed_only():
            system = cx._PackedSystem(f, 2, 2, "each")
            for t in range(2, 200):
                system.feed(seq, t)

        left, peak = traced(packed_only)[0], traced(packed_only)[1]
        assert left < q and peak < q, (q, left, peak)


def test_column_guard_trips_before_any_row_layout():
    # 2**21 columns of F_3: each layout mask of 6-bit cells would take
    # 1.5 MB, so the constructor must refuse before it builds one
    f = field_of_order(3)
    errors = []

    def build():
        for lagrange in (False, True):
            try:
                cx._PackedSystem(f, 21, 1, "each", lagrange, cx.DEFAULT_MAX_MONOMIALS)
            except cx.GuardExceeded as err:
                errors.append((err.what, err.size, err.limit))

    assert traced(build)[1] < 64 * 1024
    assert errors == [("monomial set", 2 ** 21, 2 ** 20)] * 2
    # the guard is inclusive, in both modes
    assert cx._PackedSystem(f, 3, 2, "total", False, 10).ncols == 10
    with pytest.raises(cx.GuardExceeded, match="monomial set: size 10 exceeds guard 9"):
        cx._PackedSystem(f, 3, 2, "total", False, 9)
    assert cx._PackedSystem(f, 3, 2, "each", True, 27).ncols == 27
