"""The cell order of packed monomial rows (packed._PackedSystem).

Column c sits in cell ncols - c and the augmented entry in cell 0, so a
row's pivot is its top nonzero cell, read from its bit length.  Checked
here after random rows have been fed, over F_2, F_3, F_4 and F_25, in both
degree modes and in both bases: no pivot row or stored multiple has a cell
above its pivot, and reduce returns the column of the top nonzero cell it
leaves, the row scaled to 1 there and the inverse it scaled by.  The
solver is looked up in the modules that import it, so a patched
complexity._PackedSystem or stats._PackedSystem is the one used.
"""

import random

import pytest

import nlcx.complexity as cx
import nlcx.stats as stats
from nlcx.finite_field import field_of_order
from nlcx.packed import _PackedSystem
from test_packed import CountedBasis, pack, unpack

# (mode, lagrange): the Lagrange basis exists in "each" mode only
BASES = (("each", False), ("each", True), ("total", False))


def top_column(system, row):
    """The column of row's top nonzero cell; ncols for zero or the
    augmented cell alone."""
    at = (row.bit_length() - 1) // system._width
    return system.ncols - at if at > 0 else system.ncols


def fed_systems(q, mode, lagrange, seed):
    f = field_of_order(q)
    rng = random.Random(seed)
    for m, k in ((1, 1), (2, 2), (3, 1), (4, 2), (5, 1), (3, 3)):
        system = _PackedSystem(f, m, k, mode, lagrange)
        # each step clears the row's top nonzero cell for good
        system.basis = CountedBasis((3 * system.ncols + 30) * (system.ncols + 1))
        for _ in range(3 * system.ncols):
            system.feed([rng.randrange(q) for _ in range(m + 1)], m)
        yield system, rng


@pytest.mark.parametrize("q", (2, 3, 4, 25))
@pytest.mark.parametrize("mode, lagrange", BASES)
def test_pivot_rows_hold_no_cell_above_their_pivot(q, mode, lagrange):
    for system, _ in fed_systems(q, mode, lagrange, q):
        assert system.basis, (q, mode, system.m, system.k)
        for c, mults in system.basis.items():
            assert len(mults) == system.e
            for row in mults:
                assert row.bit_length() <= (system.ncols - c + 1) * system._width, (q, c)
            assert top_column(system, mults[0]) == c and system.entry(mults[0], c) == 1


@pytest.mark.parametrize("q", (2, 3, 4, 25))
@pytest.mark.parametrize("mode, lagrange", BASES)
def test_reduce_returns_the_top_nonzero_cell(q, mode, lagrange):
    f = field_of_order(q)
    for system, rng in fed_systems(q, mode, lagrange, 100 + q):
        ncols = system.ncols
        empty = _PackedSystem(f, system.m, system.k, mode, lagrange)
        for _ in range(20):
            window = [rng.randrange(q) for _ in range(system.m)]
            row = system.build_row(window, rng.randrange(q))
            # a fresh system stops at the row's top cell and scales the
            # row to 1 there
            c, left, r = empty.reduce(row)
            assert c == top_column(empty, row) == top_column(empty, left)
            assert unpack(empty, left, ncols + 1) == \
                [f.mul(r, x) for x in unpack(empty, row, ncols + 1)]
            assert r == (1 if c == ncols else f.inv(empty.entry(row, c)))
            c, left, r = system.reduce(row)
            assert c == top_column(system, left) and c not in system.basis
            if c == ncols:
                assert left.bit_length() <= system._width and r == 1
            else:
                assert system.entry(left, c) == 1 and r != 0
        # a row whose top nonzero cell has no pivot row comes back scaled
        # by the inverse of that cell's entry
        free = [c for c in range(ncols) if c not in system.basis]
        for c in free[:5]:
            elems = [0] * c + [rng.randrange(1, q)] + \
                [rng.randrange(q) for _ in range(ncols - c)]
            iv = f.inv(elems[c])
            assert system.reduce(pack(system, elems)) == \
                (c, pack(system, [f.mul(iv, x) for x in elems]), iv)


def test_patched_solver_is_the_one_built(monkeypatch):
    made = []

    def recording(*args):
        system = _PackedSystem(*args)
        made.append(system)
        return system

    monkeypatch.setattr(cx, "_PackedSystem", recording)
    assert cx._new_system(field_of_order(3), 2, 1, "each", 1 << 20, 10) is made[-1]
    monkeypatch.setattr(stats, "_PackedSystem", recording)
    made.clear()
    stats._walk(3, 1, 6, 2, 10 ** 9, 0, 9)
    assert len(made) == 1 and not made[0].monomial
