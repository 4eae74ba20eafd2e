"""Row-by-row differential suite for the packed column-space solver.

The oracle is ScalarSpanSystem below, the column-space system whose
relations are lists of field elements updated with one Field call per
element.  Both systems are fed the same rows, and after every row they
must agree on whether the row is accepted, on each level's basis (the
candidates in pivot order, a candidate named by its parent's basis
position and its exponent) and on the target's relation over the last
basis.  The packed system also refuses rows once one is rejected or
once it has taken the rows it was built for.
"""

import random
from typing import Optional

import pytest

import nlcx.complexity as cx
from nlcx.finite_field import field_of_order
from nlcx.generators import inversive_finite

MODES = ("each", "total")


class ScalarLevel:
    """Level j of a ScalarSpanSystem: the candidate monomials in the first j + 1
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


class ScalarSpanSystem:
    """The column-space system with one Field call per element: the same
    levels, candidates, relations and pivot rule as _SpanSystem, each
    relation a list of field elements.

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

    def __init__(self, field, m, k, mode, rows):
        self.f = field
        self.m, self.k, self.mode = m, k, mode
        self.kcap = min(k, field.q - 1)
        self.ncols = m * (self.kcap + 1) * max(rows, 1)
        self.levels = [ScalarLevel() for _ in range(m)]
        # level 0 grows from the empty monomial, a fixed basis of one
        self._grow(self.levels[0], (), 0, [])
        self.target: list[int] = []  # the target's relation over the last basis

    def _grow(self, lv: ScalarLevel, mon: tuple, deg: int, rel: list[int]):
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

    def exponents(self, cols) -> list[tuple[int, ...]]:
        """The monomials of the given positions of the last level's basis."""
        lv = self.levels[-1]
        return [lv.mons[lv.basis[c]] for c in cols]

    def solution(self) -> list[int]:
        """The target's coefficients over the last level's basis."""
        return list(self.target)


def bases(system):
    """Per level, the basis as (parent basis position, exponent) pairs."""
    if isinstance(system, ScalarSpanSystem):
        return [[lv.src[c] for c in lv.basis] for lv in system.levels]
    K = system.kcap + 1
    return [[divmod(c, K) for c in lv.basis] for lv in system.levels]


def feed_both(field, vals, m, k, mode):
    """Feed the rows of vals to both systems, checking them after every
    row; return the rows accepted."""
    rows = len(vals) - m
    packed = cx._SpanSystem(field, m, k, mode, rows)
    scalar = ScalarSpanSystem(field, m, k, mode, rows)
    for i in range(rows):
        window, target = vals[i:i + m], vals[i + m]
        ok = packed.feed(vals, i + m)
        where = (field.q, vals, m, k, mode, i)
        assert ok == scalar.add(window, target), where
        assert bases(packed) == bases(scalar), where
        assert packed.solution() == scalar.target, where
        if not ok:
            with pytest.raises(ValueError, match="none after a rejected one"):
                packed.feed(vals, i + m)
            return i
    with pytest.raises(ValueError, match=f"takes {rows} rows"):
        packed.feed(vals, m)
    assert packed.exponents(range(len(packed.solution()))) == \
        scalar.exponents(range(len(scalar.target)))
    return rows


@pytest.mark.parametrize("q", [5, 9, 25, 27, 29])
@pytest.mark.parametrize("mode", MODES)
def test_packed_span_matches_scalar_row_by_row(q, mode):
    field = field_of_order(q)
    rng = random.Random(q)
    seqs = [inversive_finite(field).values[:24]]
    seqs += [[rng.randrange(q) for _ in range(rng.randrange(8, 25))] for _ in range(4)]
    full = 0
    for vals in seqs:
        for k in (1, 2, 3):
            for m in range(1, len(vals) - 1, 2):
                full += feed_both(field, vals, m, k, mode) == len(vals) - m
    assert full  # some systems take every row


def test_spent_system_refuses_rows():
    # a rejected row leaves earlier levels updated, so the system must not
    # take another; a caller that tries gets an error, not a wrong answer
    field = field_of_order(5)
    system = cx._SpanSystem(field, 1, 1, "each", 4)
    assert system.feed([1, 2], 1) and system.feed([2, 3], 1)
    assert not system.feed([1, 4], 1)  # x = 1 was followed by 2 before
    with pytest.raises(ValueError, match="none after a rejected one"):
        system.feed([3, 4], 1)
