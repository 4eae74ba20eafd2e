"""The column-space solver system (_SpanSystem).

It decides whether a feedback system's targets lie in the span of its
monomial columns without listing the monomials.  complexity._new_system
picks it where the monomials outnumber its candidate columns and also
cost more; every other system is a packed monomial one (packed.py).
"""

from __future__ import annotations

from itertools import repeat
from operator import and_, lshift, or_, rshift

from .finite_field import Field
from .packed import PackedVectors


class _SpanLevel:
    """Level j of a _SpanSystem.  Candidate K * i + e is b_i * x_j**e,
    K = kcap + 1 and b_i the member at basis position i of level j - 1.
    Each candidate's relation over the basis is kept in packed vectors
    twice: coefficient t of candidate c's is in cell c + 1 of cols[t], and
    of candidate K * i + e's in cell K * t + e of blocks[i].  Cell 0 of
    cols[t] is the target's, at the last level."""

    def __init__(self):
        self.mons, self.degs = [], []  # per candidate: exponent vector, degree
        self.cols, self.blocks = [], []  # packed relations, as above
        self.basis: list[int] = []  # candidate indices, in pivot order
        self.free: dict[int, int] = {}  # degree -> cells of its candidates not in the basis
        self.grows: dict[int, tuple] = {}  # row -> _grow's arguments, due before it (lengthen)


class _SpanSystem(PackedVectors):
    """Column-space system: decides whether the targets lie in the span of
    the monomial columns without listing the monomials.

    Level j keeps a basis of at most r monomial columns in the first j + 1
    variables (r rows fed), picked from the candidates b * x_j**e with b in
    level j - 1's basis, and every candidate's relation over it on the
    rows fed so far.  Products of a spanning set with the powers of x_j
    span every monomial in one more variable, so the last level spans all
    monomial columns.  The lowest-degree candidate with a nonzero residual
    becomes the pivot, the first in candidate order among those, so a
    relation only uses basis members of at most the candidate's degree; in
    "total" mode that keeps every product needed by a new candidate's
    relation in range, and a candidate over the cap is never a pivot and
    holds values that no other reads.  A row costs O(m * r) operations on
    packed vectors of at most (k + 1) * r cells (combine and muladd, one
    per col or block).  Below 64 rows a slot holds 64 products, so each
    combine reduces once; above, 8, which keeps the vectors narrower.
    ncols is the most candidate columns the system holds for `rows` rows.
    It takes no more rows, nor any after feed() returns False except
    through lengthen, since the rejected row has updated some levels.

    Rows are numbered in the order fed.  Per row, the system records the
    next level the row has to run and the basis values of the level before
    at the row (its parents there), and per row the pivot the last level
    took there, if any: so lengthen carries every row fed on to one more
    level, which costs a carried row O(r) operations instead of O(m * r).
    """

    def __init__(self, field: Field, m: int, k: int, mode: str, rows: int):
        self.f = field
        self.m, self.k, self.mode = m, k, mode
        self.kcap = min(k, field.q - 1)
        K = self.kcap + 1
        self.rows = self._cap = rows = max(rows, 1)
        self.ncols = m * K * rows
        self.fed = 0  # rows fed, None after a rejected one
        self._track: list[tuple[int, int]] = []  # per row: (next level, its parents)
        self._joined: dict[int, tuple] = {}  # row -> the last level's pivot, as _grow's arguments
        super().__init__(field, K * rows + 1, max(field.e, 64 if rows < 64 else 8))
        self._at = [c * self._width for c in range(K * rows + 1)]  # cell offsets
        self._chunk = (1 << K * self._width) - 1  # K cells
        self._units = ((1 << K * rows * self._width) - 1) // self._chunk * self._cell  # cell K*t
        self._powers_of: dict[int, int] = {}  # v -> v**e in cell e
        self.levels = [_SpanLevel() for _ in range(m)]
        # level 0 grows from the empty monomial, a fixed basis of one
        self._grow(self.levels[0], 0, (), 0, [])

    @property
    def store(self):
        """What the search hands the next length's system (_PackedSystem
        keeps its rows there): this system, which _new_system lengthens."""
        return self

    def lengthen(self, rows: int):
        """Make this the system of length m + 1 for `rows` rows in place,
        to be fed the rows fed so far again, in order, each with its target
        one term later.  Row i's level j reads term i + j, so levels
        0..m - 1 keep what they hold: the last becomes an inner level, with
        no target coefficients, and a new level m is appended, into which
        the last level's pivots grow at their rows (grows), before the new
        level takes each.  A row fed again runs only the levels it has not
        been through.  The vectors keep their cells and product count."""
        if rows > self._cap:
            raise ValueError(f"a span system holds {self._cap} rows, not {rows}")
        last, width = self.levels[-1], self._width
        last.cols = [col >> width << width for col in last.cols]
        self.levels.append(_SpanLevel())
        self.levels[-1].grows, self._joined = self._joined, {}
        self.m += 1
        self.rows = max(rows, 1)
        self.ncols = self.m * (self.kcap + 1) * self.rows
        self.fed = 0

    def _grow(self, lv: _SpanLevel, i: int, mon: tuple, deg: int, rel: list[int]):
        """Add the candidates mon * x_j**e of parent i, whose relation had the
        coefficients rel before it was a pivot: theirs combine the blocks."""
        K, at = self.kcap + 1, self._at
        block = self.combine(rel, lv.blocks)
        for e in range(K):
            lv.mons.append(mon + (e,))
            lv.degs.append(deg + e)
            if self.mode == "each" or deg + e <= self.k:
                lv.free[deg + e] = lv.free.get(deg + e, 0) | self._cell << at[K * i + e + 1]
        lv.blocks.append(block)
        chunks = map(and_, map(rshift, repeat(block), at[0:K * len(lv.cols):K]),
                     repeat(self._chunk))
        lv.cols = list(map(or_, lv.cols, map(lshift, chunks, repeat(at[K * i + 1]))))

    def feed(self, vals, t: int) -> bool:
        """Whether the targets stay in the span of the monomial columns
        with the equation of target t, vals[t - m:t] -> vals[t], from the
        first level this row has not been through (lengthen)."""
        row, track = self.fed, self._track
        if row in (None, self.rows):
            raise ValueError(f"a span system takes {self.rows} rows, none after a rejected one")
        self.fed += 1
        at, cell, width, K, last = self._at, self._cell, self._width, self.kcap + 1, self.m - 1
        minus, muladd, mod, powers = self.p - 1, self.muladd, self._mod, self._powers_of
        simple = self.e == 1 and minus > 1
        spread = at[1::K]  # parent i's value goes to cell K * i + 1
        if row == len(track):  # a new row; the empty monomial's value, 1, in cell 1
            track.append((0, 1 << width))
        start, parents = track[row]  # past level 0 where lengthen carried the row
        for j in range(start, self.m):
            lv = self.levels[j]
            if lv.grows and row in lv.grows:
                self._grow(lv, *lv.grows.pop(row))
            v = vals[t - self.m + j]  # v**e in cell e
            pw = powers.get(v) or powers.setdefault(
                v, sum(self.put(0, e, self.f.pow(v, e)) for e in range(K)))
            # candidate K * i + e's value: parent i's times v**e
            cands = mod(parents * pw) if simple else muladd([0], [parents], pw)[0]
            bvals = [cands >> at[c + 1] & cell for c in lv.basis]
            free = lv.free
            if j == last:
                cands = self.put(cands, 0, vals[t])
            # minus the residuals; the pivot: the first free one of lowest degree
            res = self.combine(bvals + [minus], lv.cols + [cands]) if free or j == last else 0
            for d in sorted(free):
                low = res & free[d]
                if low:
                    break
            else:
                parents = sum(map(lshift, bvals, spread))
                if res & cell:  # the target's
                    track[row] = self.m, parents
                    self.fed = None
                    return False
                continue
            c = ((low & -low).bit_length() - 1) // width - 1
            # g = res / pivot's; relations drop g * (pivot's relation - new member)
            r = self.f.inv(self.entry(res, c + 1))
            g = mod(r * res) if simple else self.scaled(res, r)
            ng = g if minus == 1 else mod(minus * g)  # -g
            i, e = divmod(c, K)
            basis, blocks, nb = lv.basis, lv.blocks, len(lv.basis)
            rel = blocks[i] >> at[e] & self._units  # coefficient t in cell K * t
            coeffs = [rel >> s & cell for s in at[0:K * nb:K]]
            lv.cols = muladd(lv.cols, coeffs, ng) + [g]
            lv.blocks = muladd(blocks, [ng >> s & self._chunk for s in spread[:len(blocks)]],
                               rel | minus << at[K * nb])
            d = lv.degs[c]
            free[d] ^= cell << at[c + 1]
            if not free[d]:
                del free[d]
            basis.append(c)
            bvals.append(cands >> at[c + 1] & cell)
            if j < last:
                self._grow(self.levels[j + 1], nb, lv.mons[c], d, coeffs)
            else:
                self._joined[row] = nb, lv.mons[c], d, coeffs
            parents = sum(map(lshift, bvals, spread))
        track[row] = self.m, parents
        return True

    def exponents(self, cols) -> list[tuple[int, ...]]:
        """The monomials of the given positions of the last level's basis."""
        lv = self.levels[-1]
        return [lv.mons[lv.basis[c]] for c in cols]

    def solution(self) -> list[int]:
        """The target's coefficients over the last level's basis."""
        return [self.entry(col, 0) for col in self.levels[-1].cols]
