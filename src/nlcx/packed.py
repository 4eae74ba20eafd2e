"""Packed vectors over F_q, and the monomial solver system (_PackedSystem).

PackedVectors is the format both solvers work in: one int per vector,
one cell of base-p digits per entry, each digit in a slot wide enough
(_slot_rule) that one multiply-shift reduces every slot mod p at once.
The column-space system (span._SpanSystem) keeps its relations in it,
and _PackedSystem its rows.

_PackedSystem runs Gaussian elimination over the monomial columns of a
feedback system, one packed row per equation.  Column c is cell
ncols - c and the augmented entry is cell 0, so column 0 sits in the top
cell and a row's pivot is its top nonzero cell, read from its bit
length.  Without a witness, an "each"-mode system may eliminate in the
Lagrange basis instead (BasisValues).  complexity._new_system picks this
system wherever the column-space system would cost more.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from math import comb
from operator import mul, xor
from typing import Optional

from .finite_field import Field

DEFAULT_MAX_MONOMIALS = 1 << 20


class GuardExceeded(ValueError):
    """A cost guard tripped; carries the offending size and the limit."""

    def __init__(self, what: str, size: int, limit: int):
        self.what, self.size, self.limit = what, size, limit
        super().__init__(f"{what}: size {size} exceeds guard {limit}")

    def __reduce__(self):  # so a trip in a worker process reaches the caller
        return type(self), (self.what, self.size, self.limit)


@lru_cache(maxsize=None)
def monomial_count(m: int, k: int, mode: str, per_var: Optional[int] = None) -> int:
    """Number of exponent vectors; per_var additionally caps each exponent.

    Capping at q - 1 never changes the realizable functions over F_q
    (x**q and x agree pointwise, and reduction only lowers degrees), so
    the solvers pass per_var = q - 1 to keep the basis free of redundant
    columns.
    """
    if per_var is None or per_var >= k:
        return (k + 1) ** m if mode == "each" else comb(m + k, k)
    if mode == "each":
        return (per_var + 1) ** m
    # total budget k with each exponent <= per_var, counted by DP
    counts = [1] + [0] * k
    for _ in range(m):
        nxt = [0] * (k + 1)
        for t, c in enumerate(counts):
            if c:
                for e in range(min(per_var, k - t) + 1):
                    nxt[t + e] += c
        counts = nxt
    return sum(counts)


def monomial_exponents(m: int, k: int, mode: str,
                       per_var: Optional[int] = None) -> list[tuple[int, ...]]:
    """Exponent vectors in lexicographic order, last variable fastest."""
    cap = k if per_var is None else min(k, per_var)
    if mode == "each":
        return list(itertools.product(range(cap + 1), repeat=m))
    out: list[tuple[int, ...]] = [()]
    for _ in range(m):  # each prefix, in order, extended by each exponent in range
        out = [x + (e,) for x in out for e in range(min(cap, k - sum(x)) + 1)]
    return out


@lru_cache(maxsize=None)
def _slot_rule(p: int, products: int) -> tuple[int, int, int]:
    """(w, magic, shift) of packed vectors over F_(p**e) whose slots hold a
    digit plus `products` products of two digits before they are reduced.
    At p = 2 a slot is one bit and addition is xor.  Otherwise a slot's
    value before reduction is at most top; then
    x - p * ((x * magic) >> shift) is x mod p for every x <= top when
    top * (magic * p - 2**shift) < 2**shift, w fits x * magic and the
    quotient fits the w - shift bits under it.  Of the shifts up to
    bitlen(top * (p - 1)), where that always holds, the least w is kept."""
    if p == 2:
        return 1, 0, 0
    top, rules = (p - 1) * (1 + products * (p - 1)), []
    for shift in range(1, (top * (p - 1)).bit_length() + 1):
        magic = -(-(1 << shift) // p)
        w = (top * magic).bit_length()
        if top * (magic * p - (1 << shift)) < 1 << shift and top // p < 1 << w - shift:
            rules.append((w, magic, shift))
    return min(rules)


class PackedVectors:
    """Vectors over F_(p**e) packed into ints: entry c of a vector is the
    cell of e * w bits at bit c * e * w, and base-p digit i of the entry is
    the w-bit slot at bit i * w of the cell.  Integer multiples of vectors
    add slot by slot, and one multiply-shift reduces every slot mod p at
    once (_mod, see _slot_rule), so a slot may hold `products` products of
    two digits between reductions; at p = 2 a slot is one bit, a cell is
    the entry's encoding and adding is xor.  Every scalar product is a sum
    of digit multiples of x**i * vector (_powers).  The masks cover the
    first `cells` cells."""

    def __init__(self, field: Field, cells: int, products: int):
        self.p, self.e = p, e = field.p, field.e
        w, magic, shift = _slot_rule(p, products)
        self.w, self._magic, self._shift, self._products = w, magic, shift, products
        self._slot = (1 << w) - 1
        self._width = width = e * w  # bits per cell
        self._cell = (1 << width) - 1
        # bit 0 of every cell, then the low w - shift bits of every slot
        ones = ((1 << cells * width) - 1) // self._cell
        self._low = ones * (self._cell // self._slot * ((1 << w - shift) - 1))
        self._top = ones * self._slot << width - w  # the top slot of every cell
        self._digit = ones * self._slot  # the bottom slot of every cell
        # x**e = -sum_j m_j x**j, m the field's modulus, as a cell
        self._fold = sum(-c % p << j * w for j, c in enumerate(field.modulus[:-1]))

    def _mod(self, x: int) -> int:
        return x - self.p * ((x * self._magic >> self._shift) & self._low)

    def _powers(self, row: int, n: int = 0) -> list[int]:
        """[row, x * row, ..., x**(n - 1) * row], n = e by default, for a
        reduced row: x moves each digit up one slot of its cell, and the
        digit d leaving the top comes back as d * x**e in the same cell."""
        out, w, top = [row], self.w, self._top
        up = (self.e - 1) * w
        for _ in range(1, n or self.e):
            t = row & top
            x = (t >> up) * self._fold  # no product leaves its cell's slots
            row = (row ^ t) << w
            row = row ^ x if self.p == 2 else self._mod(row + x)
            out.append(row)
        return out

    def _times(self, a: int, ys) -> int:
        """a * row from ys = _powers(row), e > 1: sum_i a_i * x**i * row
        over a's base-p digits a_i; at odd p each slot is left unreduced,
        a sum of at most e products."""
        p, out = self.p, 0
        for y in ys:
            a, d = divmod(a, p)
            if d:
                out = out ^ y if p == 2 else out + d * y
        return out

    def _value(self, cell: int) -> int:
        """The field element whose base-p digits are in the slots of cell."""
        p, w, slot = self.p, self.w, self._slot
        return sum((cell >> i * w & slot) * p ** i for i in range(self.e))

    def _cell_of(self, v: int) -> int:
        """The cell of the field element v: its base-p digits in their slots."""
        if self.p == 2 or self.e == 1:  # the cell is the encoding
            return v
        p, w, cell = self.p, self.w, 0
        for i in range(self.e):
            v, d = divmod(v, p)
            cell |= d << i * w
        return cell

    def scaled(self, row: int, a: int) -> int:
        """a * row, a nonzero."""
        if a == 1:
            return row
        x = a * row if self.e == 1 else self._times(a, self._powers(row))
        return x if self.p == 2 else self._mod(x)

    def entry(self, row: int, c: int) -> int:
        """The field element in column c of row."""
        v = row >> c * self._width & self._cell
        return v if self.p == 2 or self.e == 1 else self._value(v)

    def put(self, row: int, c: int, v: int) -> int:
        """row with v in column c."""
        at = c * self._width
        return row & ~(self._cell << at) | self._cell_of(v) << at

    def combine(self, coeffs, vecs) -> int:
        """sum a * v over the cells a and the reduced vectors v, by Horner's
        rule in x over the digits of the a: each digit's products add up as
        integers, reduced every `products` terms."""
        p, e, w, n, mod = self.p, self.e, self.w, self._products, self._mod
        if e == 1 and p > 2 and len(coeffs) <= n:
            return mod(sum(map(mul, coeffs, vecs)))
        acc = 0
        for i in range(e - 1, -1, -1):
            if acc:
                acc = self._powers(acc, 2)[1]  # x * acc
            digits = coeffs if e == 1 else [a >> i * w & self._slot for a in coeffs]
            if p == 2:
                acc ^= reduce(xor, itertools.compress(vecs, digits), 0)
            else:
                for at in range(0, len(digits), n):
                    acc = mod(acc + sum(map(mul, digits[at:at + n], vecs[at:at + n])))
        return acc

    def muladd(self, vecs, coeffs, b: int) -> list[int]:
        """[v + a * b] over the reduced vectors v and a, where a * b is the
        product of packed ints whose cells each meet in a cell of their
        own, as when a is one cell: digit i of a's cells times x**i * b."""
        p = self.p
        if self.e == 1 and p > 2:
            magic, shift, low = self._magic, self._shift, self._low  # _mod, inline
            return [(x := v + a * b) - p * ((x * magic >> shift) & low) if a else v
                    for v, a in zip(vecs, coeffs)]
        bs, shifts = self._powers(b), range(0, self._width, self.w)
        split = [a and [a >> s & self._digit for s in shifts] for a in coeffs]
        if p == 2:
            return [reduce(xor, map(mul, ds, bs), v) if ds else v for v, ds in zip(vecs, split)]
        return [self._mod(v + sum(map(mul, ds, bs))) if ds else v for v, ds in zip(vecs, split)]


class BasisValues(dict):
    """The values of the Lagrange basis on the nodes with encodings 0..cap,
    b_t(x) = prod_{u != t} (x - u) / (t - u), cap < q, as chains: basis[v]
    lists steps (r, t), one per t with b_t(v) != 0, t increasing, where
    b_t(v) is r times the previous step's value (times 1 at the first
    step) and r = 0 stands for v.  b_t is 1 at node t and 0 at the other
    nodes.  Each element's chain is stored on its first lookup, so at most
    q are.  (The monomial basis, b_t(x) = x**t, has the same chain (1, 0),
    (0, 1), ..., (0, cap) at every v != 0; a packed system keeps it.)
    """

    def __init__(self, field: Field, cap: int):
        super().__init__()
        self.f, self.nodes = field, range(cap + 1)
        # 1 / prod_{u != t} (t - u); a repeated node has no inverse
        self._w = [field.inv(self._prod(t, t)) for t in self.nodes]

    def _prod(self, x: int, t: int) -> int:
        """prod_{u != t} (x - u) over the nodes u."""
        acc = 1
        for u in self.nodes:
            if u != t:
                acc = self.f.mul(acc, self.f.sub(x, u))
        return acc

    def __missing__(self, v: int):
        f, out, last = self.f, [], 1
        for t, w in zip(self.nodes, self._w):  # node t is the element t
            a = f.mul(w, self._prod(v, t))
            if a:
                out.append((f.mul(a, f.inv(last)), t))
                last = a
        self[v] = out = tuple(out)
        return out


# the BasisValues of a field and cap, one per process
basis_values = lru_cache(maxsize=None)(BasisValues)


@lru_cache(maxsize=None)
def _blocks(mode: str, k: int, cap: int, m: int, width: int) -> tuple:
    """Per variable j, from the last, where a row of cells of width bits
    puts its blocks.  "each": the bit offset of column t of its block, t = 0
    the top one.  "total": ((b, up, ((d, at), ...)), ...) places budget b's
    row shifted by up as its x_j**0 block, and x_j**d times budget b - d's
    row at bit offset at; blocks with higher d sit lower."""
    if mode == "each":
        b = cap + 1
        return tuple(tuple((b - 1 - t) * b ** j * width for t in range(b)) for j in range(m))
    cols, out = [1] * (k + 1), []
    for _ in range(m):
        plan, grown = [], cols[:]
        for b in range(k, 0, -1):
            at, blocks = sum(cols[b - d] for d in range(min(cap, b) + 1)), []
            grown[b] = at
            for d in range(min(cap, b) + 1):
                at -= cols[b - d]
                blocks.append((d, at * width))
            plan.append((b, blocks[0][1], tuple(blocks[1:])))
        cols = grown
        out.append(tuple(plan))
    return tuple(out)


class _PackedSystem(PackedVectors):
    """Monomial system on packed rows, for every field.

    A row is a packed vector (PackedVectors) with one cell per column,
    column c in cell ncols - c and the augmented entry in cell 0, whose
    slots hold e products.  entry, put and basis take column indices.
    An equation enters by feed alone.  reduce eliminates its row against
    the pivot rows from the top cell down and scales it to 1 at its pivot,
    the one place a pivot row is scaled, so the pivots are the lex-first
    columns, and a pivot row has no cell above its pivot.  Each pivot row
    b is stored with its multiples x**i * b, i < e, so that clearing a
    column whose digits are d_i adds sum_i (p - d_i) * x**i * b: F_p work
    only, with no field multiplication.

    The constructor refuses more than max_monomials columns before it
    builds anything, and fixes the basis: with lagrange, an "each"-mode
    system's columns are the Lagrange basis on the nodes 0..kcap, an
    invertible tensor power of a Vandermonde matrix away from the
    monomials, so ranks and forced terms stay but there is no witness.
    """

    def __init__(self, field: Field, m: int, k: int, mode: str,
                 lagrange: bool = False, max_monomials: int = DEFAULT_MAX_MONOMIALS,
                 store: Optional[dict] = None):
        self.f = field
        self.m, self.k, self.mode = m, k, mode
        self.kcap = cap = min(k, field.q - 1)
        self.ncols = monomial_count(m, k, mode, per_var=cap)
        if self.ncols > max_monomials:
            raise GuardExceeded("monomial set", self.ncols, max_monomials)
        self.monomial = not (lagrange and mode == "each")
        # pivot column -> the pivot row b and its multiples, [x**i * b for i < e]
        self.basis: dict[int, list[int]] = {}
        # target t -> (L, body), the longest body built for t (feed), if
        # given a store, maybe a shorter system's
        self.store = store
        super().__init__(field, self.ncols + 1, field.e)
        self._elim = (self.p, self.w, self.ncols, self._width, self._slot,  # for reduce
                      self._magic, self._shift, self._low)
        self._at = _blocks(mode, k, cap, m, self._width)
        if mode == "each":
            # b_t(v) as steps (r, t), see BasisValues: per v in the Lagrange
            # basis, the monomials' (1, 0), (0, 1), ..., (0, cap) at every v != 0
            lag = not self.monomial
            self._values = basis_values(field, cap) if lag else None
            self._same = None if lag else ((1, 0),) + tuple((0, t) for t in range(1, cap + 1))
            self._unit = 1
            return
        # _one: the x**i multiples of budget 0's row, the constant monomial
        self._unit, self._one = [1] * (k + 1), self._powers(1)

    def entry(self, row: int, c: int) -> int:
        """The field element in column c of row."""
        v = row >> (self.ncols - c) * self._width & self._cell
        return v if self.p == 2 or self.e == 1 else self._value(v)

    def put(self, row: int, c: int, v: int) -> int:
        """row with v in column c."""
        return PackedVectors.put(self, row, self.ncols - c, v)

    def exponents(self, cols) -> list[tuple[int, ...]]:
        """The exponent vectors of the given columns.  In "each" mode
        column c's are the base-(kcap + 1) digits of c, the last variable
        fastest, so no other column is listed."""
        if not self.monomial:
            raise ValueError("a Lagrange-basis system has no monomial witness")
        if self.mode == "total":
            exps = monomial_exponents(self.m, self.k, self.mode, per_var=self.kcap)
            return [exps[c] for c in cols]
        b = self.kcap + 1
        place = [b ** j for j in range(self.m - 1, -1, -1)]
        return [tuple(c // v % b for v in place) for c in cols]

    def _extend(self, body, vals, t: int, L: int):
        """body, that of the variables x_j = vals[t - 1 - j], j < L, grown
        by the variables L..m - 1 on top.  A body is a row without its
        augmented cell: an int in "each" mode, the rows of the budgets 0..k
        in "total" mode.  Lex order lists variable j's columns in blocks led
        by b_u(v) ("each") or v**d ("total"), each that value times (part
        of) the body so far, so a block is placed with one shift; _at[j]
        does not depend on m, so a shorter system's body fits a longer one.
        In "each" mode a zero variable keeps only the top block, whose shift
        waits for the next nonzero one.  At e > 1 the body is multiplied by
        x once per variable (_powers), a block is a digit combination of
        those e multiples, and the blocks are reduced together."""
        p, simple = self.p, self.e == 1
        if self.mode == "each":
            magic, shift, low = self._magic, self._shift, self._low  # _mod, inline
            offsets, chains, values, up = self._at, self._same, self._values, 0
            for j in range(L, self.m):
                v, at = vals[t - 1 - j], offsets[j]
                if not v:  # b_0(0) = 1 and every other b_u(0) = 0
                    up += at[0]
                    continue
                y, body, up = body << up, 0, 0
                if simple:  # y becomes b_u(v) * y
                    for r, u in chains or values[v]:
                        r = r or v
                        if r != 1:  # p > 2
                            y = (x := r * y) - p * ((x * magic >> shift) & low)
                        body |= y << at[u]
                    continue
                a, ys, mul = 1, self._powers(y), self.f.mul
                for r, u in chains or values[v]:  # a becomes b_u(v)
                    a = mul(r or v, a)
                    body += self._times(a, ys) << at[u]
                if p > 2:
                    body = self._mod(body)
            return body << up
        # level[b]: the row of the monomials in the later variables of
        # total degree <= b; level[0] is the constant monomial's
        k, cap, plan, level = self.k, self.kcap, self._at, body[:]
        mod, mul = self._mod, self.f.mul
        for j in range(L, self.m):
            v = vals[t - 1 - j]
            if not v:  # every block after the x_j**0 one is zero
                for b, up, _ in plan[j]:
                    level[b] <<= up
                continue
            vd = [1, v]  # v**d
            for _ in range(1, cap):
                vd.append(mul(v, vd[-1]))
            # a block read from budget 0 is the cell of v**d, already reduced,
            # so only the rows of budgets over 1 need reducing
            ys = level if simple else [self._one] + [self._powers(y) for y in level[1:k]]
            for b, up, blocks in plan[j]:  # reads budgets below b, not yet rewritten
                acc = 0
                if simple:
                    for d, at in blocks:
                        acc += vd[d] * ys[b - d] << at
                else:
                    for d, at in blocks:
                        acc += self._times(vd[d], ys[b - d]) << at
                level[b] = level[b] << up | (mod(acc) if p > 2 and b > 1 else acc)
        return level

    def row(self, body, target: int) -> int:
        """The row of a full-length body, with target in the augmented cell."""
        top = body if self.mode == "each" else body[self.k]
        return top << self._width | self._cell_of(target)

    def build_row(self, window, target: int) -> int:
        """The row of one equation: the body of no variables, the constant
        monomial's cell, extended by the whole window."""
        return self.row(self._extend(self._unit, window, len(window), 0), target)

    def reduce(self, row: int) -> tuple[int, int, int]:
        """(c, row, r): row eliminated against the pivot rows, from its top
        cell down, up to its first nonzero column c that has no pivot row,
        then scaled to 1 there by r; c is ncols, row unscaled and r = 1
        when every monomial column reduces to zero.  The top nonzero cell
        is the only one left by shifting it to bit 0."""
        basis = self.basis
        p, w, ncols, width, slot, magic, shift, low = self._elim
        if width == 1:  # F_2: the pivot is the top set bit, its entry 1
            while row > 1:
                c = ncols + 1 - row.bit_length()
                b = basis.get(c)
                if b is None:
                    return c, row, 1
                row ^= b[0]
            return ncols, row, 1
        while True:
            at = (row.bit_length() - 1) // width
            if at < 1:  # zero, or only the augmented cell is left
                return ncols, row, 1
            v, mults = row >> at * width, basis.get(ncols - at)
            if mults is None:
                if v == 1:
                    return ncols - at, row, 1
                r = self.f.inv(v if w == width or p == 2 else self._value(v))
                if w == width:  # e = 1, p > 2: scaled, inline
                    x = r * row
                    return ncols - at, x - p * ((x * magic >> shift) & low), r
                return ncols - at, self.scaled(row, r), r
            # -(sum_i d_i x**i) * b is sum_i (p - d_i) * (x**i * b)
            if p == 2:
                for b in mults:
                    if v & 1:
                        row ^= b
                    v >>= 1
                continue
            if w == width:  # e = 1: v is the one digit
                row += (p - v) * mults[0]
            else:
                for b in mults:
                    d = v & slot
                    if d:
                        row += (p - d) * b
                    v >>= w
            row -= p * ((row * magic >> shift) & low)

    def install(self, c: int, row: int):
        """Store row, which is 1 at column c, as the pivot row of c, with
        its multiples by x**i; deleting basis[c] undoes it."""
        self.basis[c] = self._powers(row)

    def feed(self, vals, t: int) -> bool:
        """Whether the system stays consistent with the equation of target
        t, vals[t - m:t] -> vals[t]: its row is eliminated and, unless its
        columns all reduce to zero, stored as a pivot row.  Its body
        extends and replaces store[t] = (L, body) if there is a store."""
        store, m, e = self.store, self.m, self.e
        L, body = store is not None and store.get(t) or (0, self._unit)
        body = self._extend(body, vals, t, L)
        if store is not None:
            store[t] = m, body
        top = body if self.mode == "each" else body[self.k]
        c, row, _ = self.reduce(top << self._width | (
            vals[t] if e == 1 else self._cell_of(vals[t])))
        if c == self.ncols:
            return not row
        self.basis[c] = [row] if e == 1 else self._powers(row)
        return True

    def solution(self) -> list[int]:
        """Pivot variables by back-substitution, free variables zero.  A
        pivot row's dot product with the solution sums, over pairs of
        digits (i, j), x**i * x**j times their digit products mod p,
        counted by popcounts against bit masks of the solution."""
        if not self.monomial:
            raise ValueError("a Lagrange-basis system has no monomial witness")
        f, p, e, w, ncols = self.f, self.p, self.e, self.w, self.ncols
        nbits = (p - 1).bit_length()
        cross = [[f.mul(p ** i, p ** j) for j in range(e)] for i in range(e)]
        # masks[j][u]: bit 0 of the cell of each column whose solved value
        # has bit u set in its digit j
        masks = [[0] * nbits for _ in range(e)]
        sol = [0] * ncols
        for c in sorted(self.basis, reverse=True):
            row = self.basis[c][0]
            acc = self.entry(row, ncols)
            for i in range(e):
                digits = row >> i * w  # digit i of each cell at the cell's bit 0
                for j in range(e):
                    dot = sum((digits >> t & s).bit_count() << t + u
                              for t in range(nbits) for u, s in enumerate(masks[j]))
                    if dot % p:
                        acc = f.sub(acc, f.mul(dot % p, cross[i][j]))
            sol[c] = v = acc
            for j in range(e):
                v, d = divmod(v, p)
                for u in range(nbits):
                    if d >> u & 1:
                        masks[j][u] |= 1 << (ncols - c) * self._width
        return sol
