"""The slot rule of packed vectors (packed._slot_rule).

A packed system's slots hold a digit plus e products of two digits, and
a column-space system's a digit plus as many products as its
combinations sum between reductions, and at least e.  For every p <= 257
and every e with p**e <= 2**16, at each of those counts, the
multiply-shift must give x mod p for every x up to the largest slot value
top, and a slot of w bits must hold top * magic.  w must be the least
width of any shift that passes, and never wider than the rule with e
products, the one a slot had before.
"""

import nlcx.complexity as cx
from nlcx.finite_field import field_of_order, is_prime
from nlcx.packed import _slot_rule


def rule_with_e_products(p, e):
    """The rule as it stood when a slot always held e products, with the
    shift bitlen(top * (p - 1)); the rule now takes the least width."""
    if p == 2:
        return 1, 0, 0
    top = (p - 1) * (1 + e * (p - 1))
    shift = (top * (p - 1)).bit_length()
    magic = -(-(1 << shift) // p)
    return (top * magic).bit_length(), magic, shift


def least_width(p, products):
    """The least w of any shift at which the multiply-shift is exact on
    0..top and the quotient fits the mask, searched well past the shift
    of the rule with e products."""
    if p == 2:
        return 1
    top = (p - 1) * (1 + products * (p - 1))
    widths = []
    for shift in range(2 * (top * (p - 1)).bit_length() + 2):
        magic = -(-(1 << shift) // p)
        w = (top * magic).bit_length()
        if top * (magic * p - (1 << shift)) < 1 << shift and top // p < 1 << w - shift:
            widths.append(w)
    return min(widths)


def test_slot_rule_reduces_every_slot_value():
    # a span system's count at e = 1, for few rows and for many
    span = {cx._SpanSystem(field_of_order(3), 1, 1, "each", rows)._products
            for rows in (1, 64)}
    for q in (3, 4, 9, 25, 27, 49):
        field = field_of_order(q)
        assert cx._PackedSystem(field, 1, 1, "each")._products == field.e
    checked = 0
    for p in filter(is_prime, range(2, 258)):
        e = 1
        while p ** e <= 1 << 16:
            for products in {e} | {max(count, e) for count in span}:
                w = _slot_rule(p, products)[0]
                assert w == least_width(p, products), (p, e, products)
                assert w <= rule_with_e_products(p, products)[0], (p, e, products)
            for products in {e} | {max(count, e) for count in span}:
                w, magic, shift = _slot_rule(p, products)
                if p == 2:  # one-bit slots, added by xor: nothing to reduce
                    assert (w, magic, shift) == (1, 0, 0)
                    continue
                top = (p - 1) * (1 + products * (p - 1))
                assert (top * magic).bit_length() <= w, (p, e, products)
                assert top // p < 1 << w - shift  # the quotient fits the mask
                # x * magic >> shift and x // p are both nondecreasing in x,
                # so they agree for every x <= top when they agree at both
                # ends of every run of x with one quotient x // p
                ends = [x for j in range(0, top + 1, p) for x in (j, min(j + p - 1, top))]
                assert all(x - p * (x * magic >> shift) == x % p for x in ends), \
                    (p, e, products)
                checked += len(ends)
            e += 1
    assert checked > 10 ** 5
