"""Sequence generation over finite fields.

Three families: the explicit inversive construction of full length q - 2,
the periodic inversive construction driven by a proper subgroup of the
unit group, and seeded uniform random sequences.  A Sequence carries its
field, its values as integer encodings, and the parameters that produced
it, and round-trips through a plain text format.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from .finite_field import Field, FieldElement, field_of_order

_MASK64 = (1 << 64) - 1


def splitmix64_mix(z: int) -> int:
    """The splitmix64 output finalizer (Steele/Lea/Vigna)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Pinned 64-bit generator: splitmix64 with the golden-gamma increment.

    This is the workbench's only source of randomness; all sampling is
    reproducible from the integer seed alone.
    """

    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + self.GAMMA) & _MASK64
        return splitmix64_mix(self._state)


def child_seed(seed: int, index: int) -> int:
    """Derived stream seed for sample #index: splitmix64_mix(seed XOR index)."""
    return splitmix64_mix((seed ^ index) & _MASK64)


class Sequence:
    """A finite sequence over one field.  values are integer encodings.

    Not a tuple like the result records: len, iteration and indexing run
    over values.  Mutable, equal by value and so unhashable."""

    def __init__(self, field: Field, values: list[int],
                 provenance: Optional[dict[str, Any]] = None):
        q = field.q
        for v in values:
            if not 0 <= v < q:
                raise ValueError(f"value {v} out of range for q={q}")
        self.field = field
        self.values = values
        self.provenance = {} if provenance is None else provenance

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.field, self.values, self.provenance)
                == (other.field, other.values, other.provenance))

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(field={self.field!r}, "
                f"values={self.values!r}, provenance={self.provenance!r})")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def prefix(self, n: int) -> "Sequence":
        if not 0 <= n <= len(self.values):
            raise ValueError("prefix length out of range")
        return Sequence(self.field, self.values[:n], dict(self.provenance))

    def elements(self) -> list[FieldElement]:
        return [FieldElement(self.field, v) for v in self.values]


def _enc(field: Field, x, name: str) -> int:
    if isinstance(x, FieldElement):
        if x.field != field:
            raise ValueError(f"{name} belongs to a different field")
        return x.val
    x = int(x)
    if not 0 <= x < field.q:
        raise ValueError(f"{name}={x} out of range for q={field.q}")
    return x


def inversive_finite(field: Field, a=1, base=None) -> Sequence:
    """s_i = (a*g**i - a)**-1 for i = 1..q-2, g the field's primitive element.

    a must be nonzero.  base overrides g with another element of order
    q - 1.  Every denominator is nonzero because g**i != 1 on that range.
    """
    q = field.q
    if q < 3:
        raise ValueError("need q >= 3 (the index range 1..q-2 is empty)")
    a = _enc(field, a, "a")
    if a == 0:
        raise ValueError("a must be nonzero")
    if base is None:
        g = field.primitive
    else:
        g = _enc(field, base, "base")
        if g == 0 or field.order_of(g) != q - 1:
            raise ValueError("base must have order q-1")
    vals = []
    gi = 1
    for _ in range(q - 2):
        gi = field.mul(gi, g)
        vals.append(field.inv(field.sub(field.mul(a, gi), a)))
    prov: dict[str, Any] = {"kind": "inversive", "a": a}
    if base is not None:
        prov["base"] = g
    return Sequence(field, vals, prov)


def default_periodic_c(field: Field, d: int, b=1) -> int:
    """Smallest c (constant-term-first lex order) valid for the periodic
    construction: c nonzero and c*b**-1 outside the order-d subgroup."""
    b = _enc(field, b, "b")
    if b == 0:
        raise ValueError("b must be nonzero")
    binv = field.inv(b)
    for c in field.lex_elements():
        if c == 0:
            continue
        if field.pow(field.mul(c, binv), d) != 1:
            return c
    raise ValueError("no valid c exists (subgroup is the whole unit group)")


def inversive_periodic(field: Field, d: int, n: int, b=1, c=None) -> Sequence:
    """s_i = (b*u**i - c)**-1 for i = 1..n, u of order d.

    u = g**((q-1)/d) for the field's primitive g; requires d | q-1 and
    d < q-1.  The constraint that c*b**-1 lies outside <u> keeps every
    denominator nonzero.  The sequence has least period exactly d.
    """
    q = field.q
    if d < 1 or (q - 1) % d != 0:
        raise ValueError(f"d={d} must be a positive divisor of q-1={q - 1}")
    if d == q - 1:
        raise ValueError("d must be a proper divisor: d < q-1")
    if n < 0:
        raise ValueError("n must be >= 0")
    b = _enc(field, b, "b")
    if b == 0:
        raise ValueError("b must be nonzero")
    if c is None:
        c = default_periodic_c(field, d, b)
    else:
        c = _enc(field, c, "c")
    if c == 0:
        raise ValueError("c must be nonzero")
    u = field.pow(field.primitive, (q - 1) // d)
    ratio = field.mul(c, field.inv(b))
    if field.pow(ratio, d) == 1:
        raise ValueError("c*b**-1 lies in the subgroup generated by u; "
                         "the denominator would vanish")
    vals = []
    ui = 1
    for _ in range(n):
        ui = field.mul(ui, u)
        vals.append(field.inv(field.sub(field.mul(b, ui), c)))
    return Sequence(field, vals, {"kind": "periodic", "d": d, "b": b, "c": c, "n": n})


def random_sequence(field: Field, n: int, seed: int) -> Sequence:
    """n i.i.d. uniform symbols drawn via splitmix64 with rejection sampling.

    Each 64-bit output yields one candidate: its low bits (the smallest
    power-of-two window covering q) are kept when < q, rejected otherwise.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    q = field.q
    mask = (1 << (q - 1).bit_length()) - 1 if q > 1 else 0
    rng = SplitMix64(seed)
    vals = []
    while len(vals) < n:
        cand = rng.next64() & mask
        if cand < q:
            vals.append(cand)
    return Sequence(field, vals, {"kind": "random", "n": n, "seed": seed})


def least_period(values) -> int:
    """Smallest shift t >= 1 with values[i+t] == values[i] wherever defined.

    Returns len(values) when no proper shift matches, 0 for the empty list.
    """
    n = len(values)
    for t in range(1, n):
        if all(values[i + t] == values[i] for i in range(n - t)):
            return t
    return n


# ---------------------------------------------------------------------------
# text round-trip: "# q=<q> kind=<kind> params=<k=v,...>" then one value/line

def _format_params(prov: dict) -> str:
    items = [(k, v) for k, v in sorted(prov.items()) if k != "kind"]
    return ",".join(f"{k}={v}" for k, v in items)


def sequence_to_text(seq: Sequence, extra_comments=()) -> str:
    """seq in the plain text format, extra_comments after its header."""
    kind = seq.provenance.get("kind", "unknown")
    header = f"# q={seq.field.q} kind={kind} params={_format_params(seq.provenance)}\n"
    return (header + "".join(f"# {line}\n" for line in extra_comments)
            + "".join(f"{v}\n" for v in seq.values))


def _parse_scalar(s: str):
    try:
        return int(s)
    except ValueError:
        return s


def sequence_from_text(text: str) -> Sequence:
    """Parse the text format back into a Sequence (canonical field for its q)."""
    header = None
    values = []
    for raw in text.split("\n"):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if header is None:
                header = line[1:].strip()
            continue
        values.append(int(line))
    if header is None:
        raise ValueError("missing header line '# q=... kind=... params=...'")
    fields = dict(tok.split("=", 1) for tok in header.split() if "=" in tok)
    if "q" not in fields or "kind" not in fields:
        raise ValueError("header must carry q= and kind=")
    q = int(fields["q"])
    prov: dict[str, Any] = {"kind": fields["kind"]}
    if fields.get("params"):
        for item in fields["params"].split(","):
            if item:
                k, _, v = item.partition("=")
                prov[k] = _parse_scalar(v)
    field = field_of_order(q)
    return Sequence(field, values, prov)


def write_sequence(seq: Sequence, fp, extra_comments=()) -> None:
    """Write seq to a file object or path in the plain text format."""
    text = sequence_to_text(seq, extra_comments)
    if isinstance(fp, (str, bytes, os.PathLike)):
        with open(fp, "w") as f:
            f.write(text)
    else:
        fp.write(text)


def read_sequence(fp) -> Sequence:
    """Read a Sequence from a file object or path in the plain text format."""
    if isinstance(fp, (str, bytes, os.PathLike)):
        with open(fp) as f:
            return sequence_from_text(f.read())
    return sequence_from_text(fp.read())
