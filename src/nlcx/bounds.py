"""Closed-form complexity lower bounds and sweep verification.

Each bound is an exact rational; a check passes when the exactly
computed complexity is >= the bound (a bound <= 0 passes trivially,
since complexities are nonnegative).  Bound identifiers name the
workbench's bound catalog:

  inversive-nk    per-variable cap:   (n-1)/(k+1)
  inversive-lk    total-degree cap:   (n-1)/(k+1)
  inversive-lin   linear complexity:  (n-1)/2
  periodic-nk     per-variable cap:   min((n-1)/(k+1), (d-1)/k)
  periodic-lk     total-degree cap:   min((n-1)/(k+1), (d-1)/k)
  hermitian-nk    per-variable cap:   ((q-1)r - 1)/(l(l-1)k + r)
  hermitian-lk    total-degree cap:   ((q-1)r - (l^2-l-1)k - 1)/(k + r)

with r = floor(n/(q-1)) in the last two, and a Hermitian per-variable
bound of 0 when n < q - 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from . import complexity as cx
from .finite_field import check_field_order, field_of_order, prime_power
from .generators import Sequence, inversive_finite, inversive_periodic
from .hermitian import hermitian_sequence

if TYPE_CHECKING:
    # each bound imports Fraction itself: fractions pulls in decimal, an
    # import that count, profile and every other non-verify start-up
    # would otherwise pay for
    from fractions import Fraction


# The longest periodic sweep verify runs: above every default length,
# 3 * d < 3 * 2**15, and at 100,000 terms the cheapest sweep (q = 5, d = 2,
# --kmax 2) takes 4.2 s and 151 MB, growing with n and with d.
MAX_SWEEP_LENGTH = 100_000


def bound_inversive(n: int, k: int) -> Fraction:
    from fractions import Fraction
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    return Fraction(n - 1, k + 1)


def bound_periodic(n: int, k: int, d: int) -> Fraction:
    from fractions import Fraction
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    return min(Fraction(n - 1, k + 1), Fraction(d - 1, k))


def _check_hermitian_args(n: int, k: int, ell: int) -> int:
    q = ell * ell
    if ell >= 2:  # as in HermitianCurve: the size before the trial division
        check_field_order(q)
    if ell < 2 or prime_power(ell) is None:
        raise ValueError("l must be a prime power >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 1 <= n <= (q - 1) * (ell - 1):
        raise ValueError(f"n must lie in 1..{(q - 1) * (ell - 1)}")
    return q


def bound_hermitian_N(n: int, k: int, ell: int) -> Fraction:
    from fractions import Fraction
    q = _check_hermitian_args(n, k, ell)
    r = n // (q - 1)
    if r == 0:
        return Fraction(0)
    return Fraction((q - 1) * r - 1, ell * (ell - 1) * k + r)


def bound_hermitian_L(n: int, k: int, ell: int) -> Fraction:
    from fractions import Fraction
    q = _check_hermitian_args(n, k, ell)
    r = n // (q - 1)
    return Fraction((q - 1) * r - (ell * ell - ell - 1) * k - 1, k + r)


class BoundCheck(NamedTuple):
    theorem: str
    q: int
    k: int
    n: int
    bound: Fraction
    computed: int
    passed: bool
    d: Optional[int] = None
    ell: Optional[int] = None


def _profile_checks(seq: Sequence, theorem: str, k: int, kind: str,
                    bound_fn, n_max: Optional[int], **ids) -> list[BoundCheck]:
    n_stop = len(seq) if n_max is None else min(n_max, len(seq))
    sub = seq.prefix(n_stop)
    prof = cx.profile(sub, k, kind)
    out = []
    for n in range(1, n_stop + 1):
        b = bound_fn(n)
        computed = prof[n - 1]
        out.append(BoundCheck(theorem=theorem, q=seq.field.q, k=k, n=n,
                              bound=b, computed=computed,
                              passed=computed >= b, **ids))
    return out


def admissible_periods(q: int) -> list[int]:
    """Positive divisors d of q-1 with d < q-1."""
    return [d for d in range(1, q - 1) if (q - 1) % d == 0]


def _inversive_sequences(q, **_):
    yield inversive_finite(field_of_order(q)), {}


def _periodic_sequences(q, d, periods, n_max, **_):
    field = field_of_order(q)
    lengths = {dd: periods * dd if n_max is None else n_max
               for dd in (admissible_periods(q) if d is None else [d])}
    longest = max(lengths.values(), default=0)
    if longest > MAX_SWEEP_LENGTH:  # before any term is built
        raise cx.GuardExceeded("periodic sweep length", longest, MAX_SWEEP_LENGTH)
    for dd, n_len in lengths.items():
        yield inversive_periodic(field, dd, n_len), {"d": dd}


def _hermitian_sequences(ell, allow_large, **_):
    yield hermitian_sequence(ell, allow_large=allow_large), {"ell": ell}


class _Construction(NamedTuple):
    param: str  # the parameter verify requires
    label: str  # the name in error messages
    kinds: tuple  # default kinds
    bounds: dict  # kind -> bound(n, k, **ids), ids being the BoundCheck extras
    sequences: Callable  # verify's keywords -> (sequence, ids) pairs


# One entry per construction; check ids are f"{construction}-{kind}".
_CATALOG = {
    "inversive": _Construction(
        "q", "inversive", ("nk", "lk", "lin"),
        {"nk": bound_inversive, "lk": bound_inversive, "lin": bound_inversive},
        _inversive_sequences),
    "periodic": _Construction(
        "q", "periodic", ("nk", "lk"),
        {"nk": bound_periodic, "lk": bound_periodic}, _periodic_sequences),
    "hermitian": _Construction(
        "ell", "Hermitian", ("nk", "lk"),
        {"nk": bound_hermitian_N, "lk": bound_hermitian_L}, _hermitian_sequences),
}


def verify(construction: str, *, q: Optional[int] = None,
           ell: Optional[int] = None, k_values=(1, 2),
           kinds: Optional[tuple] = None, d: Optional[int] = None,
           periods: int = 3, n_max: Optional[int] = None,
           allow_large: bool = False) -> list[BoundCheck]:
    """Sweep every prefix length and requested degree cap of one
    construction and compare exact complexities against the catalog
    bounds.  Returns one BoundCheck per (kind, k, n); linear complexity
    is checked at k = 1 only.  allow_large lets a Hermitian ell exceed
    hermitian.DEFAULT_MAX_ELL."""
    k_values = sorted(set(int(k) for k in k_values))
    if any(k < 1 for k in k_values):
        raise ValueError("degree caps must be >= 1")
    entry = _CATALOG.get(construction)
    if entry is None:
        raise ValueError(f"no bound catalog entry for construction {construction!r}")
    params = dict(q=q, ell=ell, d=d, periods=periods, n_max=n_max,
                  allow_large=allow_large)
    if params[entry.param] is None:
        raise ValueError(f"{construction} verification needs {entry.param}")
    kinds = entry.kinds if kinds is None else kinds
    for kind in kinds:
        if kind not in entry.bounds:
            raise ValueError(f"no {entry.label} bound covers kind {kind!r}")
        if kind != "lin" and not k_values:
            raise ValueError(f"no degree cap for kind {kind!r}: give at least one k >= 1")
    checks: list[BoundCheck] = []
    for seq, ids in entry.sequences(**params):
        for kind in kinds:
            bound = entry.bounds[kind]
            for k in ((1,) if kind == "lin" else k_values):
                checks += _profile_checks(
                    seq, f"{construction}-{kind}", k, kind,
                    lambda n: bound(n, k, **ids), n_max, **ids)
    return checks


def all_passed(checks) -> bool:
    return all(ch.passed for ch in checks)


def summarize(checks) -> dict:
    failed = [ch for ch in checks if not ch.passed]
    return {
        "total": len(checks),
        "passed": len(checks) - len(failed),
        "failed": len(failed),
        "all_passed": not failed,
    }
