"""Counting and Monte Carlo experiments.

exhaustive_count counts the length-n sequences over F_q whose
per-variable-cap complexity is at most m by walking the tree of their
prefixes with one length-m feedback system, built in the Lagrange basis
and under the column guard, from one first window per orbit of the
affine maps x -> a*x + b, and checks the count against the closed form
q^((k+1)^m + m).  monte_carlo_profile draws
seeded random sequences, computes their complexity profiles and
aggregates per-length statistics against the reference curve
ref = log(n)/log(k+1).  That curve is a lower-tail reference: the
counting bound makes values far below it rare, but it is not the mean.
At q = 2, k = 1 the mean sits near 2*log2(n), twice ref.  Both are
deterministic for a fixed seed regardless of the worker count: sample i
always uses child_seed(seed, i), and shards are merged in index order.
"""

from __future__ import annotations

import math
import os
import sys
from typing import NamedTuple

from .complexity import GuardExceeded, _full_function_space, profile
from .finite_field import field_of_order
from .generators import child_seed, random_sequence
from .packed import DEFAULT_MAX_MONOMIALS, _PackedSystem

DEFAULT_MAX_SEQUENCES = 1 << 22


class CountResult(NamedTuple):
    q: int
    k: int
    n: int
    m: int
    count: int
    bound: int
    passed: bool


def _worker_count(requested: int, shards: int) -> int:
    """Worker processes to start: the request, but never more than the
    shards of work or the CPUs (a pool forks all its workers up front)."""
    return max(1, min(requested, shards, os.cpu_count() or 1))


def _sharded(fn, args: tuple, total: int, threads: int) -> list:
    """fn(*args, lo, hi) over consecutive spans covering 0..total, results
    in span order; with more than one worker each span runs in its own
    worker process."""
    workers = _worker_count(threads, total)
    if workers == 1:
        return [fn(*args, 0, total)]
    # imported here: multiprocessing is a large import that a one-worker
    # call, and so every CLI start-up, would otherwise pay for
    from concurrent.futures import ProcessPoolExecutor

    step = -(-total // workers)
    spans = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*[args + span for span in spans])))


def _orbit_roots(q: int, m: int, lo: int, hi: int):
    """(code, weight) for each first window in lo..hi - 1, by integer code,
    that stands for its orbit under the affine maps x -> a*x + b (a != 0),
    weighted by the orbit's size.

    0^m stands for the q constant windows.  A non-constant window has one
    image whose first term is 0 and whose first nonzero term is 1, and an
    orbit of q(q - 1), since an affine map fixing two points is the
    identity; with vals[0] the lowest digit those are the codes
    (1 + q*t)*q^j, 1 <= j < m, 0 <= t < q^(m - j - 1).
    """
    if lo == 0 < hi:
        yield 0, q
    for j in range(1, m):
        first, step = q ** j, q ** (j + 1)
        start = first + max(0, -(-(lo - first) // step)) * step
        for code in range(start, hi, step):
            yield code, q * (q - 1)


def _walk(q: int, k: int, n: int, m: int, budget: int,
          lo: int, hi: int) -> tuple[int, int]:
    """(count, nodes) of the prefix-tree walk under the orbit roots whose
    codes lie in lo..hi - 1, each weighted by its orbit's size, so spans
    covering 0..q^m - 1 sum to the whole tree; it stops once nodes exceeds
    budget, and nodes is then the weighted total where it stopped.

    A node is a prefix of length L, m <= L <= n, that one length-m map
    fits; the equation at L is the window vals[L - m:L].  When the
    window's row reduces to zero the next term is forced, else each of
    the q terms fixes the same new pivot.  A child stores its pivot row
    (its window's term under the window scan) on the way down and an undo
    mark below its siblings deletes it, so one system serves the walk.
    That system is built in the Lagrange basis, since only ranks and
    forced terms are read and a change of basis keeps both, and under
    DEFAULT_MAX_MONOMIALS, so its column guard trips before the walk.

    Mapping every term by x -> a*x + b maps the maps that fit onto maps
    that fit, f'(y) = a*f((y - b)/a) + b with no variable's degree raised,
    so it maps the tree under one root onto the tree under its image.  So
    only one root per orbit is walked (_orbit_roots), and its count and
    nodes are weighted by the orbit's size: nodes is the node total of
    the whole tree, and the walk stops inside a root as soon as the
    weighted total passes budget.
    """
    field = field_of_order(q)
    neg, mul, add = field.neg, field.mul, field.add
    if _full_function_space(field, k, "each"):
        system, store = None, {}
    else:
        system = _PackedSystem(field, m, k, "each", True, DEFAULT_MAX_MONOMIALS)
        store, ncols = system.basis, system.ncols
        build, reduce, entry = system.build_row, system.reduce, system.entry
    terms = range(q - 1, -1, -1)
    vals = [0] * n
    count = nodes = 0
    for code, weight in _orbit_roots(q, m, lo, hi):
        for i in range(m):
            code, vals[i] = divmod(code, q)
        room = (budget - nodes) // weight  # this root's nodes within budget
        found, here = 0, 1  # leaves and nodes under this root
        L = m
        todo = []  # (key, term, L, pivot row, its inverse scale); term -1: undo
        while here <= room:
            if system is None:
                key = tuple(vals[L - m:L])
                t = store.get(key)
                branch = t is None
                row = iv = None
            else:
                key, row, iv = reduce(build(vals[L - m:L], 0))
                branch = key < ncols
                if not branch:
                    t = neg(entry(row, ncols))
            if L + 1 == n:  # the children are leaves
                leaves = q if branch else 1
                found += leaves
                here += leaves
            elif not branch:
                vals[L] = t
                L += 1
                here += 1
                continue
            else:
                todo.append((key, -1, 0, None, 0))
                todo.extend((key, t, L, row, iv) for t in terms)
            # enter the next pending child, undoing finished branches on the
            # way; an empty stack ends this root
            while todo:
                key, t, L, row, iv = todo.pop()
                if t < 0:
                    del store[key]
                    continue
                if system is None:
                    store[key] = t
                else:
                    # the target t enters the pivot row's augmented entry
                    system.install(key, system.put(
                        row, ncols, add(entry(row, ncols), mul(iv, t))))
                vals[L] = t
                L += 1
                here += 1
                break
            else:
                break
        count += weight * found
        nodes += weight * here
        if nodes > budget:
            break
    return count, nodes


def _counting_bound(q: int, k: int, m: int) -> int:
    """q^((k+1)^m + m).  The bound is printed, so a bound whose decimal
    form passes the interpreter's int-to-str limit is refused from its
    exponent before it is built; an exponent past 64 bits, which already
    means more than 10^18 digits, is refused before it is built too."""
    bits = m * math.log2(k + 1)
    if bits > 64:
        raise GuardExceeded("count bound exponent bits", math.ceil(bits), 64)
    exponent = (k + 1) ** m + m
    digits = math.floor(exponent * math.log10(q)) + 1
    # Python before 3.10.7 has no limit, and 0 turns it off; either way
    # the default applies, so no k or m builds a bound of any size
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = get_limit() or getattr(sys.int_info, "default_max_str_digits", 4300)
    if digits > limit:
        raise GuardExceeded("count bound digits", digits, limit)
    return q ** exponent


def exhaustive_count(q: int, k: int, n: int, m: int, *,
                     max_sequences: int = DEFAULT_MAX_SEQUENCES,
                     threads: int = 1) -> CountResult:
    """Count sequences of length n over F_q with complexity <= m.

    For n > m >= 1 that holds exactly when one length-m feedback map of
    degree <= k in each variable fits: a shorter map lifts to length m by
    ignoring its leading variables, and the zero map fits the zero
    sequence.  So no sequence is enumerated: the count walks the tree of
    prefixes that such a map fits, depth first, sharded over the codes of
    the q^m first windows.  An affine map x -> a*x + b of every term maps
    the tree under one first window onto the tree under its image, so the
    walk starts one window per orbit, 1 + (q^(m-1) - 1)/(q - 1) of them,
    and weights each by its orbit's size (_walk).  max_sequences bounds
    the nodes of the whole tree, the weighted total, so it trips where a
    walk from all q^m windows would.  The tree has at least q^m + n - m
    nodes, the roots and the all-zero path, and that is checked before any
    work, with m >= n - 1 counted as n - 1 since every sequence has
    complexity <= n - 1.  So is the printed length of the bound
    (_counting_bound).  The walk's system refuses more than
    DEFAULT_MAX_MONOMIALS columns when it is built.
    """
    field_of_order(q)  # validates q
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    bound = _counting_bound(q, k, m)
    low = min(m, n - 1)
    least = q ** low + n - low
    if least > max_sequences:
        raise GuardExceeded("count walk nodes", least, max_sequences)
    if m == 0:
        count = 1  # only the zero sequence
    elif m >= n - 1:
        count = q ** n
    else:
        parts = _sharded(_walk, (q, k, n, m, max_sequences), q ** m, threads)
        nodes = sum(part[1] for part in parts)
        if nodes > max_sequences:
            raise GuardExceeded("count walk nodes", nodes, max_sequences)
        count = sum(part[0] for part in parts)
    return CountResult(q=q, k=k, n=n, m=m, count=count, bound=bound,
                       passed=count <= bound)


class ProfileRow(NamedTuple):
    n: int
    mean: float
    vmin: int
    vmax: int
    p05: int
    p50: int
    p95: int
    ref: float
    below1: float  # fraction of samples under ref - 1
    below2: float  # fraction of samples under ref - 2


class ProfileStats(NamedTuple):
    q: int
    k: int
    samples: int
    seed: int
    grid: tuple[int, ...]
    rows: tuple[ProfileRow, ...]


def _mc_samples(q: int, k: int, grid, seed: int, max_monomials: int,
                lo: int, hi: int) -> list[list[int]]:
    field = field_of_order(q)
    nmax = max(grid)
    out = []
    for i in range(lo, hi):
        seq = random_sequence(field, nmax, child_seed(seed, i))
        prof = profile(seq, k, "nk", max_monomials=max_monomials)
        out.append([prof[n - 1] for n in grid])
    return out


def _nearest_rank(sorted_vals, frac: float) -> int:
    idx = max(0, math.ceil(frac * len(sorted_vals)) - 1)
    return sorted_vals[idx]


def monte_carlo_profile(q: int, k: int, grid, samples: int, seed: int, *,
                        threads: int = 1,
                        max_monomials: int = DEFAULT_MAX_MONOMIALS) -> ProfileStats:
    """Per-length complexity statistics over seeded random sequences.

    Sample i is generated from child_seed(seed, i), so results do not
    depend on sharding.  Percentiles use the nearest-rank rule.
    """
    grid = tuple(sorted(set(int(n) for n in grid)))
    if not grid or grid[0] < 1:
        raise ValueError("grid must contain lengths >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    field_of_order(q)  # validates q
    parts = _sharded(_mc_samples, (q, k, grid, seed, max_monomials), samples, threads)
    rows_per_sample = [row for part in parts for row in part]

    rows = []
    for gi, n in enumerate(grid):
        vals = sorted(r[gi] for r in rows_per_sample)
        ref = math.log(n) / math.log(k + 1)
        rows.append(ProfileRow(
            n=n,
            mean=sum(vals) / samples,
            vmin=vals[0],
            vmax=vals[-1],
            p05=_nearest_rank(vals, 0.05),
            p50=_nearest_rank(vals, 0.50),
            p95=_nearest_rank(vals, 0.95),
            ref=ref,
            below1=sum(1 for v in vals if v < ref - 1) / samples,
            below2=sum(1 for v in vals if v < ref - 2) / samples,
        ))
    return ProfileStats(q=q, k=k, samples=samples, seed=seed, grid=grid,
                        rows=tuple(rows))


def empirical_constant(stats: ProfileStats) -> float:
    """Least-squares slope of mean complexity against log n.

    For profiles tracking c * log(n)/log(k+1) this recovers c/log(k+1).
    """
    if len(stats.grid) < 3:
        raise ValueError("need at least 3 grid points")
    xs = [math.log(n) for n in stats.grid]
    ys = [row.mean for row in stats.rows]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    var = sum((x - xbar) ** 2 for x in xs)
    if var == 0:
        raise ValueError("grid is degenerate")
    cov = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    return cov / var
