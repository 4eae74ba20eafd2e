"""Counting and Monte Carlo experiments.

exhaustive_count enumerates every length-n sequence over F_q and counts
those whose per-variable-cap complexity is at most m, checking the count
against the closed form q^((k+1)^m + m).  monte_carlo_profile draws
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
from dataclasses import dataclass

from .complexity import DEFAULT_MAX_MONOMIALS, GuardExceeded, complexity_at_most, profile
from .finite_field import field_of_order
from .generators import child_seed, random_sequence

DEFAULT_MAX_SEQUENCES = 1 << 22


@dataclass(frozen=True)
class CountResult:
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


def _count_range(q: int, k: int, n: int, m: int, start: int, stop: int) -> int:
    field = field_of_order(q)
    count = 0
    vals = [0] * n
    for code in range(start, stop):
        t = code
        for i in range(n):
            vals[i] = t % q
            t //= q
        if complexity_at_most(field, vals, k, m):
            count += 1
    return count


def exhaustive_count(q: int, k: int, n: int, m: int, *,
                     max_sequences: int = DEFAULT_MAX_SEQUENCES,
                     threads: int = 1) -> CountResult:
    """Count sequences of length n over F_q with complexity <= m.

    Sequences are enumerated by integer code, the least significant
    base-q digit being the first term.
    """
    field_of_order(q)  # validates q
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    total = q ** n
    if total > max_sequences:
        raise GuardExceeded("sequence enumeration", total, max_sequences)
    bound = q ** ((k + 1) ** m + m)
    if n == 1:
        count = total if m >= 1 else 1
    elif m >= n - 1:
        count = total  # every sequence has complexity <= n - 1
    else:
        count = sum(_sharded(_count_range, (q, k, n, m), total, threads))
    return CountResult(q=q, k=k, n=n, m=m, count=count, bound=bound,
                       passed=count <= bound)


@dataclass(frozen=True)
class ProfileRow:
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


@dataclass(frozen=True)
class ProfileStats:
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
