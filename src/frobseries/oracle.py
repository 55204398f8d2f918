"""Brute-force counts of generalized Frobenius partitions.

A symbol is a two-rowed array of nonnegative integers with equal row
lengths s; its weight is s plus the sum of all entries.  The phi_k family
allows each value to repeat at most k times within a row; the cphi_k
family attaches one of k colors to every entry and requires the
(value, color) pairs within a row to be distinct.

These counts enumerate the objects directly from the definition and are
deliberately independent of the generating-function pipelines they
validate.  Enumeration is exponential, so both entry points carry small
default guards; set FROBSERIES_GUARD_OVERRIDE=1 to lift them.
"""

from __future__ import annotations

import os

PHI_WEIGHT_GUARD = 20
CPHI_WEIGHT_GUARD = 8
CPHI_COLOR_GUARD = 3


class GuardError(Exception):
    """Enumeration request outside the configured brute-force guards."""


def _guards_lifted() -> bool:
    """Whether FROBSERIES_GUARD_OVERRIDE is exactly "1"; "0", "" or any
    other value keeps the guards."""
    return os.environ.get("FROBSERIES_GUARD_OVERRIDE") == "1"


def _rows(length, total, max_value, k):
    """Weakly decreasing rows: given length, exact sum, entries <= max_value,
    each value repeated at most k times."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for value in range(min(max_value, total), -1, -1):
        for rep in range(1, min(k, length) + 1):
            if rep * value > total:
                break
            head = (value,) * rep
            for tail in _rows(length - rep, total - rep * value, value - 1, k):
                yield head + tail


def _colored_rows(length, total, k, bound):
    """Canonical colored rows: distinct (value, color) pairs sorted by
    decreasing value, ties broken by decreasing color; exact value-sum.
    ``bound`` is the largest (value, color) pair still available."""
    if length == 0:
        if total == 0:
            yield ()
        return
    max_value, max_color = bound
    for value in range(min(max_value, total), -1, -1):
        top_color = max_color if value == max_value else k
        for color in range(top_color, 0, -1):
            for tail in _colored_rows(
                length - 1, total - value, k, (value, color - 1)
            ):
                yield ((value, color),) + tail


def _colored_row_count(length, total, k):
    bound = (total, k)
    return sum(1 for _ in _colored_rows(length, total, k, bound))


def count_phi(k: int, n: int) -> int:
    """Number of weight-n symbols whose rows repeat no value more than k times."""
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    if n > PHI_WEIGHT_GUARD and not _guards_lifted():
        raise GuardError(
            f"weight {n} exceeds enumeration guard {PHI_WEIGHT_GUARD}"
        )
    total = 0
    for s in range(n + 1):
        budget = n - s
        top_counts = [
            sum(1 for _ in _rows(s, t, budget, k)) for t in range(budget + 1)
        ]
        for t in range(budget + 1):
            total += top_counts[t] * top_counts[budget - t]
    return total


def count_cphi(k: int, n: int) -> int:
    """Number of weight-n symbols with k colors and distinct colored entries."""
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    if (n > CPHI_WEIGHT_GUARD or k > CPHI_COLOR_GUARD) and not _guards_lifted():
        raise GuardError(
            f"(k={k}, n={n}) exceeds enumeration guards "
            f"(k <= {CPHI_COLOR_GUARD}, n <= {CPHI_WEIGHT_GUARD})"
        )
    total = 0
    for s in range(n + 1):
        budget = n - s
        # a row of length s needs s distinct colored entries; values can
        # repeat at most k times (one per color), so s <= k*(budget+1)
        if s > k * (budget + 1):
            continue
        row_counts = [
            _colored_row_count(s, t, k) for t in range(budget + 1)
        ]
        for t in range(budget + 1):
            total += row_counts[t] * row_counts[budget - t]
    return total
