"""Subsets of a finite carrier encoded as int bit vectors (bit i <=> point i)."""
from __future__ import annotations

from typing import Iterable, Sequence


# the members of every mask below 256, decoded once at import
_SMALL_BITS = tuple(tuple(i for i in range(8) if m >> i & 1) for m in range(256))


def bits_of(mask: int) -> tuple[int, ...]:
    """Members of the subset, ascending."""
    if mask < 256:
        return _SMALL_BITS[mask]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def union_of(rows: Sequence[int], mask: int) -> int:
    """The OR of ``rows[i]`` over the members i of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def low_bit(mask: int) -> int:
    """Index of the lowest member of a non-empty subset."""
    return (mask & -mask).bit_length() - 1


def full_mask(n: int) -> int:
    return (1 << n) - 1


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def subset_key(mask: int) -> tuple[int, int]:
    """Canonical sort key for subsets: cardinality first, then numeric value."""
    return (mask.bit_count(), mask)


def canonical_subsets(masks: Iterable[int]) -> tuple[int, ...]:
    """Deduplicate and sort a family of subsets into canonical order."""
    return tuple(sorted(set(masks), key=subset_key))
