"""One pair kernel for the stability harness and the monotonicity estimators.

Every walk over the unordered pairs of a table or a graph sample goes
through :class:`Pairs`: the pair terms of the inequality check, the
parameter-frozen Rayleigh ratios and the v-frozen slice of the moduli fit,
and the ratios of :mod:`fullstab.monotone`.  The pairs are walked in
consecutive blocks of at most ``_BLOCK``; a block gathers its rows with
``ndarray.take`` and is reduced row-wise (``np.linalg.norm(axis=1)``,
``einsum("ij,ij->i")``), whose per-row bits do not depend on how many rows
are stacked.  So the block size bounds the temporaries of a walk and
changes none of its results: per-pair outputs are written into
preallocated arrays (:func:`pair_map`), and a reduction keeps a running
extreme with the first-index tie-break of ``np.argmin`` (:func:`pair_extreme`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Pairs", "slices", "diff", "pair_map", "pair_extreme"]

# pairs per block; the temporaries of a walk scale with it, its results do
# not.  At 4096 a table of a few hundred nodes (tens of thousands of pairs)
# already walks in several blocks, so its peak stays below that of whole
# stacks, while the 200k capped pairs of a large table take 49 blocks.
_BLOCK = 4096


class Pairs:
    """The pairs of ``count`` points, in a fixed order.

    Pair k is ``(index[0][k], index[1][k])`` when index arrays are given (the
    capped subsample of a localization table), else the k-th i < j of
    ``range(count)`` in ``np.triu_indices`` order, which is generated block by
    block and never held whole.  ``rows`` maps both ends to rows of the
    arrays being compared (a parameter-frozen group, a v-frozen slice)."""

    def __init__(self, count: int, index=None, rows=None):
        self.index = index
        self.rows = rows
        if index is None:
            i = np.arange(count, dtype=np.int64)
            self._starts = i * (2 * count - i - 1) // 2  # position of (i, i + 1)
            self.size = count * (count - 1) // 2
        else:
            self.size = index[0].size

    def __len__(self):
        return self.size

    def _ends(self, sl: slice):
        if self.index is None:
            k = np.arange(sl.start, min(sl.stop, self.size), dtype=np.int64)
            ii = np.searchsorted(self._starts, k, side="right") - 1
            jj = k - self._starts.take(ii) + ii + 1
        else:
            ii, jj = self.index[0][sl], self.index[1][sl]
        if self.rows is not None:
            ii, jj = self.rows.take(ii), self.rows.take(jj)
        return ii, jj

    def blocks(self):
        """``(lo, ii, jj)`` for consecutive blocks: pairs lo, lo+1, ... have
        the row indices ii and jj."""
        for sl in slices(self.size):
            yield (sl.start, *self._ends(sl))

    def pair(self, k: int):
        """The row indices of pair k, as ints."""
        ii, jj = self._ends(slice(k, k + 1))
        return int(ii[0]), int(jj[0])


def slices(size: int):
    """Consecutive slices of at most ``_BLOCK`` positions covering range(size)."""
    return (slice(lo, lo + _BLOCK) for lo in range(0, size, _BLOCK))


def diff(a: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """The row differences ``a[ii] - a[jj]`` of a block, gathered by ``take``."""
    return a.take(ii, axis=0) - a.take(jj, axis=0)


def pair_map(pairs: Pairs, terms, count: int):
    """The ``count`` per-pair outputs of ``terms(ii, jj)``, each written
    block by block into its own preallocated array of len(pairs)."""
    outs = [np.empty(len(pairs)) for _ in range(count)]
    for lo, ii, jj in pairs.blocks():
        for out, values in zip(outs, terms(ii, jj)):
            out[lo : lo + ii.size] = values
    return outs


def pair_extreme(pairs: Pairs, values, largest):
    """One ``(kept, best, pair)`` per entry of ``largest``, all from one
    walk over the pairs: ``values(ii, jj)`` returns, per entry, a keep mask
    of the block and the values of its kept pairs; ``best`` is the least
    kept value (the greatest where ``largest`` is true), ``pair`` the row
    indices of its first occurrence and ``kept`` the number of kept pairs.
    A NaN wins as in ``np.argmin``/``np.argmax``.  ``best`` and ``pair`` are
    None when no pair is kept."""
    picks = [np.argmax if big else np.argmin for big in largest]
    out = [[0, None, None] for _ in largest]
    for _, ii, jj in pairs.blocks():
        for acc, pick, big, (keep, vals) in zip(out, picks, largest, values(ii, jj)):
            acc[0] += vals.size
            if not vals.size:
                continue
            k = int(pick(vals))
            if acc[1] is None or _first_wins(vals[k], acc[1], big):
                pos = np.flatnonzero(keep)[k]
                acc[1:] = vals[k], (int(ii[pos]), int(jj[pos]))
    return [tuple(acc) for acc in out]


def _first_wins(value, best, largest: bool) -> bool:
    """Whether a later block's extreme replaces the running one."""
    if np.isnan(best):
        return False
    if np.isnan(value):
        return True
    return value > best if largest else value < best
