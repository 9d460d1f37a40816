"""Vectorised enumeration kernel: `_pykernel`'s scan, one tree level at a time.

The frontier of a scan is held node-minor: the masks and negative counts are
arrays of N entries, one per node, and the partial autocorrelations are an
int8 array of shape (m // 2, N), whose row s-1 holds shift s. The mask is a
node's only record of its signs: before entry k is set, bit s-1 of the mask is
entry k-s, so the signs that entry k meets are the mask's low bits, read as
rows in the same forward order as the partial sums. So every step of a level
is one vector operation along the N nodes. At each level the row-sum window,
the block balance and the autocorrelation bound of `_pykernel` are applied to
both children of every node, whose partial sums, counts and masks are computed
once as (..., 2, N) arrays; the surviving columns are then gathered as the
children. Child b of node i is 2i+b, so both kernels reach the same rows in the
same order. Shift s has k+1-s terms once entry k is set, so its bound m-k-1+s
can fail only for s <= k - m // 2, and only those shifts are tested.

Balance keeps no count of its own. Block j pairs entries j and j + m // 2, and
adds +1 to the shift-m/2 sum when it is even and -1 when it is odd, so that
partial sum P is the even blocks less the odd ones set so far: PAF(2n) =
2·(even - odd) for a whole row of order 4n. With t = k+1-m//2 blocks set once
entry k is, neither kind exceeds m/4 exactly when |P| <= m/2 - t = m-k-1.

Partial sums that have not started are zero. A leaf closes its wrapped shifts
with signs read from both ends of its mask, in one pass over its shifts. So a
node of even order m holds m/2 + 9 bytes: 8 of mask, 1 of negative count and
m/2 of partial sums.

`scan_partitions` scans many partitions as one batched frontier. It does not
walk down from the empty row: every filter is monotone along a row (a node
that fails at one entry fails at every later one), so the nodes the walk would
reach at a level L >= depth are exactly the L-entry extensions of the pending
prefixes that pass the filters at entry L-1. The scan seeds them at once, at
the deepest level up to m // 2 (before that entry the bounds hardly prune)
whose extensions number at most `FRONTIER_CAP`, or at `depth` in chunks of
`FRONTIER_CAP` prefixes, each finished before the next is seeded; a prefix
that fails there has no leaves and is still yielded, with none reached. Each
leaf is credited to its partition by its top bits. Children that number more
than `FRONTIER_CAP` are gathered as two halves, and the first half is finished
before the second is started. The stack of pending halves holds at most one
half per level, so at most about m * FRONTIER_CAP nodes are held at once, and
the lowest unfinished prefix is always on top of that stack. Every partition
below it is done, so results are yielded in prefix order as soon as they are
final.
"""

from __future__ import annotations

import numpy as np

from ..signs import mask_signs
from . import _pykernel

BACKEND = "numpy"
# The most nodes a level gathers at once, and a seed holds. Measured on 2 vCPUs
# (BENCH_17.json) at m + 11 bytes a node (m/2 + 9 now): 16384 cut the benchmark's
# order-20 search rounds by 28-36% against 4096 and moved the serial search's peak
# RSS by less than 0.1 MB; 32768 raised that peak by 1.1 MB more.
FRONTIER_CAP = 16384

_HASH_MULT = np.uint64(_pykernel._HASH_MULT)
_BOTH_BITS = np.array([0, 1], dtype=np.uint8)
_NO_MASKS = np.empty(0, dtype=np.uint64)


def scan_subtree(
    m: int,
    prefix: int,
    depth: int,
    row_sum_on: bool,
    adm_mask: int,
    balance_on: bool,
    paf_prefix_on: bool,
    cc_threshold: int,
):
    """`scan_partitions` of the one prefix, as (reached, found_masks, sampled_masks).

    The benchmark's tracer hooks into the kernel here, until it traces
    `scan_partitions` itself (ROADMAP item 1); a test also compares the two.
    """
    ((_, *result),) = scan_partitions(
        m, [prefix], depth, row_sum_on, adm_mask, balance_on, paf_prefix_on, cc_threshold
    )
    return tuple(result)


def scan_partitions(
    m: int,
    prefixes: list[int],
    depth: int,
    row_sum_on: bool,
    adm_mask: int,
    balance_on: bool,
    paf_prefix_on: bool,
    cc_threshold: int,
):
    """Scan the subtrees under each of the sorted `prefixes` at `depth`.

    Yields (prefix, reached, found_masks, sampled_masks) for every prefix, in
    order, as `_pykernel.scan_partitions` does.
    """
    half = m // 2  # the shifts checked
    # row_sum_window[k, v]: some admissible count is still reachable from v
    # negatives once entry k is set, with m-k-1 entries left (Python ints, so m = 64 fits)
    row_sum_window = np.array(
        [[(adm_mask >> v) & ((1 << (m - k)) - 1) != 0 for v in range(m + 1)] for k in range(m)],
        dtype=bool,
    )

    def passing(k: int, sums, negs) -> np.ndarray:
        """keep[b, i]: node [b, i] passes every filter at entry k, given its partial
        sums (..., B, N) and negative counts (B, N) once entry k is set."""
        keep = np.ones(negs.shape, dtype=bool)
        if row_sum_on:
            keep &= row_sum_window[k, negs]
        if balance_on and m % 4 == 0 and k >= half:
            keep &= np.abs(sums[half - 1]) <= m - k - 1  # at most m/4 blocks of each kind
        if paf_prefix_on and k > half:
            # shift s has k+1-s terms, so only shifts up to k - half can exceed m-k-1+s
            remaining = (m - k - 1 + np.arange(1, k - half + 1, dtype=np.int8))[:, None]
            for b, row in enumerate(keep):
                row &= np.all(np.abs(sums[: k - half, b]) <= remaining, axis=0)
        return keep

    def seed(chunk: list[int], level: int) -> list:
        """The nodes at `level` under the prefixes of `chunk` that pass every filter.

        Each passed the filters at every earlier entry, as they are monotone.
        """
        low = np.arange(1 << (level - depth), dtype=np.uint64)
        masks = (np.array(chunk, dtype=np.uint64)[:, None] << np.uint64(level - depth) | low).ravel()
        signs = mask_signs(masks, level)  # row j is entry level-1-j
        # partial sums and counts never exceed m <= 64 in size, so int8 holds them
        partial = np.zeros((half, len(masks)), dtype=np.int8)
        for s in range(1, min(level - 1, half) + 1):
            np.einsum("ij,ij->j", signs[s:], signs[: level - s], out=partial[s - 1])
        negs = np.count_nonzero(signs < 0, axis=0).astype(np.uint8)
        del signs
        if not level:  # the empty row, which has no entry to test
            return [masks, partial, negs]
        keep = passing(level - 1, partial[:, None], negs[None])[0]
        return [masks[keep], partial[:, keep], negs[keep]]

    def children(nodes, k: int) -> tuple[list, np.ndarray]:
        """Both children of every node at entry k, and which of them survive pruning.

        Returns (kids, keep). kids holds the children's masks, partial sums and
        negative counts as (..., 2, N) arrays, with the child of node i with bit
        b in column [b, i]; keep[b, i] says that child survives.
        """
        masks, partial, negs = nodes
        shifts = min(k, half)
        signs = mask_signs(masks, shifts)  # row s-1 is entry k-s, which shift s pairs with entry k
        sums = np.zeros((half, 2, len(masks)), dtype=np.int8)
        np.add(partial[:shifts], signs, out=sums[:shifts, 0])
        np.subtract(partial[:shifts], signs, out=sums[:shifts, 1])
        kid_negs = negs + _BOTH_BITS[:, None]
        keep = passing(k, sums, kid_negs)
        return [(masks << np.uint64(1)) | _BOTH_BITS[:, None], sums, kid_negs], keep

    def advance(nodes, k: int) -> list:
        """The children at entry k that survive pruning.

        Returns them as one frontier, or as two halves when they number more than
        `FRONTIER_CAP`; each half is gathered on its own, so neither keeps the
        other's columns alive. Empties `nodes`, so the parents are freed before
        the children are gathered.
        """
        kids, keep = children(nodes, k)
        nodes.clear()
        width = keep.shape[1]
        # child b of node i is 2i+b, so the rows stay in order, and it is column b*N + i
        # of each kid array; keep's (N, 2) copy is contiguous, unlike keep.T, which was
        # a level's slowest step; built in place, as each temporary raised the peak RSS
        cols = np.flatnonzero(np.stack((keep[0], keep[1]), axis=1))
        offsets = cols & 1
        offsets *= width
        cols >>= 1
        cols += offsets
        del offsets
        n = len(cols)
        bounds = ((0, n // 2), (n // 2, n)) if n > FRONTIER_CAP else ((0, n),)
        return [[kid.reshape(*kid.shape[:-2], 2 * width).take(cols[a:b], axis=-1) for kid in kids]
                for a, b in bounds]

    def close(nodes) -> None:
        """Credit the leaves to their partitions and record the flat and sampled ones.

        Empties `nodes`, and keeps nothing of them but the recorded masks, so the
        leaves are freed before their partitions are yielded.
        """
        # entry m-1's row-sum window and balance bound admit only admissible, balanced rows
        masks, partial, _ = nodes
        nodes.clear()
        part = np.searchsorted(starts, masks, side="right") - 1  # sorted, as the masks are
        counts = np.bincount(part - part[0])  # the caller closes only non-empty frontiers
        reached[part[0] : part[0] + len(counts)] += counts
        last = mask_signs(masks, half)  # row u is entry m-1-u
        head = mask_signs(masks >> np.uint64(m - half), half)  # row t is entry half-1-t
        for s in range(1, half + 1):
            # entries m-s.. wrap onto entries ..s-1: row u of last, entry m-1-u, pairs
            # with entry s-1-u, row half-s+u of head; each sum is at most m <= 64
            partial[s - 1] += np.einsum("ij,ij->j", last[:s], head[half - s :])
        flat = np.flatnonzero(~partial.any(axis=0))  # the leaves whose shifts all sum to 0
        for mask, i in zip(masks[flat].tolist(), part[flat].tolist()):
            found[i].append(mask)
        if cc_threshold:
            picked = (masks * _HASH_MULT) >> np.uint64(32) < np.uint64(cc_threshold)
            # where each partition's run starts; np.unique in place of np.diff raised
            # the peak RSS of the matrices benchmark by about 0.25 MB (BENCH_13.json)
            owner = part[picked]
            firsts = np.flatnonzero(np.diff(owner, prepend=-1))
            for i, chunk in zip(owner[firsts].tolist(), np.split(masks[picked], firsts[1:])):
                sampled.setdefault(i, []).append(chunk)

    count = len(prefixes)
    # leaves from starts[i] up to starts[i + 1] belong to prefixes[i]
    starts = np.array([prefix << (m - depth) for prefix in prefixes], dtype=np.uint64)
    reached = np.zeros(count, dtype=np.int64)
    found: list[list[int]] = [[] for _ in range(count)]
    sampled: dict[int, list[np.ndarray]] = {}  # unyielded partitions' sampled masks, in chunks

    # The seed's level: depth, deepened toward m // 2 while its 2^(level - depth) * count
    # nodes fit the cap; more prefixes than the cap are seeded in chunks, one at a time.
    level = depth + max(0, min(half - depth, (FRONTIER_CAP // max(count, 1)).bit_length() - 1))
    size = FRONTIER_CAP >> (level - depth)  # prefixes seeded at once
    done = 0
    for first in range(0, count, size):
        pending = [(level, seed(prefixes[first : first + size], level))]
        while pending:
            k, nodes = pending.pop()
            while k < m and len(nodes[0]):
                nodes, *rest = advance(nodes, k)
                k += 1
                pending.extend((k, kids) for kids in rest)
            if k == m and len(nodes[0]):
                close(nodes)
            if pending:
                top_k, top = pending[-1]
                lowest = np.uint64(int(top[0][0]) << (m - top_k))
                bound = int(np.searchsorted(starts, lowest, side="right")) - 1
            else:
                bound = min(first + size, count)
            for i in range(done, bound):
                yield prefixes[i], int(reached[i]), found[i], np.concatenate(sampled.pop(i, [_NO_MASKS]))
            done = bound
