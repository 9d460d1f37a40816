"""Vectorised enumeration kernel: `_pykernel`'s scan, one tree level at a time.

The frontier of a scan is held node-minor: the masks, negative counts and
even-block counts (a node's odd blocks are the rest of the blocks it has set)
are arrays of N entries, one per node, and the partial autocorrelations are an
int8 array of shape (m // 2, N), whose row s-1 holds shift s. The mask is a
node's only record of its signs: before entry k is set, bit s-1 of the mask is
entry k-s, so the signs that entry k meets are the mask's low bits, read as
rows in the same forward order as the partial sums. So every step of a level
is one vector operation along the N nodes. At each level the row-sum window,
the balance quota (which reads bit m // 2 - 1, entry k - m // 2) and the
autocorrelation bound of `_pykernel` are applied to both children of every
node, whose partial sums, counts and masks are computed once as (..., 2, N)
arrays; the surviving columns are then gathered as the children. Child b of
node i is 2i+b, so both kernels reach the same rows in the same order.

Partial sums that have not started are zero. A leaf closes its wrapped shifts
with signs read from both ends of its mask. So a node of even order m holds
m/2 + 10 bytes: 8 of mask, 2 of counts and m/2 of partial sums.

`scan_partitions` scans many partitions as one batched frontier, grown from
the empty row by the same step at every level. Inside the prefixes that step
also drops the children on no pending prefix's path, so a prefix is entered one
entry at a time and pruned like any other node; a prefix pruned inside itself
has no leaves and is still yielded, with none reached. Each leaf is credited to
its partition by its top bits. Children that number more than `FRONTIER_CAP`
are gathered as two halves, and the first half is finished before the second
is started. The stack of pending halves holds at most one half per level, so
at most about m * FRONTIER_CAP nodes are held at once, and the lowest
unfinished prefix is always on top of that stack. Every partition below it is
done, so results are yielded in prefix order as soon as they are final.
"""

from __future__ import annotations

import numpy as np

from . import _pykernel

BACKEND = "numpy"
# Measured on 2 vCPUs (BENCH_17.json) at m + 11 bytes a node (m/2 + 10 now): 16384
# cut the benchmark's order-20 search rounds by 28-36% against 4096 and moved the
# serial search's peak RSS by less than 0.1 MB; 32768 raised that peak by 1.1 MB more.
FRONTIER_CAP = 16384

_HASH_MULT = np.uint64(_pykernel._HASH_MULT)
_BOTH_BITS = np.array([0, 1], dtype=np.uint8)
_CHILD_SIGNS = np.array([[1], [-1]], dtype=np.int8)  # entry k's sign in child b
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

    Only the benchmark's tracer calls it, as its hook into the kernel, until the
    benchmark traces `scan_partitions` itself (ROADMAP item 1).
    """
    ((_, *result),) = scan_partitions(
        m, [prefix], depth, row_sum_on, adm_mask, balance_on, paf_prefix_on, cc_threshold
    )
    return tuple(result)


def _mask_signs(masks: np.ndarray, count: int) -> np.ndarray:
    """Row s of the (count, len(masks)) int8 result is the sign of bit s of each mask.

    A set bit is -1. Only the low 32 bits are read (count <= 32), so the
    shifts run on the masks' low word as uint32. The signs are formed in place:
    one more temporary raised the benchmark's serial search peak RSS.
    """
    bits = masks.astype(np.uint32) >> np.arange(count, dtype=np.uint32)[:, None]
    bits &= np.uint32(1)
    signs = bits.astype(np.int8)
    signs *= -2
    signs += 1
    return signs


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
    track_balance = balance_on and m % 4 == 0
    quota = m // 4
    # row_sum_window[k, v]: some admissible count is still reachable from v
    # negatives once entry k is set, with m-k-1 entries left (Python ints, so m = 64 fits)
    row_sum_window = np.array(
        [[(adm_mask >> v) & ((1 << (m - k)) - 1) != 0 for v in range(m + 1)] for k in range(m)],
        dtype=bool,
    )

    def children(nodes, k: int) -> tuple[list, np.ndarray]:
        """Both children of every node at entry k, and which of them survive pruning.

        Returns (kids, keep). kids holds the children's masks, partial sums,
        negative and even-block counts as (..., 2, N) arrays, with the child of
        node i with bit b in column [b, i]; keep[b, i] says that child survives.
        """
        masks, partial, negs, evens = nodes
        shifts = min(k, half)
        signs = _mask_signs(masks, shifts)  # row s-1 is entry k-s, which shift s pairs with entry k
        sums = np.zeros((half, 2, len(masks)), dtype=np.int8)
        np.add(partial[:shifts], signs, out=sums[:shifts, 0])
        np.subtract(partial[:shifts], signs, out=sums[:shifts, 1])
        kid_negs = negs + _BOTH_BITS[:, None]
        kid_evens = np.stack([evens, evens])
        keep = np.ones((2, len(masks)), dtype=bool)
        if row_sum_on:
            keep &= row_sum_window[k, kid_negs]
        if track_balance and k >= half:
            kid_evens += signs[half - 1] == _CHILD_SIGNS  # entry k-half has the child's sign
            keep &= (kid_evens <= quota) & (k + 1 - half - kid_evens <= quota)
        if paf_prefix_on and shifts:
            remaining = (m - k - 1 + np.arange(1, shifts + 1, dtype=np.int8))[:, None]
            for b in (0, 1):
                keep[b] &= np.all(np.abs(sums[:shifts, b]) <= remaining, axis=0)
        return [(masks << np.uint64(1)) | _BOTH_BITS[:, None], sums, kid_negs, kid_evens], keep

    def advance(nodes, k: int) -> list:
        """The children at entry k that survive pruning and, above `depth`, lie on a prefix.

        Returns them as one frontier, or as two halves when they number more than
        `FRONTIER_CAP`; each half is gathered on its own, so neither keeps the
        other's columns alive. Empties `nodes`, so the parents are freed before
        the children are gathered.
        """
        kids, keep = children(nodes, k)
        nodes.clear()
        if k < depth:
            # child c holds the leaves from c << shift on; it lies on a prefix
            # when the first partition starting there starts under c
            shift = np.uint64(m - 1 - k)
            at = np.minimum(np.searchsorted(starts, kids[0] << shift), count - 1)
            keep &= starts[at] >> shift == kids[0]
        width = keep.shape[1]
        # child b of node i is 2i+b, so the rows stay in order, and it is column b*N + i
        # of each kid array; built in place, as each temporary raised the peak RSS
        cols = np.flatnonzero(keep.T)
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
        # entry m-1's row-sum window and quota already admit only admissible, balanced rows
        masks, partial, _, _ = nodes
        nodes.clear()
        part = np.searchsorted(starts, masks, side="right") - 1  # sorted, as the masks are
        counts = np.bincount(part - part[0])  # the caller closes only non-empty frontiers
        reached[part[0] : part[0] + len(counts)] += counts
        last = _mask_signs(masks, half)  # row u is entry m-1-u
        head = _mask_signs(masks >> np.uint64(m - half), half)  # row t is entry half-1-t
        flat = np.arange(len(masks))  # the leaves whose shifts so far sum to 0
        for s in range(1, half + 1):
            # entries m-s.. wrap onto entries ..s-1: row u of last, entry m-1-u, pairs
            # with entry s-1-u, row half-s+u of head; each sum is at most m <= 64
            wrap = np.einsum("ij,ij->j", last[:s, flat], head[half - s :, flat])
            flat = flat[partial[s - 1, flat] + wrap == 0]
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

    # The scan starts from the empty row, one node. Partial sums and counts never
    # exceed m <= 64 in size, so int8 holds them.
    root = [np.zeros(1, dtype=np.uint64), np.zeros((half, 1), dtype=np.int8),
            np.zeros(1, dtype=np.uint8), np.zeros(1, dtype=np.int8)]
    pending = [(0, root)] if count else []

    done = 0
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
            bound = count
        for i in range(done, bound):
            yield prefixes[i], int(reached[i]), found[i], np.concatenate(sampled.pop(i, [_NO_MASKS]))
        done = bound
