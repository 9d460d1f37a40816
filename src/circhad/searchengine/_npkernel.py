"""Vectorised enumeration kernel: `_pykernel`'s scan, one tree level at a time.

The frontier of a scan is held as arrays with one entry per node: the mask,
the signs assigned so far, the partial autocorrelations, the negative count
and the even-block count (a node's odd blocks are the rest of the blocks it
has set). At each level the row-sum window, the balance quota and the
autocorrelation bound of `_pykernel` are applied to both children of every
node as boolean masks, and only the surviving children are built. Child 0 of a
node sits before child 1, so both kernels reach the same rows in the same order.

`scan_partitions` scans many partitions as one batched frontier: every
pending prefix is installed at once, and each leaf is credited to its
partition by its top bits. A frontier larger than `FRONTIER_CAP` is split in
two and the first half is finished before the second is started, so at most
about m * FRONTIER_CAP nodes are held at once, and the lowest unfinished
prefix is always on top of the stack of pending halves. Every partition below
it is done, so results are yielded in prefix order as soon as they are final.
"""

from __future__ import annotations

import numpy as np

from . import _pykernel

BACKEND = "numpy"
# Measured on 2 vCPUs: 2048 scans orders 20 to 28 about 10% slower, and 8192
# is no faster at order 20 while holding more memory.
FRONTIER_CAP = 4096

_HASH_MULT = np.uint64(_pykernel._HASH_MULT)
_SIGN = np.array([1, -1], dtype=np.int8)  # sign of an entry, indexed by its bit
_BOTH_BITS = np.array([0, 1], dtype=np.uint8)


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
    """Enumerate the masks under (prefix, depth); see `_pykernel.scan_subtree`."""
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

    Yields (prefix, reached, found_masks, crosschecked, mismatches) for every
    prefix, in order; each tuple after the prefix is `scan_subtree`'s result.
    """
    half = m // 2
    nshift = half
    track_balance = balance_on and m % 4 == 0
    quota = m // 4
    # window[k, v]: some admissible count is still reachable from v negatives
    # once entry k is set, with m-k-1 entries left (Python ints, so m = 64 fits)
    window = np.array(
        [[(adm_mask >> v) & ((1 << (m - k)) - 1) != 0 for v in range(m + 1)] for k in range(m)],
        dtype=bool,
    )

    def assign(nodes, k: int, bits: np.ndarray) -> None:
        """Set entry k of every node in place; bits[i] is node i's new bit."""
        masks, signs, partial, negs, evens = nodes
        r = _SIGN[bits]
        signs[:, k] = r
        shifts = min(k, nshift)
        # column s-1 of partial holds shift s, which pairs entry k with entry k-s
        partial[:, :shifts] += signs[:, k - shifts : k][:, ::-1] * r[:, None]
        negs += bits
        if track_balance and k >= half:
            evens += signs[:, k - half] == r
        nodes[0] = (masks << np.uint64(1)) | bits

    def children(nodes, k: int) -> np.ndarray:
        """keep[i, b]: the child of node i with bit b at entry k survives pruning."""
        _, signs, partial, negs, evens = nodes
        keep = np.ones((len(negs), 2), dtype=bool)
        if row_sum_on:
            keep &= window[k, negs[:, None] + _BOTH_BITS]
        if track_balance and k >= half:
            plus_is_even = signs[:, k - half] == 1
            child_evens = evens[:, None] + np.stack([plus_is_even, ~plus_is_even], axis=1)
            keep &= (child_evens <= quota) & (k + 1 - half - child_evens <= quota)
        shifts = min(k, nshift)
        if paf_prefix_on and shifts:
            remaining = m - k - 1 + np.arange(1, shifts + 1)
            step = signs[:, k - shifts : k][:, ::-1]
            part = partial[:, :shifts]
            keep[:, 0] &= np.all(np.abs(part + step) <= remaining, axis=1)
            keep[:, 1] &= np.all(np.abs(part - step) <= remaining, axis=1)
        return keep

    def credit(totals: np.ndarray, part: np.ndarray) -> None:
        """Add one to totals[i] for every entry i of the sorted partition indices."""
        if len(part):
            counts = np.bincount(part - part[0])
            totals[part[0] : part[0] + len(counts)] += counts

    count = len(prefixes)
    # leaves from starts[i] up to starts[i + 1] belong to prefixes[i]
    starts = np.array([prefix << (m - depth) for prefix in prefixes], dtype=np.uint64)
    reached = np.zeros(count, dtype=np.int64)
    crosschecked = np.zeros(count, dtype=np.int64)
    mismatches = np.zeros(count, dtype=np.int64)
    found: list[list[int]] = [[] for _ in range(count)]

    # The fixed prefixes are installed without prune checks, as in _pykernel.
    # Partial sums and counts never exceed m <= 64 in size, so int8 holds them.
    bits = np.array(prefixes, dtype=np.uint64)
    nodes = [
        np.zeros(count, dtype=np.uint64),
        np.zeros((count, m), dtype=np.int8),
        np.zeros((count, nshift), dtype=np.int8),
        np.zeros(count, dtype=np.int8),
        np.zeros(count, dtype=np.int8),
    ]
    for k in range(depth):
        assign(nodes, k, ((bits >> np.uint64(depth - 1 - k)) & np.uint64(1)).astype(np.uint8))
    pending = [(depth, [a[i : i + FRONTIER_CAP] for a in nodes])
               for i in reversed(range(0, count, FRONTIER_CAP))]

    done = 0
    while pending:
        k, nodes = pending.pop()
        while k < m and len(nodes[0]):
            survivors = np.flatnonzero(children(nodes, k))  # child b of node i is 2i+b
            nodes = [a.take(survivors >> 1, axis=0) for a in nodes]
            assign(nodes, k, (survivors & 1).astype(np.uint8))
            k += 1
            if len(nodes[0]) > FRONTIER_CAP:
                cut = len(nodes[0]) // 2
                pending.append((k, [a[cut:].copy() for a in nodes]))
                nodes = [a[:cut] for a in nodes]
        if k == m and len(nodes[0]):
            masks, signs, partial, negs, evens = nodes
            ok = np.ones(len(masks), dtype=bool)
            if row_sum_on:
                ok &= window[m - 1, negs]  # a window one count wide: negs itself is admissible
            if track_balance:
                ok &= evens == quota  # a leaf has set all 2 * quota blocks
            masks, signs, partial = masks[ok], signs[ok], partial[ok]
            part = np.searchsorted(starts, masks, side="right") - 1
            credit(reached, part)
            flat = np.ones(len(masks), dtype=bool)
            for s in range(1, nshift + 1):
                wrap = np.einsum("ij,ij->i", signs[:, m - s :], signs[:, :s], dtype=np.int64)
                flat &= partial[:, s - 1] + wrap == 0
            for mask, i in zip(masks[flat].tolist(), part[flat].tolist()):
                found[i].append(mask)
            if cc_threshold:
                picked = (masks * _HASH_MULT) >> np.uint64(32) < np.uint64(cc_threshold)
                verdicts = _pykernel.gram_hadamard_batch(masks[picked], m)
                credit(crosschecked, part[picked])
                credit(mismatches, part[picked][verdicts != flat[picked]])
        if pending:
            top_k, top = pending[-1]
            lowest = np.uint64(int(top[0][0]) << (m - top_k))
            bound = int(np.searchsorted(starts, lowest, side="right")) - 1
        else:
            bound = count
        for i in range(done, bound):
            yield prefixes[i], int(reached[i]), found[i], int(crosschecked[i]), int(mismatches[i])
        done = bound
