"""Vectorised enumeration kernel: `_pykernel`'s scan, one tree level at a time.

The frontier of a scan is held node-minor: the masks, negative counts and
even-block counts (a node's odd blocks are the rest of the blocks it has set)
are arrays of N entries, one per node, and the signs and the partial
autocorrelations are int8 arrays of shape (m, N) and (m // 2, N), with row j
holding entry j and row s-1 holding shift s. So every step of a level is one
vector operation along the N nodes. At each level the row-sum window, the
balance quota and the autocorrelation bound of `_pykernel` are applied to both
children of every node as a (2, N) boolean mask, and only the surviving
children are built. Child b of node i is 2i+b, so both kernels reach the same
rows in the same order.

Building the children is a gather of the parent columns, and it copies only the
rows that later levels read: the last m // 2 signs and the partial sums that
have started. The first entries of a row are dropped once no shift reaches
them; at a leaf they are rebuilt from the mask to close the wrapped shifts.

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
# Measured on 2 vCPUs (BENCH_11.json): 8192 and 16384 scan orders 20 to 28
# 10-30% faster, but raise the peak RSS of the serial search benchmark by 0.7 and
# 1.7 MB; 2048 was about 10% slower than 4096 before the node-minor layout.
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


def _leading_signs(masks: np.ndarray, m: int, count: int) -> np.ndarray:
    """Entries 0 to count-1 of the rows of length m that `masks` encode, node-minor.

    Row j of the (count, len(masks)) int8 result is entry j, which is bit m-1-j.
    One row at a time: a (count, len(masks)) uint64 temporary raised the peak
    RSS of an order-16 cross-checked search by 0.7 MB.
    """
    signs = np.empty((count, len(masks)), dtype=np.int8)
    for j in range(count):
        signs[j] = _SIGN[(masks >> np.uint64(m - 1 - j)) & np.uint64(1)]
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
        signs[k] = r
        shifts = min(k, nshift)
        # row s-1 of partial holds shift s, which pairs entry k with entry k-s
        partial[:shifts] += signs[k - shifts : k][::-1] * r
        negs += bits
        if track_balance and k >= half:
            evens += signs[k - half] == r
        nodes[0] = (masks << np.uint64(1)) | bits

    def children(nodes, k: int) -> np.ndarray:
        """keep[b, i]: the child of node i with bit b at entry k survives pruning."""
        _, signs, partial, negs, evens = nodes
        keep = np.ones((2, len(negs)), dtype=bool)
        if row_sum_on:
            keep &= window[k, negs + _BOTH_BITS[:, None]]
        if track_balance and k >= half:
            plus_is_even = signs[k - half] == 1
            child_evens = evens + np.stack([plus_is_even, ~plus_is_even])
            keep &= (child_evens <= quota) & (k + 1 - half - child_evens <= quota)
        shifts = min(k, nshift)
        if paf_prefix_on and shifts:
            remaining = (m - k - 1 + np.arange(1, shifts + 1, dtype=np.int8))[:, None]
            step = signs[k - shifts : k][::-1]
            part = partial[:shifts]
            keep[0] &= np.all(np.abs(part + step) <= remaining, axis=0)
            keep[1] &= np.all(np.abs(part - step) <= remaining, axis=0)
        return keep

    def gather(nodes, k: int, parents: np.ndarray) -> list:
        """The nodes at `parents`, with only the rows that entries k and later read."""
        masks, signs, partial, negs, evens = nodes
        n = len(parents)
        lo, shifts = max(0, k - nshift), min(k, nshift)
        new_signs = np.empty((m, n), dtype=np.int8)
        new_partial = np.empty((nshift, n), dtype=np.int8)
        new_partial[shifts:] = 0
        signs[lo:k].take(parents, axis=1, out=new_signs[lo:k], mode="clip")
        partial[:shifts].take(parents, axis=1, out=new_partial[:shifts], mode="clip")
        return [masks.take(parents), new_signs, new_partial, negs.take(parents), evens.take(parents)]

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
        np.zeros((m, count), dtype=np.int8),
        np.zeros((nshift, count), dtype=np.int8),
        np.zeros(count, dtype=np.int8),
        np.zeros(count, dtype=np.int8),
    ]
    for k in range(depth):
        assign(nodes, k, ((bits >> np.uint64(depth - 1 - k)) & np.uint64(1)).astype(np.uint8))
    pending = [(depth, [a[..., i : i + FRONTIER_CAP] for a in nodes])
               for i in reversed(range(0, count, FRONTIER_CAP))]

    done = 0
    while pending:
        k, nodes = pending.pop()
        while k < m and len(nodes[0]):
            survivors = np.flatnonzero(children(nodes, k).T)  # child b of node i is 2i+b
            nodes = gather(nodes, k, survivors >> 1)
            assign(nodes, k, (survivors & 1).astype(np.uint8))
            k += 1
            if len(nodes[0]) > FRONTIER_CAP:
                cut = len(nodes[0]) // 2
                pending.append((k, [a[..., cut:].copy() for a in nodes]))
                nodes = [a[..., :cut] for a in nodes]
        if k == m and len(nodes[0]):
            masks, signs, partial, negs, evens = nodes
            ok = np.ones(len(masks), dtype=bool)
            if row_sum_on:
                ok &= window[m - 1, negs]  # a window one count wide: negs itself is admissible
            if track_balance:
                ok &= evens == quota  # a leaf has set all 2 * quota blocks
            leaves = np.flatnonzero(ok)
            masks = masks[leaves]
            part = np.searchsorted(starts, masks, side="right") - 1
            credit(reached, part)
            first = _leading_signs(masks, m, nshift)  # the gather dropped these rows
            flat = np.arange(len(masks))  # the leaves whose shifts so far sum to 0
            for s in range(1, nshift + 1):
                # entries m-s.. wrap onto entries ..s-1; each sum is at most m <= 64
                rows = leaves[flat]
                wrap = np.einsum("ij,ij->j", signs[m - s :, rows], first[:s, flat])
                flat = flat[partial[s - 1, rows] + wrap == 0]
            for mask, i in zip(masks[flat].tolist(), part[flat].tolist()):
                found[i].append(mask)
            if cc_threshold:
                picked = (masks * _HASH_MULT) >> np.uint64(32) < np.uint64(cc_threshold)
                verdicts = _pykernel.gram_hadamard_batch(masks[picked], m)
                credit(crosschecked, part[picked])
                is_flat = np.zeros(len(masks), dtype=bool)
                is_flat[flat] = True
                credit(mismatches, part[picked][verdicts != is_flat[picked]])
        if pending:
            top_k, top = pending[-1]
            lowest = np.uint64(int(top[0][0]) << (m - top_k))
            bound = int(np.searchsorted(starts, lowest, side="right")) - 1
        else:
            bound = count
        for i in range(done, bound):
            yield prefixes[i], int(reached[i]), found[i], int(crosschecked[i]), int(mismatches[i])
        done = bound
