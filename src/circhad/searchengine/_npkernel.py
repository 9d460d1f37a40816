"""Vectorised enumeration kernel: `_pykernel`'s scan, one tree level at a time.

The frontier of a scan is held node-minor: the masks, negative counts and
even-block counts (a node's odd blocks are the rest of the blocks it has set)
are arrays of N entries, one per node, and the sign window and the partial
autocorrelations are int8 arrays of shape (m // 2, N). Before entry k is set,
row s-1 of the window holds entry k-s, most recent first, and row s-1 of the
partial sums holds shift s, so both are read as the same forward slice. So
every step of a level is one vector operation along the N nodes. At each level
the row-sum window, the balance quota (which reads the oldest row, entry
k - m // 2) and the autocorrelation bound of `_pykernel` are applied to both
children of every node as a (2, N) boolean mask, and only the surviving
children are built. Child b of node i is 2i+b, so both kernels reach the same
rows in the same order.

Building the children is a gather of the parent columns that shifts the window
down one row; setting entry k writes it into row 0. The gather copies only the
live rows: no entry older than m // 2 is held, and partial sums that have not
started are zero. The first entries of a row are rebuilt from the mask at a
leaf to close the wrapped shifts. So a node of even order m holds m + 11
bytes: 8 of mask, 2 of counts, m/2 of partial sums and m/2 + 1 of window,
which the gather allocates with one row more for the entry that leaves it.

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
# Measured on 2 vCPUs (BENCH_17.json), with the live sign window: 16384 cut the
# benchmark's order-20 search rounds by 28-36% against 4096 and moved the serial
# search's peak RSS by less than 0.1 MB; 32768 raised that peak by about 1.1 MB more.
FRONTIER_CAP = 16384

_HASH_MULT = np.uint64(_pykernel._HASH_MULT)
_SIGN = np.array([1, -1], dtype=np.int8)  # sign of an entry, indexed by its bit
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

    Only the benchmark's tracer calls it, as its hook into the kernel, until the
    benchmark traces `scan_partitions` itself (ROADMAP item 1).
    """
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

    Yields (prefix, reached, found_masks, sampled_masks) for every prefix, in
    order, as `_pykernel.scan_partitions` does.
    """
    half = m // 2  # the shifts checked, and the rows of the sign window
    track_balance = balance_on and m % 4 == 0
    quota = m // 4
    # row_sum_window[k, v]: some admissible count is still reachable from v
    # negatives once entry k is set, with m-k-1 entries left (Python ints, so m = 64 fits)
    row_sum_window = np.array(
        [[(adm_mask >> v) & ((1 << (m - k)) - 1) != 0 for v in range(m + 1)] for k in range(m)],
        dtype=bool,
    )

    def assign(nodes, k: int, bits: np.ndarray) -> None:
        """Set entry k of every node in place; bits[i] is node i's new bit.

        Takes the nodes as `gather` built them: their window has one row more,
        with entry k-s in row s, and it keeps only the first `half` rows.
        """
        masks, window, partial, negs, evens = nodes
        r = _SIGN[bits]
        window[0] = r
        shifts = min(k, half)
        # row s-1 of partial holds shift s, which pairs entry k with entry k-s
        partial[:shifts] += window[1 : shifts + 1] * r
        negs += bits
        if track_balance and k >= half:
            evens += window[half] == r
        nodes[0] = (masks << np.uint64(1)) | bits
        nodes[1] = window[:half]

    def children(nodes, k: int) -> np.ndarray:
        """keep[b, i]: the child of node i with bit b at entry k survives pruning."""
        _, window, partial, negs, evens = nodes
        keep = np.ones((2, len(negs)), dtype=bool)
        if row_sum_on:
            keep &= row_sum_window[k, negs + _BOTH_BITS[:, None]]
        if track_balance and k >= half:
            plus_is_even = window[half - 1] == 1
            child_evens = evens + np.stack([plus_is_even, ~plus_is_even])
            keep &= (child_evens <= quota) & (k + 1 - half - child_evens <= quota)
        shifts = min(k, half)
        if paf_prefix_on and shifts:
            remaining = (m - k - 1 + np.arange(1, shifts + 1, dtype=np.int8))[:, None]
            step = window[:shifts]
            part = partial[:shifts]
            keep[0] &= np.all(np.abs(part + step) <= remaining, axis=0)
            keep[1] &= np.all(np.abs(part - step) <= remaining, axis=0)
        return keep

    def gather(nodes, k: int, parents: np.ndarray) -> list:
        """The nodes at `parents`, their window shifted down one row for entry k."""
        masks, window, partial, negs, evens = nodes
        n = len(parents)
        shifts = min(k, half)  # the live rows of the window and of partial
        # row 0 waits for entry k; row half receives entry k-half, which leaves the
        # window once assign has read it
        new_window = np.empty((half + 1, n), dtype=np.int8)
        new_partial = np.empty((half, n), dtype=np.int8)
        new_partial[shifts:] = 0
        window[:shifts].take(parents, axis=1, out=new_window[1 : shifts + 1], mode="clip")
        partial[:shifts].take(parents, axis=1, out=new_partial[:shifts], mode="clip")
        return [masks.take(parents), new_window, new_partial,
                negs.take(parents), evens.take(parents)]

    def advance(nodes, k: int) -> list:
        """The children at entry k that survive pruning and, above `depth`, lie on a prefix.

        Returns them as one frontier, or as two halves when they number more than
        `FRONTIER_CAP`; each half is gathered on its own, so neither keeps the
        other's columns alive. Empties `nodes`, so the parents are freed before
        the children are assigned.
        """
        keep = children(nodes, k)
        if k < depth:
            # child c holds the leaves from c << shift on; it lies on a prefix
            # when the first partition starting there starts under c
            shift = np.uint64(m - 1 - k)
            child = (nodes[0] << np.uint64(1)) | _BOTH_BITS[:, None]
            at = np.minimum(np.searchsorted(starts, child << shift), count - 1)
            keep &= starts[at] >> shift == child
        parents = np.flatnonzero(keep.T)  # child b of node i is 2i+b
        bits = parents.astype(np.uint8) & np.uint8(1)  # the low byte keeps the bit
        parents >>= 1
        n = len(parents)
        bounds = ((0, n // 2), (n // 2, n)) if n > FRONTIER_CAP else ((0, n),)
        halves = [(gather(nodes, k, parents[a:b]), bits[a:b]) for a, b in bounds]
        nodes.clear()
        for kids, kid_bits in halves:
            assign(kids, k, kid_bits)
        return [kids for kids, _ in halves]

    def credit(totals: np.ndarray, part: np.ndarray) -> None:
        """Add one to totals[i] for every entry i of the sorted partition indices."""
        if len(part):
            counts = np.bincount(part - part[0])
            totals[part[0] : part[0] + len(counts)] += counts

    def close(nodes) -> None:
        """Credit the leaves to their partitions and record the flat and sampled ones.

        Empties `nodes`, and keeps nothing of them but the recorded masks, so the
        leaves are freed before their partitions are yielded.
        """
        # entry m-1's row-sum window and quota already admit only admissible, balanced rows
        masks, window, partial, _, _ = nodes
        nodes.clear()
        part = np.searchsorted(starts, masks, side="right") - 1
        credit(reached, part)
        first = _leading_signs(masks, m, half)  # entries 0 to half-1, long out of the window
        flat = np.arange(len(masks))  # the leaves whose shifts so far sum to 0
        for s in range(1, half + 1):
            # entries m-s.. wrap onto entries ..s-1; window row u holds entry m-1-u,
            # which pairs with entry s-1-u; each sum is at most m <= 64
            wrap = np.einsum("ij,ij->j", window[:s, flat], first[s - 1 :: -1, flat])
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
    root = [np.zeros(1, dtype=np.uint64),
            *(np.zeros(shape, dtype=np.int8) for shape in ((half, 1), (half, 1), 1, 1))]
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
