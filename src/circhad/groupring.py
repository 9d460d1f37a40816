"""Group-ring elements over the integers and their matrices relative to a listing.

An element w = sum of coeff[g]*g maps to the square matrix whose (r, c) entry is
coeff[perm[r]^-1 * perm[c]]; this is a ring embedding. For the cyclic group under
the natural listing the image is exactly the circulant with first row = coeffs.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import CapacityError
from .groups import Group, Listing, cyclic_group, natural_listing
from .signs import all_signs

# Search nodes (candidate placements of an element at a position) that
# `recover_listing` may explore before it gives up. The order-16 questions of
# the test suite need at most about 13k (the c2c2 square over Q8xC2); the
# header-less 64x64 c2c8 (x) c4 matrix reaches the budget after 0.6 to 1.2 s
# of search on a shared 2-vCPU x86-64 VM.
RECOVERY_NODE_BUDGET = 500_000

# Rows that `is_rg_matrix` compares at once: an int16 index and a coefficient
# block of 64 x n each, against n x n for the whole matrix.
RG_BLOCK_ROWS = 64


class GroupRingElement:
    """Integer-coefficient formal sum over a group's elements."""

    def __init__(self, group: Group, coeffs):
        coeffs = _integers(coeffs, "coefficients")
        if coeffs.shape != (group.order,):
            raise ValueError(
                f"coefficient vector has length {coeffs.shape}, group order is {group.order}"
            )
        self.group = group
        self.coeffs = coeffs
        coeffs.setflags(write=False)

    @classmethod
    def from_signs(cls, group: Group, signs) -> "GroupRingElement":
        """Constructor restricted to +-1 coefficients (Hadamard candidates)."""
        if not all_signs(signs):
            raise ValueError("coefficients must all be +1 or -1")
        return cls(group, signs)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        if self.group != other.group:
            raise ValueError("cannot multiply elements of different group rings")
        mul = self.group.mul_table
        out = np.zeros(self.group.order, dtype=np.int64)
        for a, ca in enumerate(self.coeffs):
            if ca:
                np.add.at(out, mul[a], ca * other.coeffs)
        return GroupRingElement(self.group, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.group == other.group and np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self) -> str:
        return f"GroupRingElement({self.group.name}, {self.coeffs.tolist()})"


def _integers(values, what: str) -> np.ndarray:
    """values as int64, checked as given, before the cast.

    The cast would truncate 1.5 and wrap 2**63 or 2.0**63 to a negative
    number, so any value it would change is refused.
    """
    a = np.asarray(values)
    if a.dtype.kind == "f":
        exact = (np.trunc(a) == a) & (a >= -(2.0**63)) & (a < 2.0**63)
    elif a.dtype.kind == "u":
        exact = a <= np.iinfo(np.int64).max
    else:
        exact = True
    if not np.all(exact):
        raise ValueError(f"{what} must all be integers")
    return a.astype(np.int64, copy=False)


def _square_signs(values) -> np.ndarray:
    a = np.asarray(values)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not all_signs(a):
        raise ValueError("matrix entries must all be +1 or -1")
    return a.astype(np.int8, copy=False)


class SignMatrix:
    """Dense square matrix with entries +1/-1.

    `entries` is int8, so products of it wrap: upcast before multiplying
    (`entries.astype(np.int64)`), or use :func:`circhad.hadamard.gram`.
    """

    def __init__(self, entries):
        entries = _square_signs(entries)
        self.entries = entries
        self.size = int(entries.shape[0])
        entries.setflags(write=False)

    def __eq__(self, other) -> bool:
        if isinstance(other, SignMatrix):
            other = other.entries
        return np.array_equal(self.entries, other)

    def __repr__(self) -> str:
        return f"SignMatrix(size={self.size})"


def as_sign_array(m) -> np.ndarray:
    """Coerce a SignMatrix/array-like to a validated +-1 int8 ndarray."""
    if isinstance(m, SignMatrix):
        return m.entries
    return _square_signs(m)


def _pattern_index(
    group: Group, listing: Listing, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """idx[r - start, c] = perm[r]^-1 * perm[c], for rows start <= r < stop.

    This is the element whose coefficient sits at (r, c).
    """
    perm = np.asarray(listing.perm, dtype=np.int32)
    rows = group.inv_table[perm[start:stop]]
    return group.mul_table[rows[:, None], perm[None, :]]


def rg_matrix(w: GroupRingElement, listing: Listing) -> np.ndarray:
    """Matrix of w relative to the listing, as a plain integer array.

    Entry (r, c) is w's coefficient on perm[r]^-1 * perm[c]. Valid for arbitrary
    integer coefficients; use :func:`rg_sign_matrix` for the +-1 wrapped form.
    """
    if listing.group != w.group:
        raise ValueError("listing and element belong to different groups")
    return w.coeffs[_pattern_index(w.group, listing)]


def rg_sign_matrix(w: GroupRingElement, listing: Listing) -> SignMatrix:
    return SignMatrix(rg_matrix(w, listing))


def circulant_from_row(row) -> GroupRingElement:
    """Element of Z[C_m] whose natural-listing matrix is the circulant with this first row."""
    row = np.asarray(row)
    if row.ndim != 1 or row.size < 1:
        raise ValueError("first row must be a nonempty vector")
    if not all_signs(row):
        raise ValueError("first row entries must all be +1 or -1")
    return GroupRingElement(cyclic_group(row.size), row)


def circulant_sign_matrix(row) -> SignMatrix:
    w = circulant_from_row(row)
    return rg_sign_matrix(w, natural_listing(w.group))


def relist(m: SignMatrix, from_listing: Listing, to_listing: Listing) -> SignMatrix:
    """The same underlying element's matrix under another listing.

    Equivalent to simultaneously permuting rows and columns: position p of the new
    listing is found at position sigma(p) of the old one.
    """
    if from_listing.group != to_listing.group:
        raise ValueError("listings belong to different groups")
    if len(from_listing.perm) != m.size:
        raise ValueError(f"matrix size {m.size} does not match listing length {len(from_listing.perm)}")
    sigma = np.array([from_listing.position_of(e) for e in to_listing.perm])
    return SignMatrix(m.entries[np.ix_(sigma, sigma)])


def is_rg_matrix(m, group: Group, listing: Listing) -> bool:
    """True iff every entry depends only on perm[r]^-1 * perm[c].

    Checks that some coefficient vector reproduces the whole matrix; the vector is
    read off the first row and then verified RG_BLOCK_ROWS rows at a time, so
    no n x n index or coefficient copy is made.
    """
    arr = m.entries if isinstance(m, SignMatrix) else _integers(m, "matrix entries")
    n = group.order
    if arr.shape != (n, n):
        raise ValueError(f"matrix shape {arr.shape} does not match group order {n}")
    if listing.group != group:
        raise ValueError("listing belongs to a different group")
    coeffs = np.empty(n, dtype=arr.dtype)
    coeffs[_pattern_index(group, listing, 0, 1)[0]] = arr[0]
    for start in range(0, n, RG_BLOCK_ROWS):
        stop = start + RG_BLOCK_ROWS
        if not np.array_equal(coeffs[_pattern_index(group, listing, start, stop)], arr[start:stop]):
            return False
    return True


def placement_order(group: Group) -> list[int]:
    """The elements in the order `recover_listing` places them, identity first.

    While elements are left, the one outside the span so far with the largest
    order (lowest index on a tie) joins the generators, and the subgroup they
    span is listed by right multiplication with the generators, starting from
    the elements already listed. So the order runs along a chain of subgroups,
    and every element after the identity is x * s for an earlier x and a
    generator s.
    """
    n = group.order
    orders = group.element_orders()
    listed = [0]
    seen = [False] * n
    seen[0] = True
    times: list[list[int]] = []  # times[j][x] = x * (generator j)
    while len(listed) < n:
        generator = int(np.argmax(np.where(seen, 0, orders)))
        times.append(group.mul_table[:, generator].tolist())
        # `listed` grows while it is read, so this is a breadth-first closure
        for x in listed:
            for by_generator in times:
                y = by_generator[x]
                if not seen[y]:
                    seen[y] = True
                    listed.append(y)
    return listed


def _coded_rows(
    a: np.ndarray, values: list[int]
) -> tuple[list[memoryview], list[list[int]], list[list[int]]] | None:
    """The rows of a as codes, and one bitmask per code for each row and column.

    The code of an entry is its index in `values`: rows[q][p] is the code of
    a[q, p], bit p of row_masks[q][c] is set when a[q, p] has code c, and bit
    p of col_masks[q][c] when a[p, q] has. Returns None when some entry is
    none of the values. The values are those of one row, at most
    MAX_GROUP_ORDER, so codes fit in uint16, and in uint8 for up to 256.
    """
    codes = np.zeros(a.shape, dtype=np.uint8 if len(values) <= 256 else np.uint16)
    row_masks: list[list[int]] = [[] for _ in range(a.shape[0])]
    col_masks: list[list[int]] = [[] for _ in range(a.shape[0])]
    matched = 0
    for c, v in enumerate(values):
        equal = a == v
        matched += np.count_nonzero(equal)
        codes[equal] = c
        for masks, lines in ((row_masks, equal), (col_masks, equal.T)):
            for line, bits in zip(masks, np.packbits(lines, axis=1, bitorder="little")):
                line.append(int.from_bytes(bits.tobytes(), "little"))
    if matched != a.size:
        return None
    return [memoryview(line) for line in codes], row_masks, col_masks


def recover_listing(m, group: Group) -> Listing | None:
    """Search for a listing (with the identity first) that makes m an RG-matrix.

    Places the elements in `placement_order`, each at a free position, keeping
    the partially learned coefficient vector consistent: with e at position p
    and f at q, entry (q, p) is the coefficient of f^-1 * e and entry (p, q)
    that of e^-1 * f. An element's candidate positions are the free ones whose
    diagonal entry is the identity's, ANDed with the row and column bitmasks
    of the placed elements whose coefficient with it is already known, until
    at most one is left. They are tried lowest first; where a coefficient not
    yet known sits in two of the new entries, a bitmask of the positions at
    which those two agree drops the others without calling `consistent`.
    Returns the first listing found, or None when none works: the search is
    exhaustive, so None is exact. Each candidate placement of an element at a
    position is one search node; raises CapacityError once
    RECOVERY_NODE_BUDGET nodes have been explored.
    """
    arr = m.entries if isinstance(m, SignMatrix) else _integers(m, "matrix entries")
    n = group.order
    if arr.shape != (n, n):
        raise ValueError(f"matrix shape {arr.shape} does not match group order {n}")
    # Every row of an RG-matrix permutes the coefficients, so row 0 holds all
    # their values; they are read without np.unique, whose first call imports
    # numpy.ma (about 10 ms in a fresh process). The search reads single
    # entries, which costs several times more on numpy arrays than on
    # memoryviews, so it reads coded rows; None marks a coefficient not yet
    # learned.
    coded = _coded_rows(arr, sorted(set(arr[0].tolist())))
    if coded is None:
        return None
    rows, row_masks, col_masks = coded
    order = placement_order(group)
    inv_order = group.inv_table[order]

    coeffs: list[int | None] = [None] * n
    coeffs[0] = rows[0][0]
    diagonal = np.packbits(np.diagonal(arr) == arr[0, 0], bitorder="little")
    free = int.from_bytes(diagonal.tobytes(), "little") & ~1
    positions = [0]  # positions[i] holds order[i]
    nodes = 0

    # Backtracking re-enters the same few depths, so what each depth needs is
    # kept for the last eight; a whole path's would take about n^2 entries.
    @functools.lru_cache(maxsize=8)
    def pairs(d: int) -> tuple[list[int], list[int]]:
        # f^-1 * e and e^-1 * f for e = order[d] and each placed f, in order
        left = group.mul_table[inv_order[:d], order[d]]
        return left.tolist(), group.inv_table[left].tolist()

    @functools.lru_cache(maxsize=8)
    def twins(d: int) -> list[tuple[int, int]]:
        # the (i, j) with left[i] == right[j]: entry (q, p) of the i-th placed
        # element and entry (p, r) of the j-th carry the same coefficient
        left, right = pairs(d)
        index = {g: i for i, g in enumerate(left)}
        return [(index[h], j) for j, h in enumerate(right) if h in index]

    def candidates(d: int) -> tuple[int, int]:
        # The positions that the known coefficients allow, and those of them
        # where every unknown coefficient met twice gets one value: of the
        # allowed positions, `consistent` succeeds on these alone. Once one
        # position is left, `consistent` decides it without more masks.
        left, right = pairs(d)
        allowed = free
        for q, g, h in zip(positions, left, right):
            known = coeffs[g]
            if known is not None:
                allowed &= row_masks[q][known]
            known = coeffs[h]
            if known is not None:
                allowed &= col_masks[q][known]
            if not allowed & (allowed - 1):
                break
        agreeing = allowed
        if allowed & (allowed - 1):
            for i, j in twins(d):
                if coeffs[left[i]] is None:
                    same = 0
                    for by_row, by_col in zip(row_masks[positions[i]], col_masks[positions[j]]):
                        same |= by_row & by_col
                    agreeing &= same
                    if not agreeing:
                        break
        return allowed, agreeing

    def consistent(p: int, learned: list[int]) -> bool:
        # entries (q, p) and (p, q) against every placed position q, the
        # column entry first; the diagonal was checked by the `free` mask
        left, right = pairs(len(positions))
        row_p = rows[p]
        for q, g, h in zip(positions, left, right):
            known = coeffs[g]
            if known is None:
                coeffs[g] = rows[q][p]
                learned.append(g)
            elif known != rows[q][p]:
                return False
            known = coeffs[h]
            if known is None:
                coeffs[h] = row_p[q]
                learned.append(h)
            elif known != row_p[q]:
                return False
        return True

    # Depth-first with an explicit stack, so the depth is not bounded by
    # Python's recursion limit: untried[i] holds the candidate positions of
    # order[i + 1] not tried yet, and those of them that agree; learned_by[i]
    # holds the coefficients its placement fixed.
    untried = [candidates(1)] if n > 1 else []
    learned_by: list[list[int]] = []
    while len(positions) < n:
        cand, agreeing = untried[-1]
        # try the lowest agreeing position; every candidate below it fails,
        # and each counts as a node
        bit = agreeing & -agreeing
        tried = cand & ((bit << 1) - 1)  # every candidate left when bit is 0
        if nodes + tried.bit_count() > RECOVERY_NODE_BUDGET:
            raise CapacityError(
                f"listing recovery over {group.name} gave up after exploring "
                f"{RECOVERY_NODE_BUDGET} nodes"
            )
        nodes += tried.bit_count()
        if not bit:
            # every candidate failed: undo the placement before this one
            untried.pop()
            if not learned_by:
                return None
            free |= 1 << positions.pop()
            for g in learned_by.pop():
                coeffs[g] = None
            continue
        untried[-1] = (cand ^ tried, agreeing ^ bit)
        p = bit.bit_length() - 1
        learned: list[int] = []
        if consistent(p, learned):
            positions.append(p)
            free ^= bit
            learned_by.append(learned)
            if len(positions) < n:
                untried.append(candidates(len(positions)))
        else:
            for g in learned:
                coeffs[g] = None
    perm = [0] * n
    for e, p in zip(order, positions):
        perm[p] = e
    return Listing(group, perm)
