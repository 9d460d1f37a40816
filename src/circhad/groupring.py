"""Group-ring elements over the integers and their matrices relative to a listing.

An element w = sum of coeff[g]*g maps to the square matrix whose (r, c) entry is
coeff[perm[r]^-1 * perm[c]]; this is a ring embedding. For the cyclic group under
the natural listing the image is exactly the circulant with first row = coeffs.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError
from .groups import Group, Listing, cyclic_group, natural_listing
from .signs import all_signs

# Search nodes (candidate placements of an element at a position) that
# `recover_listing` may explore before it gives up. The 16x16 constructions
# need at most about 100k over any group of order 16; a 64x64 search explores
# about 1.1M a second on a 2-vCPU x86-64 VM, so it gives up within about 0.5 s.
RECOVERY_NODE_BUDGET = 500_000

# Rows that `is_rg_matrix` compares at once: an int32 index and a coefficient
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


def recover_listing(m, group: Group) -> Listing | None:
    """Search for a listing (with the identity first) that makes m an RG-matrix.

    Backtracks over positions left to right, keeping the partially learned
    coefficient vector consistent; returns the first listing in lexicographic
    order of assignments, or None when no listing works. Each candidate
    placement of an element at a position is one search node; raises
    CapacityError once RECOVERY_NODE_BUDGET nodes have been explored.
    """
    arr = m.entries if isinstance(m, SignMatrix) else _integers(m, "matrix entries")
    n = group.order
    if arr.shape != (n, n):
        raise ValueError(f"matrix shape {arr.shape} does not match group order {n}")
    # The search reads single entries, which costs several times more on numpy
    # arrays than on Python lists, so it works on lists: rows[p][q] is entry
    # (p, q), cols[p][q] is entry (q, p), left[f][e] is f^-1 * e, and None
    # marks a coefficient not yet learned (any integer is a valid coefficient).
    rows = arr.tolist()
    cols = arr.T.tolist()
    mul = group.mul_table.tolist()
    left = [mul[f_inv] for f_inv in group.inv_table.tolist()]

    coeffs: list[int | None] = [None] * n
    perm = [0]
    used = [False] * n
    used[0] = True
    coeffs[0] = rows[0][0]
    nodes = 0

    def consistent(p: int, e: int, learned: list[int]) -> bool:
        # New entries visible once position p holds element e: row p and column p
        # against every already assigned position q, entry (q, p) before (p, q).
        row_p = rows[p]
        col_p = cols[p]
        left_e = left[e]
        for q, f in enumerate(perm):
            g = left[f][e]
            known = coeffs[g]
            if known is None:
                coeffs[g] = col_p[q]
                learned.append(g)
            elif known != col_p[q]:
                return False
            g = left_e[f]
            known = coeffs[g]
            if known is None:
                coeffs[g] = row_p[q]
                learned.append(g)
            elif known != row_p[q]:
                return False
        # q == p: the diagonal entry sits on the identity, learned from (0, 0)
        return row_p[p] == coeffs[0]

    # Depth-first over positions with an explicit stack, so the depth is not
    # bounded by Python's recursion limit: untried[i] iterates the elements
    # still to try at position i + 1, learned_by[i] holds the coefficients
    # that the placement there fixed.
    untried = [iter(range(n))]
    learned_by: list[list[int]] = []
    while len(perm) < n:
        p = len(perm)
        for e in untried[-1]:
            if used[e]:
                continue
            if nodes == RECOVERY_NODE_BUDGET:
                raise CapacityError(
                    f"listing recovery over {group.name} gave up after exploring {nodes} nodes"
                )
            nodes += 1
            learned: list[int] = []
            if consistent(p, e, learned):
                perm.append(e)
                used[e] = True
                learned_by.append(learned)
                untried.append(iter(range(n)))
                break
            for g in learned:
                coeffs[g] = None
        else:
            # every element failed at position p: undo the placement before it
            untried.pop()
            if not learned_by:
                return None
            used[perm.pop()] = False
            for g in learned_by.pop():
                coeffs[g] = None
    return Listing(group, perm)
