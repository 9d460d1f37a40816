"""Finite groups as dense index tables, and the listings that order their elements.

Elements are integers 0..order-1 with 0 always the identity. Multiplication and
inverse are full int16 lookup tables, which keeps products O(1) during matrix
construction; every index fits, as no order exceeds MAX_GROUP_ORDER. A direct
product knows its name and order at once and builds its tables from its
factors' the first time either is read, so a caller that needs only the name
(writing a document's header, say) builds no order^2 table. A Listing
is a permutation of the element indices; it fixes the row/column layout of the
matrices built in :mod:`circhad.groupring`.
"""

from __future__ import annotations

import functools
import re

import numpy as np

from .errors import CapacityError

MAX_GROUP_ORDER = 1024


class Group:
    """Finite group on indices 0..order-1 with full multiplication/inverse tables."""

    def __init__(self, name: str, mul_table, inv_table=None):
        mul = np.asarray(mul_table)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1] or mul.shape[0] == 0:
            raise ValueError(f"mul_table must be a nonempty square table, got shape {mul.shape}")
        n = int(mul.shape[0])
        if n > MAX_GROUP_ORDER:
            raise CapacityError(f"order {n} exceeds the supported maximum {MAX_GROUP_ORDER}")
        if mul.min() < 0 or mul.max() >= n:
            raise ValueError("mul_table entries out of range")
        mul = mul.astype(np.int16, copy=False)
        if inv_table is None:
            inv = _derive_inverses(mul)
        else:
            inv = np.asarray(inv_table, dtype=np.int16)
            if inv.shape != (n,):
                raise ValueError(f"inv_table length {inv.shape} does not match order {n}")
        mul.setflags(write=False)
        inv.setflags(write=False)
        self.name = str(name)
        self.order = n
        self._tables = (mul, inv)

    @property
    def mul_table(self) -> np.ndarray:
        """The int16 order x order table: entry [a, b] is the index of a * b."""
        return self._tables[0]

    @property
    def inv_table(self) -> np.ndarray:
        """The int16 table of inverses: entry a is the index of a^-1."""
        return self._tables[1]

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inv_table[a])

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul_table, self.mul_table.T))

    def element_order(self, a: int) -> int:
        x = int(a)
        k = 1
        while x != 0:
            x = self.mul(x, a)
            k += 1
            if k > self.order:
                raise ValueError("table is not a group (element order exceeds group order)")
        return k

    def element_orders(self) -> np.ndarray:
        """Every element's order at once: entry a is `element_order(a)`.

        Raises all elements to successive powers together, so it takes one
        table lookup per element for each power up to the group's exponent.
        """
        n = self.order
        idx = np.arange(n, dtype=np.int32)
        orders = np.zeros(n, dtype=np.int64)
        power = idx
        for k in range(1, n + 1):
            orders[(power == 0) & (orders == 0)] = k
            if orders.all():
                return orders
            power = self.mul_table[power, idx]
        raise ValueError("table is not a group (element order exceeds group order)")

    def validate(self, check_associativity: bool | None = None) -> None:
        """Check the group axioms on the table; raises ValueError on violation.

        Associativity is O(order^3); by default it is only checked for order <= 64.
        """
        n = self.order
        mul = self.mul_table
        ident = np.arange(n, dtype=np.int32)
        if not np.array_equal(np.sort(mul, axis=1), np.tile(ident, (n, 1))):
            raise ValueError("mul_table is not a Latin square (a row is not a permutation)")
        if not np.array_equal(np.sort(mul, axis=0), np.tile(ident[:, None], (1, n))):
            raise ValueError("mul_table is not a Latin square (a column is not a permutation)")
        if not (np.array_equal(mul[0], ident) and np.array_equal(mul[:, 0], ident)):
            raise ValueError("index 0 is not a two-sided identity")
        idx = np.arange(n)
        if not (np.all(mul[idx, self.inv_table] == 0) and np.all(mul[self.inv_table, idx] == 0)):
            raise ValueError("inv_table does not give two-sided inverses")
        if check_associativity is None:
            check_associativity = n <= 64
        if check_associativity:
            # (ab)c == a(bc) over the whole table, by composing lookups.
            left = mul[mul, :]   # left[a,b,c] = mul[mul[a,b], c]
            right = mul[:, mul]  # right[a,b,c] = mul[a, mul[b,c]]
            if not np.array_equal(left, right):
                raise ValueError("mul_table is not associative")

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, Group):
            return NotImplemented
        return self.order == other.order and np.array_equal(self.mul_table, other.mul_table)

    def __hash__(self):
        return hash((self.order, self.mul_table.tobytes()))

    def __repr__(self) -> str:
        return f"Group({self.name!r}, order={self.order})"


def _derive_inverses(mul: np.ndarray) -> np.ndarray:
    n = mul.shape[0]
    inv = np.full(n, -1, dtype=np.int16)
    for a in range(n):
        hits = np.flatnonzero(mul[a] == 0)
        if len(hits) != 1 or mul[hits[0], a] != 0:
            raise ValueError(f"element {a} has no unique two-sided inverse")
        inv[a] = hits[0]
    return inv


def cyclic_group(n: int) -> Group:
    """Cyclic group C_n; index i is the i-th power of the generator."""
    if n < 1:
        raise ValueError(f"group order must be positive, got {n}")
    if n > MAX_GROUP_ORDER:
        raise CapacityError(f"order {n} exceeds the supported maximum {MAX_GROUP_ORDER}")
    idx = np.arange(n, dtype=np.int16)
    mul = idx[:, None] + idx[None, :]
    mul %= n
    return Group(f"C{n}", mul, (-idx) % n)


class _ProductGroup(Group):
    """G x H, whose tables are built from its factors' the first time either is read."""

    def __init__(self, g: Group, h: Group):
        order = g.order * h.order
        if order > MAX_GROUP_ORDER:
            raise CapacityError(
                f"product order {g.order}*{h.order}={order} exceeds the supported maximum {MAX_GROUP_ORDER}"
            )
        self.name = f"{g.name}x{h.name}"
        self.order = order
        self._factors = (g, h)

    @functools.cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        return _product_tables(*self._factors)


def _product_tables(g: Group, h: Group) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (mul, inv) tables of G x H, index i*|H| + j for the pair (i, j)."""
    gm = g.mul_table
    hm = h.mul_table
    # mul[(a1,b1),(a2,b2)] = (a1*a2, b1*b2), all four coordinates broadcast at
    # once into the one int16 table; no index exceeds MAX_GROUP_ORDER.
    order = g.order * h.order
    mul = (
        gm[:, None, :, None] * np.int16(h.order) + hm[None, :, None, :]
    ).reshape(order, order)
    inv = (g.inv_table[:, None] * np.int16(h.order) + h.inv_table[None, :]).reshape(order)
    mul.setflags(write=False)
    inv.setflags(write=False)
    return mul, inv


def direct_product(g: Group, h: Group) -> Group:
    """Direct product with indices flattened as i*|H| + j (left factor major).

    A product larger than MAX_GROUP_ORDER is refused here; its tables are
    built when first read.
    """
    return _ProductGroup(g, h)


# Standard presentation: indices 0..7 are +1, -1, +i, -i, +j, -j, +k, -k.
# Negation toggles the low bit. Hard-coded so the table itself is auditable.
_QUATERNION_TABLE = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 0, 3, 2, 5, 4, 7, 6],
    [2, 3, 1, 0, 6, 7, 5, 4],
    [3, 2, 0, 1, 7, 6, 4, 5],
    [4, 5, 7, 6, 1, 0, 2, 3],
    [5, 4, 6, 7, 0, 1, 3, 2],
    [6, 7, 4, 5, 3, 2, 1, 0],
    [7, 6, 5, 4, 2, 3, 0, 1],
]


def quaternion_group() -> Group:
    """Quaternion group of order 8 ({±1, ±i, ±j, ±k}, i*j = k, i*i = -1)."""
    return Group("Q8", _QUATERNION_TABLE)


class Listing:
    """An ordering of a group's elements: position p holds element perm[p]."""

    def __init__(self, group: Group, perm):
        perm = tuple(int(x) for x in perm)
        if sorted(perm) != list(range(group.order)):
            raise ValueError(f"perm is not a permutation of 0..{group.order - 1}")
        self.group = group
        self.perm = perm

    def position_of(self, element: int) -> int:
        if not hasattr(self, "_pos"):
            pos = [0] * self.group.order
            for p, e in enumerate(self.perm):
                pos[e] = p
            self._pos = tuple(pos)
        return self._pos[element]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Listing):
            return NotImplemented
        return self.perm == other.perm and self.group == other.group

    def __hash__(self):
        return hash((self.perm, self.group.order))

    def __repr__(self) -> str:
        return f"Listing({self.group.name}, {list(self.perm)})"


def natural_listing(group: Group) -> Listing:
    return Listing(group, range(group.order))


def is_cyclic_table(group: Group) -> bool:
    """True iff the table is C_n's, element i being the i-th power of element 1.

    Row 1 decides it: if 1 * b = b + 1 (mod n) for every b, then 1^k = k by
    induction, so a * b = 1^(a+b) = (a + b) mod n everywhere. This relies on
    the table being associative, as every table from `group_by_name` is.
    """
    n = group.order
    return bool(np.array_equal(group.mul_table[1 % n], (np.arange(n) + 1) % n))


def paired_listing(m: int, group: Group | None = None) -> Listing:
    """The order {0, 2n, 1, 2n+1, ..., 2n-1, 4n-1} of C_m, m = 4n.

    This ordering tiles the matrix of a cyclic-group element into 2x2 blocks.
    `group` is a C_m table the caller already holds; without it one is built.
    """
    if m % 4 != 0:
        raise ValueError(f"paired listing needs an order divisible by 4, got {m}")
    n2 = m // 2
    perm = []
    for k in range(n2):
        perm.append(k)
        perm.append(n2 + k)
    if group is None:
        group = cyclic_group(m)
    elif group.order != m or not is_cyclic_table(group):
        raise ValueError(f"paired listing needs the table of C{m}, got {group.name}")
    return Listing(group, perm)


_FACTOR_RE = re.compile(r"^(C(\d+)|Q8)$", re.IGNORECASE)


def group_by_name(name: str) -> Group:
    """Build a group from a spec string like "C4", "C2xC8", "Q8xC2", "C2xC8xC4"."""
    parts = [p for p in re.split(r"[x*]", name.replace(" ", "")) if p]
    if not parts:
        raise ValueError(f"empty group name {name!r}")
    factors = []
    for part in parts:
        m = _FACTOR_RE.match(part)
        if not m:
            raise ValueError(f"unrecognized group factor {part!r} in {name!r}")
        if part.upper() == "Q8":
            factors.append(quaternion_group())
        else:
            factors.append(cyclic_group(int(m.group(2))))
    group = factors[0]
    for extra in factors[1:]:
        group = direct_product(group, extra)
    return group
