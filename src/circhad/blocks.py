"""Two-by-two block systems of paired-listed circulant rows and their combinatorics.

A length-4n sign row a, read against the paired listing, tiles its matrix into
2n blocks [[a_k, a_{k+2n}], [a_{k+2n}, a_k]]: even when the entries agree, odd
when they differ, with the sign a_k. Orthogonality of the matrix becomes finite
conditions on block differences, pair signs and matchings, each checked exactly
off the half sequences on C_2n: the 0/1 indicator S of the even blocks, c_k =
(a_k + a_{k+2n})/2 and e_k = (a_k - a_{k+2n})/2. Same-kind pairs at difference
d number the autocorrelation at d of S or 1 - S, and their signs sum to
PAF_c(d) for even blocks and NAF_e(d) for odd ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .groupring import SignMatrix
from .hadamard import _autocorrelation
from .signs import all_signs

Pair = tuple[int, int]


@dataclass(frozen=True)
class BlockSystem:
    """A length-4n row (natural coefficient order), read as its 2n blocks."""

    n: int
    source_row: tuple[int, ...]

    @property
    def block_count(self) -> int:
        return 2 * self.n

    @cached_property
    def _halves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(S, c, e): c and e hold the even and the odd blocks' signs, 0 on the other kind.

        Built on first use and shared by every report, so the arrays are read-only.
        """
        head, tail = np.array(self.source_row).reshape(2, -1)
        halves = ((head == tail).astype(np.int64), (head + tail) // 2, (head - tail) // 2)
        for x in halves:
            x.flags.writeable = False
        return halves


def block_system(row, layout: str = "natural") -> BlockSystem:
    """Read a sign row of length 4n as its 2n blocks.

    layout="natural": row holds coefficients in natural order; block k pairs
    row[k] with row[2n+k]. layout="paired": row is a row of the already-blocked
    matrix, so consecutive entries form the blocks.
    """
    row = np.asarray(row)
    if row.ndim != 1 or row.size % 4 != 0 or row.size == 0:
        raise ValueError(f"row length must be a positive multiple of 4, got {row.size}")
    if not all_signs(row):
        raise ValueError("row entries must all be +1 or -1")
    row = row.astype(np.int64)
    if layout not in ("natural", "paired"):
        raise ValueError(f"unknown layout {layout!r}")
    if layout == "paired":
        row = row.reshape(-1, 2).T.ravel()
    return BlockSystem(n=row.size // 4, source_row=tuple(row.tolist()))


def row_from_blocks(kinds, signs) -> np.ndarray:
    """Natural-order row with these block kinds and signs, the inverse of (c, e): a_k is
    block k's sign, and a_{k+2n} is that sign on an even block and its negative on an odd one."""
    if len(kinds) != len(signs) or len(kinds) % 2 != 0 or not len(kinds):
        raise ValueError("need a positive even number of (kind, sign) pairs")
    if not all_signs(signs):
        raise ValueError("block signs must all be +1 or -1")
    kinds = np.asarray(kinds, dtype=object)
    odd = kinds == "odd"
    unknown = kinds[~odd & (kinds != "even")]
    if unknown.size:
        raise ValueError(f"unknown block kind {unknown[0]!r}")
    signs = np.asarray(signs, dtype=np.int64)
    return np.concatenate([signs, np.where(odd, -signs, signs)])


def assemble_block_matrix(system: BlockSystem) -> SignMatrix:
    """Rebuild the full 4n x 4n matrix from the half sequences c and e.

    Block (r, col) is block k = (col - r) mod 2n, [[c_k + e_k, c_k - e_k],
    [c_k - e_k, c_k + e_k]]; a block that wraps around from the end of one
    block-row to the start of the next (col < r) appears twisted, which flips
    the sign of e_k.
    """
    _, c, e = system._halves
    k = (np.arange(c.size) - np.arange(c.size)[:, None]) % c.size
    ek = np.where(np.tri(c.size, k=-1, dtype=bool), -e[k], e[k])
    out = np.empty((2 * c.size, 2 * c.size), dtype=np.int64)
    out[0::2, 0::2] = out[1::2, 1::2] = c[k] + ek
    out[0::2, 1::2] = out[1::2, 0::2] = c[k] - ek
    return SignMatrix(out)


@dataclass
class ConditionsReport:
    block_count: int
    even_count: int
    odd_count: int
    balance_ok: bool
    differences: dict[str, dict[int, int]]
    parity_ok: dict[str, bool]
    symmetric_partner: list[int | None] = field(repr=False)
    all_symmetric: dict[str, bool] = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return self.balance_ok and all(self.parity_ok.values())

    def payload(self) -> dict:
        return {
            "report": "conditions",
            "block_count": self.block_count,
            "even_count": self.even_count,
            "odd_count": self.odd_count,
            "balance_ok": self.balance_ok,
            "differences": {k: {str(d): c for d, c in v.items()} for k, v in self.differences.items()},
            "parity_ok": self.parity_ok,
            "symmetric_partner": self.symmetric_partner,
            "all_symmetric": self.all_symmetric,
        }

    def lines(self) -> list[str]:
        lines = [
            f"even: {self.even_count}, odd: {self.odd_count}, balanced: {str(self.balance_ok).lower()}"
        ]
        for kind in ("even", "odd"):
            diffs = self.differences.get(kind, {})
            shown = ", ".join(f"{d}x{c}" for d, c in diffs.items()) or "none"
            lines.append(f"{kind} differences (value x count): {shown}")
            lines.append(f"{kind} difference parity ok: {str(self.parity_ok.get(kind, True)).lower()}")
            lines.append(f"{kind} all symmetric: {str(self.all_symmetric.get(kind, True)).lower()}")
        partners = ", ".join(
            f"{i}->{p}" if p is not None else f"{i}->none"
            for i, p in enumerate(self.symmetric_partner)
        )
        lines.append(f"symmetric partners: {partners}")
        return lines


def conditions_report(system: BlockSystem) -> ConditionsReport:
    """Balance, difference-parity and symmetry conditions of a block system."""
    even, _, _ = system._halves
    # a kind's ordered pairs at difference d: the cyclic autocorrelation at d of its 0/1 indicator
    counts = {k: _autocorrelation(s)[1:].tolist() for k, s in (("even", even), ("odd", 1 - even))}
    differences = {k: {d: c for d, c in enumerate(cs, start=1) if c} for k, cs in counts.items()}
    parity_ok = {k: all(c % 2 == 0 for c in cs) for k, cs in counts.items()}
    n, S = system.n, even.tolist()
    evens = sum(S)
    same = [S[i] == S[i - n] for i in range(2 * n)]  # S[i - n] is S[(i + n) mod 2n]
    partners = [(i + n) % (2 * n) if p else None for i, p in enumerate(same)]
    # one fact under two keys: a block without a same-kind partner at i + n leaves
    # block i + n, which is of the other kind, without one too
    symmetric = all(same)
    return ConditionsReport(
        block_count=system.block_count,
        even_count=evens,
        odd_count=2 * n - evens,
        balance_ok=evens == n,
        differences=differences,
        parity_ok=parity_ok,
        symmetric_partner=partners,
        all_symmetric={"even": symmetric, "odd": symmetric},
    )


@dataclass
class MatchReport:
    kind: str
    perfect_matching_found: bool
    matching: list[tuple[Pair, Pair]]
    failure_certificate: Pair | None = None

    def payload(self) -> dict:
        return {
            "report": "matching",
            "kind": self.kind,
            "perfect_matching_found": self.perfect_matching_found,
            "matching": [[list(p), list(q)] for p, q in self.matching],
            "failure_certificate": list(self.failure_certificate)
            if self.failure_certificate
            else None,
        }

    def lines(self) -> list[str]:
        lines = [
            f"kind: {self.kind}",
            f"perfect matching: {str(self.perfect_matching_found).lower()}",
        ]
        if self.perfect_matching_found:
            for p, q in self.matching:
                lines.append(f"  {p} ~ {q}")
        else:
            lines.append(f"unmatched pair: {self.failure_certificate}")
        return lines


def matching_report(system: BlockSystem, kind: str) -> MatchReport:
    """Decide whether all ordered same-kind pairs split into matching couples.

    Two pairs match when they have equal difference and opposite sign, and
    matching (i,j) with (k,l) forces the conjugates (j,i) and (l,k) onto each
    other. Matches never leave a difference class, and conjugation maps class d
    onto class 2n-d, so each class d <= n is decided alone and, for d < n,
    mirrored onto class 2n-d. Inside a class any +1 pair matches any -1 pair,
    so the class matches exactly when its signs sum to 0. At d = n a pair's
    conjugate is in the class too: an even pair's has the same sign, so
    couples {p, p'} match couples of the other sign and the sum decides; an
    odd pair's has the opposite sign, the sum is 0 and a pair may match its own.

    The class-d sum is PAF_c(d) for even blocks and NAF_e(d) for odd ones (an
    odd pair (i, i+d) changes sign when it wraps past the end of C_2n); the
    first class whose sum is not 0 ends the check, reported by its least pair.
    A class's pairs are listed only when it is built, in one pass: take the
    smallest unused pair p and the smallest unused pair q of opposite sign, at
    d = n also coupling their conjugates when q is not p's own. What is left
    still balances (at d = n, closed under conjugation), so no choice is
    undone: the matching is the first that backtracking in this order finds.
    """
    if kind not in ("even", "odd"):
        raise ValueError(f"unknown block kind {kind!r}")
    odd = kind == "odd"
    x = system._halves[2 if odd else 1].tolist()  # the kind's block signs, 0 on the other kind
    sums = _autocorrelation(x, -1 if odd else 1, system.n + 1).tolist()
    m2, positions = len(x), [i for i, v in enumerate(x) if v]
    matching: list[tuple[Pair, Pair]] = []
    for d in range(1, system.n + 1):
        ends = [(i, (i + d) % m2) for i in positions if x[(i + d) % m2]]
        if sums[d]:
            return MatchReport(kind, False, [], failure_certificate=ends[0])
        members = [((i, j), x[i] * x[j] * (-1 if odd and j < i else 1)) for i, j in ends]
        by_sign = {s: iter([p for p, sign in members if sign == s]) for s in (1, -1)}
        used: set[Pair] = set()
        found = []
        for p, sign in members:
            if p in used:
                continue
            q = next(q for q in by_sign[-sign] if q not in used)
            found.append((p, q))
            used.update((p, q))
            if d == system.n and p[::-1] != q:
                found.append((p[::-1], q[::-1]))
                used.update(found[-1])
        matching.extend(found)
        if d < system.n:
            matching.extend((p[::-1], q[::-1]) for p, q in found)
    return MatchReport(kind=kind, perfect_matching_found=True, matching=matching)
