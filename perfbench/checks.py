"""Reference values and output checks for the circhad benchmark.

Nothing here imports circhad. Every expected value comes from brute force over
the row space, from a numpy product, or from a fact the method must respect:
a circulant Hadamard row has square order, and order 16 has none (Turyn,
*Character sums and difference sets*, 1965).

Rows are bitmasks as in the README: bit (m-1-i) is set when entry i is -1.
Each checker raises `CheckFailed` with a message naming what was wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Orders whose found list is known without enumeration.
KNOWN_FOUND = {4: ["+++-"], 16: []}

DETERMINISTIC_KEYS = (
    "order",
    "total_rows",
    "stage_counts",
    "found",
    "found_raw_count",
    "canonicalization",
    "crosscheck",
)


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- rows ------------------------------------------------------------------


def popcount(values: np.ndarray) -> np.ndarray:
    """Set bits of each uint64."""
    v = values.astype(np.uint64)
    v = v - ((v >> np.uint64(1)) & np.uint64(0x5555555555555555))
    v = (v & np.uint64(0x3333333333333333)) + ((v >> np.uint64(2)) & np.uint64(0x3333333333333333))
    v = (v + (v >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((v * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def rows_of(masks: np.ndarray, m: int) -> np.ndarray:
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint64)
    bits = (masks.astype(np.uint64)[:, None] >> shifts[None, :]) & np.uint64(1)
    return (1 - 2 * bits.astype(np.int8)).astype(np.int8)


def row_string(signs) -> str:
    return "".join("+" if v > 0 else "-" for v in signs)


def canonical(row: str) -> str:
    """Least string over all rotations and negations ('+' sorts before '-')."""
    negated = row.translate(str.maketrans("+-", "-+"))
    return min(s[k:] + s[:k] for s in (row, negated) for k in range(len(row)))


def is_square(m: int) -> bool:
    return math.isqrt(m) ** 2 == m


@dataclass
class SearchReference:
    order: int
    row_sum: int
    balance: int
    paf: int | None  # None where the order is too large to enumerate
    found: list[str] | None


def search_reference(m: int, row_sum: bool, balance: bool) -> SearchReference:
    """Stage counts over all 2^m rows by brute force.

    Flat rows are enumerated up to order 16. Above that, only a non-square order
    has a known answer: no flat row, since a flat row's sum squared is m.
    """
    require(m <= 20, f"reference enumerates at most order 20, got {m}")
    masks = np.arange(1 << m, dtype=np.uint64)
    keep = np.ones(masks.size, dtype=bool)
    if row_sum:
        negatives = popcount(masks)
        keep &= np.isin(negatives, [r for r in range(m + 1) if (m - 2 * r) ** 2 == m])
    row_sum_count = int(keep.sum())
    if balance and m % 4 == 0:
        half = m // 2
        odd_blocks = popcount((masks >> np.uint64(half)) ^ (masks & np.uint64((1 << half) - 1)))
        keep &= odd_blocks == m // 4
    balance_count = int(keep.sum())
    if m <= 16:
        rows = rows_of(masks[keep], m).astype(np.int16)
        flat = np.ones(rows.shape[0], dtype=bool)
        for s in range(1, m // 2 + 1):
            flat &= (rows * np.roll(rows, -s, axis=1)).sum(axis=1) == 0
        found_rows = [row_string(r) for r in rows[flat]]
        paf, found = len(found_rows), sorted({canonical(r) for r in found_rows})
    elif not is_square(m):
        paf, found = 0, []
    else:
        paf, found = None, None
    if m in KNOWN_FOUND and found is not None:
        require(found == KNOWN_FOUND[m], f"brute force at order {m} disagrees with {KNOWN_FOUND[m]}")
    return SearchReference(m, row_sum_count, balance_count, paf, found)


def check_search(payload: dict, ref: SearchReference, *, paf_prefix: bool = True,
                 crosschecked: int = 0) -> None:
    """One `search --format json` report against the brute-force reference."""
    m = ref.order
    require(payload.get("report") == "search", "not a search report")
    require(payload["order"] == m, f"order {payload['order']} != {m}")
    require(payload["total_rows"] == 1 << m, f"total_rows {payload['total_rows']} != 2^{m}")
    stages = payload["stage_counts"]
    require(stages["row_sum"] == ref.row_sum, f"row_sum {stages['row_sum']} != {ref.row_sum}")
    require(stages["balance"] == ref.balance, f"balance {stages['balance']} != {ref.balance}")
    if ref.paf is not None:
        require(stages["paf"] == ref.paf, f"paf {stages['paf']} != {ref.paf}")
        require(payload["found"] == ref.found, f"found {payload['found']} != {ref.found}")
    require(payload["found_raw_count"] == stages["paf"], "found_raw_count differs from stage paf")
    require(stages["paf"] <= stages["paf_prefix"] <= stages["balance"],
            f"paf_prefix {stages['paf_prefix']} outside [paf {stages['paf']}, balance {stages['balance']}]")
    if not paf_prefix:
        require(stages["paf_prefix"] == stages["balance"], "paf_prefix off but survivors were pruned")
    require(payload["crosscheck"] == {"checked": crosschecked, "mismatches": 0},
            f"crosscheck {payload['crosscheck']} != checked {crosschecked}, 0 mismatches")


def check_same_payload(payloads: dict[str, dict]) -> None:
    """The deterministic part of every search report must be identical."""
    labels = list(payloads)
    first = {k: payloads[labels[0]][k] for k in DETERMINISTIC_KEYS}
    for label in labels[1:]:
        other = {k: payloads[label][k] for k in DETERMINISTIC_KEYS}
        require(other == first, f"{label} differs from {labels[0]}: {other} != {first}")


# -- checkpoints -------------------------------------------------------------


def checkpoint_partitions(text: str) -> dict[str, str]:
    """prefix -> whole line, for every partition line; duplicates are refused."""
    lines = text.splitlines()
    require(bool(lines) and lines[0].startswith("# circhad-checkpoint"), "missing checkpoint header")
    parts: dict[str, str] = {}
    for line in lines[1:]:
        if not line.strip() or line.startswith("#"):
            continue
        fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
        require({"prefix", "survivors", "reached", "masks"} <= set(fields), f"torn line {line!r}")
        require(fields["prefix"] not in parts, f"partition {fields['prefix']} written twice")
        parts[fields["prefix"]] = line
    return parts


def half_checkpoint(text: str) -> str:
    """Header plus every other partition line: the input of the half resume."""
    lines = text.splitlines()
    return "\n".join([lines[0]] + lines[1::2]) + "\n"


def check_checkpoints(full: str, half_after: str, partitions: int) -> None:
    """A fresh run writes every partition once; the half resume appends exactly the missing ones."""
    half_before = half_checkpoint(full)
    whole = checkpoint_partitions(full)
    require(len(whole) == partitions, f"fresh checkpoint has {len(whole)} partitions, expected {partitions}")
    require(half_after.startswith(half_before), "half resume rewrote the lines it had read")
    resumed = checkpoint_partitions(half_after)
    require(resumed == whole, "half resume does not end with the fresh run's partition lines")


# -- matrices ----------------------------------------------------------------


def parse_rows(text: str) -> np.ndarray:
    """The +/- rows of a matrix document as an int8 array; headers and comments skipped."""
    rows = []
    for line in text.splitlines():
        compact = "".join(line.split())
        if compact and set(compact) <= {"+", "-"}:
            rows.append([1 if ch == "+" else -1 for ch in compact])
    require(bool(rows), "no matrix rows")
    arr = np.array(rows, dtype=np.int8)
    require(arr.shape[0] == arr.shape[1], f"matrix is {arr.shape}, not square")
    return arr


def c4_kronecker_power(times: int) -> np.ndarray:
    """The circulant (+++-) tensored with itself `times` more times."""
    row = np.array([1, 1, 1, -1], dtype=np.int8)
    c4 = row[(np.arange(4)[None, :] - np.arange(4)[:, None]) % 4]
    out = c4
    for _ in range(times):
        out = np.kron(out, c4)
    return out


def gram_summary(a: np.ndarray) -> dict:
    """What `verify --format json` must report, from one float64 product (exact at these sizes)."""
    n = a.shape[0]
    require(n <= 4096, "float64 gram is exact only for small orders")
    f = a.astype(np.float64)
    g = (f @ f.T).astype(np.int64)
    off = g[~np.eye(n, dtype=bool)]
    diag = sorted(set(int(x) for x in np.diagonal(g)))
    max_off = int(np.abs(off).max()) if off.size else 0
    return {
        "report": "gram",
        "order": n,
        "hadamard": diag == [n] and max_off == 0,
        "diagonal_values": diag,
        "max_off_diagonal": max_off,
        "row_sums": [int(x) for x in a.sum(axis=1, dtype=np.int64)],
        "col_sums": [int(x) for x in a.sum(axis=0, dtype=np.int64)],
        "negatives_per_row": [int(x) for x in (a == -1).sum(axis=1)],
    }


def check_gram(payload: dict, summary: dict) -> None:
    for key, value in summary.items():
        require(payload.get(key) == value, f"verify reports {key}={payload.get(key)!r}, expected {value!r}")


# -- groups and listings -------------------------------------------------------


def cyclic(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def quaternion() -> np.ndarray:
    """Q8 on indices 2*b + (sign < 0), basis b in (1, i, j, k); i*j = k, i*i = -1."""
    basis = {  # (a, b) -> (sign, c) for basis units a*b
        (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    table = np.empty((8, 8), dtype=np.int64)
    for x in range(8):
        for y in range(8):
            a, b = x // 2, y // 2
            sign, c = (1, a + b) if a == 0 or b == 0 else basis[(a, b)]
            if x % 2 != y % 2:
                sign = -sign
            table[x, y] = 2 * c + (sign < 0)
    return table


def direct_product(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(a, b) is index a*|H| + b."""
    ng, nh = g.shape[0], h.shape[0]
    a = np.repeat(np.arange(ng), nh)
    b = np.tile(np.arange(nh), ng)
    return g[a[:, None], a[None, :]] * nh + h[b[:, None], b[None, :]]


def group_table(name: str) -> np.ndarray:
    table = None
    for part in name.split("x"):
        factor = quaternion() if part == "Q8" else cyclic(int(part[1:]))
        table = factor if table is None else direct_product(table, factor)
    return table


def check_listing(listing, a: np.ndarray, table: np.ndarray) -> None:
    """Entry (r, c) must depend only on listing[r]^-1 * listing[c]."""
    n = table.shape[0]
    require(sorted(listing) == list(range(n)), f"listing is not a permutation of 0..{n - 1}")
    inverse = np.argmax(table == 0, axis=1)
    require(bool(np.all(table[np.arange(n), inverse] == 0)), "group table has no inverses")
    perm = np.asarray(listing)
    idx = table[inverse[perm][:, None], perm[None, :]]
    coeffs = np.zeros(n, dtype=np.int64)
    coeffs[idx[0]] = a[0]
    require(bool(np.array_equal(coeffs[idx], a)), "matrix is not an RG-matrix under the returned listing")


def check_recover(payload: dict, a: np.ndarray, group: str, expect_found: bool) -> None:
    require(payload.get("report") == "recover" and payload.get("group") == group,
            f"not a recover report over {group}")
    require(payload["found"] is expect_found, f"recover over {group} found={payload['found']}")
    if expect_found:
        check_listing(payload["listing"], a, group_table(group))
    else:
        require(payload["listing"] is None, "not-found answer carries a listing")


def check_verify_rg(payload: dict, a: np.ndarray, group: str) -> None:
    rg = payload.get("rg") or {}
    require(rg.get("group") == group and rg.get("rg_matrix") is True, f"no RG verdict over {group}: {rg}")
    require(isinstance(rg.get("listing"), list), f"expected a recovered listing, got {rg.get('listing')!r}")
    check_listing(rg["listing"], a, group_table(group))


# -- block analysis ----------------------------------------------------------


def check_analyze(payload: dict, row: str, exit_code: int) -> None:
    """Paired layout: block k is (row[2k], row[2k+1]), even when the two agree."""
    evens = sum(row[2 * k] == row[2 * k + 1] for k in range(len(row) // 2))
    odds = len(row) // 2 - evens
    cond = payload["conditions"]
    require((cond["even_count"], cond["odd_count"]) == (evens, odds),
            f"analyze counts even/odd {cond['even_count']}/{cond['odd_count']}, expected {evens}/{odds}")
    require(cond["balance_ok"] is (evens == odds), f"balance verdict {cond['balance_ok']} for {evens}/{odds}")
    require(exit_code in (0, 1), f"analyze exit code {exit_code}")
    if evens != odds:
        require(exit_code == 1, "unbalanced row reported as passing")
