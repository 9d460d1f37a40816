"""Exhaustive, filter-pruned enumeration of circulant Hadamard candidate rows.

The pipeline stages are, in order: row_sum (negative count must be admissible
for a regular orthogonal-row matrix), balance (equal even/odd block counts,
orders divisible by 4 only), paf_prefix (incremental autocorrelation pruning
during enumeration) and the final flat-autocorrelation check, optionally
cross-checked row by row against the direct gram oracle on a sampled fraction.

Stage counts refer to the full 2^m row space. The row_sum and balance counts
have exact closed forms and are computed without enumeration; the enumeration
normally fixes row[0] = +1 and doubles its counts (global negation is a
symmetry of every stage predicate). All counts are independent of worker
count and of partition depth, the full row included: the kernels prune every
entry alike, inside a partition's prefix or below it, and the bounds are
monotone along prefixes.

The inner scan runs on a vectorised numpy kernel; its pure-Python twin in
`_pykernel` is the readable reference that the tests hold it to.
`KERNEL_BACKEND` names the kernel in use. Kernels only enumerate; this module
alone asks the gram oracle, which judges the rows a kernel sampled for the
cross-check and re-verifies every found row.

The pending partitions go to the kernel's `scan_partitions` as one batched
frontier, held node-minor with each node's signs kept only in its mask, and
split into halves of at most `_npkernel.FRONTIER_CAP` nodes. It yields each
partition's result in prefix order as soon as it is final, so a checkpoint
line is appended as each partition finishes. With N workers, when k =
min(N, pending partitions, usable CPUs) exceeds 1, k forked children take
the pending partitions in round-robin shares, each scanned as one batched
frontier, and stream every partition's result back as soon as it is final;
the parent records them in partition order. Else the scan runs in-process.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from ..errors import CapacityError, FormatError
from ..hadamard import admissible_negative_counts
from ..signs import MASK_BITS, masks_to_rows, row_to_mask, to_text
from . import _npkernel, _pykernel


_kernel = _npkernel
KERNEL_BACKEND: str = _kernel.BACKEND

# Rows left after the analytic stages above which a search needs allow_large.
ENUMERATION_LIMIT = 1 << 28
KERNEL_ORDER_LIMIT = MASK_BITS  # masks are uint64


@dataclass
class SearchConfig:
    order: int
    row_sum: bool = True
    balance: bool = True
    paf_prefix: bool = True
    crosscheck_fraction: float = 0.0
    canonicalization: str = "rotation+negation"  # or "none"
    partition_depth: int | None = None
    workers: int = 1
    fix_first: bool = True
    allow_large: bool = False
    checkpoint_path: str | Path | None = None

    def validate(self) -> None:
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        if not 0.0 <= self.crosscheck_fraction <= 1.0:
            raise ValueError(f"crosscheck fraction must lie in [0, 1], got {self.crosscheck_fraction}")
        if self.canonicalization not in ("rotation+negation", "none"):
            raise ValueError(f"unknown canonicalization mode {self.canonicalization!r}")
        if self.workers < 1:
            raise ValueError(f"worker count must be positive, got {self.workers}")
        if self.partition_depth is not None and self.partition_depth < 0:
            raise ValueError("partition depth cannot be negative")


@dataclass
class SearchResult:
    order: int
    total_rows: int
    stage_counts: dict[str, int]
    found: list[str]
    found_raw_count: int
    canonicalization: str
    crosscheck: dict[str, int]
    timings: dict[str, float] = field(default_factory=dict)
    meta: dict[str, object] = field(default_factory=dict)

    def deterministic_payload(self) -> dict:
        """Everything that must be bit-identical across worker counts."""
        return {
            "order": self.order,
            "total_rows": self.total_rows,
            "stage_counts": dict(self.stage_counts),
            "found": list(self.found),
            "found_raw_count": self.found_raw_count,
            "canonicalization": self.canonicalization,
            "crosscheck": dict(self.crosscheck),
        }


def _canonical_mask(mask: int, m: int) -> int:
    full = (1 << m) - 1
    best = mask
    for base in (mask, mask ^ full):
        for k in range(m):
            rotated = ((base << k) | (base >> (m - k))) & full if k else base
            if rotated < best:
                best = rotated
    return best


def canonicalize(row) -> np.ndarray:
    """Lexicographically smallest vector over all rotations and global negations.

    Ordering treats +1 as smaller than -1, so the all-plus row is canonical in
    its orbit. Idempotent by construction.
    """
    m = len(row)
    canon = _canonical_mask(row_to_mask(row), m)
    return masks_to_rows(np.array([canon], dtype=np.uint64), m)[0].astype(np.int64)


def _admissible_mask(order: int) -> tuple[set[int], int]:
    counts = admissible_negative_counts(order)
    return counts, sum(1 << r for r in counts)


def _balance_count(order: int, counts: set[int] | None) -> int:
    """Rows with equally many even and odd blocks, optionally with an admissible
    negative count. Each odd block contributes one negative, each all-minus even
    block two, so r = n + 2t with t the all-minus even blocks."""
    blocks = order // 2
    n = order // 4
    placements = math.comb(blocks, n)
    odd_signs = 1 << n
    if counts is None:
        return placements * odd_signs * (1 << n)
    span = sum(math.comb(n, t) for t in range(n + 1) if (n + 2 * t) in counts)
    return placements * odd_signs * span


def _auto_partition_depth(available_bits: int, config: SearchConfig) -> int:
    if config.partition_depth is not None:
        return min(config.partition_depth, available_bits)
    if config.workers == 1 and config.checkpoint_path is None:
        return 0
    return min(available_bits, 6)


def _config_fingerprint(config: SearchConfig, depth: int) -> str:
    payload = json.dumps(
        {
            "order": config.order,
            "row_sum": config.row_sum,
            "balance": config.balance,
            "paf_prefix": config.paf_prefix,
            "crosscheck_fraction": config.crosscheck_fraction,
            "fix_first": config.fix_first,
            "partition_depth": depth,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass
class _PartitionOutcome:
    reached: int
    found_masks: list[int]
    crosschecked: int
    mismatches: int


_CHECKPOINT_FIELDS = ["prefix", "survivors", "reached", "crosschecked", "mismatches", "masks", "crc"]
_CHECKPOINT_HEADER = "# circhad-checkpoint v3 "


def _load_checkpoint(
    path: Path, fingerprint: str, order: int, partitions: int
) -> dict[int, _PartitionOutcome]:
    """The partitions a checkpoint records as done; writes the header when the file is new.

    Lines are appended whole, newline last, and each ends with a CRC-32 of the
    text before it. So a last line that is unterminated, incomplete or fails
    its checksum is a write that never finished: it is cut from the file and
    its partition is scanned again. A bad line anywhere else raises FormatError.
    """
    text = path.read_bytes().decode() if path.exists() else ""
    if not text.strip():
        path.write_text(f"{_CHECKPOINT_HEADER}fingerprint={fingerprint} order={order}\n")
        return {}
    lines = text.splitlines(keepends=True)
    if not lines[0].startswith(_CHECKPOINT_HEADER):
        if lines[0].startswith("# circhad-checkpoint "):
            raise ValueError(f"{path}: checkpoint has an older format; start a new checkpoint file")
        raise ValueError(f"{path}: not a checkpoint file")
    if f"fingerprint={fingerprint}" not in lines[0]:
        raise ValueError(f"{path}: checkpoint was written for a different search configuration")
    done: dict[int, _PartitionOutcome] = {}
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            if not line.endswith("\n"):
                raise ValueError("line is not terminated")
            prefix, outcome = _parse_checkpoint_line(line, partitions)
        except ValueError as exc:
            if number < len(lines):
                raise FormatError(f"{path}: {exc}", number) from None
            os.truncate(path, len(text.encode()) - len(line.encode()))
            break
        done[prefix] = outcome
    return done


def _parse_checkpoint_line(line: str, partitions: int) -> tuple[int, _PartitionOutcome]:
    """Inverse of `_checkpoint_line`; raises ValueError unless all fields are there and agree."""
    pairs = [part.split("=", 1) for part in line.split()]
    if [pair[0] for pair in pairs] != _CHECKPOINT_FIELDS or any(len(pair) != 2 for pair in pairs):
        raise ValueError("expected the fields " + ", ".join(_CHECKPOINT_FIELDS))
    fields = dict(pairs)
    if fields["crc"] != _crc(line[: line.rindex(" crc=")]):
        raise ValueError("line does not match its crc")
    prefix = int(fields["prefix"], 16)
    masks = [int(x, 16) for x in fields["masks"].split(",") if x]
    if not 0 <= prefix < partitions:
        raise ValueError(f"prefix {fields['prefix']} is not one of the {partitions} partitions")
    if int(fields["survivors"]) != len(masks):
        raise ValueError(f"survivors={fields['survivors']} but {len(masks)} masks")
    return prefix, _PartitionOutcome(
        reached=int(fields["reached"]),
        found_masks=masks,
        crosschecked=int(fields["crosschecked"]),
        mismatches=int(fields["mismatches"]),
    )


def _crc(text: str) -> str:
    return f"{zlib.crc32(text.encode()):08x}"


def _checkpoint_line(prefix: int, outcome: _PartitionOutcome) -> str:
    masks = ",".join(f"0x{mask:x}" for mask in outcome.found_masks)
    body = (
        f"prefix=0x{prefix:x} survivors={len(outcome.found_masks)} "
        f"reached={outcome.reached} crosschecked={outcome.crosschecked} "
        f"mismatches={outcome.mismatches} masks={masks}"
    )
    return f"{body} crc={_crc(body)}"


def _scan(prefixes: list[int], scan: tuple):
    """(prefix, outcome) for each of the sorted prefixes, in order, from one batched kernel scan;
    a mismatch is a sampled row whose gram verdict differs from its membership in the found rows."""
    m, depth, *filters = scan
    for prefix, reached, found_masks, sampled in _kernel.scan_partitions(m, prefixes, depth, *filters):
        found_masks = sorted(int(x) for x in found_masks)
        mismatches = 0
        if len(sampled):
            flat = np.isin(sampled, np.array(found_masks, dtype=np.uint64))
            mismatches = int(np.count_nonzero(_pykernel.gram_hadamard_batch(sampled, m) != flat))
        yield prefix, _PartitionOutcome(int(reached), found_masks, len(sampled), mismatches)


def _send_share(share: list[int], scan: tuple, fd: int) -> None:
    """A child's work: pickle each (prefix, outcome) into `fd` as soon as it is final,
    or the exception that stopped the scan."""
    with open(fd, "wb") as pipe:
        try:
            for item in _scan(share, scan):
                pickle.dump(item, pipe)
                pipe.flush()
        except BaseException as exc:
            pickle.dump(exc, pipe)
            raise


def _scan_forked(
    todo: list[int], scan: tuple, n: int, record: Callable[[int, _PartitionOutcome], None]
) -> None:
    """`record(prefix, outcome)` for each of the sorted prefixes, in order, from n forked children.

    Child w of n scans todo[w::n] as one batched frontier and streams its results
    through its own pipe; result i is read from child i % n. Children are forked,
    because a spawned one imports numpy afresh, which costs more than an order-20
    search. A child leaves only through os._exit, so it never returns into the
    caller's stack. An exception a child sends back is raised here, and so is a
    child's exit without a result.

    No deadlock: the parent only blocks reading the child that holds the next
    partition, so that child's writes always drain. Other children may wait on a
    full pipe, but none waits on another child. Every pipe is closed and every
    child killed and reaped on the way out, whether the scan ends, faults or is
    interrupted.
    """
    import signal  # here, because its enums add about 1 ms to every start-up

    children: list[tuple[int, BinaryIO]] = []
    try:
        for w in range(n):
            reader, writer = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(reader)
                    for _, pipe in children:
                        pipe.close()
                    _send_share(todo[w::n], scan, writer)
                finally:
                    os._exit(0)
            os.close(writer)
            children.append((pid, open(reader, "rb")))
        for i in range(len(todo)):
            pid, pipe = children[i % n]
            try:
                item = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"worker process {pid} exited without a result") from None
            if isinstance(item, BaseException):
                raise item
            record(*item)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
        for pid, _ in children:
            os.waitpid(pid, 0)


def search(config: SearchConfig) -> SearchResult:
    """Run the staged enumeration described in the module docstring."""
    config.validate()
    m = config.order
    # The report prints total_rows = 2^m, which has floor(m log10 2) + 1 digits;
    # so refuse an order whose count str() would refuse, before any closed form.
    max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if max_digits and m * math.log10(2) >= max_digits:
        raise CapacityError(
            f"order {m} is too large: its row count 2^{m} has more than {max_digits} "
            "digits, more than the report can print"
        )
    t0 = time.perf_counter()

    counts, adm_mask = _admissible_mask(m)
    total = 1 << m

    stage_counts: dict[str, int] = {}
    stage_counts["row_sum"] = sum(math.comb(m, r) for r in counts) if config.row_sum else total
    if config.balance and m % 4 == 0:
        stage_counts["balance"] = _balance_count(m, counts if config.row_sum else None)
    else:
        stage_counts["balance"] = stage_counts["row_sum"]

    if stage_counts["balance"] > ENUMERATION_LIMIT and not config.allow_large:
        # a power of two, because str() refuses integers of more than 4300 digits
        raise CapacityError(
            f"order {m} leaves at least 2^{stage_counts['balance'].bit_length() - 1} rows after "
            f"the analytic stages, more than 2^{ENUMERATION_LIMIT.bit_length() - 1}; "
            "pass allow_large (--force) to run anyway"
        )
    must_enumerate = stage_counts["balance"] > 0
    if must_enumerate and m > KERNEL_ORDER_LIMIT:
        raise CapacityError(f"enumeration kernels support orders up to {KERNEL_ORDER_LIMIT}")

    # a fixed row[0] = +1 is one more prefix bit for the kernel, which then scans half the rows
    fixed = 1 if config.fix_first else 0
    available_bits = m - fixed
    pdepth = _auto_partition_depth(available_bits, config)
    cc_threshold = min(1 << 32, round(config.crosscheck_fraction * (1 << 32)))

    t_analytic = time.perf_counter() - t0
    t1 = time.perf_counter()

    outcomes: dict[int, _PartitionOutcome] = {}
    checkpoint = None
    if config.checkpoint_path is not None:
        checkpoint = Path(config.checkpoint_path)
        fingerprint = _config_fingerprint(config, pdepth)
        outcomes.update(_load_checkpoint(checkpoint, fingerprint, m, 1 << pdepth))
    if must_enumerate:
        todo = [p for p in range(1 << pdepth) if p not in outcomes]
        scan = (m, pdepth + fixed, config.row_sum, adm_mask, config.balance,
                config.paf_prefix, cc_threshold)

        def record(prefix: int, outcome: _PartitionOutcome) -> None:
            outcomes[prefix] = outcome
            if checkpoint is not None:
                with checkpoint.open("a") as fh:
                    fh.write(_checkpoint_line(prefix, outcome) + "\n")

        # a lone child only adds a pipe; one worker skips sched_getaffinity, which macOS lacks
        children = (min(config.workers, len(todo), len(os.sched_getaffinity(0)))
                    if config.workers > 1 else 1)
        if children > 1:
            _scan_forked(todo, scan, children, record)
        else:
            for prefix, outcome in _scan(todo, scan):
                record(prefix, outcome)

    t_enumeration = time.perf_counter() - t1
    t2 = time.perf_counter()

    reached = sum(o.reached for o in outcomes.values()) << fixed
    crosschecked = sum(o.crosschecked for o in outcomes.values())
    mismatches = sum(o.mismatches for o in outcomes.values())
    if mismatches:
        raise RuntimeError(
            f"gram cross-check disagreed with the autocorrelation verdict on {mismatches} rows"
        )

    found_masks: list[int] = []
    for prefix in sorted(outcomes):
        found_masks.extend(outcomes[prefix].found_masks)
    if config.fix_first:
        full = (1 << m) - 1
        raw_masks = sorted(found_masks + [mask ^ full for mask in found_masks])
    else:
        raw_masks = sorted(found_masks)

    if raw_masks:
        verdicts = _pykernel.gram_hadamard_batch(np.array(raw_masks, dtype=np.uint64), m)
        if not bool(np.all(verdicts)):
            raise RuntimeError("a found row failed the gram oracle; enumeration kernel is faulty")

    stage_counts["paf_prefix"] = reached
    stage_counts["paf"] = len(raw_masks)
    if must_enumerate and not config.paf_prefix and reached != stage_counts["balance"]:
        raise RuntimeError(
            f"stage accounting mismatch: enumerated {reached} rows past the filters, "
            f"closed form says {stage_counts['balance']}"
        )

    if config.canonicalization == "rotation+negation":
        reported = sorted({_canonical_mask(mask, m) for mask in raw_masks})
    else:
        reported = raw_masks
    found_strings = to_text(masks_to_rows(np.array(reported, dtype=np.uint64), m))

    t_finalize = time.perf_counter() - t2
    return SearchResult(
        order=m,
        total_rows=total,
        stage_counts=stage_counts,
        found=found_strings,
        found_raw_count=len(raw_masks),
        canonicalization=config.canonicalization,
        crosscheck={"checked": crosschecked, "mismatches": mismatches},
        timings={
            "analytic": t_analytic,
            "enumeration": t_enumeration,
            "finalize": t_finalize,
        },
        meta={
            "backend": _kernel.BACKEND,
            "workers": config.workers,
            "partition_depth": pdepth,
            "fix_first": config.fix_first,
            "enumerated_masks": (1 << available_bits) if must_enumerate else 0,
        },
    )
