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

A unit engine runs the enumeration, and knows nothing of kernels. A path hands
`_run_units` its number of units, a work function that yields (unit, outcome)
in unit order, the cost of the pending units, and a parser of its outcomes'
checkpoint fields. The engine reads the checkpoint, runs the pending units
in-process, or in forked children (`_scan_forked`) when their cost exceeds
`FORK_ABOVE_ROWS` and more than one worker has a CPU and a unit, and writes and
flushes one CRC'd line per unit as its result arrives. The plain scan is its one
path: a unit is a row prefix, the work one batched kernel frontier over the
pending prefixes (`scan_partitions`), and the cost the rows left for the kernel.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

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
# Rows left for the kernel above which a search with --workers > 1 forks children
# (BENCH_25.json has the runs). Two workers at --partition-depth 6 on 2 vCPUs, medians
# of 11 runs, in-process against forked from the start: 2^19 rows (order 20 without
# the row-sum and balance filters) took 0.009 against 0.012 s, 2^21 rows (order 22)
# 0.039 against 0.034 s, and 1.8 * 2^20 rows (order 24) 0.079 against 0.066 s. A row
# costs more under --crosscheck 1, whose order-20 search (2^17 rows) would take
# 0.046 s forked instead of 0.056 s (BENCH_19.json, with an earlier kernel).
FORK_ABOVE_ROWS = 1 << 20


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
    import hashlib  # here, as it loads OpenSSL: about 4 MB a process that takes no digest

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

    def fields(self) -> str:
        masks = ",".join(f"0x{mask:x}" for mask in self.found_masks)
        return (
            f"survivors={len(self.found_masks)} reached={self.reached} "
            f"crosschecked={self.crosschecked} mismatches={self.mismatches} masks={masks}"
        )

    @classmethod
    def parse(cls, text: str) -> _PartitionOutcome:
        """Inverse of `fields`; raises ValueError unless all fields are there, in order, and agree."""
        pairs = [part.split("=", 1) for part in text.split()]
        names = ["survivors", "reached", "crosschecked", "mismatches", "masks"]
        if [pair[0] for pair in pairs] != names or any(len(pair) != 2 for pair in pairs):
            raise ValueError("expected the fields " + ", ".join(names))
        survivors, reached, crosschecked, mismatches, masks = (value for _, value in pairs)
        found_masks = [int(x, 16) for x in masks.split(",") if x]
        if int(survivors) != len(found_masks):
            raise ValueError(f"survivors={survivors} but {len(found_masks)} masks")
        return cls(int(reached), found_masks, int(crosschecked), int(mismatches))


def _scan(prefixes: list[int], scan: tuple):
    """The plain path's work: (prefix, outcome) for each sorted prefix, in order, from one batched
    kernel scan; a mismatch is a sampled row whose gram verdict disagrees with the found rows."""
    m, depth, *filters = scan
    for prefix, reached, found_masks, sampled in _kernel.scan_partitions(m, prefixes, depth, *filters):
        found_masks = sorted(int(x) for x in found_masks)
        mismatches = 0
        if len(sampled):
            flat = np.isin(sampled, np.array(found_masks, dtype=np.uint64))
            mismatches = int(np.count_nonzero(_pykernel.gram_hadamard_batch(sampled, m) != flat))
        yield prefix, _PartitionOutcome(int(reached), found_masks, len(sampled), mismatches)


# -- the unit engine: it runs a path's work and keeps its checkpoint

_CHECKPOINT_HEADER = "# circhad-checkpoint v3 "


def _load_checkpoint(path: Path, fingerprint: str, order: int, units: int, parse) -> dict:
    """The units a checkpoint records as done; writes the header when the file is new.

    A line is `prefix=0x<unit> <fields> crc=<CRC-32 of the text before it>`, where
    `parse` reads the path's fields, and it is appended whole, newline last. So a last
    line that is unterminated, incomplete or fails its checksum is a write that never
    finished: it is cut from the file and its unit is run again. A bad line anywhere
    else raises FormatError.
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
    done = {}
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            if not line.endswith("\n"):
                raise ValueError("line is not terminated")
            body, _, crc = line.rstrip().rpartition(" crc=")
            if crc != _crc(body):
                raise ValueError("line does not match its crc")
            head, _, fields = body.partition(" ")
            name, _, unit = head.partition("=")
            if name != "prefix" or not 0 <= int(unit, 16) < units:
                raise ValueError(f"{head} is not one of the {units} units")
            done[int(unit, 16)] = parse(fields)
        except ValueError as exc:
            if number < len(lines):
                raise FormatError(f"{path}: {exc}", number) from None
            os.truncate(path, len(text.encode()) - len(line.encode()))
    return done


def _crc(text: str) -> str:
    return f"{zlib.crc32(text.encode()):08x}"


def _send_share(share: list[int], work, fd: int) -> None:
    """A child's work: pickle each (unit, outcome) of work(share) into `fd` as soon as it
    is final, or the exception that stopped the work."""
    with open(fd, "wb") as pipe:
        try:
            for item in work(share):
                pickle.dump(item, pipe)
                pipe.flush()
        except BaseException as exc:
            pickle.dump(exc, pipe)


def _scan_forked(units: list[int], work, n: int):
    """(unit, outcome) for each of the sorted units, in order, as work(units) yields them,
    from n children forked when the first result is asked for.

    Child w of n runs work(units[w::n]) and streams its results through its own
    pipe; result i is read from child i % n. Children are forked, because a spawned
    one imports numpy afresh, which costs more than an order-20 search; even a fork
    costs more than short work, hence `FORK_ABOVE_ROWS`. A child leaves only through
    os._exit, so it never returns into the caller's stack, and never flushes a file
    buffer it inherited. An exception a child sends back is raised here, and so is a
    child's exit without a result.

    No deadlock: the parent only blocks reading the child that holds the next
    unit, so that child's writes always drain. Other children may wait on a
    full pipe, but none waits on another child. Every pipe is closed and every
    child killed and reaped on the way out, whether the work ends, faults or is
    interrupted, or the generator is closed.
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
                    _send_share(units[w::n], work, writer)
                finally:
                    os._exit(0)
            os.close(writer)
            children.append((pid, open(reader, "rb")))
        for i in range(len(units)):
            pid, pipe = children[i % n]
            try:
                item = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"worker process {pid} exited without a result") from None
            if isinstance(item, BaseException):
                raise item
            yield item
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
        for pid, _ in children:
            os.waitpid(pid, 0)


def _run_units(units: int, work, cost, parse, config: SearchConfig, fingerprint: str | None) -> dict:
    """Each unit in range(units) with its outcome, from the checkpoint or from work(pending),
    a generator of (unit, outcome) in unit order; `parse` reads back an outcome's `fields()`,
    and `fingerprint`, None without a checkpoint, names the configuration in its header.
    Work is never asked for no units, nor forked unless `cost(pending)` > `FORK_ABOVE_ROWS`."""
    checkpoint = None if config.checkpoint_path is None else Path(config.checkpoint_path)
    done = {}
    if checkpoint is not None:
        done = _load_checkpoint(checkpoint, fingerprint, config.order, units, parse)
    pending = [unit for unit in range(units) if unit not in done]
    if not pending:
        return done
    children = 1  # a lone child only adds a pipe
    if config.workers > 1 and cost(pending) > FORK_ABOVE_ROWS:
        affinity = getattr(os, "sched_getaffinity", None)  # macOS lacks it
        cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
        children = min(config.workers, len(pending), cpus)
    # one handle for the whole run; each line is flushed whole, so it is in the
    # file before the next unit is asked for, and before any fork
    fh = checkpoint.open("a") if checkpoint is not None else None
    results = _scan_forked(pending, work, children) if children > 1 else work(pending)
    try:
        for unit, outcome in results:
            done[unit] = outcome
            if fh is not None:
                body = f"prefix=0x{unit:x} {outcome.fields()}"
                fh.write(f"{body} crc={_crc(body)}\n")
                fh.flush()
    finally:
        results.close()
        if fh is not None:
            fh.close()
    return done


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

    scan = (m, pdepth + fixed, config.row_sum, adm_mask, config.balance, config.paf_prefix, cc_threshold)
    outcomes: dict[int, _PartitionOutcome] = _run_units(
        (1 << pdepth) if must_enumerate else 0,  # no unit, so no kernel, when nothing is left
        lambda prefixes: _scan(prefixes, scan),
        # the work left: the analytic count, taken as spread evenly over the partitions,
        # of which the kernel scans half when row[0] is fixed
        lambda prefixes: (stage_counts["balance"] >> fixed) * len(prefixes) >> pdepth,
        _PartitionOutcome.parse,
        config,
        None if config.checkpoint_path is None else _config_fingerprint(config, pdepth),
    )

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
