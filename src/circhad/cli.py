"""Command-line front end.

Exit codes: 0 = verified/true, 1 = verified false (not Hadamard, listing not
found, conditions violated), 2 = usage or input format error, 3 = capacity or
feasibility error, 4 = internal error (a fault of circhad itself, such as a
kernel result the gram oracle rejects), 130 = interrupted (Ctrl-C); an
interrupted search keeps its checkpoint, so the same command resumes it.
141 = stdout closed by its reader (a pipe into `head`), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .blocks import block_system, conditions_report, matching_report
from .constructions import FAMILIES, kronecker_extend, with_recovered_listing
from .errors import CapacityError, FormatError
from .groups import Group, Listing, group_by_name, is_cyclic_table, natural_listing, paired_listing
from .groupring import is_rg_matrix, recover_listing
from .hadamard import is_hadamard
from .matrixio import (
    MatrixDocument,
    emit_matrix_document,
    emit_report,
    parse_matrix_document,
    report_payload,
    report_text,
)
from .searchengine import SearchConfig, search
from .signs import from_text


def _parse_row(text: str) -> np.ndarray:
    compact = "".join(text.split())
    bad = set(compact) - {"+", "-"}
    if bad:
        raise FormatError(f"row may only contain '+' and '-', got {sorted(bad)}")
    return from_text(compact)


def _print(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit(fmt: str, payload: dict, lines: list[str]) -> None:
    """Print `payload` as sorted, indented JSON when `fmt` is json, else `lines` as text."""
    _print(json.dumps(payload, sort_keys=True, indent=2) if fmt == "json" else "\n".join(lines))


def _header_listing(doc: MatrixDocument, matrix, group) -> Listing | None:
    """The document's own listing, if declared for `group` and making the matrix an RG-matrix."""
    if doc.listing is None or doc.group != group.name:
        return None
    if sorted(doc.listing) != list(range(group.order)):
        return None
    listing = Listing(group, doc.listing)
    return listing if is_rg_matrix(matrix, group, listing) else None


def _group_of_order(name: str, n: int) -> Group:
    """The named group, refused unless its order is the matrix size n."""
    group = group_by_name(name)
    if group.order != n:
        raise FormatError(f"group {group.name} has order {group.order}, matrix is {n}x{n}")
    return group


def _cmd_verify(args) -> int:
    doc = parse_matrix_document(Path(args.file).read_bytes())
    matrix = doc.matrix
    report = is_hadamard(matrix)

    rg_info = None
    group_name = args.group or doc.group
    if group_name:
        group = _group_of_order(group_name, matrix.size)
        candidates: list[tuple[str, Listing]] = []
        if args.listing in ("natural", "auto"):
            candidates.append(("natural", natural_listing(group)))
        if args.listing in ("paired", "auto"):
            if matrix.size % 4 == 0 and is_cyclic_table(group):
                candidates.append(("paired", paired_listing(matrix.size, group)))
            elif args.listing == "paired":
                raise FormatError("paired listing needs a cyclic group of order divisible by 4")
        rg_info = {"group": group.name, "rg_matrix": False, "listing": None}
        for label, listing in candidates:
            if is_rg_matrix(matrix, group, listing):
                rg_info = {"group": group.name, "rg_matrix": True, "listing": label}
                break
        else:
            if args.listing == "auto":
                found = _header_listing(doc, matrix, group) or recover_listing(matrix, group)
                if found is not None:
                    rg_info = {
                        "group": group.name,
                        "rg_matrix": True,
                        "listing": list(found.perm),
                    }

    payload, lines = report_payload(report), report_text(report)
    if rg_info is not None:
        payload["rg"] = rg_info
        verdict = f"true (listing: {rg_info['listing']})" if rg_info["rg_matrix"] else "false"
        lines.append(f"rg-matrix over {rg_info['group']}: {verdict}")
    _emit(args.format, payload, lines)
    verified = report.is_hadamard and (rg_info is None or rg_info["rg_matrix"])
    return 0 if verified else 1


def _cmd_search(args) -> int:
    disabled = set(args.no_filter or [])
    config = SearchConfig(
        order=args.order,
        row_sum="row_sum" not in disabled,
        balance="balance" not in disabled,
        paf_prefix="paf_prefix" not in disabled,
        crosscheck_fraction=args.crosscheck,
        canonicalization=args.canonical,
        partition_depth=args.partition_depth,
        workers=args.workers,
        fix_first=not args.full_space,
        allow_large=args.force,
        checkpoint_path=args.checkpoint,
    )
    result = search(config)
    _print(emit_report(result, args.format))
    return 0


def _cmd_analyze(args) -> int:
    row = _parse_row(args.row)
    system = block_system(row, layout=args.layout)
    conditions = conditions_report(system)
    matches = {kind: matching_report(system, kind) for kind in ("even", "odd")}
    payload = {
        "report": "analyze",
        "conditions": report_payload(conditions),
        "matching": {kind: report_payload(rep) for kind, rep in matches.items()},
    }
    lines = report_text(conditions)
    for rep in matches.values():
        lines += ["", *report_text(rep)]
    _emit(args.format, payload, lines)
    ok = conditions.all_ok and all(rep.perfect_matching_found for rep in matches.values())
    return 0 if ok else 1


def _cmd_construct(args) -> int:
    if args.times < 0:
        raise ValueError(f"--times must be 0 or more, got {args.times}")
    construction = FAMILIES[args.family]()
    if args.times > 0:
        construction = with_recovered_listing(construction)
        factor = FAMILIES[args.extend]()
        for _ in range(args.times):
            construction = kronecker_extend(construction, factor)
    listing = None if construction.listing is None else construction.listing.perm
    doc = MatrixDocument(construction.matrix, construction.group.name, listing)
    data = emit_matrix_document(doc, args.format)
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        _print(data.decode())
    return 0


def _cmd_recover(args) -> int:
    doc = parse_matrix_document(Path(args.file).read_bytes())
    group = _group_of_order(args.group, doc.order)
    matrix = doc.matrix
    listing = _header_listing(doc, matrix, group) or recover_listing(matrix, group)
    perm = None if listing is None else list(listing.perm)
    payload = {"report": "recover", "group": group.name, "found": perm is not None, "listing": perm}
    text = "not-found" if perm is None else ",".join(map(str, perm))
    _emit(args.format, payload, [f"listing over {group.name}: {text}"])
    return 0 if listing is not None else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circhad",
        description="Group-ring matrices, circulant Hadamard search and block analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="gram/Hadamard report for a matrix file")
    p.add_argument("file")
    p.add_argument("--group", help="check group-ring structure over this group (e.g. C16, C2xC8)")
    p.add_argument("--listing", choices=["natural", "paired", "auto"], default="auto")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="enumerate circulant Hadamard first rows of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--no-filter",
        action="append",
        choices=["row_sum", "balance", "paf_prefix"],
        help="disable one pipeline filter (repeatable)",
    )
    p.add_argument("--crosscheck", type=float, default=0.0, metavar="FRACTION",
                   help="gram-check this fraction of enumerated rows against the PAF verdict")
    p.add_argument("--canonical", choices=["rotation+negation", "none"], default="rotation+negation")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--partition-depth", type=int, default=None)
    p.add_argument("--checkpoint", help="resumable per-partition progress file")
    p.add_argument("--full-space", action="store_true",
                   help="enumerate all 2^m rows instead of fixing row[0] = +")
    p.add_argument("--force", action="store_true", help="run oversized searches anyway")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("analyze", help="block conditions and matchings for one row")
    p.add_argument("--row", required=True, help="sign row, e.g. '+++-'")
    p.add_argument("--layout", choices=["natural", "paired"], default="natural")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("construct", help="emit a named Hadamard construction")
    p.add_argument("--family", choices=["c4", "c2c2", "c2c8", "q8c2"], required=True)
    p.add_argument("--extend", choices=["c4", "c2c2"], default="c4",
                   help="Kronecker extension factor (used when --times > 0)")
    p.add_argument("--times", type=int, default=0, help="number of Kronecker extensions")
    p.add_argument("--out", help="write the matrix document to this file")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("recover", help="find a listing making a matrix an RG-matrix")
    p.add_argument("--file", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_recover)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses: building it costs about 1 ms, most of a short command.

    Reuse is safe because argparse keeps each call's values in a fresh namespace
    and copies list defaults before appending to them.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone; aim stdout at devnull so the interpreter's last flush
        # cannot fail again, and exit as a process killed by SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, KeyError, MemoryError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
