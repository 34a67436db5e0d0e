"""Command-line surface: enumeration, mapping, sets, verification, series.

Output is deterministic: fixed column and row order, no timestamps.
Each command returns its exit code and its output, either one string
or an iterable of text chunks, and ``main`` is the one writer: it
writes the chunks to stdout or ``--out`` as they come.  Only rendering
is lazy; every check, the parse of ``--filter`` and the enumeration run
before the first byte, and before ``--out`` is opened.  ``enumerate``
leaves in batches of ``_BATCH`` partitions, one write each, in every
format, each partition filled into a template for its dimension; the
other commands' JSON leaves in batches of ``_BATCH`` encoder pieces.
A reader that closes
stdout or an ``--out`` FIFO early (``tripart enumerate 40 | head -1``)
is not a fault: the rest of the output is dropped and the command's own
exit code stands, with nothing on stderr.

Exit codes: 0 success, 1 a requested verification failed, 2 usage
error (any ``InputError``, including an ``--out`` path or a stdout that
cannot be opened or written), 3 an operation was applied outside its
contract (any ``ContractError``, for example forcing the wrong branch
of the map), 4 an internal fault (a bug), reported with its traceback
on stderr.  The class of an error, not this module, decides between 2
and 3.

At the top level this module imports only what the parser needs
(``core``, and ``enumeration`` for the desk ceiling, neither of which
brings the predicate language); each command imports the modules it
runs, so a process pays for no other.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from itertools import islice
from typing import TYPE_CHECKING

from .core import _TEXT_TEMPLATES, ContractError, InputError, Partition, _Templates
from .enumeration import DESK_CEILING

if TYPE_CHECKING:  # for annotations only
    from .dsl import SetPredicate
    from .identities import CountReport
    from .qseries import SeriesCoeffs

USAGE_ERROR = 2
VERIFY_FAILURE = 1
CONTRACT_VIOLATION = 3
INTERNAL_ERROR = 4


# Partitions (or encoder pieces) per chunk of streamed output.
# Each chunk is one write, and with PYTHONUNBUFFERED set each write is
# one pipe write, so writing line by line would cost a system call per
# partition.
_BATCH = 2048


def _emit(output, out: str | None) -> None:
    """Write a command's output, a string or an iterable of chunks."""
    chunks = (output,) if isinstance(output, str) else output
    try:
        fh = open(out, "w", encoding="utf-8") if out is not None else sys.stdout
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc.strerror}") from None
    try:
        for chunk in chunks:
            fh.write(chunk)
        fh.flush()
    except OSError as exc:
        # Point the stream at devnull so that the flush at close or exit
        # drops what is still buffered instead of failing again.  A reader
        # that has gone is not an error; a full disk is.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fh.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            where = "stdout" if out is None else out
            raise InputError(f"cannot write {where}: {exc.strerror}") from None
    finally:
        if out is not None:
            fh.close()


def _json(payload):
    """``json.dumps(payload, indent=2)`` and a newline, in chunks of
    ``_BATCH`` encoder pieces, for every command but ``enumerate``,
    whose listing fills per-dimension templates instead.  An object JSON
    cannot encode is replaced by its own ``to_json()`` as the encoder
    reaches it."""
    pieces = json.JSONEncoder(indent=2, default=lambda obj: obj.to_json()).iterencode(payload)
    while chunk := "".join(islice(pieces, _BATCH)):
        yield chunk
    yield "\n"


def _csv(header, rows) -> str:
    """CSV text of a header row and then ``rows``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _resolve_predicate(text: str) -> SetPredicate:
    """A set name from the registry, or predicate text (which may itself
    reference registered names)."""
    from . import sets
    from .dsl import DslError

    try:
        return sets.parse_set_expression(text)
    except DslError as exc:
        raise InputError(f"{text!r} is neither a known set nor valid predicate text: {exc}")


def _check_ceiling(n: int, ceiling: int | None) -> None:
    limit = DESK_CEILING if ceiling is None else ceiling
    if n > limit:
        raise InputError(
            f"n={n} exceeds the desk ceiling {limit}; raise it with --desk-ceiling"
        )


# --- report rendering ---------------------------------------------------

def _render_report_text(report: CountReport) -> str:
    lines = []
    header = ["n"] + list(report.columns)
    widths = [max(len(h), 6) for h in header]
    lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for offset, row in enumerate(report.rows):
        cells = [str(report.n_lo + offset)] + [str(v) for v in row]
        lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    lines.append("")
    for check in report.checks:
        if check.passed:
            lines.append(f"check {check.label}: pass")
        else:
            lines.append(
                f"check {check.label}: FAIL at n={check.first_failure}"
                f" ({check.lhs_count} vs {check.rhs_count})"
            )
            if check.only_lhs:
                lines.append("  only left : " + ", ".join(str(p) for p in check.only_lhs))
            if check.only_rhs:
                lines.append("  only right: " + ", ".join(str(p) for p in check.only_rhs))
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append("result: " + ("pass" if report.passed else "FAIL"))
    return "\n".join(lines) + "\n"


def _render_series(name: str, series: SeriesCoeffs, fmt: str):
    if fmt == "json":
        return _json({"name": name, **series.to_json()})
    if fmt == "csv":
        return _csv(("n", "coefficient"), enumerate(series.coeffs))
    lines = [f"{name}: coefficients 0..{series.order}"]
    lines += [f"{n:4d}  {c}" for n, c in enumerate(series.coeffs)]
    return "\n".join(lines) + "\n"


# The templates of one listed partition, per dimension m.  csv.writer
# quotes a row exactly when it holds a comma: from dimension 2 on.  The
# JSON item is indented as json.dumps(..., indent=2) writes it among the
# items of the enumerate payload, two levels deep.
_LINE_TEMPLATES = _Templates(lambda m: _TEXT_TEMPLATES[m] + "\n")
_CSV_TEMPLATES = _Templates(
    lambda m: (_TEXT_TEMPLATES[m] if m == 1 else f'"{_TEXT_TEMPLATES[m]}"') + "\n")
_JSON_ITEM_TEMPLATES = _Templates(lambda m: (
    '    {{\n      "parts": [\n        {0}\n      ],\n      "mults": [\n        {0}\n      ]\n    }}'
    .format(",\n        ".join(["%s"] * m))))


def _render_listing(n: int, items, fmt: str):
    """The ``enumerate`` output of a listing of n, each partition filled
    into its dimension's template, in chunks of ``_BATCH`` partitions.

    The same bytes as ``str`` per line, ``csv.writer`` or
    ``json.dumps(..., indent=2)``: the head leaves with the first chunk
    and the closing lines with the last.
    """
    templates, head, sep, tail = _LINE_TEMPLATES, "", "", ""
    if fmt == "csv":
        templates, head = _CSV_TEMPLATES, "partition\n"
    elif fmt == "json":
        head = f'{{\n  "n": {n},\n  "count": {len(items)},\n  "items": ['
        if not items:
            return head + "]\n}\n"
        templates, head, sep, tail = _JSON_ITEM_TEMPLATES, head + "\n", ",\n", "\n  ]\n}\n"
    if not items:
        return head
    return _filled(items, templates, head, sep, tail)


def _filled(items, templates, head, sep, tail):
    """``head``, the filled templates of ``items`` joined by ``sep``, and
    ``tail``, in chunks of ``_BATCH`` items; no chunk is head or tail alone."""
    batch = _BATCH
    last = len(items) - batch
    for start in range(0, len(items), batch):
        chunk = sep.join([templates[len(p.parts)] % (p.parts + p.mults)
                          for p in items[start:start + batch]])
        yield (head if start == 0 else sep) + chunk + (tail if start >= last else "")


# --- subcommands: each returns (exit code, output) -------------------------
# The output is a string or an iterable of text chunks; see _emit.

def _cmd_enumerate(args):
    from .enumeration import filter_partitions, partitions_of

    _check_ceiling(args.n, args.desk_ceiling)
    if args.filter is not None:
        pred = _resolve_predicate(args.filter)
        listing = filter_partitions(args.n, pred, ceiling=args.desk_ceiling)
    else:
        listing = partitions_of(args.n, ceiling=args.desk_ceiling)
    return 0, _render_listing(listing.n, listing.items, args.format)


# --branch value -> (label, trimap function name), looked up when it runs
_BRANCHES = {
    "t0": ("T0", "apply_t0"),
    "t1": ("T1", "apply_t1"),
    "td": ("TD", "apply_td"),
    "t0inv": ("T0inv", "apply_t0_inverse"),
    "t1inv": ("T1inv", "apply_t1_inverse"),
}


def _cmd_map(args):
    from . import trimap

    p = Partition.from_text(args.partition)
    if args.branch == "auto":
        step = trimap.apply_t(p)
        branch, image = str(step.branch), step.image
    else:
        branch, fn = _BRANCHES[args.branch]
        image = getattr(trimap, fn)(p)
    if args.format == "json":
        return 0, _json({"source": p, "branch": branch, "image": image})
    return 0, f"{p}  branch {branch}  ->  {image}\n"


def _cmd_orbit(args):
    from . import trimap

    result = trimap.orbit(Partition.from_text(args.partition), args.steps)
    if args.format == "json":
        return 0, _json({
            "start": result.start,
            "steps": [{"branch": str(s.branch), "image": s.image} for s in result.steps],
            "terminal": result.terminal,
        })
    lines = [f"start {result.start}"]
    lines += [f"{s.branch} -> {s.image}" for s in result.steps]
    lines.append(f"terminal {result.terminal}")
    return 0, "\n".join(lines) + "\n"


def _cmd_sets(args):
    from . import sets

    if args.action == "list":
        if args.format == "json":
            return 0, _json(sets.registry_json())
        rows = [("name", "dim = 2", "dim >= 3")]
        for info in sets.registry_json():
            rows.append((info["name"], info["dim2"], info["dim3"]))
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        text = "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows
        )
        families = ", ".join(f"{family}(d)" for family in sets._FAMILIES)
        return 0, f"{text}\n\nparameterized: {families} for d >= {sets._FAMILY_LOW}\n"
    if args.action == "show":
        try:
            pred = sets.builtin(args.name)
        except sets.SetParameterError:
            raise  # it names its reason
        except sets.UnknownSetError:
            raise InputError(f"unknown set {args.name!r}")
        return 0, f"{args.name}: {pred.source()}\n"
    # eval
    pred = _resolve_predicate(args.name)
    p = Partition.from_text(args.partition)
    return 0, ("true" if pred(p) else "false") + "\n"


def _verify_equicount(ids, args) -> list[tuple[str, CountReport]]:
    if len(args.args) != 2:
        raise InputError("verify equicount needs exactly two set arguments")
    a, b = (_resolve_predicate(text) for text in args.args)
    return [("equicount", ids.verify_equicount(a, b, args.nmax, names=tuple(args.args)))]


def _verify_delta_m(ids, args) -> list[tuple[str, CountReport]]:
    from . import sets

    return [
        (f"Delta{k} = M{k}", ids.verify_equicount(
            sets.builtin(f"Delta{k}"), sets.builtin(f"M{k}"), args.nmax, (f"Delta{k}", f"M{k}")))
        for k in (0, 1)
    ]


# theorem name -> (function of the identities module and the arguments that
# returns the labelled reports, whether it reads --d); each function looks its
# verifier up on the module when it runs.  equicount is last: the theorem help
# ends with its two set arguments.
_VERIFIERS = {
    "delta-m": (_verify_delta_m, False),
    "offset": (lambda ids, a: [(f"offset d={a.d}", ids.verify_offset_theorem(a.d, a.nmax))],
               True),
    "cylinder1": (lambda ids, a: [
        ("cylinder one-step", ids.verify_cylinder_theorems(a.nmax, steps=1))], False),
    "cylinder2": (lambda ids, a: [
        ("cylinder two-step", ids.verify_cylinder_theorems(a.nmax, steps=2))], False),
    "gauss": (lambda ids, a: [(f"gauss d={a.d}", ids.verify_gauss_theorem(a.d, a.nmax))], True),
    "distinct": (lambda ids, a: [("distinct", ids.verify_distinct_theorem(a.nmax))], False),
    "odd": (lambda ids, a: [("odd", ids.verify_odd_theorem(a.nmax))], False),
    "euler": (lambda ids, a: [("euler", ids.verify_euler_chain(a.nmax))], False),
    "equicount": (_verify_equicount, False),
}
_D_READERS = " and ".join(name for name, (_, reads_d) in _VERIFIERS.items() if reads_d)


def _cmd_verify(args):
    from . import identities

    _check_ceiling(args.nmax, args.desk_ceiling)
    name = args.theorem
    if name != "equicount" and args.args:
        raise InputError(f"verify {name} takes no positional set arguments")
    if name not in _VERIFIERS:
        raise InputError(f"unknown theorem {name!r}")
    verifier, reads_d = _VERIFIERS[name]
    if args.d is None:
        args.d = 1
    elif not reads_d:
        raise InputError(f"verify {name} takes no --d; only {_D_READERS} read it")
    elif args.d > args.nmax:
        # the offset sets and GaussG(d) have no member below n = d + 3
        raise InputError(f"--d {args.d} exceeds --nmax {args.nmax}; every count would be 0")
    reports = verifier(identities, args)
    if args.format == "json":
        output = _json([{"name": label, **report.to_json()} for label, report in reports])
    elif args.format == "csv":
        output = "".join(_csv(["n", *report.columns],
                              ([n, *row] for n, row in enumerate(report.rows, report.n_lo)))
                         for _, report in reports)
    else:
        output = "\n".join(f"== {label} (n <= {args.nmax}) ==\n" + _render_report_text(report)
                           for label, report in reports)
    return (0 if all(report.passed for _, report in reports) else VERIFY_FAILURE), output


def _cmd_certify(args):
    from . import identities

    _check_ceiling(args.n, args.desk_ceiling)
    domain = _resolve_predicate(args.domain)
    codomain = _resolve_predicate(args.codomain)
    route = identities.parse_route(args.word)
    try:
        cert = identities.certify_bijection(
            domain, codomain, route, args.n, names=(args.domain, args.codomain),
            ceiling=args.desk_ceiling,
        )
    except (identities.BranchMismatchError, identities.NotInjectiveError,
            identities.NotOntoError) as exc:
        return VERIFY_FAILURE, f"certification failed: {exc}\n"
    if args.format == "json":
        return 0, _json(cert)
    lines = [f"{args.domain} -> {args.codomain} via {args.word} at n={args.n}"]
    lines += [f"{src}  ->  {img}" for src, _, img in cert.pairs]
    lines.append(f"pairs: {len(cert.pairs)}")
    return 0, "\n".join(lines) + "\n"


# series name -> qseries function name, looked up when it runs
_SERIES = {"P": "expand_partition_gf", "divisor": "divisor_series",
           "odd-divisor": "odd_divisor_series"}


def _cmd_series(args):
    from . import qseries

    _check_ceiling(args.N, args.desk_ceiling)
    name = args.series
    if name in _SERIES:
        series = getattr(qseries, _SERIES[name])(args.N)
    else:
        series = qseries.set_series(_resolve_predicate(name), args.N)
    return 0, _render_series(name, series, args.format)


def _cmd_realmap(args):
    from fractions import Fraction

    from . import realmap

    try:
        coords = tuple(Fraction(part) for part in args.point.split(","))
        point = realmap.ConePoint(coords)
    except ZeroDivisionError:
        raise InputError(f"bad cone point {args.point!r}: a coordinate has denominator 0")
    except ValueError as exc:
        raise InputError(f"bad cone point {args.point!r}: {exc}")
    steps, on_diagonal = realmap.orbit(point, args.steps)
    if args.format == "json":
        return 0, _json({
            "steps": [{"class": cls.value, "point": str(image)} for cls, image in steps],
            "terminal": str(steps[-1][1] if steps else point),
        })
    lines = [f"start {point}"] + [f"{cls} -> {image}" for cls, image in steps]
    if on_diagonal:
        lines.append("diagonal reached")
    return 0, "\n".join(lines) + "\n"


# --- argument plumbing ----------------------------------------------------

def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


# the k-th sets action reads the first k positionals; main() checks it
_SETS_ACTIONS = ("list", "show", "eval")
_SETS_POSITIONALS = ("a set name", "a partition literal")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripart",
        description="Triangle-map partition toolkit: enumeration, named sets,"
                    " identity verification, q-series.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "table", "json", "csv"),
                        default="text", help="table is an alias for text")
    common.add_argument("--out", default=None, help="write output to this file")
    sized = argparse.ArgumentParser(add_help=False, parents=[common])
    sized.add_argument("--desk-ceiling", type=_int_at_least(1), default=None,
                       help=f"raise the enumeration ceiling (default {DESK_CEILING})")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[sized],
                       help="list all partitions of n")
    p.add_argument("n", type=int)
    p.add_argument("--filter", default=None, help="set name or predicate text")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("map", parents=[common],
                       help="apply the triangle map to one partition")
    p.add_argument("partition", help="literal like (5,4,2)x[1,1,1]")
    p.add_argument("--branch", choices=("auto",) + tuple(_BRANCHES), default="auto")
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("orbit", parents=[common],
                       help="iterate the map until dimension one")
    p.add_argument("partition")
    p.add_argument("--steps", type=_int_at_least(0), default=100)
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("sets", parents=[common], help="inspect named sets")
    p.add_argument("action", choices=_SETS_ACTIONS)
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("partition", nargs="?", default=None)
    p.set_defaults(fn=_cmd_sets)

    p = sub.add_parser("verify", parents=[sized],
                       help="run a theorem verifier; exit 1 on failure")
    p.add_argument("theorem", help=" | ".join(_VERIFIERS) + " A B")
    p.add_argument("args", nargs="*", default=[])
    p.add_argument("--nmax", type=_int_at_least(1), default=40)
    p.add_argument("--d", type=int, default=None,
                   help=f"the offset d of {_D_READERS} (default 1); no other theorem takes it")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("certify", parents=[sized],
                       help="emit an explicit bijection pairing table")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("word", help="route letters over 0, 1, d")
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("series", parents=[sized],
                       help="coefficients of a counting series")
    p.add_argument("series", help="set name, predicate text, P, divisor, odd-divisor")
    p.add_argument("--N", type=_int_at_least(0), default=DESK_CEILING)
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("realmap", parents=[common],
                       help="iterate the slow map on an exact rational cone point")
    p.add_argument("action", choices=("orbit",))
    p.add_argument("point", help="comma-separated rationals, e.g. 7/2,3/2,1")
    p.add_argument("--steps", type=_int_at_least(0), default=50)
    p.set_defaults(fn=_cmd_realmap)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "sets":
        given = [v for v in (args.name, args.partition) if v is not None]
        reads = _SETS_ACTIONS.index(args.action)
        if len(given) < reads:
            parser.error(f"sets {args.action} needs {_SETS_POSITIONALS[len(given)]}")
        if len(given) > reads:
            parser.error("unrecognized arguments: " + " ".join(given[reads:]))
    try:
        code, output = args.fn(args)
        _emit(output, args.out)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return CONTRACT_VIOLATION
    except Exception as exc:  # noqa: BLE001 - anything else is an internal fault
        import traceback  # only a fault needs it; spare the start-up cost

        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
