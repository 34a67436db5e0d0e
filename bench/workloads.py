"""The three benchmark workloads: inputs drawn from a seed, operations, checks.

Each workload is a list of operations run as a closed loop with one
client.  An operation is either a ``tripart`` CLI command run as a child
process or a library request served by ``worker.py``.  Every operation
carries a check that runs after the pass, outside the timed region, and
compares the output with an independent route: product and closed-form
series, the pentagonal recurrence, the reference tree-walker
``dsl.evaluate``, Euclid's algorithm, a byte digest pinned in
``pins.json``, and the partition enumerator below, which shares no code
with the package's.

The seed draws the equicount predicate texts, the orbit starts, the
rational cone points and the ``--filter`` set; the program only ever
sees the generated inputs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from typing import Callable

from worker import resolve_predicate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

SIZES = {
    "full": dict(sweep_n=34, equicount_n=26, series_p_n=1200, certify_n=26,
                 certify_cli_n=32, orbits=800, orbit_steps=500, cf_points=500,
                 enumerate_n=44),
    "tiny": dict(sweep_n=12, equicount_n=10, series_p_n=100, certify_n=10,
                 certify_cli_n=12, orbits=20, orbit_steps=100, cf_points=20,
                 enumerate_n=12),
}

# Filter sets for enumerate_stream.  All six are quantifier-free and have
# the same number of members at the sizes used (1596 at n = 44), so the
# seed changes the predicate the program compiles and evaluates without
# changing how much it writes.
FILTER_POOL = ("Delta01", "Delta10", "T0Delta01", "T1Delta10", "T1T0Delta01", "T0T1Delta10")

# verify gauss --d 3 codomain of the full route 1^3 0, as predicate text
GAUSS3_FINAL_TEXT = "(dim = 2 and 4*K2 < K1) or (dim >= 3 and 3*Klast < Ksecondlast and Klast < K1)"

CYLINDER_WORDS = (("00", "T0T0Delta00"), ("01", "T1T0Delta01"),
                  ("10", "T0T1Delta10"), ("11", "T1T1Delta11"))


@dataclass
class CliResult:
    code: int
    stdout: bytes
    out_data: bytes | None


@dataclass
class Op:
    """One operation; ``check`` returns error messages, empty when correct."""

    label: str
    check: Callable[[object], list[str]]
    argv: tuple[str, ...] = ()
    request: dict | None = None
    out: str | None = None  # --out file name inside the pass's scratch directory
    enumerates: tuple[int, ...] = ()  # the n this operation must enumerate


@dataclass
class Workload:
    name: str
    ops: list[Op]
    predicates: dict  # key -> spec resolved and compiled during set-up
    expected_wrappers: frozenset
    inputs: dict = field(default_factory=dict)  # seed-drawn inputs, for the record


# --- independent references -------------------------------------------------

def partitions(n: int):
    """Partitions of n as (parts, mults), parts strictly decreasing.

    Ascending-composition generation (Kelleher and O'Sullivan's accelerated
    rule), then grouped; no code in common with tripart.enumeration.
    """
    a = [0] * (n + 1)
    k, y = 1, n - 1
    while k:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        last = k + 1
        while x <= y:
            a[k], a[last] = x, y
            yield _grouped(a[:k + 2])
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        yield _grouped(a[:k + 1])


def _grouped(ascending):
    runs = [(v, len(list(g))) for v, g in groupby(reversed(ascending))]
    return tuple(v for v, _ in runs), tuple(c for _, c in runs)


def count_members(member: Callable, n: int) -> int:
    return sum(1 for parts, mults in partitions(n) if member(parts, mults, len(parts)))


def euclid_digits(x1: Fraction, x2: Fraction) -> list[int]:
    """Continued-fraction digits of x2/x1 = [0; a1, a2, ...] by Euclid."""
    ratio = x1 / x2
    p, q = ratio.numerator, ratio.denominator
    digits = []
    while q:
        digits.append(p // q)
        p, q = q, p % q
    return digits


def load_pins() -> dict:
    with open(os.path.join(BENCH_DIR, "pins.json"), encoding="utf-8") as fh:
        return json.load(fh)


def pin_key(op: Op) -> str:
    return " ".join(op.argv)


def _digest_errors(op: Op, data: bytes, pins: dict) -> list[str]:
    want = pins.get(pin_key(op))
    if want is None:
        return [f"no pinned digest for `{pin_key(op)}`"]
    if hashlib.sha256(data).hexdigest() != want:
        return ["output differs from its pinned digest"]
    return []


def _csv_rows(data: bytes) -> tuple[list[str], list[list[int]]]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    return rows[0], [[int(v) for v in row] for row in rows[1:]]


def _exit_errors(result: CliResult, want: int = 0) -> list[str]:
    return [] if result.code == want else [f"exit code {result.code}, expected {want}"]


# --- euler_sweep -------------------------------------------------------------

# Equinumerous pairs from the paper (offset theorem, Delta = M), as
# conjunctions of linear atoms (lhs terms, lhs const, op, rhs terms, rhs const).
def _identity_templates(d: int):
    dim2 = ([(1, "dim")], 0, ">=", [], 2)
    return [
        ([dim2, ([(1, "L2"), (1, "Llast")], 0, "=", [(1, "L1")], d)],
         [dim2, ([(1, "K1")], 0, ">", [(1, "Klast")], 0),
          ([(1, "Lsecondlast")], 0, "=", [(1, "Llast")], d)]),
        ([dim2, ([(1, "L1")], 0, "=", [(1, "L2"), (1, "Llast")], d)],
         [dim2, ([(1, "K1")], 0, "<", [(1, "Klast")], 0),
          ([(1, "L1")], 0, "=", [(1, "L2")], d)]),
        ([dim2, ([(1, "L2"), (1, "Llast")], 0, ">", [(1, "L1")], 0)],
         [dim2, ([(1, "K1")], 0, ">", [(1, "Klast")], 0)]),
        ([dim2, ([(1, "L2"), (1, "Llast")], 0, "<", [(1, "L1")], 0)],
         [dim2, ([(1, "K1")], 0, "<", [(1, "Klast")], 0)]),
    ]


_MIRROR = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "="}


def _format_side(terms, const) -> str:
    out = ""
    for coef, sym in terms:
        piece = sym if abs(coef) == 1 else f"{abs(coef)}*{sym}"
        if not out:
            out = piece if coef > 0 else f"-{piece}"
        else:
            out += f" + {piece}" if coef > 0 else f" - {piece}"
    if const or not out:
        out = str(const) if not out else out + (f" + {const}" if const > 0 else f" - {-const}")
    return out


def _rewrite(atoms, rng: random.Random) -> str:
    """An equivalent predicate text: scaled, rearranged and reordered atoms."""
    texts = []
    for lhs, lc, op, rhs, rc in atoms:
        k = rng.choice((1, 1, 2, 3))
        lhs, lc = [(k * c, s) for c, s in lhs], k * lc
        rhs, rc = [(k * c, s) for c, s in rhs], k * rc
        if rhs and rng.random() < 0.5:
            moved = rhs.pop(rng.randrange(len(rhs)))
            lhs.append((-moved[0], moved[1]))
        if rng.random() < 0.5:
            lhs, lc, op, rhs, rc = rhs, rc, _MIRROR[op], lhs, lc
        texts.append(f"{_format_side(lhs, lc)} {op} {_format_side(rhs, rc)}")
    rng.shuffle(texts)
    return " and ".join(texts)


def equicount_texts(rng: random.Random) -> tuple[str, str]:
    d = rng.randint(1, 4)
    a, b = rng.choice(_identity_templates(d))
    return _rewrite(a, rng), _rewrite(b, rng)


def euler_sweep(seed: int, sizes: dict, pins: dict) -> Workload:
    from tripart import qseries
    from tripart.dsl import evaluate
    from tripart.enumeration import count_partitions

    rng = random.Random(seed)
    text_a, text_b = equicount_texts(rng)
    N, NE, NP = sizes["sweep_n"], sizes["equicount_n"], sizes["series_p_n"]
    sweep = tuple(range(1, N + 1))

    D = qseries.distinct_parts_product(N)
    O = qseries.odd_parts_product(N)
    E = {w: qseries.expand_E_series(w, N) for w in ("E0", "E1", "ED")}
    odd_div = qseries.odd_divisor_series(N)

    def check_euler(r: CliResult) -> list[str]:
        errors = _exit_errors(r) + _digest_errors(ops[0], r.stdout, pins)
        header, rows = _csv_rows(r.stdout)
        if header != ["n", "D", "O", "E0", "E1", "ED", "F0", "F1", "corr", "oddDiv"]:
            return errors + [f"unexpected header {header}"]
        if [row[0] for row in rows] != list(sweep):
            return errors + ["rows do not cover n = 1..nmax"]
        for n, d, o, e0, e1, ed, f0, f1, corr, odiv in rows:
            want = (D[n], O[n], E["E0"][n], E["E1"][n], E["ED"][n], 1 + (n % 3 == 0), odd_div[n])
            if (d, o, e0, e1, ed, corr, odiv) != want or f0 + f1 != o - odiv:
                errors.append(f"euler row n={n} disagrees with the product routes")
        return errors

    def check_equal_columns(op_index: int, pairs):
        def check(r: CliResult) -> list[str]:
            errors = _exit_errors(r) + _digest_errors(ops[op_index], r.stdout, pins)
            _, rows = _csv_rows(r.stdout)
            if [row[0] for row in rows] != list(sweep):
                return errors + ["rows do not cover n = 1..nmax"]
            for row in rows:
                if any(row[i] != row[j] for i, j in pairs):
                    errors.append(f"n={row[0]}: equinumerous columns differ")
            return errors
        return check

    def check_series(op_index: int, want: list[int]):
        def check(r: CliResult) -> list[str]:
            errors = _exit_errors(r) + _digest_errors(ops[op_index], r.stdout, pins)
            header, rows = _csv_rows(r.stdout)
            if header != ["n", "coefficient"] or [c for _, c in rows] != want:
                errors.append("series coefficients disagree with the independent route")
            return errors
        return check

    roots = [resolve_predicate(["text", t]).root for t in (text_a, text_b)]
    ref = [[count_members(lambda L, K, m, r=r: evaluate(r, L, K, m), n) for n in range(1, NE + 1)]
           for r in roots]

    def check_equicount(r: CliResult) -> list[str]:
        errors = _exit_errors(r, 0 if ref[0] == ref[1] else 1)
        header, rows = _csv_rows(r.stdout)
        if header != ["n", text_a, text_b]:
            errors.append(f"unexpected header {header}")
        if [row[1] for row in rows] != ref[0] or [row[2] for row in rows] != ref[1]:
            errors.append("equicount columns disagree with the reference evaluator")
        return errors

    gauss_pairs = [(1, j) for j in range(2, 7)]
    cylinder_pairs = [(1, 2), (3, 4), (5, 6), (7, 8)]
    ops = [
        Op("verify euler", check_euler,
           ("verify", "euler", "--nmax", str(N), "--format", "csv"), enumerates=sweep),
        Op("verify gauss", check_equal_columns(1, gauss_pairs),
           ("verify", "gauss", "--d", "3", "--nmax", str(N), "--format", "csv"), enumerates=sweep),
        Op("verify cylinder2", check_equal_columns(2, cylinder_pairs),
           ("verify", "cylinder2", "--nmax", str(N), "--format", "csv"), enumerates=sweep),
        # set_series counts by enumeration, which gives c0 = 0; the product has c0 = 1
        Op("series D", check_series(3, [0] + list(D.coeffs[1:])),
           ("series", "D", "--N", str(N), "--format", "csv"), enumerates=sweep),
        Op("verify equicount", check_equicount,
           ("verify", "equicount", text_a, text_b, "--nmax", str(NE), "--format", "csv"),
           enumerates=tuple(range(1, NE + 1))),
        Op("series P", check_series(5, [1] + [count_partitions(n) for n in range(1, NP + 1)]),
           ("series", "P", "--N", str(NP), "--desk-ceiling", str(NP), "--format", "csv")),
    ]
    predicates = {name: ["builtin", name] for name in ("D", "O", "E0", "E1", "ED", "F0", "F1")}
    predicates.update({f"G3^{p}": ["gauss_step_image", 3, p] for p in range(4)})
    predicates["G3F"] = ["gauss_final_image", 3]
    for word, image in CYLINDER_WORDS:
        predicates["Delta" + word] = ["builtin", "Delta" + word]
        predicates[image] = ["builtin", image]
    predicates["A"], predicates["B"] = ["text", text_a], ["text", text_b]
    expected = frozenset({
        "cli.main", "enumeration.iter_raw", "enumeration.iter_raw.next",
        "identities.count_columns", "identities.verify_euler_chain",
        "identities.verify_gauss_theorem", "identities.verify_cylinder_theorems",
        "identities.verify_equicount", "identities.gauss_step_image",
        "identities.gauss_final_image", "sets.builtin", "sets.parse_set_expression",
        "sets.gauss_set", "dsl.compile_node", "qseries.set_series",
        "qseries.set_series_many", "qseries.expand_partition_gf",
    })
    return Workload("euler_sweep", ops, predicates, expected,
                    {"equicount_a": text_a, "equicount_b": text_b})


# --- map_routes ----------------------------------------------------------------

def random_partition(rng: random.Random, n: int):
    rest, parts = n, []
    while rest:
        v = rng.randint(1, rest)
        parts.append(v)
        rest -= v
    return _grouped(sorted(parts))


def cone_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    """x1 > x2 > 0 with x1/x2 = [a1; a2, ..., ak] for seed-drawn digits.

    Drawing the digits keeps the number of slow-map steps, their sum,
    within a narrow band, so the seed changes the points but not the work.
    """
    digits = [rng.randint(1, 8) for _ in range(rng.randint(3, 8))]
    digits[-1] = max(digits[-1], 2)
    ratio = Fraction(digits[-1])
    for a in reversed(digits[:-1]):
        ratio = a + 1 / ratio
    x2 = Fraction(rng.randint(1, 999), rng.randint(1, 999))
    return ratio * x2, x2


def map_routes(seed: int, sizes: dict, pins: dict) -> Workload:
    rng = random.Random(seed)
    NC, NCLI = sizes["certify_n"], sizes["certify_cli_n"]
    starts = [random_partition(rng, rng.randint(30, 80)) for _ in range(sizes["orbits"])]
    points = [cone_point(rng) for _ in range(sizes["cf_points"])]

    predicates, routes = {}, []  # routes: (domain key, codomain key, route word)
    for d in (1, 2, 3):
        predicates[f"G{d}"] = ["gauss_set", d]
        for p in range(1, d + 1):
            predicates[f"G{d}^{p}"] = ["gauss_step_image", d, p]
            routes.append((f"G{d}", f"G{d}^{p}", "1" * p))
        predicates[f"G{d}F"] = ["gauss_final_image", d]
        routes.append((f"G{d}", f"G{d}F", "1" * d + "0"))
    for word, image in CYLINDER_WORDS:
        predicates["Delta" + word] = ["builtin", "Delta" + word]
        predicates[image] = ["builtin", image]
        routes.append(("Delta" + word, image, word))
    predicates["GaussG(3)"] = ["builtin", "GaussG(3)"]
    predicates["G3F-text"] = ["text", GAUSS3_FINAL_TEXT]

    counts = {}
    for key in {k for route in routes for k in route[:2]}:
        fn = resolve_predicate(predicates[key]).fn
        counts[key] = [count_members(fn, n) for n in range(1, NC + 1)]

    def check_certify(domain, codomain):
        def check(reply: dict) -> list[str]:
            if "error" in reply:
                return [reply["error"]]
            errors = []
            if reply["pairs"] != counts[domain] or reply["pairs"] != counts[codomain]:
                errors.append(f"{domain} -> {codomain}: pair counts differ from set counts")
            if reply["bad_pairs"]:
                errors.append(f"{domain} -> {codomain}: {reply['bad_pairs']} pairs change size")
            return errors
        return check

    max_steps = sizes["orbit_steps"]

    def check_orbits(reply: dict) -> list[str]:
        if "error" in reply:
            return [reply["error"]]
        if len(reply["orbits"]) != len(starts):
            return ["wrong number of orbits"]
        return [f"orbit {i} does not preserve size or stops early"
                for i, (steps, preserved, dim) in enumerate(reply["orbits"])
                if not preserved or (dim != 1 and steps != max_steps)]

    want_digits = [euclid_digits(x1, x2) for x1, x2 in points]

    def check_cf(reply: dict) -> list[str]:
        if "error" in reply:
            return [reply["error"]]
        return [] if reply["digits"] == want_digits else ["map digits differ from Euclid's"]

    cli_domain = count_members(resolve_predicate(predicates["GaussG(3)"]).fn, NCLI)
    cli_codomain = count_members(resolve_predicate(predicates["G3F-text"]).fn, NCLI)

    def check_cli_certify(r: CliResult) -> list[str]:
        errors = _exit_errors(r) + _digest_errors(ops[-1], r.stdout, pins)
        lines = r.stdout.decode("utf-8").splitlines()
        pair_lines = [line for line in lines[1:-1] if "  ->  " in line]
        if lines[-1:] != [f"pairs: {cli_domain}"] or cli_domain != cli_codomain \
                or len(pair_lines) != cli_domain:
            errors.append("certify pair count differs from the set counts")
        return errors

    ops = [Op(f"certify {dom} -> {cod}", check_certify(dom, cod),
              request={"call": "certify", "domain": dom, "codomain": cod,
                       "route": word, "n_max": NC},
              enumerates=tuple(range(1, NC + 1)))
           for dom, cod, word in routes]
    ops.append(Op("orbits", check_orbits,
                  request={"call": "orbit", "starts": starts, "max_steps": max_steps}))
    ops.append(Op("cf digits", check_cf,
                  request={"call": "cf", "points": [[str(x1), str(x2)] for x1, x2 in points]}))
    ops.append(Op("certify CLI", check_cli_certify,
                  ("certify", "GaussG(3)", GAUSS3_FINAL_TEXT, "1110", str(NCLI)),
                  enumerates=(NCLI,)))
    expected = frozenset({
        "cli.main", "identities.certify_bijection", "enumeration.filter_partitions",
        "core.classify", "core.build", "trimap.apply_t0", "trimap.apply_t1",
        "trimap.apply_td", "trimap.apply_t", "trimap.orbit", "realmap.cf_digits_via_map",
        "realmap.apply_slow", "realmap.classify_cone", "sets.builtin", "sets.gauss_set",
        "sets.parse_set_expression", "dsl.compile_node", "identities.gauss_step_image",
        "identities.gauss_final_image",
    })
    return Workload("map_routes", ops, predicates, expected,
                    {"orbit_starts": len(starts), "first_start": starts[0],
                     "cone_points": len(points), "first_point": [str(x) for x in points[0]]})


# --- enumerate_stream ------------------------------------------------------------

def enumerate_stream(seed: int, sizes: dict, pins: dict) -> Workload:
    from tripart.enumeration import count_partitions

    rng = random.Random(seed)
    chosen = rng.choice(FILTER_POOL)
    N = sizes["enumerate_n"]
    p_n = count_partitions(N)
    members = count_members(resolve_predicate(["builtin", chosen]).fn, N)

    def check_csv(r: CliResult) -> list[str]:
        errors = _exit_errors(r) + _digest_errors(ops[0], r.out_data or b"", pins)
        if r.out_data is None or r.out_data.count(b"\n") != p_n + 1:
            errors.append(f"csv output does not hold p({N}) = {p_n} records")
        return errors

    def check_json(r: CliResult) -> list[str]:
        errors = _exit_errors(r) + _digest_errors(ops[1], r.out_data or b"", pins)
        try:
            payload = json.loads(r.out_data or b"")
        except ValueError:
            return errors + ["json output does not parse"]
        if payload.get("count") != members or len(payload.get("items", ())) != members:
            errors.append(f"json output does not hold the {members} members of {chosen}")
        return errors

    def check_text(r: CliResult) -> list[str]:
        errors = _exit_errors(r) + _digest_errors(ops[2], r.stdout, pins)
        if r.stdout.count(b"\n") != p_n:
            errors.append(f"text output does not hold p({N}) = {p_n} records")
        return errors

    ops = [
        Op("enumerate csv", check_csv, ("enumerate", str(N), "--format", "csv"),
           out="enumerate.csv", enumerates=(N,)),
        Op("enumerate filter json", check_json,
           ("enumerate", str(N), "--filter", chosen, "--format", "json"),
           out="filtered.json", enumerates=(N,)),
        Op("enumerate text", check_text, ("enumerate", str(N)), enumerates=(N,)),
    ]
    expected = frozenset({
        "cli.main", "enumeration.partitions_of", "enumeration.iter_partitions",
        "enumeration.iter_partitions.next", "enumeration.filter_partitions",
        "sets.builtin", "dsl.compile_node",
    })
    return Workload("enumerate_stream", ops, {"filter": ["builtin", chosen]}, expected,
                    {"filter": chosen})


BUILDERS = {"euler_sweep": euler_sweep, "map_routes": map_routes,
            "enumerate_stream": enumerate_stream}


def pinned_argvs(profile: str) -> list[tuple[str, ...]]:
    """Every seed-independent CLI command of a size profile, for pins.json."""
    sizes = SIZES[profile]
    argvs = []
    for build in BUILDERS.values():
        for op in build(0, sizes, {}).ops:
            if op.argv and op.label != "verify equicount":
                argvs.append(op.argv)
    N = str(sizes["enumerate_n"])
    argvs += [("enumerate", N, "--filter", name, "--format", "json") for name in FILTER_POOL]
    return sorted(set(argvs))
