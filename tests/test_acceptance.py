"""Acceptance suite: one test per exit criterion, all tolerances exact.

Each test prints a single pass/fail line (visible with ``pytest -s``).
The expensive enumeration passes (every partition of every n up to 60,
respectively 40) run once in session fixtures shared across criteria.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from tripart import (
    Partition,
    TRUE,
    apply_t,
    apply_t0,
    apply_t0_inverse,
    apply_t1,
    apply_t1_inverse,
    builtin,
    count_partitions,
    cylinder,
    gauss_set,
    parse_predicate,
    partitions_of,
)
from tripart.core import PartitionClass
from tripart.enumeration import iter_partitions, iter_raw
from tripart.identities import (
    certify_bijection,
    count_columns,
    gauss_final_image,
    gauss_step_image,
    odd_divisor_count,
    verify_cylinder_theorems,
    verify_equicount,
    verify_gauss_theorem,
    verify_offset_theorem,
)
from tripart.qseries import (
    distinct_parts_product,
    divisor_series,
    expand_E_series,
    expand_partition_gf,
    multiples_series,
    odd_divisor_series,
    odd_parts_product,
    ones_series,
    support_series,
)

import oracles

N_BIG = 60
N_MID = 40

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

P = Partition.from_text


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {description}"
    if detail and not ok:
        line += f" [{detail}]"
    print(line)
    assert ok, line


BIG_NAMES = ("all", "dim1", "D", "O", "E0", "E1", "ED", "F0", "F1")

MID_NAMES = (
    "Delta0", "M0", "Delta1", "M1",
    "Delta00", "T0Delta00", "T0T0Delta00",
    "Delta01", "T0Delta01", "T1T0Delta01",
    "Delta10", "T1Delta10", "T0T1Delta10",
    "Delta11", "T1Delta11", "T1T1Delta11",
)


@pytest.fixture(scope="session")
def counts60():
    """Per-n counts of the all-dimension sets for 1 <= n <= 60, one pass."""
    preds = [TRUE, parse_predicate("dim = 1")] + [
        builtin(name) for name in BIG_NAMES[2:]
    ]
    rows = count_columns(preds, 1, N_BIG)
    return {
        name: tuple(row[i] for row in rows) for i, name in enumerate(BIG_NAMES)
    }


@pytest.fixture(scope="session")
def counts40():
    """Per-n counts of the cone and cylinder sets for 1 <= n <= 40."""
    preds = [builtin(name) for name in MID_NAMES]
    rows = count_columns(preds, 1, N_MID)
    return {
        name: tuple(row[i] for row in rows) for i, name in enumerate(MID_NAMES)
    }


def test_criterion_01_enumeration_ground_truth():
    ok = (
        count_partitions(4) == 5
        and count_partitions(7) == 15
        and count_partitions(11) == 56
        and len(partitions_of(4)) == 5
        and len(partitions_of(7)) == 15
    )
    lines = FIXTURES.joinpath("partitions_11.txt").read_text().splitlines()
    fixture = {Partition.from_text(line) for line in lines if line.strip()}
    listing = partitions_of(11)
    ok = ok and len(fixture) == 56 and set(listing) == fixture and len(listing) == 56
    report(1, "enumeration ground truth p(4)=5, p(7)=15, p(11)=56 + golden set", ok)


def test_criterion_02_size_preservation():
    bad = 0
    for n in range(2, N_MID + 1):
        for p in iter_partitions(n):
            if p.dimension >= 2 and apply_t(p).image.size != n:
                bad += 1
    report(2, f"size preserved under the map for all n <= {N_MID}", bad == 0,
           f"{bad} violations")


def test_criterion_03_bijectivity():
    ok = True
    detail = ""
    for n in range(2, N_MID + 1):
        d0_images = {}
        d1_images = {}
        m0 = set()
        m1 = set()
        for p in iter_partitions(n):
            cls = p.classify()
            if cls is PartitionClass.DELTA0:
                q = apply_t0(p)
                if q in d0_images or apply_t0_inverse(q) != p:
                    ok = False
                d0_images[q] = p
            elif cls is PartitionClass.DELTA1:
                q = apply_t1(p)
                if q in d1_images or apply_t1_inverse(q) != p:
                    ok = False
                d1_images[q] = p
            if p.dimension >= 2:
                if p.mults[0] > p.mults[-1]:
                    m0.add(p)
                elif p.mults[0] < p.mults[-1]:
                    m1.add(p)
        if set(d0_images) != m0 or set(d1_images) != m1:
            ok = False
            detail = f"image mismatch at n={n}"
        if not all(apply_t0(apply_t0_inverse(q)) == q for q in m0):
            ok = False
        if not all(apply_t1(apply_t1_inverse(q)) == q for q in m1):
            ok = False
        if not ok:
            detail = detail or f"round-trip failure at n={n}"
            break
    report(3, f"both branches biject onto their multiplicity sets, n <= {N_MID}",
           ok, detail)


def test_criterion_04_dimension_law():
    bad = 0
    for n in range(2, N_MID + 1):
        for p in iter_partitions(n):
            if p.dimension < 2:
                continue
            step = apply_t(p)
            expected = p.dimension - 1 if step.branch.value == "TD" else p.dimension
            if step.image.dimension != expected:
                bad += 1
    report(4, f"dimension preserved off the diagonal, dropped by one on it,"
              f" n <= {N_MID}", bad == 0, f"{bad} violations")


def test_criterion_05_cylinder_characterization():
    words = {
        (0, 0): builtin("Delta00"),
        (0, 1): builtin("Delta01"),
        (1, 0): builtin("Delta10"),
        (1, 1): builtin("Delta11"),
    }
    derived = {word: cylinder(word).fn for word in words}
    intrinsic = {word: pred.fn for word, pred in words.items()}
    bad = 0
    for n in range(1, N_MID + 1):
        for parts, mults in iter_raw(n):
            m = len(parts)
            for word in words:
                if derived[word](parts, mults, m) != intrinsic[word](parts, mults, m):
                    bad += 1
    report(5, f"derived cylinders equal intrinsic forms for 00/01/10/11,"
              f" n <= {N_MID}", bad == 0, f"{bad} disagreements")


def test_criterion_06_cylinder_identities(counts40):
    ok = verify_cylinder_theorems(N_MID).passed
    for word in ("00", "01", "10", "11"):
        base = counts40["Delta" + word]
        one = counts40[{"00": "T0Delta00", "01": "T0Delta01",
                        "10": "T1Delta10", "11": "T1Delta11"}[word]]
        two = counts40[{"00": "T0T0Delta00", "01": "T1T0Delta01",
                        "10": "T0T1Delta10", "11": "T1T1Delta11"}[word]]
        ok = ok and base == one == two
    stage0 = {P("(6,5)x[1,1]"), P("(5,4,2)x[1,1,1]"), P("(4,3)x[2,1]")}
    stage1 = {P("(5,1)x[2,1]"), P("(4,2,1)x[2,1,1]"), P("(3,1)x[3,2]")}
    stage2 = {P("(4,1)x[2,3]"), P("(3,2,1)x[2,1,3]"), P("(2,1)x[3,5]")}
    members = set(p for p in partitions_of(11) if builtin("Delta01")(p))
    ok = ok and members == stage0
    images1 = {apply_t0(p) for p in stage0}
    images2 = {apply_t1(q) for q in images1}
    ok = ok and images1 == stage1 and images2 == stage2
    ok = ok and {p for p in partitions_of(11) if builtin("T0Delta01")(p)} == stage1
    ok = ok and {p for p in partitions_of(11) if builtin("T1T0Delta01")(p)} == stage2
    report(6, f"eight cylinder equicount chains pass, n <= {N_MID};"
              " the worked chain at n=11 is exact", ok)


def test_criterion_07_gauss_cylinders():
    ok = True
    detail = ""
    for d in range(1, 6):
        if not verify_gauss_theorem(d, N_MID).passed:
            ok, detail = False, f"equicount failed for d={d}"
            break
        for n in range(2, N_MID + 1):
            try:
                for p_steps in range(0, d + 1):
                    certify_bijection(
                        gauss_set(d), gauss_step_image(d, p_steps),
                        (1,) * p_steps, n,
                    )
                certify_bijection(
                    gauss_set(d), gauss_final_image(d), (1,) * d + (0,), n,
                )
            except Exception as exc:  # noqa: BLE001 - any failure fails the criterion
                ok, detail = False, f"d={d}, n={n}: {exc}"
                break
        if not ok:
            break
    report(7, f"band image characterizations hold as bijections,"
              f" d <= 5, n <= {N_MID}", ok, detail)


def test_criterion_08_offset_theorem():
    ok = True
    for d in range(1, 6):
        if not verify_offset_theorem(d, N_MID).passed:
            ok = False
            break
    report(8, f"offset identity passes for d <= 5, n <= {N_MID}", ok)


def test_criterion_09_distinct_theorem(counts60):
    ok = True
    for n in range(1, N_BIG + 1):
        i = n - 1
        rhs = (1 + counts60["E0"][i] + counts60["E1"][i] + counts60["ED"][i]
               + (1 if n % 3 == 0 else 0))
        if counts60["D"][i] != rhs:
            ok = False
            break
    i = 10  # n = 11
    decomposition = (counts60["D"][i], counts60["E0"][i], counts60["E1"][i],
                     counts60["ED"][i])
    ok = ok and decomposition == (12, 3, 8, 0)
    report(9, f"distinct-parts decomposition holds for n <= {N_BIG};"
              " at n=11 it is 12 = 1+3+8+0+0", ok)


def test_criterion_10_odd_theorem_and_euler_chain(counts60):
    ok = True
    for n in range(1, N_BIG + 1):
        i = n - 1
        rhs = odd_divisor_count(n) + counts60["F0"][i] + counts60["F1"][i]
        if counts60["O"][i] != rhs or counts60["D"][i] != counts60["O"][i]:
            ok = False
            break
    report(10, f"odd-parts decomposition and the distinct = odd chain,"
               f" n <= {N_BIG}", ok)


def test_criterion_11_qseries_cross_routes(counts60, counts40):
    ok = True
    failures = []

    gf = expand_partition_gf(N_BIG)
    if any(gf[n] != count_partitions(n) or gf[n] != counts60["all"][n - 1]
           for n in range(1, N_BIG + 1)):
        failures.append("partition gf")

    if any(distinct_parts_product(N_BIG)[n] != counts60["D"][n - 1]
           for n in range(1, N_BIG + 1)):
        failures.append("distinct product")
    if any(odd_parts_product(N_BIG)[n] != counts60["O"][n - 1]
           for n in range(1, N_BIG + 1)):
        failures.append("odd product")

    div = divisor_series(N_BIG)
    if any(div[n] != counts60["dim1"][n - 1] for n in range(1, N_BIG + 1)):
        failures.append("divisor series")
    odd_div = odd_divisor_series(N_BIG)
    if any(odd_div[n] != odd_divisor_count(n) for n in range(1, N_BIG + 1)):
        failures.append("odd-divisor series")

    for which in ("E0", "E1", "ED"):
        closed = expand_E_series(which, N_BIG)
        if any(closed[n] != counts60[which][n - 1] for n in range(1, N_BIG + 1)):
            failures.append(f"{which} closed form")

    chain = (ones_series(N_BIG) + expand_E_series("E0", N_BIG)
             + expand_E_series("E1", N_BIG) + expand_E_series("ED", N_BIG)
             + multiples_series(3, N_BIG))
    if distinct_parts_product(N_BIG).coeffs != chain.coeffs:
        failures.append("distinct chain")

    odd_chain_rhs = [
        odd_div[n] + counts60["F0"][n - 1] + counts60["F1"][n - 1]
        for n in range(1, N_BIG + 1)
    ]
    if list(odd_parts_product(N_BIG).coeffs[1:]) != odd_chain_rhs:
        failures.append("odd chain")

    for word in ("00", "01", "10", "11"):
        one = {"00": "T0Delta00", "01": "T0Delta01",
               "10": "T1Delta10", "11": "T1Delta11"}[word]
        two = {"00": "T0T0Delta00", "01": "T1T0Delta01",
               "10": "T0T1Delta10", "11": "T1T1Delta11"}[word]
        if not (counts40["Delta" + word] == counts40[one] == counts40[two]):
            failures.append(f"cylinder chain {word}")

    if not (counts40["Delta0"] == counts40["M0"]
            and counts40["Delta1"] == counts40["M1"]):
        failures.append("cone = multiplicity displays")

    support_conditions = {
        "Delta0": lambda q: len(q) >= 2 and q[0] < q[1] + q[-1],
        "Delta1": lambda q: len(q) >= 2 and q[0] > q[1] + q[-1],
        "Delta00": lambda q: (
            q[0] < 2 * q[1] and 3 * q[1] < 2 * q[0] if len(q) == 2
            else len(q) >= 3 and q[0] < q[1] + q[-1] and 2 * q[1] < q[0] + q[2]
        ),
        "Delta01": lambda q: (
            q[0] < 2 * q[1] and 3 * q[1] > 2 * q[0] if len(q) == 2
            else len(q) >= 3 and q[0] < q[1] + q[-1] and 2 * q[1] > q[0] + q[2]
        ),
        "Delta10": lambda q: (
            2 * q[1] < q[0] < 3 * q[1] if len(q) == 2
            else len(q) >= 3 and q[1] + q[-1] < q[0] < q[1] + 2 * q[-1]
        ),
        "Delta11": lambda q: (
            q[0] > 3 * q[1] if len(q) == 2
            else len(q) >= 3 and q[0] > q[1] + 2 * q[-1]
        ),
    }
    for name, cond in support_conditions.items():
        series = support_series(cond, N_MID, min_dim=2)
        if tuple(series.coeffs[1:]) != counts40[name]:
            failures.append(f"support route {name}")

    report(11, f"closed forms equal enumeration for all series, n <= {N_BIG}"
               f" (cylinder series n <= {N_MID})", not failures, ", ".join(failures))


def test_criterion_12_farey_equivalence():
    from tripart.realmap import cf_digits_via_map

    rng = random.Random(2024)
    bad = 0
    for _ in range(200):
        q = rng.randint(2, 2000)
        p = rng.randint(1, q - 1)
        got = oracles.canonical_cf(cf_digits_via_map(q, p))
        want = oracles.canonical_cf(oracles.euclid_cf(p, q))
        if got != want:
            bad += 1
    report(12, "slow-map digit extraction matches Euclid on 200 random"
               " rationals", bad == 0, f"{bad} mismatches")


def test_criterion_13_negative_path():
    result = verify_equicount(builtin("D"), builtin("M0"), 12, ("D", "M0"))
    check = result.checks[0]
    ok = (
        not result.passed
        and check.first_failure == 1
        and P("(1)x[1]") in check.only_lhs
    )
    proc = subprocess.run(
        [sys.executable, "-m", "tripart.cli", "verify", "equicount", "D", "M0",
         "--nmax", "12"],
        capture_output=True,
        text=True,
    )
    ok = ok and proc.returncode == 1 and "FAIL at n=1" in proc.stdout
    report(13, "a false identity reports its first counterexample and the"
               " symmetric difference, exit code 1", ok)
