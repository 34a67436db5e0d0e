"""Command-line behavior: formats, determinism, exit codes."""

import ast
import csv
import hashlib
import io
import importlib
import json
import os
import pkgutil
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import tripart
from tripart import cli, core, dsl, enumeration, identities, realmap, sets, trimap
from tripart.core import ContractError, InputError

from strategies import partitions

CMD = [sys.executable, "-m", "tripart.cli"]
ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "verify_golden.json"


def run_cli(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


def test_enumerate_eleven_text():
    result = run_cli("enumerate", "11")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 56
    assert lines[0] == "(11)x[1]"
    assert lines[-1] == "(1)x[11]"


def test_enumerate_deterministic():
    first = run_cli("enumerate", "11")
    second = run_cli("enumerate", "11")
    assert first.stdout == second.stdout


def test_enumerate_json_and_csv():
    result = run_cli("enumerate", "7", "--format", "json")
    payload = json.loads(result.stdout)
    assert payload["count"] == 15
    assert {"parts": [3, 2], "mults": [1, 2]} in payload["items"]
    result = run_cli("enumerate", "4", "--format", "csv")
    rows = result.stdout.splitlines()
    assert rows[0] == "partition"
    assert len(rows) == 6


def test_enumerate_filter():
    result = run_cli("enumerate", "11", "--filter", "Delta01")
    assert result.stdout.splitlines() == [
        "(6,5)x[1,1]",
        "(5,4,2)x[1,1,1]",
        "(4,3)x[2,1]",
    ]


def test_enumerate_ceiling():
    result = run_cli("enumerate", "61")
    assert result.returncode == 2
    result = run_cli("enumerate", "61", "--desk-ceiling", "61", "--format", "csv")
    assert result.returncode == 0


def _digest(data: bytes) -> tuple[int, str]:
    return len(data), hashlib.sha256(data).hexdigest()


def test_enumerate_golden_output(capsys, tmp_path):
    # text, csv and json, with and without --filter, at n = 1 and at n = 30
    # (5,604 lines, more than one batch); to stdout and through --out; the
    # fixture holds the length and sha256 of each output before streaming
    cases = json.loads((FIXTURES / "enumerate_golden.json").read_text(encoding="utf-8"))
    assert len(cases) == 12
    target = tmp_path / "out.txt"
    for case in cases:
        want = (case["exit"], "", (case["bytes"], case["sha256"]))
        code = cli.main(case["argv"])
        out, err = capsys.readouterr()
        assert (code, err, _digest(out.encode("utf-8"))) == want, case["argv"]
        code = cli.main(case["argv"] + ["--out", str(target)])
        out, err = capsys.readouterr()
        assert out == "", case["argv"]
        assert (code, err, _digest(target.read_bytes())) == want, case["argv"]


class _CountingStdout:
    """A stdout that records each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_enumerate_streams_in_batches(monkeypatch):
    # p(30) = 5,604 partitions leave in a few writes: never the whole
    # listing in one, never a write per line, one write per batch of
    # partitions, and no write that is only a head or a tail
    for fmt, lines in (("text", 5604), ("csv", 5605), ("json", 79680)):
        fake = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", fake)
        assert cli.main(["enumerate", "30", "--format", fmt]) == 0
        assert 1 < len(fake.writes) <= lines // 1000, fmt
        assert len(fake.writes) == -(-5604 // cli._BATCH), fmt
        assert all(write.count("\n") > 1 for write in fake.writes), fmt
        assert "".join(fake.writes).count("\n") == lines, fmt


def _reference_enumerate(n, listing, fmt):
    """What ``enumerate`` printed through ``str``, ``csv.writer`` and ``json.dumps``."""
    if fmt == "json":
        payload = {"n": n, "count": len(listing), "items": [p.to_json() for p in listing]}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([("partition",)] + [(str(p),) for p in listing])
        return buf.getvalue()
    return "".join(str(p) + "\n" for p in listing)


def test_enumerate_matches_the_reference_renderers(monkeypatch, capsys):
    # a small batch so that batch boundaries fall inside each listing
    monkeypatch.setattr(cli, "_BATCH", 7)
    empty = 0
    for n in range(1, 13):
        for extra in ([], ["--filter", "Delta01"], ["--filter", "dim>=9"]):
            if extra:
                listing = enumeration.filter_partitions(n, cli._resolve_predicate(extra[1]))
            else:
                listing = enumeration.partitions_of(n)
            empty += len(listing) == 0
            for fmt in ("text", "table", "csv", "json"):
                assert cli.main(["enumerate", str(n), "--format", fmt, *extra]) == 0
                out, err = capsys.readouterr()
                assert (out, err) == (_reference_enumerate(n, listing, fmt), ""), (n, extra, fmt)
    assert empty == 12 + 7  # dim>=9 at every n; Delta01 at n <= 6 and n = 8
    # csv.writer quotes only the rows that hold a comma, from dimension 2 on
    assert cli.main(["enumerate", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out == 'partition\n(3)x[1]\n"(2,1)x[1,1]"\n(1)x[3]\n'
    assert cli.main(["enumerate", "3", "--format", "json", "--filter", "dim>=9"]) == 0
    assert capsys.readouterr().out == '{\n  "n": 3,\n  "count": 0,\n  "items": []\n}\n'


@given(st.one_of(partitions(), partitions(max_part=60, max_len=24),
                 partitions(max_part=10**6, max_len=16)))
def test_listing_templates_match_csv_writer_and_the_json_encoder(p):
    # in dimensions 1 to 24, a filled CSV template is csv.writer's row, and
    # a filled JSON item template is the encoder's text for p.to_json()
    # where the enumerate payload puts its items
    values = p.parts + p.mults
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((str(p),))
    assert cli._CSV_TEMPLATES[p.dimension] % values == buf.getvalue()
    assert cli._LINE_TEMPLATES[p.dimension] % values == str(p) + "\n"
    head, tail = '{\n  "items": [\n', "\n  ]\n}"
    text = json.dumps({"items": [p.to_json()]}, indent=2)
    assert text.startswith(head) and text.endswith(tail)
    assert cli._JSON_ITEM_TEMPLATES[p.dimension] % values == text[len(head):-len(tail)]


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_reader_is_not_a_fault(fmt, unbuffered):
    # like `tripart enumerate 40 | head -n 1`: the reader takes one line and
    # closes the pipe while most of the output is still to come
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "tripart", "enumerate", "40", "--format", fmt],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""
    assert first == (b"(40)x[1]\n" if fmt == "text" else b"partition\n")


def test_closed_fifo_reader_is_not_a_fault(tmp_path):
    # like `tripart enumerate 40 --out FIFO` with `head -n 1 FIFO` reading:
    # --out is written by the same loop as stdout and survives the reader
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; f = open(sys.argv[1], 'rb'); sys.stdout.buffer.write(f.readline())",
         str(fifo)],
        stdout=subprocess.PIPE)
    writer = subprocess.Popen([sys.executable, "-m", "tripart", "enumerate", "40", "--out", str(fifo)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = writer.communicate(timeout=120)
        first, _ = reader.communicate(timeout=120)
    finally:
        # neither side may outlive the test if the other never opens the FIFO
        writer.kill()
        reader.kill()
    assert (writer.returncode, out, err) == (0, b"", b"")
    assert first == b"(40)x[1]\n"


def test_certify_honours_desk_ceiling():
    result = run_cli("certify", "Delta01", "T0Delta01", "0", "61", "--desk-ceiling", "61")
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1].startswith("pairs: ")


def test_map_auto():
    result = run_cli("map", "(6,3)x[1,1]")
    assert result.returncode == 0
    assert "TD" in result.stdout
    assert "(3)x[3]" in result.stdout


def test_map_explicit_branches():
    result = run_cli("map", "(6,5)x[1,1]", "--branch", "t0")
    assert "(5,1)x[2,1]" in result.stdout
    result = run_cli("map", "(5,1)x[2,1]", "--branch", "t0inv")
    assert "(6,5)x[1,1]" in result.stdout


def test_map_contract_violation_exit_code():
    result = run_cli("map", "(6,5)x[1,1]", "--branch", "t1")
    assert result.returncode == 3
    result = run_cli("map", "(7)x[1]")
    assert result.returncode == 3


def test_map_usage_error():
    result = run_cli("map", "not-a-partition")
    assert result.returncode == 2


def test_orbit():
    result = run_cli("orbit", "(6,5)x[1,1]", "--steps", "2")
    lines = result.stdout.splitlines()
    assert lines[0] == "start (6,5)x[1,1]"
    assert lines[1] == "T0 -> (5,1)x[2,1]"
    assert lines[2] == "T1 -> (4,1)x[2,3]"
    assert lines[3] == "terminal (4,1)x[2,3]"


def test_sets_list_and_show():
    result = run_cli("sets", "list")
    assert result.returncode == 0
    assert "Delta01" in result.stdout
    assert "GaussG(d)" in result.stdout
    result = run_cli("sets", "list", "--format", "json")
    names = [row["name"] for row in json.loads(result.stdout)]
    assert "F1" in names
    result = run_cli("sets", "show", "E0")
    assert "K1 = 2" in result.stdout
    result = run_cli("sets", "show", "GaussG(2)")
    assert "2*Llast" in result.stdout
    result = run_cli("sets", "show", "Zeta")
    assert result.returncode == 2


def test_sets_eval():
    result = run_cli("sets", "eval", "K1 > Klast", "(5,1)x[2,1]")
    assert result.stdout.strip() == "true"
    result = run_cli("sets", "eval", "D", "(5,1)x[2,1]")
    assert result.stdout.strip() == "false"


def test_verify_names_reachable():
    for name in ("delta-m", "offset", "cylinder1", "cylinder2",
                 "gauss", "distinct", "odd", "euler"):
        result = run_cli("verify", name, "--nmax", "12")
        assert result.returncode == 0, (name, result.stdout, result.stderr)
        assert "result: pass" in result.stdout


def test_verify_failure_exit_and_diagnostics(capsys):
    result = run_cli("verify", "equicount", "D", "M0", "--nmax", "12")
    assert result.returncode == 1
    assert "FAIL at n=1" in result.stdout
    assert "(1)x[1]" in result.stdout
    # the other way round, (1)x[1] is only on the right
    assert cli.main(["verify", "equicount", "M0", "D", "--nmax", "1"]) == 1
    out, err = capsys.readouterr()
    assert "check M0 = D: FAIL at n=1 (0 vs 1)\n  only right: (1)x[1]\nresult: FAIL\n" in out
    assert "only left" not in out and err == ""


def test_verify_json():
    result = run_cli("verify", "distinct", "--nmax", "9", "--format", "json")
    payload = json.loads(result.stdout)
    assert payload[0]["passed"] is True


def test_verify_csv():
    result = run_cli("verify", "odd", "--nmax", "6", "--format", "csv")
    rows = result.stdout.splitlines()
    assert rows[0] == "n,O,F0,F1,oddDiv"
    assert len(rows) == 7


def test_certify():
    result = run_cli("certify", "D and Delta0", "E0", "0", "11")
    assert result.returncode == 0
    assert "(7,4)x[1,1]  ->  (4,3)x[2,1]" in result.stdout
    assert "pairs: 3" in result.stdout


def test_certify_failure():
    result = run_cli("certify", "Delta0", "M1", "0", "11")
    assert result.returncode == 1
    assert "certification failed" in result.stdout


def test_series():
    result = run_cli("series", "P", "--N", "11", "--format", "csv")
    rows = result.stdout.splitlines()
    assert rows[-1] == "11,56"
    result = run_cli("series", "D", "--N", "11", "--format", "csv")
    assert result.stdout.splitlines()[-1] == "11,12"
    result = run_cli("series", "divisor", "--N", "6", "--format", "json")
    assert json.loads(result.stdout)["coeffs"][6] == 4
    result = run_cli("series", "forall i: odd(L[i])", "--N", "7", "--format", "csv")
    assert result.stdout.splitlines()[-1] == "7,5"


def test_realmap_orbit():
    result = run_cli("realmap", "orbit", "7/2,1", "--steps", "5")
    lines = result.stdout.splitlines()
    assert lines[0] == "start 7/2,1"
    assert lines[1] == "Delta1 -> 5/2,1"
    result = run_cli("realmap", "orbit", "3,2,1", "--steps", "5")
    assert "diagonal reached" in result.stdout
    result = run_cli("realmap", "orbit", "1,2", "--steps", "5")
    assert result.returncode == 2


def test_realmap_zero_denominator_is_named(capsys):
    for point in ("1/0,1", "3,0/0"):
        assert cli.main(["realmap", "orbit", point]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad cone point '{point}': a coordinate has denominator 0\n"


def test_out_flag(tmp_path):
    target = tmp_path / "out.txt"
    result = run_cli("enumerate", "4", "--out", str(target))
    assert result.returncode == 0
    assert result.stdout == ""
    assert len(target.read_text().splitlines()) == 5


def test_unwritable_out_is_a_usage_error(tmp_path):
    cases = [
        ("enumerate", "5", "--out", str(tmp_path / "missing" / "x.txt")),
        ("verify", "euler", "--nmax", "3", "--out", str(tmp_path)),
        # an empty path is a path that cannot be opened, not "no --out"
        ("enumerate", "3", "--out", ""),
    ]
    if os.path.exists("/dev/full"):
        # opens, then every write fails with "no space left on device"
        cases.append(("enumerate", "5", "--out", "/dev/full"))
    for args in cases:
        result = run_cli(*args)
        assert result.returncode == 2, args
        assert result.stderr.startswith("error: cannot write "), args
        assert "Traceback" not in result.stderr, args


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_a_usage_error():
    # like `tripart enumerate 5 > /dev/full`: one stderr line, exit 2
    with open("/dev/full", "w") as full:
        result = subprocess.run(CMD + ["enumerate", "5"], stdout=full, stderr=subprocess.PIPE,
                                text=True)
    assert (result.returncode, result.stderr) == (
        2, "error: cannot write stdout: No space left on device\n")


def test_usage_exit_codes():
    assert run_cli("verify", "nonsense", "--nmax", "5").returncode == 2
    assert run_cli("nonsense").returncode == 2
    assert run_cli("sets", "show").returncode == 2
    assert run_cli("certify", "Delta0", "M0", "2", "8").returncode == 2
    result = run_cli("certify", "Delta0", "M0", "2", "5")
    assert (result.returncode, result.stderr) == (
        2, "error: route letters are 0, 1 or d; got '2'\n")
    assert run_cli("verify", "offset", "--d", "0", "--nmax", "5").returncode == 2
    assert run_cli("series", "L1 <", "--N", "5").returncode == 2
    # only the commands that enumerate take --desk-ceiling
    for args in (("map", "(5,4,2)x[1,1,1]"), ("orbit", "(3,1)x[1,1]"), ("sets", "list"),
                 ("realmap", "orbit", "7/2,1")):
        result = run_cli(*args, "--desk-ceiling", "5")
        assert result.returncode == 2, args
        assert "unrecognized arguments: --desk-ceiling 5" in result.stderr, args


def test_empty_filter_is_a_usage_error(capsys):
    # an empty --filter is refused like an empty series or certify set,
    # not read as "no filter"
    for argv in (["enumerate", "5", "--filter", ""], ["series", "", "--N", "5"],
                 ["certify", "", "D", "0", "5"]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err.startswith("error: '' is neither a known set nor valid predicate text"), argv


def test_verify_d_only_for_offset_and_gauss(capsys):
    # offset and gauss read --d, default 1; every other theorem refuses it
    for name in ("offset", "gauss"):
        assert cli.main(["verify", name, "--nmax", "6"]) == 0
        default = capsys.readouterr()
        assert cli.main(["verify", name, "--nmax", "6", "--d", "1"]) == 0
        assert capsys.readouterr() == default
        assert f"{name} d=1" in default.out
    for name in ("euler", "delta-m", "distinct", "odd", "cylinder1", "cylinder2"):
        assert cli.main(["verify", name, "--nmax", "3", "--d", "1"]) == 2, name
        out, err = capsys.readouterr()
        assert out == "", name
        assert err == f"error: verify {name} takes no --d; only offset and gauss read it\n"
    assert cli.main(["verify", "equicount", "D", "O", "--nmax", "3", "--d", "5"]) == 2
    assert "takes no --d" in capsys.readouterr().err


def test_verify_d_above_nmax_is_a_usage_error(capsys):
    # neither GaussG(d) nor the offset sets have a member below n = d + 3,
    # so with --d above --nmax every count would be 0
    for name in ("offset", "gauss"):
        assert cli.main(["verify", name, "--d", "5", "--nmax", "4"]) == 2, name
        assert capsys.readouterr() == (
            "", "error: --d 5 exceeds --nmax 4; every count would be 0\n"), name
        assert cli.main(["verify", name, "--d", "4", "--nmax", "4"]) == 0, name
        assert "result: pass" in capsys.readouterr().out


def test_sets_rejects_positionals_it_does_not_read(capsys):
    # list reads no positional and show reads only the set name
    for argv, extra in ((["sets", "list", "E0"], "E0"),
                        (["sets", "list", "E0", "(1)x[1]"], "E0 (1)x[1]"),
                        (["sets", "show", "E0", "(1)x[1]"], "(1)x[1]")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err.endswith(f"tripart: error: unrecognized arguments: {extra}\n"), argv
    assert cli.main(["sets", "show", "E0"]) == 0
    assert capsys.readouterr().out.startswith("E0: ")


def test_sets_names_a_missing_positional(capsys):
    # the k-th action of (list, show, eval) reads k positionals
    for argv, message in ((["sets", "show"], "sets show needs a set name"),
                          (["sets", "eval"], "sets eval needs a set name"),
                          (["sets", "eval", "D"], "sets eval needs a partition literal"),
                          (["sets", "eval", "D", "(1)x[1]", "extra"],
                           "unrecognized arguments: extra")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err.startswith("usage: tripart "), argv
        assert err.endswith(f"tripart: error: {message}\n"), argv


def test_verify_output_deterministic():
    first = run_cli("verify", "distinct", "--nmax", "10")
    second = run_cli("verify", "distinct", "--nmax", "10")
    assert first.stdout == second.stdout


def test_out_of_range_numbers_are_usage_errors():
    for args in (
        ("verify", "euler", "--nmax", "0"),
        ("verify", "equicount", "D", "O", "--nmax", "-3"),
        ("series", "D", "--N", "-2"),
        ("orbit", "(3,1)x[1,1]", "--steps", "-1"),
        ("realmap", "orbit", "7/2,1", "--steps", "-1"),
        ("series", "P", "--N", "0", "--desk-ceiling", "0"),
    ):
        result = run_cli(*args)
        assert result.returncode == 2, args
        assert result.stdout == "", args
        assert "must be at least" in result.stderr, args
    # the lower bounds themselves are accepted
    assert run_cli("verify", "euler", "--nmax", "1").returncode == 0
    assert run_cli("series", "P", "--N", "0").stdout == "P: coefficients 0..0\n   0  1\n"
    result = run_cli("orbit", "(3,1)x[1,1]", "--steps", "0")
    assert result.stdout == "start (3,1)x[1,1]\nterminal (3,1)x[1,1]\n"


def test_verify_golden_output(capsys):
    # every verifier in every format, byte for byte, exit codes included;
    # the fixture holds argv, exit code and stdout of each case
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(cases) == 36
    for case in cases:
        code = cli.main(case["argv"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (case["exit"], case["stdout"], ""), case["argv"]


def test_certify_golden_output(capsys):
    # a bijection in text and json, then an image outside the codomain,
    # a codomain member not hit, a branch mismatch and a collision
    cases = json.loads((FIXTURES / "certify_golden.json").read_text(encoding="utf-8"))
    assert len(cases) == 6
    for case in cases:
        code = cli.main(case["argv"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (case["exit"], case["stdout"], ""), case["argv"]


def test_cli_golden_output(capsys):
    # every other command in every format, plus the error paths that leave
    # through cli.main (exit 2 and exit 3), stderr included
    cases = json.loads((FIXTURES / "cli_golden.json").read_text(encoding="utf-8"))
    assert len(cases) == 56
    for case in cases:
        code = cli.main(case["argv"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"]), case["argv"]


def test_every_library_error_has_an_exit_code():
    # the class of an error decides its CLI exit code: InputError gives 2,
    # ContractError gives 3; these stand outside both, each for a reason
    outside = {
        identities.BranchMismatchError: "certify reports it on stdout, exit 1",
        identities.NotInjectiveError: "certify reports it on stdout, exit 1",
        identities.NotOntoError: "certify reports it on stdout, exit 1",
    }
    defined = []
    for info in pkgutil.iter_modules(tripart.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"tripart.{info.name}")
        defined += [obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__ == module.__name__]
    assert set(outside) <= set(defined)
    unmapped = [cls.__qualname__ for cls in defined
                if not issubclass(cls, (InputError, ContractError)) and cls not in outside]
    assert unmapped == []
    # the re-parented classes keep their builtin bases
    inputs = (core.PartitionError, dsl.DslError, enumeration.NonPositiveSizeError,
              enumeration.DeskCeilingError, realmap.BadRatioError, realmap.ConePointError,
              identities.NonPositiveOffsetError, sets.UnknownSetError, sets.EmptyWordError)
    contracts = (trimap.WrongBranchError, trimap.DimensionOneError, trimap.NotInM0Error,
                 trimap.NotInM1Error, realmap.OnDiagonalError)
    for cls in inputs + contracts:
        assert issubclass(cls, ValueError), cls
        assert issubclass(cls, InputError) == (cls in inputs), cls
        assert issubclass(cls, ContractError) == (cls in contracts), cls
    assert issubclass(sets.UnknownSetError, KeyError)
    assert str(sets.UnknownSetError("Zeta")) == "'Zeta'"


def test_no_raise_site_names_a_bare_builtin_error():
    # every error tripart raises carries a class that decides its exit code
    bare = []
    for path in sorted(Path(tripart.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(target, ast.Name) and target.id in ("ValueError", "KeyError"):
                    bare.append(f"{path.name}:{node.lineno}")
    assert bare == []


def test_readme_command_lines_parse():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("tripart ")]
    assert len(lines) == 13
    parser = cli._build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_internal_fault_exit_code_and_traceback(monkeypatch, capsys):
    def broken(n_max):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(identities, "verify_euler_chain", broken)
    assert cli.main(["verify", "euler", "--nmax", "3"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: simulated fault\n")
    assert "Traceback (most recent call last)" in err
    assert err.rstrip().endswith("RuntimeError: simulated fault")


def test_package_entry_point():
    result = subprocess.run([sys.executable, "-m", "tripart", "verify", "euler", "--nmax", "3"],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("result: pass\n")


def test_enumerate_json_streams_the_bytes_of_json_dumps(monkeypatch, capsys):
    # a small batch so that every listing leaves in many chunks
    monkeypatch.setattr(cli, "_BATCH", 7)
    delta1 = sets.builtin("Delta1")
    for n in range(1, 13):
        for extra, listing in (([], enumeration.partitions_of(n)),
                               (["--filter", "Delta1"], enumeration.filter_partitions(n, delta1))):
            payload = {"n": n, "count": len(listing), "items": [p.to_json() for p in listing]}
            assert cli.main(["enumerate", str(n), "--format", "json", *extra]) == 0
            out, err = capsys.readouterr()
            assert (out, err) == (json.dumps(payload, indent=2) + "\n", "")
            chunks = list(cli._json(payload))
            assert chunks[-1] == "\n" and "".join(chunks) == out
            assert len(chunks) > 2 or len(listing) == 0


def test_set_parameter_errors_keep_their_reason(capsys):
    reason = "set {}: parameter must be >= 1"
    for name in ("GaussG(0)", "Delta0Off(0)", "Delta1Off(0)"):
        for argv in (["enumerate", "5", "--filter", name],
                     ["enumerate", "5", "--filter", f"D and {name}"],
                     ["sets", "eval", name, "(3)x[1]"],
                     ["sets", "show", name]):
            assert cli.main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and reason.format(name) in err, argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
    # a name that is not registered at all is still an unknown symbol
    for text, name in (("Zeta", "Zeta"), ("Zeta(0)", "Zeta(0)"), ("GaussG(x)", "GaussG")):
        assert cli.main(["enumerate", "5", "--filter", text]) == 2
        assert f"unknown symbol or set name {name!r}" in capsys.readouterr().err


def test_equicount_of_a_set_with_itself(capsys):
    # both columns carry the argument text, and the relation still
    # compares the two columns rather than one with itself by name
    assert cli.main(["verify", "equicount", "D", "D", "--nmax", "6"]) == 0
    assert capsys.readouterr() == ("== equicount (n <= 6) ==\n"
                                   "     n       D       D\n"
                                   "     1       1       1\n"
                                   "     2       1       1\n"
                                   "     3       2       2\n"
                                   "     4       2       2\n"
                                   "     5       3       3\n"
                                   "     6       4       4\n"
                                   "\n"
                                   "check D = D: pass\n"
                                   "result: pass\n", "")


def test_verify_help_lists_every_theorem(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    for name in cli._VERIFIERS:
        assert f" {name} " in help_text, name


def test_enumerate_json_count_above_fifty():
    # the count leaves in the first chunk, before any item is encoded
    args = cli._build_parser().parse_args(["enumerate", "51", "--format", "json"])
    code, output = args.fn(args)
    first = next(iter(output))
    assert code == 0
    head = f'{{\n  "n": 51,\n  "count": {enumeration.count_partitions(51)},\n'
    assert first.startswith(head)
    assert enumeration.count_partitions(51) == 239943


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd") or not os.path.exists("/dev/full"),
                    reason="needs /proc/self/fd and /dev/full")
def test_full_out_leaves_no_descriptor_open(capsys):
    def open_descriptors():
        return len(os.listdir("/proc/self/fd"))

    before = open_descriptors()
    for _ in range(5):
        assert cli.main(["enumerate", "5", "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err.count("\n") == 5
    assert open_descriptors() == before
