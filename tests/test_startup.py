"""What start-up loads: ``import tripart`` loads no submodule, and each
command imports only the modules it runs.  Each case runs in a fresh
interpreter, since this one has imported the whole package."""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tripart

# the directory that holds the tripart package this suite imports
PACKAGE_ROOT = str(Path(tripart.__file__).resolve().parent.parent)


def _loaded(code: str, *argv: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; it prints a JSON value on stdout's last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


_AFTER_IMPORT = """
import json, sys
import {module}
print(json.dumps(sorted(sys.modules)))
"""


def test_import_tripart_loads_no_submodule():
    loaded = _loaded(_AFTER_IMPORT.format(module="tripart"))
    assert [m for m in loaded if m.startswith("tripart.")] == []
    assert "dataclasses" not in loaded


def test_submodules_the_package_used_to_load_still_resolve():
    # ``import tripart`` once loaded these five; reading one now imports it
    code = "import json, tripart; print(json.dumps([tripart.sets.builtin.__module__]))"
    assert _loaded(code) == ["tripart.sets"]


def test_import_cli_loads_only_what_the_parser_needs():
    loaded = set(_loaded(_AFTER_IMPORT.format(module="tripart.cli")))
    unwanted = {"dataclasses", "inspect", "tripart.dsl", "tripart.identities", "tripart.qseries",
                "tripart.realmap", "tripart.trimap", "tripart.sets"}
    assert loaded & unwanted == set()
    assert {"tripart.core", "tripart.enumeration"} <= loaded


_AFTER_COMMAND = """
import contextlib, io, json, sys
from tripart.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("tripart"))]))
"""

_BASE = ["cli", "core", "enumeration"]


@pytest.mark.parametrize("command, modules", [
    ("verify euler --nmax 5", _BASE + ["dsl", "identities", "sets", "trimap"]),
    ("series P --N 5", _BASE + ["dsl", "qseries"]),
    ("enumerate 5", _BASE),
    ("enumerate 5 --filter D", _BASE + ["dsl", "sets"]),
    ("map (5,4,2)x[1,1,1]", _BASE + ["trimap"]),
    ("realmap orbit 7/2,1 --steps 3", _BASE + ["realmap"]),
])
def test_each_command_loads_a_pinned_set_of_modules(command, modules):
    code, loaded = _loaded(_AFTER_COMMAND, *command.split())
    assert code == 0
    assert loaded == sorted(["tripart"] + [f"tripart.{m}" for m in modules])


def test_every_public_name_resolves_to_its_module_object():
    assert len(tripart.__all__) == len(set(tripart.__all__)) == 35
    for name in tripart.__all__:
        module = importlib.import_module(f"tripart.{tripart._HOMES[name]}")
        value = getattr(tripart, name)
        assert value is getattr(module, name), name
        if isinstance(value, (type, types.FunctionType)):
            # a class or function is defined in the module the table names
            assert value.__module__ == module.__name__, name
    assert set(tripart.__all__) <= set(dir(tripart))
    namespace = {}
    exec("from tripart import *", namespace)
    assert set(tripart.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        tripart.no_such_name
