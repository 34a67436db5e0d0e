"""Regenerate pins.json: the SHA-256 of every seed-independent CLI output.

    python3 bench/make_pins.py

CLI output is meant to stay byte-identical, so run this only when an
output change is intended, and say why in the change that commits it.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

from run import BENCH, ROOT, child_env

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    pins = {}
    for profile in workloads.SIZES:
        for argv in workloads.pinned_argvs(profile):
            out = subprocess.run([sys.executable, "-m", "tripart", *argv], cwd=ROOT,
                                 env=child_env(), capture_output=True, check=True).stdout
            pins[" ".join(argv)] = hashlib.sha256(out).hexdigest()
    with open(BENCH / "pins.json", "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
