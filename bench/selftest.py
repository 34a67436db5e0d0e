"""Self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Shows that
1. every workload runs clean (error_rate 0, every expected wrapper fired),
2. a deliberately corrupted output raises error_rate,
3. a wrapper that never fires is reported, not silently read as zero,
4. the exact per-layer counts repeat exactly across two traced runs.
Exits 1 if any of these fails.
"""

from __future__ import annotations

import sys

from run import EXACT, ROOT, measure

sys.path.insert(0, str(ROOT / "src"))

SEED = 7
SECONDS = 0.1  # each run still makes its minimum number of passes


def corrupt(label):
    """Tamper hook: change the last digit the ``label`` operation printed."""

    def tamper(op, output):
        if op.label == label:
            data = bytearray(output.stdout)
            i = max(i for i, b in enumerate(data) if chr(b).isdigit())
            data[i] = ord(str((int(chr(data[i])) + 1) % 10))
            output.stdout = bytes(data)
        return output

    return tamper


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for name in ("euler_sweep", "map_routes", "enumerate_stream"):
        first = measure(name, SEED, SECONDS, traced=True, profile="tiny")["result"]
        second = measure(name, SEED, SECONDS, traced=True, profile="tiny")["result"]
        expect(first["correct"] and first["failed"] == 0, f"{name}: clean traced run is correct")
        same = {k: first["metrics"][k]["value"] == second["metrics"][k]["value"] for k in EXACT}
        expect(all(same.values()), f"{name}: exact counts repeat across two runs"
               + "".join(f" ({k} differs)" for k, v in same.items() if not v))

    tampered = measure("euler_sweep", SEED, SECONDS, traced=False, profile="tiny",
                       tamper=corrupt("verify euler"))
    result = tampered["result"]
    expect(not result["correct"] and result["failed"] > 0 and result["attempted"] > result["failed"],
           f"corrupted output raises error_rate to {result['failed']}/{result['attempted']}")

    skipped = measure("map_routes", SEED, SECONDS, traced=True, profile="tiny",
                      skip=("realmap.apply_slow",))
    reported = any("realmap.apply_slow" in line for line in skipped["lines"])
    expect(not skipped["result"]["correct"] and reported,
           "skipped wrapper realmap.apply_slow is reported as never fired")

    print("selftest " + ("failed: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
