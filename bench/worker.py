"""Child process of the benchmark: library calls, or the CLI under tracing.

``worker.py lib`` reads one JSON line naming the predicates to resolve,
imports tripart, resolves and compiles them, and prints ``ready``.  It
then answers one JSON request per line until its input closes, so the
caller runs a closed loop with one client.

``worker.py cli REPORT RUN_ID ARGS...`` runs ``tripart.cli.main(ARGS)``,
as ``python3 -m tripart ARGS...`` would, and exits with its code.  A
RUN_ID other than ``-`` installs the layer wrappers first.

Both modes write a JSON report at exit (REPORT, or ``report_file`` in the
``lib`` input line) with the process's peak RSS and, when traced, its
trace.  Both expect ``src`` of the checkout on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import resource
import sys
from fractions import Fraction

import tracing


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB.

    VmHWM covers this program image only.  The rusage ``ru_maxrss`` of a
    child also counts the RSS of the process that spawned it, which Linux
    carries across exec, so the benchmark's own memory would leak into it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def write_report(path: str, tracer) -> None:
    report = {"peak_rss_mb": peak_rss_mb(),
              "trace": None if tracer is None else tracer.snapshot()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def resolve_predicate(spec):
    """The SetPredicate a spec names: ["builtin", name], ["text", text],
    ["gauss_set", d], ["gauss_step_image", d, p] or ["gauss_final_image", d]."""
    from tripart import identities, sets

    kind, *args = spec
    if kind == "builtin":
        return sets.builtin(args[0])
    if kind == "text":
        return sets.parse_set_expression(args[0])
    if kind == "gauss_set":
        return sets.gauss_set(*args)
    if kind in ("gauss_step_image", "gauss_final_image"):
        return getattr(identities, kind)(*args)
    raise ValueError(f"unknown predicate spec {spec!r}")


def _certify(preds, req):
    from tripart import identities

    route = identities.parse_route(req["route"])
    domain, codomain = preds[req["domain"]], preds[req["codomain"]]
    pair_counts, bad = [], 0
    for n in range(1, req["n_max"] + 1):
        cert = identities.certify_bijection(domain, codomain, route, n)
        pair_counts.append(len(cert.pairs))
        bad += sum(1 for src, branches, img in cert.pairs
                   if src.size != n or img.size != n or len(branches) != len(route))
    return {"pairs": pair_counts, "bad_pairs": bad}


def _orbits(preds, req):
    from tripart import trimap
    from tripart.core import Partition

    out = []
    for parts, mults in req["starts"]:
        start = Partition(tuple(parts), tuple(mults))
        orbit = trimap.orbit(start, req["max_steps"])
        size = start.size
        preserved = all(step.image.size == size for step in orbit.steps)
        out.append([len(orbit.steps), preserved, orbit.terminal.dimension])
    return {"orbits": out}


def _cf_digits(preds, req):
    from tripart import realmap

    return {"digits": [realmap.cf_digits_via_map(Fraction(x1), Fraction(x2))
                       for x1, x2 in req["points"]]}


_CALLS = {"certify": _certify, "orbit": _orbits, "cf": _cf_digits}


def serve_library() -> int:
    init = json.loads(sys.stdin.readline())
    tracer = None
    if init.get("run_id"):
        tracer = tracing.Tracer(init["run_id"])
        tracing.install(tracer, skip=init.get("skip", ()))
    import tripart.cli  # noqa: F401  (imports every module of the package)

    preds = {}
    for key, spec in init["predicates"].items():
        preds[key] = resolve_predicate(spec)
        preds[key].fn  # compile now, so set-up holds all compilation
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    for line in sys.stdin:
        req = json.loads(line)
        try:
            reply = _CALLS[req["call"]](preds, req)
        except Exception as exc:  # noqa: BLE001 - reported to the harness as a failed operation
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    write_report(init["report_file"], tracer)
    return 0


def run_cli(report_file: str, run_id: str, argv: list[str]) -> int:
    tracer = None
    if run_id != "-":
        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)
    from tripart import cli

    if tracer is not None:
        tracer.enter("cli.main")
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.leave()
        sys.stdout.flush()
        write_report(report_file, tracer)


if __name__ == "__main__":
    if sys.argv[1:2] == ["lib"]:
        sys.exit(serve_library())
    if sys.argv[1:2] == ["cli"] and len(sys.argv) >= 4:
        sys.exit(run_cli(sys.argv[2], sys.argv[3], sys.argv[4:]))
    sys.exit("usage: worker.py lib | worker.py cli REPORT RUN_ID ARGS...")
