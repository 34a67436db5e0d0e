"""Layer tracing for the benchmark, installed from outside the package.

The wrappers replace public functions of each tripart module, so they
must be installed before ``tripart.identities``, ``tripart.qseries`` and
``tripart.cli`` are imported: those modules bind ``iter_raw``,
``filter_partitions``, ``builtin`` and the ``trimap.apply_*`` branches by
name at import time.

Every wrapped call is a span on one stack.  A span's self time is its
duration minus the time covered by its child spans.  Spans of calls made
once per operation are kept in memory with their parent and run id and
written out at the end; calls made once per partition or per map step
(generator ``next()``, ``classify``, validated construction, branch
applications) only add to per-name totals, which keeps memory bounded.
Generator wrappers time only the calls to ``next()``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# Wrapped names that fire once per partition or per map step: aggregated only.
HOT = frozenset({
    "enumeration.iter_raw.next",
    "enumeration.iter_partitions.next",
    "core.classify",
    "core.build",
    "trimap.apply_t0",
    "trimap.apply_t1",
    "trimap.apply_td",
    "trimap.apply_t0_inverse",
    "trimap.apply_t1_inverse",
    "trimap.apply_t",
    "realmap.apply_slow",
    "realmap.classify_cone",
})


class Tracer:
    """Span stack, per-name call counts and self times, and exact counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.clock = time.perf_counter
        self.stack: list[list] = []  # [name, child_s, start, span_id]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.certify_depth = 0
        self.qseries_depth = 0

    def enter(self, name: str) -> None:
        span_id = None
        if name not in HOT:
            span_id = len(self.spans)
            self.spans.append(None)  # filled in by leave()
        self.stack.append([name, 0.0, self.clock(), span_id])

    def leave(self) -> None:
        end = self.clock()
        name, child_s, start, span_id = self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][1] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if span_id is not None:
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            self.spans[span_id] = (span_id, name, start, end, parent, self.run_id)

    def snapshot(self) -> dict:
        """Counters and recorded spans, ready for JSON."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "spans": [dict(zip(("id", "name", "start", "end", "parent", "run"), s))
                      for s in self.spans if s is not None],
        }


class _TimedIter:
    """Iterator wrapper: each ``next()`` is a span, each item a partition."""

    __slots__ = ("_it", "_tracer", "_name")

    def __init__(self, it, tracer: Tracer, name: str):
        self._it = it
        self._tracer = tracer
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer.enter(self._name)
        try:
            item = next(self._it)
        finally:
            tracer.leave()
        tracer.counts["enumeration.partitions"] += 1
        return item


def _span(tracer: Tracer, name: str, fn, before=None, after=None):
    """Wrap ``fn`` in a span; ``before`` may rewrite the arguments."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            args, kwargs = before(args, kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave()
        if after is not None:
            result = after(args, result)
        return result

    return wrapper


def install(tracer: Tracer, skip=()) -> None:
    """Wrap the public functions of every layer; ``skip`` leaves names bare.

    Must run before ``tripart.identities``, ``tripart.qseries``,
    ``tripart.realmap`` or ``tripart.cli`` is first imported.
    """
    import sys

    late = [m for m in ("identities", "qseries", "realmap", "cli") if f"tripart.{m}" in sys.modules]
    if late:
        raise RuntimeError(f"tracing installed after tripart.{late[0]} was imported")

    from tripart import core, dsl, enumeration, sets, trimap

    count_partitions = enumeration.count_partitions
    counts = tracer.counts

    def patch(owner, attr, name, before=None, after=None):
        if name not in skip:
            setattr(owner, attr, _span(tracer, name, getattr(owner, attr), before, after))

    # enumeration: every enumeration of some n is one call and p(n) partitions
    def enumeration_call(n):
        counts["enumeration.calls"] += 1
        counts["enumeration.expected_partitions"] += count_partitions(n)
        if tracer.certify_depth:
            counts["identities.certify_enumerations"] += 1

    def timed_generator(name):
        def after(args, it):
            enumeration_call(args[0])
            return _TimedIter(it, tracer, name + ".next")
        return after

    patch(enumeration, "iter_raw", "enumeration.iter_raw",
          after=timed_generator("enumeration.iter_raw"))
    patch(enumeration, "iter_partitions", "enumeration.iter_partitions",
          after=timed_generator("enumeration.iter_partitions"))
    patch(enumeration, "partitions_of", "enumeration.partitions_of")

    def counted_predicate(args, kwargs):
        # filter_partitions calls its predicate once per partition of n
        n, pred = args[0], args[1]
        enumeration_call(n)

        def counted(p):
            counts["enumeration.partitions"] += 1
            counts["dsl.evals"] += 1
            if tracer.certify_depth:
                counts["identities.certify_partitions"] += 1
            return pred(p)

        return (n, counted) + tuple(args[2:]), kwargs

    patch(enumeration, "filter_partitions", "enumeration.filter_partitions",
          before=counted_predicate)

    # core: validated construction and the trichotomy
    def count_into(key):
        def after(args, result):
            counts[key] += 1
            return result
        return after

    patch(core.Partition, "__post_init__", "core.build",
          after=count_into("core.validated_builds"))
    patch(core.Partition, "classify", "core.classify",
          after=count_into("core.classify_calls"))

    # dsl: compilation (evaluation inside sweeps is counted by the sweeps)
    patch(dsl, "compile_node", "dsl.compile_node", after=count_into("dsl.compiles"))

    # sets: name and expression resolution
    for attr in ("builtin", "parse_set_expression", "gauss_set", "delta0_offset",
                 "delta1_offset", "cylinder"):
        patch(sets, attr, f"sets.{attr}")

    # trimap: every branch application is one step
    for attr in ("apply_t0", "apply_t1", "apply_td", "apply_t0_inverse", "apply_t1_inverse"):
        patch(trimap, attr, f"trimap.{attr}", after=count_into("trimap.steps"))
    for attr in ("apply_t", "orbit"):
        patch(trimap, attr, f"trimap.{attr}")

    from tripart import realmap

    patch(realmap, "apply_slow", "realmap.apply_slow", after=count_into("realmap.steps"))
    for attr in ("classify_cone", "cf_digits_via_map"):
        patch(realmap, attr, f"realmap.{attr}")

    from tripart import qseries

    def qseries_span(attr):
        fn = getattr(qseries, attr)

        @functools.wraps(fn)
        def outer(*args, **kwargs):
            # only the outermost qseries call counts its coefficients
            tracer.qseries_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.qseries_depth -= 1
            if tracer.qseries_depth == 0:
                items = result if isinstance(result, list) else [result]
                counts["qseries.coeffs"] += sum(len(s) for s in items)
            return result

        if f"qseries.{attr}" not in skip:
            setattr(qseries, attr, _span(tracer, f"qseries.{attr}", outer))

    for attr in ("expand_partition_gf", "expand_product", "distinct_parts_product",
                 "odd_parts_product", "divisor_series", "odd_divisor_series",
                 "ones_series", "multiples_series", "set_series", "set_series_many",
                 "expand_E_series", "support_series"):
        qseries_span(attr)

    # set_series_many sweeps partitions x columns like count_columns does
    sweep_fn = qseries.set_series_many

    @functools.wraps(sweep_fn)
    def set_series_many(preds, N):
        before = counts["enumeration.partitions"]
        result = sweep_fn(preds, N)
        counts["dsl.evals"] += (counts["enumeration.partitions"] - before) * len(preds)
        return result

    qseries.set_series_many = set_series_many

    from tripart import identities

    def sweep(attr, columns):
        fn = getattr(identities, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = counts["enumeration.partitions"]
            result = fn(*args, **kwargs)
            counts["dsl.evals"] += (counts["enumeration.partitions"] - before) * columns(args)
            return result

        if f"identities.{attr}" not in skip:
            setattr(identities, attr, _span(tracer, f"identities.{attr}", counted))

    sweep("count_columns", lambda args: len(args[0]))
    sweep("count_set", lambda args: 1)

    certify_fn = identities.certify_bijection

    @functools.wraps(certify_fn)
    def certify(*args, **kwargs):
        tracer.certify_depth += 1
        try:
            cert = certify_fn(*args, **kwargs)
        finally:
            tracer.certify_depth -= 1
        counts["identities.certify_calls"] += 1
        counts["identities.certify_pairs"] += len(cert.pairs)
        return cert

    if "identities.certify_bijection" not in skip:
        identities.certify_bijection = _span(tracer, "identities.certify_bijection", certify)
    for attr in ("verify_equicount", "verify_offset_theorem", "verify_cylinder_theorems",
                 "verify_gauss_theorem", "verify_distinct_theorem", "verify_odd_theorem",
                 "verify_euler_chain", "gauss_step_image", "gauss_final_image"):
        patch(identities, attr, f"identities.{attr}")
