"""Spans and counters for the traced benchmark run.

The tracer records a span around each call into a package layer.  It does
so from outside the package: the session wraps its own calls, and
:meth:`Tracer.installed` replaces the public functions at the module
attributes through which the package calls them (for example
``einflag.einstein.curvature``), restoring them on exit.  Spans keep name,
calling module, parent, start and end in memory; :func:`layer_metrics`
reduces them to the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module whose attribute is replaced, attribute, span name).  The module
# is the caller: a span's "via" field says which layer made the call.
PATCHES = [
    ("einflag.flag", "build_algebra", "algebra.build_algebra"),
    ("einflag.cli", "parse_flag_spec", "flag.parse_flag_spec"),
    ("einflag.einstein", "parse_flag_spec", "flag.parse_flag_spec"),
    ("einflag.verify", "parse_flag_spec", "flag.parse_flag_spec"),
    ("einflag.invariant", "decompose_isotropy", "flag.decompose_isotropy"),
    ("einflag.cli", "metric_space", "invariant.metric_space"),
    ("einflag.einstein", "metric_space", "invariant.metric_space"),
    ("einflag.verify", "metric_space", "invariant.metric_space"),
    ("einflag.einstein", "make_metric", "invariant.make_metric"),
    ("einflag.verify", "make_metric", "invariant.make_metric"),
    ("einflag.curvature", "orthonormal_frame", "invariant.orthonormal_frame"),
    ("einflag.verify", "orthonormal_frame", "invariant.orthonormal_frame"),
    ("einflag.curvature", "frame_structure", "curvature.frame_structure"),
    ("einflag.curvature", "curvature", "curvature.curvature"),
    ("einflag.einstein", "curvature", "curvature.curvature"),
    ("einflag.verify", "curvature", "curvature.curvature"),
    ("einflag.cli", "solve", "einstein.solve"),
    ("einflag.verify", "solve", "einstein.solve"),
    ("einflag.einstein", "closed_form_solutions", "einstein.closed_form_solutions"),
    ("einflag.verify", "closed_form_solutions", "einstein.closed_form_solutions"),
    ("einflag.einstein", "numeric_solutions", "einstein.numeric_solutions"),
    ("einflag.verify", "numeric_solutions", "einstein.numeric_solutions"),
    ("einflag.einstein", "equivalence_screen", "einstein.equivalence_screen"),
]


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs; records nothing."""

    def span(self, name, via="bench"):
        return contextlib.nullcontext()

    def installed(self):
        return contextlib.nullcontext()


class Tracer:
    """In-memory spans ``[name, via, parent, start, end]`` and counters."""

    def __init__(self):
        self.spans = []
        self.counters = {"root_calls": 0, "residual_evals": 0, "root_converged": 0}
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, via="bench"):
        parent = self._stack[-1] if self._stack else None
        rec = [name, via, parent, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, via):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, via):
                return fn(*args, **kwargs)

        return traced

    def _count_root(self, root):
        @functools.wraps(root)
        def counted(*args, **kwargs):
            res = root(*args, **kwargs)
            self.counters["root_calls"] += 1
            self.counters["residual_evals"] += int(res.nfev)
            self.counters["root_converged"] += int(bool(res.success))
            return res

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package's public functions while the block runs."""
        import scipy.optimize

        saved = []
        try:
            for modname, attr, name in PATCHES:
                mod = importlib.import_module(modname)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(getattr(mod, attr), name, modname.removeprefix("einflag.")))
            saved.append((scipy.optimize, "root", scipy.optimize.root))
            scipy.optimize.root = self._count_root(scipy.optimize.root)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def dump(self):
        return {
            "counters": dict(self.counters),
            "spans": [
                {"id": i, "name": n, "via": v, "parent": p, "start": s, "end": e}
                for i, (n, v, p, s, e) in enumerate(self.spans)
            ],
        }


def layer_metrics(tracer, verify_checks_passed):
    """Per-layer metrics of one traced session, as ``{name: (value, unit)}``.

    Totals (``_s``) add up span durations, counting a span only when no
    enclosing span has the same name, so recursion through wrappers is
    not counted twice.  Per-call figures (``_ms``) are means over every
    call, from any caller.
    """
    spans = tracer.spans
    names = [s[0] for s in spans]

    def chain(i):
        p = spans[i][2]
        while p is not None:
            yield p
            p = spans[p][2]

    def dur(i):
        return spans[i][4] - spans[i][3]

    def select(name, via=None, under=None):
        for i, s in enumerate(spans):
            if s[0] != name or (via is not None and s[1] not in via):
                continue
            up = [names[p] for p in chain(i)]
            if name in up or (under is not None and under not in up):
                continue
            yield i

    def total(name, via=None, under=None):
        return sum(dur(i) for i in select(name, via, under))

    def self_time(name, child):
        return sum(
            dur(i) - sum(dur(j) for j, s in enumerate(spans) if s[2] == i and s[0] == child)
            for i in select(name)
        )

    def mean_ms(name):
        ds = [dur(i) for i, n in enumerate(names) if n == name]
        return 1000.0 * sum(ds) / len(ds) if ds else 0.0

    gates = list(select("curvature.curvature", via={"einstein"}, under="einstein.solve"))
    c = tracer.counters
    return {
        "algebra.build_s": (total("algebra.build_algebra"), "s"),
        "flag.parse_s": (self_time("flag.parse_flag_spec", "algebra.build_algebra"), "s"),
        "flag.decompose_s": (total("flag.decompose_isotropy"), "s"),
        "invariant.metric_space_s": (total("invariant.metric_space"), "s"),
        "invariant.structure_s": (total("invariant.structure"), "s"),
        "invariant.make_metric_ms": (mean_ms("invariant.make_metric"), "ms"),
        "invariant.frame_ms": (mean_ms("invariant.orthonormal_frame"), "ms"),
        "curvature.frame_structure_ms": (mean_ms("curvature.frame_structure"), "ms"),
        "curvature.report_ms": (mean_ms("curvature.curvature"), "ms"),
        "einstein.numeric_s": (total("einstein.numeric_solutions"), "s"),
        "einstein.root_calls": (c["root_calls"], "count"),
        "einstein.residual_evals": (c["residual_evals"], "count"),
        "einstein.root_converged_ratio": (
            c["root_converged"] / c["root_calls"] if c["root_calls"] else 0.0,
            "ratio",
        ),
        "einstein.gate_reports": (len(gates), "count"),
        "einstein.gate_s": (sum(dur(i) for i in gates), "s"),
        "einstein.closed_form_s": (
            total("einstein.closed_form_solutions", via={"einstein"}),
            "s",
        ),
        "einstein.screen_s": (total("einstein.equivalence_screen"), "s"),
        "verify.run_checks_s": (total("verify.run_checks"), "s"),
        "verify.numeric_s": (total("einstein.numeric_solutions", via={"verify"}), "s"),
        "verify.curvature_s": (
            total("curvature.curvature", via={"verify", "curvature"}, under="verify.run_checks"),
            "s",
        ),
        "verify.checks_passed": (verify_checks_passed, "count"),
        "cli.self_s": (self_time("cli.main", "einstein.solve"), "s"),
    }
