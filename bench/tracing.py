"""Spans and counters around the public functions of each nilpath module.

The tracer wraps functions from outside the library: it rebinds each name in
its defining module and in every ``nilpath.*`` module that imported it (for
example ``nilpath.jordan.rank`` and ``nilpath.paths.matrix_pow``), and patches
methods on their classes.  :meth:`Tracer.restore` puts every original back.

A span records its name, start, end, parent span and op id.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the part
covered by its child spans; the tracer's own bookkeeping inside a child is
counted as covered, so it is charged to no layer.  Counts come only from
arguments, return values and raised exceptions.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

from nilpath.errors import OutsideNeighborhoodError
from nilpath.paths import INITIAL_LIFT_INTERVALS


def _entry_bits(m) -> int:
    best = 0
    for row in m.data:
        for e in row:
            for f in (e.re, e.im):
                best = max(best, f.numerator.bit_length(), f.denominator.bit_length())
    return best


def _count_max_bits(c, args, kwargs, res, exc):
    if res is not None:
        c["scalar.max_entry_bits"] = max(c["scalar.max_entry_bits"], _entry_bits(res))


def _count_mul(c, args, kwargs, res, exc):
    a, b = args[0], args[1]
    c["matrix.mul.madds"] += a.rows * a.cols * b.cols
    _count_max_bits(c, args, kwargs, res, exc)


def _count_rank(c, args, kwargs, res, exc):
    m = args[0]
    c["matrix.rank.max_dim"] = max(c["matrix.rank.max_dim"], m.rows, m.cols)


def _count_preimages(c, args, kwargs, res, exc):
    if res is not None:
        c["profiles.preimages.found"] += len(res)


def _count_build(c, args, kwargs, res, exc):
    if res is not None:
        c["graph.build.vertices"] += len(res.vertices)
        c["graph.build.edges"] += len(res.edges)


def _count_chain(c, args, kwargs, res, exc):
    if res is not None:
        c["graph.chain.moves"] += len(res.moves)


def _count_interpolate(c, args, kwargs, res, exc):
    c["polynomials.interpolate.nodes"] += len(args[0])
    if res is not None:
        deg = max((q.degree() for row in res for q in row if not q.is_zero()), default=0)
        c["polynomials.interpolate.max_degree"] = max(c["polynomials.interpolate.max_degree"], deg)


def _count_conjugator(c, args, kwargs, res, exc):
    if isinstance(exc, OutsideNeighborhoodError):
        c["sections.conjugator.rejected"] += 1


def _count_lift(c, args, kwargs, res, exc):
    if res is not None:
        c["paths.lift.intervals"] += len(res.intervals)
        c["paths.lift.bisections"] += len(res.intervals) - INITIAL_LIFT_INTERVALS


def _count_certify(c, args, kwargs, res, exc):
    if res is not None and res.get("ok"):
        c["paths.certify_interval.ok"] += 1


def _count_centralizer(c, args, kwargs, res, exc):
    if res is not None:
        c["paths.centralizer.detour_pieces"] += len(res.waypoints) - 1


def _count_from_json(c, args, kwargs, res, exc):
    c["paths.json_bytes"] += len(json.dumps(args[0]))


# (span name, module, attribute or "Class.method", count hook)
TARGETS = (
    ("matrix.mul", "nilpath.matrix", "matrix_mul", _count_mul),
    ("matrix.pow", "nilpath.matrix", "matrix_pow", _count_max_bits),
    ("matrix.rank", "nilpath.matrix", "rank", _count_rank),
    ("matrix.det", "nilpath.matrix", "det", None),
    ("matrix.inverse", "nilpath.matrix", "inverse", _count_max_bits),
    ("matrix.solve", "nilpath.matrix", "solve", None),
    ("matrix.kernel", "nilpath.matrix", "kernel_basis", None),
    ("matrix.json", "nilpath.matrix", "matrix_to_json_obj", None),
    ("matrix.json", "nilpath.matrix", "matrix_from_json_obj", None),
    ("jordan.profile", "nilpath.jordan", "nilpotent_profile", None),
    ("jordan.basis", "nilpath.jordan", "jordan_basis", None),
    ("jordan.witness", "nilpath.jordan", "similarity_witness", None),
    ("profiles.preimages", "nilpath.profiles", "enumerate_preimages", _count_preimages),
    ("profiles.power", "nilpath.profiles", "profile_power", None),
    ("profiles.adjacent", "nilpath.profiles", "is_p_adjacent", None),
    ("criteria.solvable", "nilpath.criteria", "is_f_solvable", None),
    ("criteria.root_profile", "nilpath.criteria", "find_root_profile", None),
    ("graph.build", "nilpath.graph", "build_graph", _count_build),
    ("graph.chain", "nilpath.graph", "profile_chain", _count_chain),
    ("polynomials.interpolate", "nilpath.polynomials", "poly_interpolate_entries", _count_interpolate),
    ("polynomials.poly_det", "nilpath.polynomials", "poly_matrix_det", None),
    ("polynomials.sturm", "nilpath.polynomials", "sturm_root_count", None),
    ("polynomials.segment_cert", "nilpath.polynomials", "certify_nonvanishing_segment", None),
    ("sections.conjugator", "nilpath.sections", "ConjugationSection.conjugator_at", _count_conjugator),
    ("sections.ad_operator", "nilpath.sections", "ad_operator", None),
    ("sections.setup", "nilpath.sections", "section_setup", None),
    ("paths.connect", "nilpath.paths", "connect_roots", None),
    ("paths.lift", "nilpath.paths", "lift_family", _count_lift),
    ("paths.q_at", "nilpath.paths", "LiftCore.q_at", None),
    ("paths.adjacency", "nilpath.paths", "adjacency_segment", None),
    ("paths.centralizer", "nilpath.paths", "centralizer_segment", _count_centralizer),
    ("paths.certify_interval", "nilpath.paths", "certify_lift_interval", _count_certify),
    ("paths.evaluate", "nilpath.paths", "RootPath.evaluate", None),
    ("paths.verify", "nilpath.paths", "verify", None),
    ("paths.from_json", "nilpath.paths", "path_from_json_obj", _count_from_json),
    ("cli.main", "nilpath.cli", "main", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in TARGETS))

# Counters reported as totals per op.  cli.stdout_bytes is counted by the
# benchmark itself from the stdout it captures.
PER_OP_COUNTERS = (
    "matrix.mul.madds",
    "profiles.preimages.found",
    "graph.build.vertices",
    "graph.build.edges",
    "graph.chain.moves",
    "polynomials.interpolate.nodes",
    "sections.conjugator.rejected",
    "paths.lift.intervals",
    "paths.lift.bisections",
    "paths.centralizer.detour_pieces",
    "paths.json_bytes",
    "cli.stdout_bytes",
)
# Counters reported as the largest value seen.
MAX_COUNTERS = ("scalar.max_entry_bits", "matrix.rank.max_dim", "polynomials.interpolate.max_degree")


class Tracer:
    """In-memory span recorder with name-rebinding install and restore."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id, self time)
        self.counts: defaultdict = defaultdict(int)
        self.op_id = None
        self._stack: list[list] = []  # [span id, covered seconds] of open spans
        self._next_id = 0
        self._rebind = None  # see _bindings

    def _wrap(self, name: str, fn, count):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            res = exc = None
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
                return res
            except Exception as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                if count is not None:
                    count(tracer.counts, args, kwargs, res, exc)
                tracer.spans.append(
                    (span_id, name, t0, t1, parent[0] if parent else None, tracer.op_id, t1 - t0 - frame[1])
                )
                if parent is not None:
                    parent[1] += perf_counter() - t0

        traced.__wrapped__ = fn
        return traced

    def _bindings(self) -> list[tuple]:
        """(owner, attribute, original, traced) for every name to rebind, built once."""
        if self._rebind is None:
            modules = [m for n, m in sys.modules.items() if n == "nilpath" or n.startswith("nilpath.")]
            rebind = []
            for name, module_name, attr, count in TARGETS:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    rebind.append((cls, meth, orig, self._wrap(name, orig, count)))
                    continue
                orig = getattr(owner, attr)
                traced = self._wrap(name, orig, count)
                for m in modules:
                    rebind.extend((m, key, orig, traced) for key, value in vars(m).items() if value is orig)
            self._rebind = rebind
        return self._rebind

    def install(self) -> None:
        for owner, key, _, traced in self._bindings():
            setattr(owner, key, traced)

    def restore(self) -> None:
        for owner, key, orig, _ in self._bindings():
            setattr(owner, key, orig)

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, (value, unit); sums are per op."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for _, name, _, _, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name] / ops, "calls/op")
            out[f"{name}.self_s"] = (self_s[name] / ops, "s/op")
        c = self.counts
        for key in PER_OP_COUNTERS:
            out[key] = (c[key] / ops, "count/op")
        for key in MAX_COUNTERS:
            out[key] = (c[key], "count")
        # A ratio reads 1.0 when the layer is never called: nothing was rejected.
        conj = calls["sections.conjugator"]
        out["sections.conjugator.accept_ratio"] = (
            (conj - c["sections.conjugator.rejected"]) / conj if conj else 1.0, "ratio")
        certs = calls["paths.certify_interval"]
        out["paths.certify_interval.ok_ratio"] = (
            c["paths.certify_interval.ok"] / certs if certs else 1.0, "ratio")
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, name, start, end, parent, op, self."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\tself_s\n")
            for span in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in span) + "\n")
