"""Outside-in layer trace: wrappers around the package's functions, installed
from the benchmark without editing the program.

Modules bind each other's functions with ``from .x import y``, so a
function is patched under every name that binds it, in every module of
the package, and restored afterwards. Each call opens a frame; its self
time (duration minus time in wrapped callees) goes to exactly one
bucket, so the buckets plus the query frames' own time add up to the
traced solve time. Calls to hot callees (``reachable``,
``Digraph.induced``, sub-instance production, ``ball``) are only
counted and timed; every other call is also kept as a span (name, start,
end, parent span, query id) and written out at the end.
"""

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, bucket, hot). The bucket takes the call's self time.
WRAPPED = (
    ("digraph", "parse_instance", "digraph.parse_s", False),
    ("digraph", "contract_arc_directed", "digraph.contract_s", True),
    ("digraph", "identify_arc_endpoints", "digraph.contract_s", True),
    ("digraph", "Digraph.induced", "digraph.induced_s", True),
    ("connectivity", "reachable", "connectivity.reachable_s", True),
    ("connectivity", "arcs_disconnecting_two", "connectivity.strand_s", False),
    ("connectivity", "cut_profile", "connectivity.cut_s", False),
    ("connectivity", "is_rooted_2connected", "connectivity.twoconn_s", False),
    ("treewidth", "greedy_decomposition", "treewidth.decomp_s", False),
    ("treewidth", "make_nice", "treewidth.nice_s", False),
    ("treewidth", "treewidth_upper_bound", "treewidth.bound_s", False),
    ("treedp", "dp_max_leaves", "treedp.leaves_s", False),
    ("treedp", "dp_max_internal_outtree", "treedp.internal_s", False),
    ("treedp", "dp_longest_path", "treedp.path_s", False),
    ("leaf_pipeline", "reduce_lob", "leaf_pipeline.reduce_s", False),
    ("leaf_pipeline", "expand_through_steps", "leaf_pipeline.expand_s", False),
    ("leaf_pipeline", "_dp_witness", "leaf_pipeline.solve_s", False),
    ("leaf_pipeline", "solve_lob", "leaf_pipeline.solve_s", False),
    ("internal_pipeline", "generate_collection", "internal_pipeline.enum_s",
     True),
    ("internal_pipeline", "expand_minimal_tree", "internal_pipeline.expand_s",
     False),
    ("internal_pipeline", "solve_iob", "internal_pipeline.solve_s", False),
    ("ballcover", "ball", "ballcover.ball_s", True),
    ("ballcover", "solve_kpath_ballcover", "ballcover.self_s", False),
    ("analysis", "analyze", "analysis.self_s", False),
)
QUERY_BUCKET = "trace.unattributed_s"
BOOKKEEPING_BUCKET = "trace.bookkeeping_s"
BUCKETS = sorted({entry[2] for entry in WRAPPED} | {QUERY_BUCKET,
                                                    BOOKKEEPING_BUCKET})
GENERATORS = {"generate_collection"}


class Tracer:
    """Frames, spans and counters for one traced pass at a time."""

    def __init__(self, package):
        self.package = package
        self.modules = [mod for name, mod in sorted(sys.modules.items())
                        if name == package.__name__
                        or name.startswith(package.__name__ + ".")]
        self._saved = []
        self.reset()

    def reset(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.stats = defaultdict(float)
        self.spans = []
        self._stack = []
        self._qid = None

    # -- installing ---------------------------------------------------
    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, attr, bucket, hot in WRAPPED:
            module = sys.modules[f"{self.package.__name__}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, attr, bucket, hot))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, attr, bucket, hot)
            for mod in self.modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []

    # -- frames -------------------------------------------------------
    def _open(self, name, hot):
        parent = self._stack[-1] if self._stack else None
        span = None
        if not hot:
            span = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               parent[2] if parent else None, self._qid])
        # [start, time in wrapped callees, span index, name]
        frame = [time.perf_counter(), 0.0, span, name]
        self._stack.append(frame)
        return frame

    def _close(self, frame, bucket):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[0]
        self.seconds[bucket] += duration - frame[1]
        self.calls[frame[3]] += 1
        if frame[2] is not None:
            self.spans[frame[2]][2] = end
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def _bookkeep(self, fn, *args):
        start = time.perf_counter()
        fn(*args)
        spent = time.perf_counter() - start
        self.seconds[BOOKKEEPING_BUCKET] += spent
        if self._stack:
            self._stack[-1][1] += spent

    @contextlib.contextmanager
    def query(self, qid):
        """Context for one query: its frame holds the harness-side time."""
        self._qid = qid
        frame = self._open("query", False)
        try:
            yield
        finally:
            self._close(frame, QUERY_BUCKET)
            self._qid = None

    def _wrap(self, fn, name, bucket, hot):
        tracer = self
        post = _POST.get(name)
        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    frame = tracer._open(name, hot)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(frame, bucket)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1][3] if tracer._stack else None
            frame = tracer._open(name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close(frame, bucket)
            if post is not None:
                tracer._bookkeep(post, tracer, result, args, duration, parent)
            return result
        return wrapper


def write_spans(path, spans, header):
    """One JSON line of run facts, then one line per span."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for name, start, end, parent, qid in spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "query": qid}) + "\n")


def _after_decomposition(tracer, td, args, duration, parent):
    tracer.stats["treewidth.width_max"] = max(
        tracer.stats["treewidth.width_max"], td.width)
    leaf = sys.modules[tracer.package.__name__ + ".leaf_pipeline"]
    # solve_lob drops a witness decomposition wider than this limit
    if parent == "_dp_witness" and td.width > leaf.WITNESS_WIDTH_LIMIT:
        tracer.stats["treewidth.wasted_s"] += duration


def _after_nice(tracer, nice, args, duration, parent):
    tracer.stats["treewidth.nice_nodes"] += nice.node_count


def _after_dp(tracer, result, args, duration, parent):
    tracer.stats["treedp.input_n_max"] = max(
        tracer.stats["treedp.input_n_max"], args[0].n)


_POST = {
    "greedy_decomposition": _after_decomposition,
    "make_nice": _after_nice,
    "dp_max_leaves": _after_dp,
    "dp_max_internal_outtree": _after_dp,
    "dp_longest_path": _after_dp,
}
