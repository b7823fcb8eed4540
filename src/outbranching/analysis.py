"""Structural reports and the benchmark harness.

analyze() runs the leaf-reduction machinery on one rooted instance and
reports the counts the theory bounds: the high-in-degree and nice-vertex
tallies, the cut-vertex split, the deletion set size, and treewidth
estimates of the underlying graph before and after deleting that set.
The headline number is tw / sqrt(|S|), which a sound reduction keeps
bounded on sparse planar-like families.

solve() is the one place that maps a problem name to its solver.
bench() runs it over generated instances and collects rows suitable for
CSV; budget blowups become per-row error entries rather than aborting
the run.
"""

import csv
import io
import math
import time

from .errors import DEFAULT_BUDGET, BudgetError
from .digraph import underlying_graph
from .leaf_pipeline import reduce_lob, solve_lob
from .internal_pipeline import solve_iob
from .ballcover import solve_kpath_ballcover
from .generators import GeneratorSpec, generate
from .treewidth import treewidth_upper_bound

ANALYZE_FIELDS = (
    "root", "k", "outcome", "contractions", "alpha", "beta",
    "multi_cut", "single_cut", "k_effective", "s_size",
    "tw_input", "tw_reduced", "tw_residual", "ratio",
)


def solve(problem, digraph, k, root=None, b=None, budget=None, witness=True):
    """Run the solver for problem "lob", "iob" or "kpath" and return its result.

    lob and iob take root (None scans every root) and witness; kpath
    takes b and always returns its path. iob and kpath take budget, and
    None means DEFAULT_BUDGET. Arguments the problem does not take are
    ignored.
    """
    if problem == "lob":
        return solve_lob(digraph, k, root=root, witness=witness)
    if budget is None:
        budget = DEFAULT_BUDGET
    if problem == "iob":
        return solve_iob(digraph, k, root=root, budget=budget, witness=witness)
    if problem == "kpath":
        return solve_kpath_ballcover(digraph, k, b, budget)
    raise ValueError(f"unknown problem {problem!r}")


def analyze(digraph, root, k):
    """Structural report for one rooted instance.

    Raises ValueError for a root outside the digraph or k < 1.  A root
    that does not reach every vertex gives outcome "disconnected".
    """
    if root not in digraph.vertices:
        raise ValueError(f"root {root} not in digraph")
    report = {name: None for name in ANALYZE_FIELDS}
    report["root"] = root
    report["k"] = k
    report["tw_input"] = treewidth_upper_bound(underlying_graph(digraph))
    outcome = reduce_lob(digraph, root, k)
    sr = outcome.report
    if sr.outcome == "disconnected":
        report["outcome"] = "disconnected"
        return report
    report["contractions"] = sr.contractions
    report["multi_cut"] = sr.multi_cut_count
    report["single_cut"] = sr.single_cut_count
    report["k_effective"] = sr.k_effective
    report["alpha"] = sr.alpha
    report["beta"] = sr.beta
    if sr.outcome == "guaranteed":
        report["outcome"] = f"guaranteed_yes:{sr.reason}"
        return report
    report["outcome"] = "reduced"
    s = outcome.selected
    report["s_size"] = len(s)
    reduced_ug = underlying_graph(outcome.digraph)
    report["tw_reduced"] = treewidth_upper_bound(reduced_ug)
    residue = underlying_graph(outcome.digraph.without_vertices(s))
    report["tw_residual"] = treewidth_upper_bound(residue)
    if s:
        report["ratio"] = report["tw_reduced"] / math.sqrt(len(s))
    return report


BENCH_FIELDS = (
    "instance", "family", "n", "m", "problem", "k", "root", "b",
    "answer", "outcome", "collection_size", "tw_input", "time_ms", "error",
)


def _check_entry(entry):
    """The entry's GeneratorSpec; raises ValueError for a bad entry."""
    if not isinstance(entry, dict):
        raise ValueError("not an object")
    problem = entry.get("problem")
    numbers = ("k", "b") if problem == "kpath" else ("k",)
    for key in ("spec", "problem") + numbers:
        if key not in entry:
            raise ValueError(f"missing {key!r}")
    if problem not in ("lob", "iob", "kpath"):
        raise ValueError(f"unknown problem {problem!r}")
    unused = "root" if problem == "kpath" else "b"
    if entry.get(unused) is not None:
        raise ValueError(f"{unused!r} does not apply to problem {problem!r}")
    if entry.get("root") is not None:
        numbers += ("root",)
    for key in numbers:
        if isinstance(entry[key], bool) or not isinstance(entry[key], int):
            raise ValueError(f"{key!r} must be an integer, got {entry[key]!r}")
    if entry["k"] < 1:
        raise ValueError(f"'k' must be >= 1, got {entry['k']}")
    spec = entry["spec"]
    if not isinstance(spec, GeneratorSpec):
        if not isinstance(spec, dict):
            raise ValueError("'spec' is not an object")
        try:
            spec = GeneratorSpec(**spec)
        except TypeError as exc:
            raise ValueError(f"bad 'spec': {exc}") from None
    # generate numbers the vertices 0..n-1
    n = spec.rows * spec.cols if spec.family == "grid" else spec.n
    root = entry.get("root")
    if root is not None and not 0 <= root < n:
        raise ValueError(f"root {root} not in the generated digraph's vertices 0..{n - 1}")
    if problem == "kpath" and not 1 <= entry["b"] <= n:
        raise ValueError(f"'b' must be in 1..{n}, got {entry['b']}")
    return spec


def bench(suite, budget=None):
    """Run the suite and return result rows, one per suite entry.

    Each entry is a dict: {"spec": GeneratorSpec or kwargs dict,
    "problem": "lob"|"iob"|"kpath", "k": int, "root": int (lob and iob
    only), "b": int (kpath only)}; a root may also be absent or None. An
    entry that lacks a key, names an unknown problem, has a root with
    kpath or a b with lob or iob, has a non-integer k, b or root, a k
    below 1, a b outside 1..n or a root outside the generated digraph, or
    a spec GeneratorSpec rejects raises
    ValueError("suite entry <i>: ...") before anything runs.
    A suite that is not a list raises ValueError too. Budget failures
    land in the row's error column and the run keeps going.
    """
    if not isinstance(suite, list):
        raise ValueError(f"suite must be a list of entries, got {type(suite).__name__}")
    specs = []
    for index, entry in enumerate(suite):
        try:
            specs.append(_check_entry(entry))
        except ValueError as exc:
            raise ValueError(f"suite entry {index}: {exc}") from None
    rows = []
    for index, (entry, spec) in enumerate(zip(suite, specs)):
        digraph = generate(spec)
        problem = entry["problem"]
        k = entry["k"]
        root = entry.get("root")
        row = {name: None for name in BENCH_FIELDS}
        row.update({
            "instance": index,
            "family": spec.family,
            "n": digraph.n,
            "m": digraph.m,
            "problem": problem,
            "k": k,
            "root": root,
            "b": entry.get("b"),
            "tw_input": treewidth_upper_bound(underlying_graph(digraph)),
        })
        start = time.perf_counter()
        try:
            res = solve(problem, digraph, k, root=root, b=entry.get("b"),
                        budget=budget, witness=False)
            row["answer"] = res.satisfiable
            if problem == "kpath":
                row["outcome"] = "hit" if res.satisfiable else "exhausted"
            elif problem == "lob" and res.reports:
                row["outcome"] = res.reports[-1].outcome
            elif res.reports:
                row["outcome"] = res.reports[-1]["outcome"]
                row["collection_size"] = res.reports[-1]["collection_size"]
        except BudgetError as exc:
            row["error"] = str(exc)
        row["time_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
        rows.append(row)
    return rows


def rows_to_csv(rows, fields=BENCH_FIELDS):
    """Render result rows as CSV text with a fixed header."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(fields))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return out.getvalue()
