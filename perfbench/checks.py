"""The benchmark's correctness gate, written without the package's own
validators: a witness is re-checked from the instance's arc list alone.

check_query() returns a list of problems (empty when every answer is
right). A query fails when it raised, when an answer differs from the
expected one, when a "yes" lacks a witness it should carry, or when the
witness does not prove the answer.
"""

import types


def tree_problems(n, arcs, root, tree, k, count):
    """Problems with ``tree`` as a spanning out-tree of the instance,
    rooted at ``root``, with at least k leaves (count="leaves") or at
    least k internal vertices (count="internal")."""
    if tree.root != root:
        return [f"witness rooted at {tree.root}, expected {root}"]
    parents = dict(tree.parents)
    if root in parents:
        return ["the root has a parent"]
    if set(parents) | {root} != set(range(n)):
        return ["witness does not span the instance"]
    for child, parent in parents.items():
        if (parent, child) not in arcs:
            return [f"witness arc ({parent}, {child}) is not an instance arc"]
    for v in parents:
        seen = {v}
        x = v
        while x != root:
            x = parents[x]
            if x in seen:
                return [f"witness has a cycle through {x}"]
            seen.add(x)
    internal = len(set(parents.values()))
    achieved = n - internal if count == "leaves" else internal
    if achieved < k:
        return [f"witness has {achieved} {count}, needs {k}"]
    return []


def path_problems(arcs, path, k):
    """Problems with ``path`` as a simple directed path of >= k arcs."""
    if len(set(path)) != len(path):
        return ["witness path repeats a vertex"]
    for u, v in zip(path, path[1:]):
        if (u, v) not in arcs:
            return [f"witness step ({u}, {v}) is not an instance arc"]
    if len(path) - 1 < k:
        return [f"witness path has {len(path) - 1} arcs, needs {k}"]
    return []


ANALYZE_OUTCOMES = ("reduced", "guaranteed_yes:multi_cut_count",
                    "guaranteed_yes:high_indegree_count",
                    "guaranteed_yes:nice_vertex_count")


def check_call(query, call, result, stored=None):
    """Problems with one solver result for one call of a query. ``stored``
    is the stored answer (or analyze outcome) on the default seed, or
    None."""
    cmd = query["cmd"]
    if cmd == "analyze":
        problems = []
        outcome = result["outcome"]
        if outcome not in ANALYZE_OUTCOMES:
            problems.append(f"analyze outcome {outcome!r}")
        # the underlying graph of every grid instance is the full grid,
        # whose treewidth is the shorter side: no valid bound is lower
        low = min(query["size"]) if query["family"] == "grid" else 1
        if not isinstance(result["tw_input"], int) or result["tw_input"] < low:
            problems.append(f"tw_input {result['tw_input']!r} is below {low}")
        if stored is not None and outcome != stored:
            problems.append(f"analyze outcome {outcome!r}, stored {stored!r}")
        return problems
    if result.satisfiable != call["expect"]:
        return [f"k={call['k']}: answer {result.satisfiable}, expected "
                f"{call['expect']}"]
    if stored is not None and result.satisfiable != stored:
        return [f"k={call['k']}: answer {result.satisfiable}, stored {stored}"]
    if not result.satisfiable:
        return []
    k = call["k"]
    if cmd == "kpath":
        if result.witness is None:
            return [f"k={k}: yes without a witness path"]
        return path_problems(query["arcs"], list(result.witness), k)
    if result.witness is None:
        # lob may decide by counting alone; that report states the reason
        if cmd == "lob" and result.reports[-1].outcome == "guaranteed":
            return []
        return [f"k={k}: {cmd} yes without a witness tree"]
    count = "leaves" if cmd == "lob" else "internal"
    return tree_problems(query["n"], query["arcs"], query["root"],
                         result.witness, k, count)


def check_query(query, results, stored=None):
    """Problems with the results of all of a query's calls."""
    if isinstance(results, Exception):
        return [f"raised {results!r}"]
    problems = []
    for i, (call, result) in enumerate(zip(query["calls"], results)):
        problems.extend(check_call(query, call, result,
                                   None if stored is None else stored[i]))
    return problems


def answer_of(query, result):
    """What the stored default-seed record keeps for one call."""
    if query["cmd"] == "analyze":
        return result["outcome"]
    return result.satisfiable


def has_witness(result):
    return result.satisfiable and result.witness is not None


def corrupted(query, call, result):
    """Copies of a passing result with the answer flipped and, for a yes
    with a witness, with the witness broken; the gate must reject both."""
    reports = getattr(result, "reports", None)
    out = [("flipped answer", types.SimpleNamespace(
        satisfiable=not result.satisfiable, witness=result.witness,
        reports=reports))]
    if result.witness is None:
        return out
    if query["cmd"] == "kpath":
        bad = list(result.witness)[:call["k"]]  # one arc short
    else:
        parents = dict(result.witness.parents)
        child = min(parents)
        parents[child] = child
        bad = types.SimpleNamespace(root=result.witness.root, parents=parents)
    out.append(("corrupted witness", types.SimpleNamespace(
        satisfiable=result.satisfiable, witness=bad, reports=reports)))
    return out


def self_check(query, results):
    """Problems with the gate itself: every corruption of each passing
    result of the query must be caught."""
    missed = []
    for call, result in zip(query["calls"], results):
        for what, fake in corrupted(query, call, result):
            if not check_call(query, call, fake):
                missed.append(f"gate missed a {what} on query {query['id']} "
                              f"k={call['k']}")
    return missed
