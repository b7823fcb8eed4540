"""Closed-loop benchmark of the outbranching solvers.

    python3 perfbench/run.py --workload dp-grid --seed 0 --seconds 32 --trace 0

Run from the repository root. One client sends one query at a time, in
this one process: each query is instance text that goes through
``parse_instance`` and then ``solve_lob``, ``solve_iob``,
``solve_kpath_ballcover`` or ``analyze``. The client runs the workload's
query list in order, and from the top again while ``--seconds`` last;
each query's time is its median over its runs. Every answer is checked
(perfbench/checks.py) outside the timed region.

With ``--trace 0`` the last line is a JSON object with the end-to-end
metrics. With ``--trace 1`` the run is made of whole passes over the list
instead, while another pass fits in ``--seconds``, and every query also
runs traced, next to its untraced run; the JSON holds the per-layer
metrics (perfbench/layertrace.py) and the spans are written to
perfbench/out/. Human-readable lines come
first. The exit code is 0 only when every answer and the gate's
self-check passed.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
COMMANDS = ("lob", "iob", "kpath", "analyze")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import workloads  # noqa: E402

IMPORT_PROBE = ("import time, numpy; t = time.perf_counter(); "
                "import outbranching; print(time.perf_counter() - t)")

# Machine-speed calibration. On a 2-vCPU VM (Intel Xeon, 2.1 GHz),
# identical passes took from 8.8 s to 13.4 s within three minutes, while
# a short pure-Python kernel timed between the queries slowed down in
# step: pass time varied by 14% (coefficient of variation), pass time
# over kernel time by 2%. The speed also moves within a pass, so each
# query is scaled by the rounds taken within LOCAL_WINDOW queries of it:
# over four passes of one dp-grid seed, a query's time varied by 12%
# with one factor per pass and by 9% with these local factors. Reported
# times are scaled to the speed at which one kernel round takes
# CALIBRATION_REFERENCE_S; the raw wall times are printed next to them.
CALIBRATION_REFERENCE_S = 0.00075
LOCAL_WINDOW = 4
_CAL_GRAPH = {v: frozenset({(7 * v + 1) % 200, (13 * v + 5) % 200,
                            (v + 1) % 200}) for v in range(200)}


def calibration_round():
    """Seconds for a fixed graph-search kernel with the same kind of set
    and dict work as the solvers."""
    start = time.perf_counter()
    for r in range(6):
        seen = {r}
        stack = [r]
        while stack:
            for y in _CAL_GRAPH[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        frozen = frozenset(seen)
        degrees = {(v, r): len(_CAL_GRAPH[v] & frozen) for v in frozen}
    return time.perf_counter() - start


def speed_factor(rounds):
    """Reference round time over the mean of measured rounds."""
    return CALIBRATION_REFERENCE_S / statistics.fmean(rounds)


def local_factors(rounds):
    """Speed factor of each query of a pass. ``rounds[i]`` was taken
    right before query i, and the last round after the last query."""
    w = LOCAL_WINDOW
    return [speed_factor(rounds[max(0, i - w):i + w + 2])
            for i in range(len(rounds) - 1)]


def load_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "outbranching", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no package source at {init}")
    sys.path.insert(0, SRC)
    import outbranching
    if os.path.realpath(outbranching.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: imported {outbranching.__file__}, "
                         f"expected {init}")
    return outbranching


def fresh_import_seconds():
    """Wall time of importing the package in a fresh interpreter that has
    already imported numpy, the package's one third-party dependency.
    numpy's own import was 150 of 190 ms and, on the VM described above,
    swung from 0.12 s to 0.25 s between runs a minute apart, out of step
    with the calibration kernel. The rest is the package's own import,
    which a change to the package can move. It is not speed-scaled: over
    25 imports its scaled time varied more than its raw time (20% against
    16%, coefficient of variation)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def setup(ob, workload, seed):
    """Build the query list SETUP_REPEATS times; each repeat also imports
    the package in a fresh interpreter. Returns the queries and the
    median repeat time: the import's wall time plus the build's
    speed-scaled time."""

    def longest_path(n, arcs):
        return ob.brute_longest_path(ob.Digraph.of(n, arcs))[0]

    times = []
    texts = None
    for _ in range(SETUP_REPEATS):
        imported = fresh_import_seconds()
        rounds = [calibration_round() for _ in range(10)]
        start = time.perf_counter()
        queries = workloads.build_queries(workload, seed, longest_path)
        built = time.perf_counter() - start
        rounds += [calibration_round() for _ in range(10)]
        times.append(imported + built * speed_factor(rounds))
        again = [q["text"] for q in queries]
        if texts is not None and again != texts:
            raise SystemExit("error: the same seed built different instances")
        texts = again
    return queries, statistics.median(times)


def solve(ob, query):
    """Parse the instance text and make the query's calls; timed by the
    caller. Returns one result per call."""
    digraph, root = ob.parse_instance(query["text"])
    results = []
    for call in query["calls"]:
        k = call["k"]
        if query["cmd"] == "lob":
            results.append(ob.solve_lob(digraph, k, root=root))
        elif query["cmd"] == "iob":
            results.append(ob.solve_iob(digraph, k, root=root))
        elif query["cmd"] == "kpath":
            results.append(ob.solve_kpath_ballcover(digraph, k, query["b"]))
        else:
            results.append(ob.analyze(digraph, root, k))
    return results


def timed(ob, query, tracer=None):
    """(seconds, results) of one query; the results are the exception
    when a call raised."""
    start = time.perf_counter()
    try:
        if tracer is None:
            results = solve(ob, query)
        else:
            with tracer.query(query["id"]):
                results = solve(ob, query)
    except Exception as exc:  # a failed query is counted, not fatal
        results = exc
    return time.perf_counter() - start, results


def traced_timed(ob, query, tracer):
    tracer.install()
    try:
        return timed(ob, query, tracer)
    finally:
        tracer.uninstall()


def run_pass(ob, queries, tracer=None):
    """One pass over the query list. With a tracer every query also runs
    traced, right before or after its untraced run (the order alternates),
    so both see the same machine speed. A calibration round before each
    query and after the last one give every query its local speed factor
    and the pass its overall one. "times" and "traced_times" are scaled by
    the local factors, the traced pass totals by the overall one;
    "wall_times" are not scaled."""
    times, results, traced_times, traced_results = [], [], [], []
    rounds = []
    if tracer is not None:
        tracer.reset()
    for i, query in enumerate(queries):
        rounds.append(calibration_round())
        if tracer is not None and i % 2:
            traced = traced_timed(ob, query, tracer)
        seconds, result = timed(ob, query)
        times.append(seconds)
        results.append(result)
        if tracer is not None and not i % 2:
            traced = traced_timed(ob, query, tracer)
        if tracer is not None:
            traced_times.append(traced[0])
            traced_results.append(traced[1])
    rounds.append(calibration_round())
    factor = speed_factor(rounds)
    local = local_factors(rounds)
    entry = {"times": [t * f for t, f in zip(times, local)],
             "wall_times": times, "results": results, "factor": factor}
    if tracer is not None:
        stats = tracer.stats.items()
        entry.update(traced_times=[t * f for t, f in zip(traced_times, local)],
                     traced_results=traced_results,
                     traced_total=sum(traced_times) * factor,
                     seconds={name: t * factor
                              for name, t in tracer.seconds.items()},
                     calls=dict(tracer.calls), spans=tracer.spans,
                     stats={name: value * factor if name.endswith("_s")
                            else value for name, value in stats})
    return entry


def check_results(ran, expected):
    """Problems with every (query, results) pair that ran, and the number
    of pairs that failed."""
    problems = []
    failed = 0
    for query, result in ran:
        stored = expected[str(query["id"])] if expected else None
        found = checks.check_query(query, result, stored)
        failed += bool(found)
        problems.extend((query["id"], problem) for problem in found)
    return problems, failed


def gate_self_check(queries, results):
    """The gate must catch a flipped answer and a corrupted witness: try
    both on the first query of each command whose results carry
    witnesses."""
    missed = []
    done = set()
    for query, result in zip(queries, results):
        if query["cmd"] in done or query["cmd"] == "analyze" \
                or isinstance(result, Exception) \
                or not any(checks.has_witness(r) for r in result):
            continue
        done.add(query["cmd"])
        missed.extend(checks.self_check(query, result))
    return missed


def load_expected(workload, seed):
    """Stored answers for the default seed: per query id, one answer (or
    analyze outcome) per call."""
    path = os.path.join(HERE, "expected", f"{workload}.json")
    with open(path, encoding="utf-8") as handle:
        stored = json.load(handle)
    if stored["seed"] != seed:
        return None, None
    return stored["queries"], stored["digest"]


def digest(queries):
    text = "".join(q["text"] + str([c["k"] for c in q["calls"]])
                   for q in queries)
    return hashlib.sha256(text.encode()).hexdigest()


def tail(values):
    """The highest order statistic with at least ten values above it,
    with its percentile; None with fewer than eleven values."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None, None
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def result_counts(queries, results):
    """Counters read from the solvers' returned reports."""
    c = {"lob": 0, "guaranteed": 0, "contractions": 0, "collection_size": 0,
         "evaluated": 0, "iob_cache_hits": 0, "subsets": 0, "dp_runs": 0,
         "kpath_cache_hits": 0, "yes": 0, "witnessed": 0}
    for query, result in ((q, r) for q, rs in zip(queries, results)
                          if not isinstance(rs, Exception) for r in rs):
        if query["cmd"] == "analyze":
            continue
        if result.satisfiable:
            c["yes"] += 1
            c["witnessed"] += checks.has_witness(result)
        if query["cmd"] == "lob":
            c["lob"] += 1
            c["guaranteed"] += result.reports[-1].outcome == "guaranteed"
            c["contractions"] += sum(r.contractions for r in result.reports
                                     if r.contractions)
        elif query["cmd"] == "iob":
            for report in result.reports:
                c["collection_size"] += report["collection_size"]
                c["evaluated"] += report["evaluated"]
                c["iob_cache_hits"] += report["cache_hits"]
        else:
            c["subsets"] += result.stats["subsets"]
            c["dp_runs"] += result.stats["dp_runs"]
            c["kpath_cache_hits"] += result.stats["cache_hits"]
    return c


def ratio(num, den):
    return num / den if den else 0.0


def closed_loop(ob, queries, seconds):
    """The untraced run: the query list in order, from the top again while
    ``seconds`` last, and at least once through. Returns each query's
    speed-scaled times and wall times, the (query, results) pairs in the
    order they ran, and the overall speed factor."""
    rounds = [calibration_round()]
    ran = []
    start = time.perf_counter()
    while len(ran) < len(queries) or time.perf_counter() - start < seconds:
        query = queries[len(ran) % len(queries)]
        ran.append((query, timed(ob, query)))
        rounds.append(calibration_round())
    times = [[] for _ in queries]
    wall_times = [[] for _ in queries]
    factors = local_factors(rounds)
    for i, (_, (wall, _)) in enumerate(ran):
        times[i % len(queries)].append(wall * factors[i])
        wall_times[i % len(queries)].append(wall)
    return (times, wall_times, [(query, result) for query, (_, result) in ran],
            speed_factor(rounds))


def traced_passes(ob, queries, seconds, tracer):
    """Passes over the query list while another pass fits in ``seconds``;
    at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_pass(ob, queries, tracer))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return passes


def median_pass(passes):
    ordered = sorted(passes, key=lambda p: p["traced_total"])
    return ordered[(len(ordered) - 1) // 2]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def query_medians(samples):
    """Each query's median time over its runs. The machine's speed drifts
    by several percent within seconds; a per-query median drops the
    samples a slow spell hit."""
    return [statistics.median(times) for times in samples]


def pass_samples(passes, key="times"):
    """Per query, its times over the passes."""
    return list(zip(*(p[key] for p in passes)))


def end_to_end(samples, setup_s):
    per_query = query_medians(samples)
    tail_s, tail_pct = tail(per_query)
    metrics = {
        "solve_s": sum(per_query),
        "query_p50_s": statistics.median(per_query),
        "query_tail_s": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {"query_tail_s": f"p{tail_pct:.0f} of {len(per_query)} queries"}
    return metrics, notes


def command_split(queries, samples):
    """Summed per-query median time of each command's queries, for the
    commands the workload issues."""
    sums = {}
    for query, seconds in zip(queries, query_medians(samples)):
        name = f"{query['cmd']}_s"
        sums[name] = sums.get(name, 0.0) + seconds
    return sums


def per_layer(queries, passes):
    """Layer metrics from the pass with the median traced time; command
    split and the overhead's base from the untraced runs."""
    import layertrace
    pick = median_pass(passes)
    sec, calls, stats = pick["seconds"], pick["calls"], pick["stats"]
    counts = result_counts(queries, pick["traced_results"])
    untraced_s = sum(query_medians(pass_samples(passes)))
    traced_s = sum(query_medians(pass_samples(passes, "traced_times")))
    m = {
        "digraph.parse_s": sec.get("digraph.parse_s", 0.0),
        "digraph.contract_s": sec.get("digraph.contract_s", 0.0),
        "digraph.induced_s": sec.get("digraph.induced_s", 0.0),
        "digraph.induced_calls": calls.get("Digraph.induced", 0),
        "connectivity.reachable_calls": calls.get("reachable", 0),
        "connectivity.reachable_s": sec.get("connectivity.reachable_s", 0.0),
        "connectivity.strand_s": sec.get("connectivity.strand_s", 0.0),
        "connectivity.cut_s": sec.get("connectivity.cut_s", 0.0),
        "connectivity.twoconn_s": sec.get("connectivity.twoconn_s", 0.0),
        "treewidth.decomp_calls": calls.get("greedy_decomposition", 0),
        "treewidth.decomp_s": sec.get("treewidth.decomp_s", 0.0),
        "treewidth.width_max": stats.get("treewidth.width_max", 0),
        "treewidth.wasted_s": stats.get("treewidth.wasted_s", 0.0),
        "treewidth.nice_s": sec.get("treewidth.nice_s", 0.0),
        "treewidth.nice_nodes": stats.get("treewidth.nice_nodes", 0),
        "treewidth.bound_s": sec.get("treewidth.bound_s", 0.0),
        "treedp.leaves_s": sec.get("treedp.leaves_s", 0.0),
        "treedp.internal_s": sec.get("treedp.internal_s", 0.0),
        "treedp.path_s": sec.get("treedp.path_s", 0.0),
        "treedp.calls": sum(calls.get(name, 0) for name in
                            ("dp_max_leaves", "dp_max_internal_outtree",
                             "dp_longest_path")),
        "treedp.input_n_max": stats.get("treedp.input_n_max", 0),
        "leaf_pipeline.solve_s": sec.get("leaf_pipeline.solve_s", 0.0),
        "leaf_pipeline.reduce_s": sec.get("leaf_pipeline.reduce_s", 0.0),
        "leaf_pipeline.contractions": counts["contractions"],
        "leaf_pipeline.guaranteed_ratio": ratio(counts["guaranteed"],
                                                counts["lob"]),
        "leaf_pipeline.expand_s": sec.get("leaf_pipeline.expand_s", 0.0),
        "internal_pipeline.solve_s": sec.get("internal_pipeline.solve_s", 0.0),
        "internal_pipeline.collection_size": counts["collection_size"],
        "internal_pipeline.evaluated": counts["evaluated"],
        "internal_pipeline.cache_hits": counts["iob_cache_hits"],
        "internal_pipeline.enum_s": sec.get("internal_pipeline.enum_s", 0.0),
        "internal_pipeline.expand_s": sec.get("internal_pipeline.expand_s",
                                              0.0),
        "ballcover.subsets": counts["subsets"],
        "ballcover.dp_runs": counts["dp_runs"],
        "ballcover.cache_hits": counts["kpath_cache_hits"],
        "ballcover.dp_ratio": ratio(counts["dp_runs"], counts["subsets"]),
        "ballcover.ball_s": sec.get("ballcover.ball_s", 0.0),
        "ballcover.self_s": sec.get("ballcover.self_s", 0.0),
        "analysis.self_s": sec.get("analysis.self_s", 0.0),
        "trace.bookkeeping_s": sec.get("trace.bookkeeping_s", 0.0),
        "trace.solve_s": pick["traced_total"],
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "witness_frac": ratio(counts["witnessed"], counts["yes"]),
    }
    split = command_split(queries, pass_samples(passes))
    for cmd in COMMANDS:
        m[f"cmd.{cmd}_s"] = split.get(f"{cmd}_s", 0.0)
    # what no wrapped function took: the harness's share of each query
    attributed = sum(sec.get(bucket, 0.0) for bucket in layertrace.BUCKETS
                     if bucket != layertrace.QUERY_BUCKET)
    m["trace.unattributed_s"] = pick["traced_total"] - attributed
    return m, pick, attributed


def metric_units(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith("width_max"):
        return "width"
    if name.endswith("input_n_max"):
        return "vertices"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ob = load_package()
    queries, setup_s = setup(ob, args.workload, args.seed)
    expected, stored_digest = load_expected(args.workload, args.seed)
    problems = []
    if stored_digest is not None and stored_digest != digest(queries):
        problems.append((None, "instances differ from the stored default-seed "
                         "instances"))

    if args.trace:
        import layertrace
        passes = traced_passes(ob, queries, args.seconds,
                               layertrace.Tracer(ob))
        ran = [pair for entry in passes
               for key in ("results", "traced_results")
               for pair in zip(queries, entry[key])]
        runs = f"{len(passes)} passes"
    else:
        samples, wall_samples, ran, factor = closed_loop(ob, queries,
                                                         args.seconds)
        runs = f"{len(ran)} query runs"
    first = [result for _, result in ran[:len(queries)]]
    found, failed = check_results(ran, expected)
    problems.extend(found)
    problems.extend((None, text) for text in gate_self_check(queries, first))
    attempted = len(ran)

    print(f"workload {args.workload} seed {args.seed}: {len(queries)} "
          f"queries, {runs}, one client, closed loop")
    if args.trace:
        metrics, pick, attributed = per_layer(queries, passes)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        span_file = os.path.join(out_dir, f"spans-{args.workload}-"
                                 f"{args.seed}.jsonl")
        layertrace.write_spans(span_file, pick["spans"],
                               {"workload": args.workload, "seed": args.seed,
                                "solve_s": pick["traced_total"]})
        print(f"spans: {len(pick['spans'])} written to "
              f"{os.path.relpath(span_file, ROOT)}")
        print(f"layer self times {attributed:.4f} s + unattributed "
              f"{metrics['trace.unattributed_s']:.4f} s = traced solve_s "
              f"{pick['traced_total']:.4f} s")
    else:
        metrics, notes = end_to_end(samples, setup_s)
        for name, value in command_split(queries, samples).items():
            print(f"{name:>16} {value:.4f} s")
        for name, note in notes.items():
            print(f"{name:>16} is {note}")
        print(f"{'solve_wall_s':>16} "
              f"{sum(query_medians(wall_samples)):.4f} s unscaled; "
              f"speed factor {factor:.3f}")
        counts = result_counts(queries, first)
        print(f"{'witness_frac':>16} "
              f"{ratio(counts['witnessed'], counts['yes']):.6g} "
              f"({counts['witnessed']}/{counts['yes']} yes answers)")
    json_metrics = {name: {"value": value, "unit": metric_units(name)}
                    for name, value in metrics.items()}
    for name, entry in json_metrics.items():
        print(f"{name:>36} {entry['value']:.6g} {entry['unit']}")
    print(f"{'fail_frac':>36} {ratio(failed, attempted):.6g} "
          f"({failed}/{attempted})")
    for qid, text in problems[:20]:
        print(f"FAIL query {qid}: {text}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": json_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
