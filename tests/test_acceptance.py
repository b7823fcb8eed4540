"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines;
each line carries the measured scope and elapsed time. Every criterion
asserts its stated tolerance and stays inside its runtime budget.
"""

import math
import time

from outbranching import (
    brute_max_internal,
    brute_max_leaves,
    brute_longest_path,
    is_rooted_2connected,
    reachable,
    underlying_graph,
    validate_decomposition,
)
from outbranching.ballcover import solve_kpath_ballcover
from outbranching.connectivity import cut_profile
from outbranching.generators import GeneratorSpec, generate, grid_spec
from outbranching.internal_pipeline import (
    build_partitions,
    ceil_sqrt,
    generate_collection,
    solve_iob,
    witness_size_cap,
)
from outbranching.leaf_pipeline import (
    bfs_branching,
    contract_pendant_arcs,
    duplicate_multi_cut,
    exhaust_stranding_contractions,
    reduce_lob,
    solve_lob,
)
from outbranching.analysis import analyze
from outbranching.treewidth import (
    exact_treewidth_small,
    greedy_decomposition,
    make_nice,
    treewidth_upper_bound,
)
from helpers import enum_out_trees, four_vertex_orientations, random_corpus


def _verdict(num, ok, elapsed, budget, detail):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num}] {status} ({elapsed:.1f}s / budget {budget}s): "
          f"{detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def _lob_iob_corpus():
    corpus = []
    corpus.extend(random_corpus(200, seed=101, n_lo=3, n_hi=7, density=1.4))
    corpus.extend(random_corpus(200, seed=102, n_lo=3, n_hi=7, density=2.0))
    corpus.extend(random_corpus(100, seed=103, n_lo=3, n_hi=7, density=2.6))
    corpus.extend(four_vertex_orientations())
    return corpus


def test_criterion_1_lob_oracle_equivalence():
    start = time.perf_counter()
    corpus = _lob_iob_corpus()
    assert len(corpus) >= 500 + 112
    mismatches = []
    pairs = 0
    for d in corpus:
        per_root = (brute_max_leaves(d, r) for r in sorted(d.vertices))
        known = [b for b in per_root if b is not None]
        best = max(known) if known else None
        for k in range(1, d.n + 1):
            got = solve_lob(d, k, witness=False).satisfiable
            want = best is not None and best >= k
            pairs += 1
            if got != want:
                mismatches.append((d.arcs, k, want, got))
    _verdict(1, not mismatches, time.perf_counter() - start, 120,
             f"{len(corpus)} digraphs, {pairs} (instance, k) pairs, "
             f"{len(mismatches)} mismatches")


def test_criterion_2_iob_oracle_equivalence():
    start = time.perf_counter()
    corpus = _lob_iob_corpus()
    mismatches = []
    pairs = 0
    for d in corpus:
        per_root = (brute_max_internal(d, r) for r in sorted(d.vertices))
        known = [b for b in per_root if b is not None]
        best = max(known) if known else None
        for k in range(1, d.n + 1):
            got = solve_iob(d, k, witness=False).satisfiable
            want = best is not None and best >= k
            pairs += 1
            if got != want:
                mismatches.append((d.arcs, k, want, got))
    _verdict(2, not mismatches, time.perf_counter() - start, 300,
             f"{len(corpus)} digraphs, {pairs} (instance, k) pairs, "
             f"{len(mismatches)} mismatches")


def test_criterion_3_kpath_oracle_equivalence():
    start = time.perf_counter()
    corpus = []
    corpus.extend(random_corpus(60, seed=301, n_lo=3, n_hi=10, density=1.6))
    corpus.extend(random_corpus(40, seed=302, n_lo=4, n_hi=10, density=2.2))
    mismatches = []
    triples = 0
    for d in corpus:
        want, _ = brute_longest_path(d)
        for k in range(1, 7):
            for b in (1, 2, 3):
                if b > d.n:
                    continue
                got = solve_kpath_ballcover(d, k, b).satisfiable
                triples += 1
                if got != (want >= k):
                    mismatches.append((d.arcs, k, b))
    _verdict(3, not mismatches, time.perf_counter() - start, 120,
             f"{len(corpus)} digraphs, {triples} (instance, k, b) triples, "
             f"{len(mismatches)} mismatches")


def test_criterion_4_reduction_bounds_on_grids():
    start = time.perf_counter()
    reduced_count = 0
    skipped = 0
    violations = []
    for side in range(2, 8):
        for p2 in (0.0, 0.35, 0.7, 1.0):
            for seed in (0, 1):
                d = generate(grid_spec(side, seed=seed, p2=p2))
                for k in range(1, 6):
                    outcome = reduce_lob(d, 0, k)
                    if outcome.report.outcome == "disconnected":
                        skipped += 1
                        continue
                    if outcome.report.outcome != "reduced":
                        continue
                    reduced_count += 1
                    s = outcome.selected
                    residue = underlying_graph(
                        outcome.digraph.without_vertices(s))
                    width = treewidth_upper_bound(residue)
                    if len(s) > 120 * k or width > 3:
                        violations.append((side, p2, seed, k, len(s), width))
    ok = not violations and reduced_count >= 30
    _verdict(4, ok, time.perf_counter() - start, 120,
             f"{reduced_count} reduced outcomes checked "
             f"(|S| <= 120k and residual width <= 3), "
             f"{skipped} disconnected roots skipped, "
             f"{len(violations)} violations")


def test_criterion_5_claim_properties():
    start = time.perf_counter()
    contraction_ok = 0
    duplication_ok = 0
    forcing_ok = 0
    squeeze_ok = 0
    failures = []
    block = 0
    densities = (1.2, 1.4, 1.6)
    while (min(contraction_ok, duplication_ok, forcing_ok, squeeze_ok) < 100
           and block < 40):
        corpus = random_corpus(200, seed=500 + block, n_lo=4, n_hi=7,
                               density=densities[block % 3])
        block += 1
        for d in corpus:
            for r in sorted(d.vertices):
                if reachable(d, r) != d.vertices:
                    continue
                d1, steps = exhaust_stranding_contractions(d, r)
                if steps and contraction_ok < 120:
                    if brute_max_leaves(d1, r) != brute_max_leaves(d, r):
                        failures.append(("contraction", d.arcs, r))
                    else:
                        contraction_ok += 1
                profile = cut_profile(d1, r)
                if profile.multi_cut and duplication_ok < 120:
                    dup = duplicate_multi_cut(d1, profile.multi_cut)
                    want = (brute_max_leaves(d1, r)
                            + len(profile.multi_cut))
                    if brute_max_leaves(dup, r) != want:
                        failures.append(("duplication", d.arcs, r))
                    else:
                        duplication_ok += 1
                if profile.multi_cut and forcing_ok < 120:
                    forced = {(x, y) for x in profile.multi_cut
                              for y in profile.stranded[x]}
                    if not forced <= bfs_branching(d1, r).arcs():
                        failures.append(("forcing", d.arcs, r))
                    else:
                        forcing_ok += 1
                if squeeze_ok < 120:
                    dup = duplicate_multi_cut(d1, profile.multi_cut)
                    squeezed = contract_pendant_arcs(
                        dup, profile.pendant_arcs)
                    if not is_rooted_2connected(squeezed, r):
                        failures.append(("squeeze", d.arcs, r))
                    else:
                        squeeze_ok += 1
    counts = (contraction_ok, duplication_ok, forcing_ok, squeeze_ok)
    ok = not failures and all(c >= 100 for c in counts)
    _verdict(5, ok, time.perf_counter() - start, 180,
             f"applicable instances per property "
             f"(contract/dup/force/2conn) = {counts}, "
             f"{len(failures)} failures")


def test_criterion_6_layered_covering():
    start = time.perf_counter()
    covered = 0
    single = 0
    missed = []
    bound_reached = False
    shapes = ((3, 4), (2, 6), (3, 3), (2, 5))
    for rows, cols in shapes:
        for p2 in (1.0, 0.6):
            for seed in (0, 1):
                spec = GeneratorSpec("grid", rows=rows, cols=cols,
                                     seed=seed, p2=p2)
                d = generate(spec)
                if reachable(d, 0) != d.vertices:
                    continue
                for k in (2, 3):
                    witness = None
                    for t in enum_out_trees(d, 0, witness_size_cap(k)):
                        if len(t.internal_vertices()) >= k:
                            witness = t
                            break
                    if witness is None:
                        continue
                    parts = build_partitions(underlying_graph(d), 0, k)
                    if not parts:
                        single += 1
                        continue
                    assert len(parts) == ceil_sqrt(k) + 1
                    zcap = ceil_sqrt(4 * k)
                    hit = False
                    for _, kept, sub in generate_collection(d, 0, k, parts):
                        assert len(kept) <= zcap
                        if len(kept) == zcap:
                            bound_reached = True
                        if witness.vertex_set <= sub.vertices:
                            hit = True
                    if hit:
                        covered += 1
                    else:
                        missed.append((rows, cols, p2, seed, k))
    ok = not missed and covered >= 20 and bound_reached
    _verdict(6, ok, time.perf_counter() - start, 120,
             f"{covered} witness trees covered by some sub-instance, "
             f"{single} shallow single-instance cases, "
             f"subset bound reached: {bound_reached}, "
             f"{len(missed)} missed")


def test_criterion_7_treewidth_module():
    start = time.perf_counter()
    problems = []

    def undirected(n, edges):
        from outbranching.digraph import UndirectedGraph
        return UndirectedGraph.of(n, edges)

    tree = undirected(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    c5 = undirected(5, [(i, (i + 1) % 5) for i in range(5)])
    k4 = undirected(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    grid9 = underlying_graph(generate(grid_spec(3, p2=1.0)))
    for graph, want in ((tree, 1), (c5, 2), (k4, 3), (grid9, 3)):
        got, _ = exact_treewidth_small(graph)
        if got != want:
            problems.append(f"exact width {got} != {want}")

    corpus = []
    corpus.extend(underlying_graph(d) for d in random_corpus(
        12, seed=701, n_lo=4, n_hi=10, density=1.8))
    corpus.extend(underlying_graph(d) for d in random_corpus(
        8, seed=702, n_lo=11, n_hi=14, density=1.6))
    corpus.extend([tree, c5, k4, grid9])
    ratio_worst = 0.0
    for graph in corpus:
        exact, exact_td = exact_treewidth_small(graph)
        td = greedy_decomposition(graph)
        try:
            validate_decomposition(graph, td)
            validate_decomposition(graph, make_nice(td).as_decomposition())
        except ValueError as exc:
            problems.append(f"axioms: {exc}")
        validate_decomposition(graph, exact_td)
        fill = td.width
        if exact > 0:
            ratio_worst = max(ratio_worst, fill / exact)
        if fill > 2 * max(exact, 1):
            problems.append(f"min_fill {fill} > 2x exact {exact}")
    ok = not problems
    _verdict(7, ok, time.perf_counter() - start, 60,
             f"known widths 1/2/3/3 exact, {len(corpus)} corpus graphs "
             f"axiom-checked, worst min_fill/exact = {ratio_worst:.2f}, "
             f"{len(problems)} problems")


def test_criterion_8_scaling_trend():
    start = time.perf_counter()
    rows = []
    problems = []
    for side in range(4, 9):
        d = generate(grid_spec(side, p2=1.0))
        k = math.ceil((side * side - 4) / 6) + 1
        row = analyze(d, 0, k)
        if row["outcome"] != "reduced":
            problems.append(f"{side}x{side} at k={k}: {row['outcome']}")
            continue
        if row["s_size"] != side * side - 4:
            problems.append(f"{side}x{side} |S|={row['s_size']}, expected "
                            f"every non-corner vertex")
        rows.append((side, k, row["s_size"], row["tw_reduced"],
                     row["ratio"]))
        if row["ratio"] >= 3.0:
            problems.append(f"{side}x{side} ratio {row['ratio']:.2f} >= 3")
    for side, k, s_size, width, ratio in rows:
        print(f"    grid {side}x{side}: k={k} |S|={s_size} "
              f"tw(reduced)={width} ratio={ratio:.3f}")
    ok = not problems and len(rows) == 5
    _verdict(8, ok, time.perf_counter() - start, 120,
             "tw/sqrt(|S|) from analyze stays bounded on bidirected grids, "
             "ratios " + ", ".join(f"{r[4]:.2f}" for r in rows))
