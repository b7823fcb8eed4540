"""Command-line front end.

Subcommands: solve-lob, solve-iob, solve-kpath, verify, analyze,
generate, bench. Instances travel in the plain text format ("n m", arc
lines, optional "root r" line); results are JSON by default, CSV on
request. Exit codes: 0 success (a "no" answer is a success), 2 for
unusable input or arguments, 3 for budget failures, 4 when verify
catches a solver/oracle mismatch, 5 when the dynamic program breaks one
of its own invariants (a bug, not an answer). Every nonzero exit prints
one "error: ..." line on stderr.
"""

import argparse
import json
import sys

from .digraph import ParseError, parse_instance, serialize_instance
from .errors import BudgetError, DPInvariantError
from .oracle import brute_max_leaves, brute_max_internal, brute_longest_path
from .analysis import analyze, bench, rows_to_csv, solve
from .generators import GeneratorSpec, generate


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_instance(args):
    digraph, file_root = parse_instance(_read_input(args.input))
    flag = getattr(args, "root", None)
    return digraph, file_root if flag is None else flag


def _tree_payload(tree):
    if tree is None:
        return None
    return {"root": tree.root, "arcs": sorted(tree.arcs())}


def _write(text, path="-"):
    """Write text to the file at path, or to stdout for "-"."""
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, fmt, path="-"):
    if fmt == "csv":
        rows = payload if isinstance(payload, list) else [payload]
        fields = list(rows[0]) if rows else []
        flat = []
        for row in rows:
            flat.append({
                key: json.dumps(value, sort_keys=True)
                if isinstance(value, (dict, list)) else value
                for key, value in row.items()
            })
        _write(rows_to_csv(flat, fields), path)
    else:
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", path)


def _cmd_solve(args):
    digraph, root = _load_instance(args)
    res = solve(args.problem, digraph, args.k, root=root,
                b=getattr(args, "b", None), budget=getattr(args, "budget", None),
                witness=not getattr(args, "no_witness", False))
    payload = {"problem": args.problem, "answer": res.satisfiable, "k": args.k}
    if args.problem == "kpath":
        payload["b"] = args.b
        payload["path"] = res.witness
        payload["stats"] = {key: value for key, value in res.stats.items()
                            if key != "hit_subset"}
    else:
        payload["root"] = res.root
        payload["witness"] = _tree_payload(res.witness)
        payload["reports"] = res.reports
        if args.problem == "lob":
            payload["reports"] = [r._asdict() for r in res.reports]
    _emit(payload, args.format)
    return 0


def _oracle_answer(problem, digraph, k, root):
    if problem == "kpath":
        return brute_longest_path(digraph)[0] >= k
    brute = brute_max_leaves if problem == "lob" else brute_max_internal
    roots = [root] if root is not None else sorted(digraph.vertices)
    scores = (brute(digraph, r) for r in roots)
    return any(best is not None and best >= k for best in scores)


# verify flags that each problem's solver does not take
_VERIFY_UNUSED = {"lob": ("b", "budget"), "iob": ("b",), "kpath": ("root",)}


def _cmd_verify(args):
    digraph, root = _load_instance(args)
    for flag in _VERIFY_UNUSED[args.problem]:
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} does not apply to --problem {args.problem}")
    if args.problem == "kpath" and args.b is None:
        raise ValueError("--b is required for --problem kpath")
    solver = solve(args.problem, digraph, args.k, root=root, b=args.b,
                   budget=args.budget, witness=False).satisfiable
    oracle = _oracle_answer(args.problem, digraph, args.k, root)
    payload = {
        "problem": args.problem,
        "k": args.k,
        "root": root,
        "solver": solver,
        "oracle": oracle,
        "match": solver == oracle,
    }
    _emit(payload, args.format)
    if not payload["match"]:
        print(f"error: verify mismatch: solver={solver} oracle={oracle}",
              file=sys.stderr)
        return 4
    return 0


def _cmd_analyze(args):
    digraph, root = _load_instance(args)
    if root is None:
        root = min(digraph.vertices)
    _emit(analyze(digraph, root, args.k), args.format)
    return 0


def _cmd_generate(args):
    spec = GeneratorSpec(args.family, rows=args.rows, cols=args.cols,
                         n=args.n, m=args.m, seed=args.seed, p2=args.p2)
    _write(serialize_instance(generate(spec), root=args.root), args.output)
    return 0


def _default_suite():
    suite = []
    for side in (3, 4):
        spec = {"family": "grid", "rows": side, "cols": side,
                "seed": side, "p2": 0.7}
        suite.append({"spec": spec, "problem": "lob", "k": 3, "root": 0})
        suite.append({"spec": spec, "problem": "iob", "k": 3, "root": 0})
        suite.append({"spec": spec, "problem": "kpath", "k": 3, "b": 2})
    return suite


def _cmd_bench(args):
    if args.suite:
        with open(args.suite, "r", encoding="utf-8") as handle:
            suite = json.load(handle)
    else:
        suite = _default_suite()
    rows = bench(suite, budget=args.budget)
    if args.format == "csv":
        _write(rows_to_csv(rows), args.output)
    else:
        _emit(rows, "json", args.output)
    return 0


def _add_common(sub, *, root=True):
    sub.add_argument("--input", required=True,
                     help="instance file, or - for stdin")
    if root:
        sub.add_argument("--root", type=int, default=None,
                         help="root vertex; overrides the file's root line")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="outbranching",
        description="Solvers for leafy out-branchings, internal-heavy "
                    "out-branchings, and long directed paths.")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("solve-lob", help="many-leaf spanning out-tree")
    _add_common(sub)
    sub.add_argument("--no-witness", action="store_true")
    sub.set_defaults(func=_cmd_solve, problem="lob")

    sub = commands.add_parser("solve-iob",
                              help="many-internal spanning out-tree")
    _add_common(sub)
    sub.add_argument("--no-witness", action="store_true")
    sub.add_argument("--budget", type=int, default=None)
    sub.set_defaults(func=_cmd_solve, problem="iob")

    sub = commands.add_parser("solve-kpath", help="long directed path")
    _add_common(sub, root=False)
    sub.add_argument("--b", type=int, required=True, help="ball count")
    sub.add_argument("--budget", type=int, default=None)
    sub.set_defaults(func=_cmd_solve, problem="kpath")

    sub = commands.add_parser("verify",
                              help="cross-check a solver against the oracle")
    _add_common(sub)
    sub.add_argument("--problem", choices=("lob", "iob", "kpath"),
                     required=True)
    sub.add_argument("--b", type=int, default=None)
    sub.add_argument("--budget", type=int, default=None)
    sub.set_defaults(func=_cmd_verify)

    sub = commands.add_parser("analyze", help="structural reduction report")
    _add_common(sub)
    sub.set_defaults(func=_cmd_analyze)

    sub = commands.add_parser("generate", help="emit a corpus instance")
    sub.add_argument("--family", choices=("grid", "random-sparse"),
                     required=True)
    sub.add_argument("--rows", type=int)
    sub.add_argument("--cols", type=int)
    sub.add_argument("--n", type=int)
    sub.add_argument("--m", type=int)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--p2", type=float, default=1.0)
    sub.add_argument("--root", type=int, default=None)
    sub.add_argument("--output", default="-")
    sub.set_defaults(func=_cmd_generate)

    sub = commands.add_parser("bench", help="run a benchmark suite")
    sub.add_argument("--format", choices=("json", "csv"), default="csv")
    sub.add_argument("--suite", help="JSON suite file; omit for a sample")
    sub.add_argument("--budget", type=int, default=None)
    sub.add_argument("--output", default="-")
    sub.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: budget: {exc}", file=sys.stderr)
        return 3
    except DPInvariantError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: invalid: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
