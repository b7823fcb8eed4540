"""Deterministic instance generators for the test and benchmark corpora.

Two families. The grid family orients a rows-by-cols grid graph, so its
underlying undirected graph is planar by construction; the random-sparse
family orients a uniformly sampled simple graph with a requested edge
count. In both, each chosen edge independently becomes a 2-cycle with
probability p2, otherwise a single arc whose direction is a fair coin.
Everything is driven by one seeded generator, so a spec reproduces its
digraph exactly.
"""

import random

from .digraph import Digraph

FAMILIES = ("grid", "random-sparse")


class GeneratorSpec:
    __slots__ = ("family", "rows", "cols", "n", "m", "seed", "p2")

    def __init__(self, family, rows=None, cols=None, n=None, m=None,
                 seed=0, p2=1.0):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}, pick from {FAMILIES}")
        # None marks a size the family does not use; a bool is no integer
        sizes = {"rows": rows, "cols": cols, "n": n, "m": m, "seed": seed}
        for name, value in sizes.items():
            if type(value) is not int and (value is not None or name == "seed"):
                raise ValueError(f"{name!r} must be an integer, got {value!r}")
        if type(p2) not in (int, float):
            raise ValueError(f"'p2' must be a number, got {p2!r}")
        if not 0.0 <= p2 <= 1.0:
            raise ValueError(f"p2 must be in [0, 1], got {p2}")
        if family == "grid":
            if rows is None or cols is None or rows < 1 or cols < 1:
                raise ValueError(f"grid needs rows >= 1 and cols >= 1, "
                                 f"got {rows}x{cols}")
        else:
            if n is None or n < 1:
                raise ValueError(f"random-sparse needs n >= 1, got {n}")
            cap = n * (n - 1) // 2
            if m is None or not 0 <= m <= cap:
                raise ValueError(f"random-sparse needs 0 <= m <= {cap}, "
                                 f"got {m}")
        self.family = family
        self.rows = rows
        self.cols = cols
        self.n = n
        self.m = m
        self.seed = seed
        self.p2 = p2

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


def _orient(edges, rng, p2):
    arcs = []
    for u, v in edges:
        if rng.random() < p2:
            arcs.extend([(u, v), (v, u)])
        elif rng.random() < 0.5:
            arcs.append((u, v))
        else:
            arcs.append((v, u))
    return arcs


def generate(spec):
    """Build the digraph a spec describes; same spec, same digraph."""
    rng = random.Random(spec.seed)
    if spec.family == "grid":
        rows, cols = spec.rows, spec.cols
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    edges.append((v, v + 1))
                if r + 1 < rows:
                    edges.append((v, v + cols))
        return Digraph.of(rows * cols, _orient(edges, rng, spec.p2))
    pairs = [(u, v) for u in range(spec.n) for v in range(u + 1, spec.n)]
    edges = sorted(rng.sample(pairs, spec.m))
    return Digraph.of(spec.n, _orient(edges, rng, spec.p2))


def grid_spec(side, seed=0, p2=1.0):
    """Square grid shorthand used by the benchmark suites."""
    return GeneratorSpec("grid", rows=side, cols=side, seed=seed, p2=p2)
