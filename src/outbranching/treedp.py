"""Dynamic programs over nice tree decompositions of the underlying graph.

Three optimizations share the bag-state machinery: maximum-leaf spanning
branchings, maximum-internal out-trees (optionally under a size cap),
and longest directed paths.  Each underlying undirected edge of the host
digraph is handled at exactly one op of the nice decomposition (the
first op in its list whose bag contains both endpoints), so an arc can
never be committed twice and an in-degree violation shows up as a dead
state instead of a silent double count.

A state records how a partial solution meets the current bag: a partition
of the in-bag solution vertices into connected fragments plus per-vertex
connection flags.  A fragment that loses its last bag vertex can never
gain another connection, so it must either be the finished solution or
the state dies on the spot.  That single rule is what makes the final
tables sound.

Encoding: every state starts (blocks, flags, flags, status); a tree
state also carries a size.  blocks, the partition, is a tuple with one
entry per bag position (-1 outside the solution, else a fragment label
numbered by first occurrence), and each kind of per-vertex flag is one
int whose bit i belongs to bag position i.  Introduce and forget insert
or delete a bit; a join tests two flag sets for overlap with ``&`` and
unites them with ``|``.  The join groups each side's states by (blocks,
status), merges the fragments once per pair of groups with the same
in-bag mask, and only then crosses the flag ints of the two groups.
Relabelling and merging depend on partitions alone and are memoized.

A broken invariant, including a witness that fails validation, raises
DPInvariantError; none of these checks is an assert, so they also run
under ``python -O``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache

from .digraph import underlying_graph, witness_tree
from .errors import DPInvariantError
from .treewidth import FORGET, INTRODUCE, JOIN, LEAF, greedy_decomposition, make_nice

ABSENT = -1
CLOSED = -2
EDGE = "edge"


# One executed table of the dynamic program, with backpointers.
_Step = namedtuple("_Step", "kind prev table back")


def _push(table, back, state, score, prov):
    old = table.get(state)
    if old is None or score > old:
        table[state] = score
        back[state] = prov


def _uf_find(parent, a):
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


# The fragment helpers below depend only on partitions, which recur across
# operations, decompositions and instances.  Every result is immutable, so
# the memo can hand it to all callers.
_MEMO = lru_cache(maxsize=1 << 12)


@_MEMO
def _relabel(blocks):
    """Renumber fragment labels by first occurrence.

    Returns the canonical blocks and a tuple holding each old label's new
    label (-1 for a label that does not occur).
    """

    mapping = {}
    for b in blocks:
        if b >= 0 and b not in mapping:
            mapping[b] = len(mapping)
    return (tuple(mapping[b] if b >= 0 else -1 for b in blocks),
            tuple(mapping.get(old, -1) for old in range(max(blocks, default=-1) + 1)))


@_MEMO
def _insert(blocks, p):
    """Canonical blocks after a new one-vertex fragment enters at position p."""

    return _relabel(blocks[:p] + (max(blocks, default=-1) + 1,) + blocks[p:])


@_MEMO
def _fuse(blocks, keep, gone):
    """Canonical blocks after fragment ``gone`` joins fragment ``keep``."""

    return _relabel(tuple(keep if t == gone else t for t in blocks))


@_MEMO
def _merge_fragments(lb, rb):
    """Unite two fragment partitions of the same in-bag vertices.

    Returns (blocks, lmap, rmap): the canonical merged blocks and, per
    left and per right label, the merged label it ends up in.  Returns
    None when a right fragment would join two positions that the left
    side already connects, which would close a cycle.
    """

    parent = list(range(max(lb, default=-1) + 1))
    first = {}
    for pos, label in enumerate(rb):
        if label < 0:
            continue
        a = _uf_find(parent, lb[pos])
        if label not in first:
            first[label] = a
            continue
        a0 = _uf_find(parent, first[label])
        if a == a0:
            return None
        parent[a] = a0
    blocks, mapping = _relabel(tuple(_uf_find(parent, b) if b >= 0 else -1 for b in lb))
    lmap = tuple(mapping[_uf_find(parent, label)] for label in range(len(parent)))
    rmap = tuple(lmap[lb[rb.index(label)]] for label in range(len(first)))
    return blocks, lmap, rmap


def _group_pairs(tl, tr):
    """Pairs of state groups that can be joined, with their merged fragments.

    A group holds the states that share (blocks, status), each as a
    (flags, flags, score, state) item.  Yields (n_in, lkey, litems, rkey,
    ritems, merged) for each left and right group with the same in-bag
    mask whose fragments merge without a cycle, where n_in counts the
    in-bag solution vertices and merged is the _merge_fragments result of
    the two partitions.  Any field after the status travels with the
    state.
    """

    sides = []
    for tin in (tl, tr):
        groups = {}
        for s, score in tin.items():
            groups.setdefault((s[0], s[3]), []).append((s[1], s[2], score, s))
        by_mask = {}
        for key, items in groups.items():
            by_mask.setdefault(tuple(b >= 0 for b in key[0]), []).append((key, items))
        sides.append(by_mask)
    left, right = sides
    for mask, lgroups in left.items():
        rgroups = right.get(mask)
        if not rgroups:
            continue
        n_in = sum(mask)
        for lkey, litems in lgroups:
            for rkey, ritems in rgroups:
                merged = _merge_fragments(lkey[0], rkey[0])
                if merged is not None:
                    yield n_in, lkey, litems, rkey, ritems, merged


class _TreeEngine:
    """Out-tree and spanning-branching tables.

    State: (blocks, parent_bits, child_bits, root_status, size).  blocks
    holds -1 for bag vertices outside the solution and a canonical
    fragment label otherwise.  Bit i of parent_bits (child_bits) is set
    once the vertex at bag position i has its parent arc (a child arc).
    root_status is ABSENT before the root appears, CLOSED once the root
    fragment is complete, and the root fragment's label in between.

    spanning selects the problem: every vertex joins the solution and
    forgotten leaves score (max leaves), or vertices other than the root
    may stay outside and forgotten internal vertices score (max internal).

    size counts the solution vertices seen so far under a size_cap and
    stays 0 without one, so only a capped run keeps a state per size.
    """

    def __init__(self, digraph, root, spanning, size_cap=None):
        self.digraph = digraph
        self.root = root
        self.spanning = spanning
        self.grow = 0 if size_cap is None else 1
        self.size_cap = math.inf if size_cap is None else size_cap

    def leaf(self):
        state = ((), 0, 0, ABSENT, 0)
        return {state: 0}, {state: None}

    def introduce(self, tin, bag, v):
        p = bag.index(v)
        low = (1 << p) - 1
        is_root = v == self.root
        outside = not self.spanning and not is_root
        cap, grow = self.size_cap, self.grow
        table, back = {}, {}
        for s, score in tin.items():
            blocks, pb, cb, rstat, size = s
            pb = (pb & low) | (pb & ~low) << 1
            cb = (cb & low) | (cb & ~low) << 1
            if outside:
                _push(table, back, (blocks[:p] + (-1,) + blocks[p:], pb, cb, rstat, size),
                      score, s)
            if rstat == CLOSED or size >= cap:
                continue
            nb, mapping = _insert(blocks, p)
            if is_root:
                if rstat != ABSENT:
                    raise DPInvariantError(f"root {v} introduced twice")
                rstat = nb[p]
            elif rstat >= 0:
                rstat = mapping[rstat]
            _push(table, back, (nb, pb, cb, rstat, size + grow), score, s)
        return table, back

    def forget(self, tin, bag, v):
        p = bisect_left(bag, v)
        low = (1 << p) - 1
        is_root = v == self.root
        # a forgotten solution vertex scores when it is a leaf (no child
        # arc) for max leaves, and when it is internal otherwise
        flip = 1 if self.spanning else 0
        table, back = {}, {}
        for s, score in tin.items():
            blocks, pb, cb, rstat, size = s
            b = blocks[p]
            rb = blocks[:p] + blocks[p + 1:]
            if b >= 0:
                if not is_root and not pb >> p & 1:
                    continue
                score += (cb >> p & 1) ^ flip
                if b in rb:
                    rb, mapping = _relabel(rb)
                    if rstat >= 0:
                        rstat = mapping[rstat]
                elif rstat == b and not any(x >= 0 for x in rb):
                    # the root fragment lost its last bag vertex: it is finished
                    rstat = CLOSED
                else:
                    continue
            st = (rb, (pb & low) | (pb >> 1 & ~low), (cb & low) | (cb >> 1 & ~low), rstat, size)
            _push(table, back, st, score, s)
        return table, back

    def edge(self, tin, bag, e):
        u, w = e
        pu, pw = bag.index(u), bag.index(w)
        cands = []
        if self.digraph.has_arc(u, w) and w != self.root:
            cands.append(((u, w), pu, pw))
        if self.digraph.has_arc(w, u) and u != self.root:
            cands.append(((w, u), pw, pu))
        # every state may leave the edge unused; back only records arcs
        table, back = dict(tin), {}
        for s, score in tin.items():
            blocks, pb, cb, rstat, size = s
            for arc, px, py in cands:
                bx, by = blocks[px], blocks[py]
                if bx < 0 or by < 0 or bx == by or pb >> py & 1:
                    continue
                nb, mapping = _fuse(blocks, bx, by)
                rs2 = mapping[bx if rstat == by else rstat] if rstat >= 0 else rstat
                st = (nb, pb | 1 << py, cb | 1 << px, rs2, size)
                _push(table, back, st, score, (s, arc))
        return table, back

    def join(self, tl, tr):
        table, back = {}, {}
        cap, grow = self.size_cap, self.grow
        for n_in, (lb, lr), litems, (rb, rr), ritems, merged in _group_pairs(tl, tr):
            blocks, lmap, rmap = merged
            if lr == CLOSED or rr == CLOSED:
                # a finished tree passes only beside an untouched side
                if lr == rr or n_in or ABSENT not in (lr, rr):
                    continue
                rstat = CLOSED
            else:
                rstat = lmap[lr] if lr >= 0 else ABSENT
                if rr >= 0:
                    if rstat >= 0 and rmap[rr] != rstat:
                        raise DPInvariantError("two root fragments met outside the bag")
                    rstat = rmap[rr]
            shared = grow * n_in
            for lp, lc, lscore, ls in litems:
                for rp, rc, rscore, rs in ritems:
                    if lp & rp:
                        continue
                    size = ls[4] + rs[4] - shared
                    if size > cap:
                        continue
                    st = (blocks, lp | rp, lc | rc, rstat, size)
                    score = lscore + rscore
                    old = table.get(st)
                    if old is None or score > old:
                        table[st] = score
                        back[st] = (ls, rs)
        return table, back


class _PathEngine:
    """Directed path tables.

    State: (blocks, in_used, out_used, closed).  A fragment is a directed
    path; bit i of in_used (out_used) is set once the vertex at bag
    position i has its incoming (outgoing) path arc.  closed flips once
    the finished path has been forgotten entirely; a second completed
    fragment kills the state.

    Only a path's first vertex lacks an in arc and only its last lacks an
    out arc, so a fragment whose in-bag vertices all have their in arcs
    has forgotten its free in end for good, and likewise for out.  The
    flags therefore already say which ends are sealed.  A join cannot
    give a merged fragment two sealed ends of one kind: the flag and
    cycle tests leave every merged fragment a directed path, which has
    one first and one last vertex.
    """

    def __init__(self, digraph):
        self.digraph = digraph

    def leaf(self):
        state = ((), 0, 0, 0)
        return {state: 0}, {state: None}

    def introduce(self, tin, bag, v):
        p = bag.index(v)
        low = (1 << p) - 1
        table, back = {}, {}
        for s, score in tin.items():
            blocks, ib, ob, closed = s
            ib = (ib & low) | (ib & ~low) << 1
            ob = (ob & low) | (ob & ~low) << 1
            _push(table, back, (blocks[:p] + (-1,) + blocks[p:], ib, ob, closed), score, s)
            if closed:
                continue
            _push(table, back, (_insert(blocks, p)[0], ib, ob, 0), score, s)
        return table, back

    def forget(self, tin, bag, v):
        p = bisect_left(bag, v)
        low = (1 << p) - 1
        table, back = {}, {}
        for s, score in tin.items():
            blocks, ib, ob, closed = s
            b = blocks[p]
            rb = blocks[:p] + blocks[p + 1:]
            if b >= 0 and b in rb:
                rb = _relabel(rb)[0]
            elif b >= 0:
                if closed or any(x >= 0 for x in rb):
                    continue
                # the only fragment lost its last bag vertex: the path is finished
                closed = 1
            st = (rb, (ib & low) | (ib >> 1 & ~low), (ob & low) | (ob >> 1 & ~low), closed)
            _push(table, back, st, score, s)
        return table, back

    def edge(self, tin, bag, e):
        u, w = e
        pu, pw = bag.index(u), bag.index(w)
        cands = []
        if self.digraph.has_arc(u, w):
            cands.append((pu, pw, (u, w)))
        if self.digraph.has_arc(w, u):
            cands.append((pw, pu, (w, u)))
        table, back = dict(tin), {}
        for s, score in tin.items():
            blocks, ib, ob, closed = s
            for px, py, arc in cands:
                bx, by = blocks[px], blocks[py]
                if bx < 0 or by < 0 or bx == by or ob >> px & 1 or ib >> py & 1:
                    continue
                st = (_fuse(blocks, bx, by)[0], ib | 1 << py, ob | 1 << px, closed)
                _push(table, back, st, score + 1, (s, arc))
        return table, back

    def join(self, tl, tr):
        table, back = {}, {}
        for n_in, (lb, lclosed), litems, (rb, rclosed), ritems, merged in _group_pairs(
                tl, tr):
            closed = lclosed | rclosed
            if (lclosed and rclosed) or (closed and n_in):
                # one finished path at most, and no fragment beside it
                continue
            blocks = merged[0]
            for li, lo, lscore, ls in litems:
                for ri, ro, rscore, rs in ritems:
                    if li & ri or lo & ro:
                        continue
                    st = (blocks, li | ri, lo | ro, closed)
                    score = lscore + rscore
                    old = table.get(st)
                    if old is None or score > old:
                        table[st] = score
                        back[st] = (ls, rs)
        return table, back


def _execute(digraph, nice, engine):
    """Run an engine down the nice ops, splicing in edge steps.

    ``nice`` defaults to the min-fill decomposition of the underlying
    graph.  Finished steps wait on a stack: a join pops its left operand
    and then its right one, introduce and forget pop one.  A forget's bag
    lacks its vertex, which sat where it would sort into that bag.
    """

    ug = underlying_graph(digraph)
    if nice is None:
        nice = make_nice(greedy_decomposition(ug))
    assigned = set()
    covered = set()
    done = []
    for kind, v, bag in nice.ops:
        if kind == LEAF:
            step = _Step(kind, (), *engine.leaf())
        elif kind == INTRODUCE:
            child = done.pop()
            step = _Step(kind, (child,), *engine.introduce(child.table, bag, v))
            covered.add(v)
            # Leaves have empty bags, and a forget or join op's bag lies
            # inside the bag of an op before it, so the first op whose bag
            # holds both ends of an edge introduces one of them.
            nb = ug.neighbors(v)
            for e in sorted((min(v, x), max(v, x)) for x in bag if x in nb):
                if e not in assigned:
                    assigned.add(e)
                    step = _Step(EDGE, (step,), *engine.edge(step.table, bag, e))
        elif kind == FORGET:
            child = done.pop()
            step = _Step(kind, (child,), *engine.forget(child.table, bag, v))
        elif kind == JOIN:
            left = done.pop()
            right = done.pop()
            step = _Step(kind, (left, right), *engine.join(left.table, right.table))
        else:
            raise DPInvariantError(f"unknown nice op kind {kind!r}")
        done.append(step)
    if not covered >= digraph.vertices:
        raise DPInvariantError("decomposition does not cover the digraph")
    if len(assigned) != ug.m:
        raise DPInvariantError("an underlying edge was never processed")
    return done.pop()


def _collect_arcs(final_step, final_state):
    arcs = []
    stack = [(final_step, final_state)]
    while stack:
        step, state = stack.pop()
        if step.kind == JOIN:
            stack += zip(step.prev, step.back[state])
        elif step.kind == EDGE:
            # a state that left the edge unused has no backpointer
            prev_state, arc = step.back.get(state, (state, None))
            if arc is not None:
                arcs.append(arc)
            stack.append((step.prev[0], prev_state))
        elif step.kind != LEAF:
            stack.append((step.prev[0], step.back[state]))
    return arcs


def _witness_tree(digraph, root, arcs, spanning):
    """The out-tree the backpointers spell out, validated against digraph."""

    parents = {h: t for t, h in arcs}
    if len(parents) != len(arcs):
        raise DPInvariantError("a vertex got two parents")
    return witness_tree(digraph, root, parents, spanning)


def _best_tree(digraph, root, nice, spanning, size_cap=None):
    """The best finished out-tree of the _TreeEngine run, as (score, tree).

    The witness is validated, its leaf count (spanning) or internal count
    must match the table, and under a size cap so must its size.  Returns
    None when no state closed.
    """

    if root not in digraph.vertices:
        raise ValueError(f"root {root} not in digraph")
    top = _execute(digraph, nice, _TreeEngine(digraph, root, spanning, size_cap))
    best = None
    for state, score in top.table.items():
        if state[3] == CLOSED and (best is None or score > top.table[best]):
            best = state
    if best is None:
        return None
    score = top.table[best]
    tree = _witness_tree(digraph, root, _collect_arcs(top, best), spanning)
    kind, got = (("leaves", tree.leaves()) if spanning
                 else ("internal vertices", tree.internal_vertices()))
    if len(got) != score:
        raise DPInvariantError(f"witness has {len(got)} {kind}, table says {score}")
    if size_cap is not None and tree.size != best[4]:
        raise DPInvariantError(f"witness has {tree.size} vertices, table says {best[4]}")
    return score, tree


def dp_max_leaves(digraph, root, nice=None):
    """Maximum number of leaves over spanning out-branchings rooted at root.

    Returns (count, tree) or None when no spanning branching exists.
    """

    return _best_tree(digraph, root, nice, spanning=True)


def dp_max_internal_outtree(digraph, root, nice=None, size_cap=None):
    """Most internal vertices over out-trees rooted at root, with at most
    size_cap vertices when a cap is given.

    Returns (internal, tree).  The single-vertex tree {root} is always
    available, so there is always an answer.
    """

    if size_cap is not None and size_cap < 1:
        raise ValueError(f"size_cap must be >= 1, got {size_cap}")
    best = _best_tree(digraph, root, nice, spanning=False, size_cap=size_cap)
    if best is None:
        raise DPInvariantError("the one-vertex tree did not survive")
    return best


def dp_longest_path(digraph, nice=None):
    """Longest directed path, counted in arcs.  Returns (count, vertices)."""

    if not digraph.vertices:
        return 0, []
    engine = _PathEngine(digraph)
    top = _execute(digraph, nice, engine)
    best = None
    for state, score in top.table.items():
        if state[3] == 1 and (best is None or score > top.table[best]):
            best = state
    if best is None or top.table[best] <= 0:
        return 0, [min(digraph.vertices)]
    score = top.table[best]
    arcs = _collect_arcs(top, best)
    nxt = dict(arcs)
    starts = set(nxt) - set(nxt.values())
    if len(arcs) != score or len(nxt) != score or len(starts) != 1:
        raise DPInvariantError(f"path witness with {score} arcs is not a single chain")
    path = [starts.pop()]
    while path[-1] in nxt and len(path) <= score:
        path.append(nxt[path[-1]])
    if len(path) != score + 1 or len(set(path)) != len(path) or not all(
            digraph.has_arc(a, b) for a, b in zip(path, path[1:])):
        raise DPInvariantError(f"path witness {path} is not a simple path of the digraph")
    return score, path
