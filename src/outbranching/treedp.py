"""Dynamic programs over nice tree decompositions of the underlying graph.

Three optimizations share the bag-state machinery: maximum-leaf spanning
branchings, maximum-internal out-trees under a size cap, and longest
directed paths.  Each underlying undirected edge of the host digraph is
handled at exactly one decomposition node (the first node in post order
whose bag contains both endpoints), so an arc can never be committed
twice and an in-degree violation shows up as a dead state instead of a
silent double count.

A state records how a partial solution meets the current bag: a partition
of the in-bag solution vertices into connected fragments plus per-vertex
connection flags.  A fragment that loses its last bag vertex can never
gain another connection, so it must either be the finished solution or
the state dies on the spot.  That single rule is what makes the final
tables sound.

Encoding: the partition is a tuple with one entry per bag position (-1
outside the solution, else a fragment label numbered by first
occurrence), and each kind of per-vertex flag is one int whose bit i
belongs to bag position i.  Introduce and forget insert or delete a bit;
a join tests two flag sets for overlap with ``&`` and unites them with
``|``.  The join groups each side's states by partition (with the other
non-flag fields), merges the fragments once per pair of groups with the
same in-bag mask, and only then crosses the flag ints of the two groups.
Relabelling and merging depend on partitions alone and are memoized.

A broken invariant, including a witness that fails validation, raises
DPInvariantError; none of these checks is an assert, so they also run
under ``python -O``.
"""

from __future__ import annotations

from functools import lru_cache

from .digraph import OutTree, underlying_graph, validate_out_tree
from .errors import DPInvariantError
from .treewidth import FORGET, INTRODUCE, JOIN, LEAF, greedy_decomposition, make_nice

ABSENT = -1
CLOSED = -2


class _Step:
    """One executed table of the dynamic program, with backpointers."""

    __slots__ = ("op", "prev", "table", "back")

    def __init__(self, op, prev, table, back):
        self.op = op
        self.prev = prev
        self.table = table
        self.back = back


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


def _group_pairs(tl, tr, split):
    """Pairs of state groups that can be joined, with their merged fragments.

    ``split(state, score)`` returns (key, item); the key holds every
    non-flag field and starts with the blocks tuple.  Yields (n_in, lkey,
    litems, rkey, ritems, merged) for each left and right group with the
    same in-bag mask whose fragments merge without a cycle, where n_in
    counts the in-bag solution vertices and merged is the
    _merge_fragments result of the two partitions.
    """

    sides = []
    for tin in (tl, tr):
        groups = {}
        for s, score in tin.items():
            key, item = split(s, score)
            groups.setdefault(key, []).append(item)
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


def _tree_split(s, score):
    blocks, pb, cb, rstat, size = s
    return (blocks, rstat), (pb, cb, size, score, s)


def _path_split(s, score):
    blocks, ib, ob, closed = s
    return (blocks, closed), (ib, ob, score, s)


class _TreeEngine:
    """Out-tree and spanning-branching tables.

    State: (blocks, parent_bits, child_bits, root_status, size).  blocks
    holds -1 for bag vertices outside the solution and a canonical
    fragment label otherwise.  Bit i of parent_bits (child_bits) is set
    once the vertex at bag position i has its parent arc (a child arc).
    root_status is ABSENT before the root appears, CLOSED once the root
    fragment is complete, and the root fragment's label in between.  size
    counts solution vertices seen so far and is only constrained when
    size_cap is set.
    """

    def __init__(self, digraph, root, spanning, score_leaves, size_cap):
        self.digraph = digraph
        self.root = root
        self.spanning = spanning
        self.score_leaves = score_leaves
        self.size_cap = size_cap

    def leaf(self):
        state = ((), 0, 0, ABSENT, 0)
        return {state: 0}, {state: None}

    def introduce(self, tin, oldbag, newbag, v):
        p = newbag.index(v)
        low = (1 << p) - 1
        is_root = v == self.root
        outside = not self.spanning and not is_root
        cap = self.size_cap
        table, back = {}, {}
        for s, score in tin.items():
            blocks, pb, cb, rstat, size = s
            pb = (pb & low) | (pb & ~low) << 1
            cb = (cb & low) | (cb & ~low) << 1
            if outside:
                _push(table, back, (blocks[:p] + (-1,) + blocks[p:], pb, cb, rstat, size),
                      score, s)
            if rstat == CLOSED or (cap is not None and size >= cap):
                continue
            nb, mapping = _insert(blocks, p)
            if is_root:
                if rstat != ABSENT:
                    raise DPInvariantError(f"root {v} introduced twice")
                rstat = nb[p]
            elif rstat >= 0:
                rstat = mapping[rstat]
            _push(table, back, (nb, pb, cb, rstat, size + 1), score, s)
        return table, back

    def forget(self, tin, oldbag, newbag, v):
        p = oldbag.index(v)
        low = (1 << p) - 1
        is_root = v == self.root
        # a forgotten solution vertex scores when it is a leaf (no child
        # arc) for max leaves, and when it is internal otherwise
        flip = 1 if self.score_leaves else 0
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

    def join(self, tl, tr, bag):
        table, back = {}, {}
        cap = self.size_cap
        for n_in, (lb, lr), litems, (rb, rr), ritems, merged in _group_pairs(
                tl, tr, _tree_split):
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
            for lp, lc, lsize, lscore, ls in litems:
                for rp, rc, rsize, rscore, rs in ritems:
                    if lp & rp:
                        continue
                    size = lsize + rsize - n_in
                    if cap is not None and size > cap:
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

    def introduce(self, tin, oldbag, newbag, v):
        p = newbag.index(v)
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

    def forget(self, tin, oldbag, newbag, v):
        p = oldbag.index(v)
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

    def join(self, tl, tr, bag):
        table, back = {}, {}
        for n_in, (lb, lclosed), litems, (rb, rclosed), ritems, merged in _group_pairs(
                tl, tr, _path_split):
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
    """Run an engine over the nice decomposition, splicing in edge steps."""

    ug = underlying_graph(digraph)
    edges = sorted(ug.edges)
    assigned = set()
    covered = set()
    results = {}
    stack = [(nice.root, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            for child in node.children:
                stack.append((child, False))
            continue
        covered.update(node.bag)
        bag = tuple(sorted(node.bag))
        if node.kind == LEAF:
            table, back = engine.leaf()
            step = _Step(("leaf",), (), table, back)
        elif node.kind == INTRODUCE:
            child = results.pop(id(node.children[0]))
            oldbag = tuple(sorted(node.children[0].bag))
            table, back = engine.introduce(child.table, oldbag, bag, node.vertex)
            step = _Step(("introduce", node.vertex), (child,), table, back)
        elif node.kind == FORGET:
            child = results.pop(id(node.children[0]))
            oldbag = tuple(sorted(node.children[0].bag))
            table, back = engine.forget(child.table, oldbag, bag, node.vertex)
            step = _Step(("forget", node.vertex), (child,), table, back)
        elif node.kind == JOIN:
            left = results.pop(id(node.children[0]))
            right = results.pop(id(node.children[1]))
            table, back = engine.join(left.table, right.table, bag)
            step = _Step(("join",), (left, right), table, back)
        else:
            raise DPInvariantError(f"unknown nice node kind {node.kind!r}")
        for e in edges:
            if e not in assigned and e[0] in node.bag and e[1] in node.bag:
                assigned.add(e)
                table, back = engine.edge(step.table, bag, e)
                step = _Step(("edge", e), (step,), table, back)
        results[id(node)] = step
    if not covered >= digraph.vertices:
        raise DPInvariantError("decomposition does not cover the digraph")
    if len(assigned) != len(edges):
        raise DPInvariantError("an underlying edge was never processed")
    return results[id(nice.root)]


def _collect_arcs(final_step, final_state):
    arcs = []
    stack = [(final_step, final_state)]
    while stack:
        step, state = stack.pop()
        kind = step.op[0]
        if kind == "leaf":
            continue
        if kind == "edge":
            prov = step.back.get(state)
            if prov is None:
                # the state left the edge unused
                stack.append((step.prev[0], state))
            else:
                prev_state, arc = prov
                arcs.append(arc)
                stack.append((step.prev[0], prev_state))
        elif kind == "join":
            sl, sr = step.back[state]
            stack.append((step.prev[0], sl))
            stack.append((step.prev[1], sr))
        else:
            stack.append((step.prev[0], step.back[state]))
    return arcs


def _witness_tree(digraph, root, arcs, spanning):
    """The out-tree the backpointers spell out, validated against digraph."""

    parents = {h: t for t, h in arcs}
    if len(parents) != len(arcs):
        raise DPInvariantError("a vertex got two parents")
    try:
        tree = OutTree(root, parents)
        validate_out_tree(digraph, tree, spanning=spanning)
    except ValueError as exc:
        raise DPInvariantError(f"invalid witness tree: {exc}") from exc
    return tree


def _nice_for(digraph, nice):
    if nice is not None:
        return nice
    return make_nice(greedy_decomposition(underlying_graph(digraph)))


def _check_root(digraph, root):
    if root not in digraph.vertices:
        raise ValueError(f"root {root} not in digraph")


def dp_max_leaves(digraph, root, nice=None):
    """Maximum number of leaves over spanning out-branchings rooted at root.

    Returns (count, tree) or None when no spanning branching exists.
    """

    _check_root(digraph, root)
    nice = _nice_for(digraph, nice)
    engine = _TreeEngine(digraph, root, spanning=True, score_leaves=True, size_cap=None)
    top = _execute(digraph, nice, engine)
    best = None
    for state, score in top.table.items():
        if state[3] == CLOSED and (best is None or score > top.table[best]):
            best = state
    if best is None:
        return None
    score = top.table[best]
    tree = _witness_tree(digraph, root, _collect_arcs(top, best), spanning=True)
    if len(tree.leaves()) != score:
        raise DPInvariantError(f"witness has {len(tree.leaves())} leaves, table says {score}")
    return score, tree


def dp_max_internal_outtree(digraph, root, nice=None, size_cap=None):
    """Most internal vertices over out-trees rooted at root, size capped.

    Returns ((internal, size), tree).  The single-vertex tree {root} is
    always available, so there is always an answer.
    """

    _check_root(digraph, root)
    if size_cap is not None and size_cap < 1:
        raise ValueError(f"size_cap must be >= 1, got {size_cap}")
    nice = _nice_for(digraph, nice)
    engine = _TreeEngine(digraph, root, spanning=False, score_leaves=False,
                         size_cap=size_cap)
    top = _execute(digraph, nice, engine)
    best = None
    for state, score in top.table.items():
        if state[3] == CLOSED and (
                best is None or (score, -state[4]) > (top.table[best], -best[4])):
            best = state
    if best is None:
        raise DPInvariantError("the one-vertex tree did not survive")
    score = top.table[best]
    size = best[4]
    tree = _witness_tree(digraph, root, _collect_arcs(top, best), spanning=False)
    if (len(tree.internal_vertices()), tree.size) != (score, size):
        raise DPInvariantError(
            f"witness has {len(tree.internal_vertices())} internal vertices and "
            f"size {tree.size}, table says {score} and {size}")
    if size_cap is not None and size > size_cap:
        raise DPInvariantError(f"witness size {size} exceeds the cap {size_cap}")
    return (score, size), tree


def dp_longest_path(digraph, nice=None):
    """Longest directed path, counted in arcs.  Returns (count, vertices)."""

    if not digraph.vertices:
        return 0, []
    nice = _nice_for(digraph, nice)
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
