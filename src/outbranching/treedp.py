"""Dynamic programs over nice tree decompositions of the underlying graph.

One engine, _TreeEngine, solves three optimizations: maximum-leaf
spanning branchings, maximum-internal out-trees (optionally under a size
cap), and longest directed paths, which are the rootless out-trees in
which no vertex has two children.  Each underlying undirected edge of
the host digraph is handled at exactly one op of the nice decomposition,
right before the forget of whichever endpoint goes first, so an arc is
chosen as late as possible and the forget merges the choices at once.
An arc can never be committed twice, and an in-degree violation shows up
as a dead state instead of a silent double count.

A state records how a partial solution meets the current bag: a partition
of the in-bag solution vertices into connected fragments plus per-vertex
connection flags.  A fragment that loses its last bag vertex can never
gain another connection, so it must either be the finished solution or
the state dies on the spot.  That single rule is what makes the final
tables sound.  On a path the flags also say which ends are sealed: a
fragment whose in-bag vertices all have parent arcs has forgotten its
first vertex, the only one without, and likewise for child arcs and its
last vertex.  A join cannot give a merged fragment two sealed ends of
one kind: the flag and cycle tests leave every merged fragment a path.

Every state is (blocks, parent_bits, child_bits, status, size).  blocks,
the partition, is a tuple with one entry per bag position (-1 outside
the solution, else a fragment label numbered by first occurrence), and
bit i of each flag int belongs to bag position i.  Introduce and forget
insert or delete a bit; a join tests two flag sets for overlap with
``&`` and unites them with ``|``.  The join groups each side's states by
(blocks, status, size), merges the fragments once per pair of groups
with the same in-bag mask, and only then crosses the flag ints of the
two groups.  Partition updates are memoized.

In the two rooted modes a child bit blocks nothing: an edge blocks a
tail with a child only on a path, and a join makes only the parent bits
exclusive.  A child bit only decides what a vertex scores when it is
forgotten: a leaf (bit 0) for max leaves, an internal vertex (bit 1)
for max internal.  So among states with the same (blocks, parent_bits,
status, size), one with at least another's score and child bits that
are a subset (max leaves) or a superset (max internal) of the other's
does at least as well in every completion.  Every forget and join keeps
only each group's undominated states, its Pareto frontier.  Each op maps
a dominated state to one that is still dominated, so every table kept
is exactly the undominated part of the full run's table, with the same
scores, and every optimum is unchanged.  A dominator has the same blocks
and at least the score, so it also has at least the bound below, and
pruning and the target bound commute.  The path engine prunes nothing:
there a child bit blocks a second child.  Pruning only deletes states,
so a kept table lists its states in the unpruned table's order.

The internal and path DPs also run as decision procedures for a target
k.  A vertex already forgotten has scored or never will, and one marked
outside the solution stays outside, so a state's final score is at most
its bound: its score, plus the vertices not yet forgotten, minus its
in-bag vertices marked outside.  The bound never rises along the walk,
and the states whose bound is below k are dropped at every join, which
never pairs two states whose scores cannot add up to it, and after every
forget.  What is left is exactly the unbounded table restricted to
bound >= k, with the same values, so an optimum of at least k comes out
unchanged, witness and all, and an optimum below k empties the final
table.

A table maps each state to a value (score, arcs), arcs with one bit per
arc of the digraph.  Introduce passes the value on, forget adds to the
score, an edge sets the bit of the arc it picks, and a join adds the two
scores and unites the two disjoint arc sets.  Each keeps the order of
values, so one rule keeps or returns every value: the larger (score,
arcs) tuple wins, and a witness depends only on the digraph and the
decomposition, not on table order (a path's early stop aside).  The
witness is read off the final table alone, and each table is freed as
soon as the op above it has consumed it.
Every run counts the states its ops build and raises BudgetError past
DP_STATE_BUDGET.  A broken invariant, including a witness that fails
validation, raises DPInvariantError; none of these checks is an assert,
so they also run under ``python -O``.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from functools import lru_cache

from .digraph import underlying_graph, witness_tree
from .errors import BudgetError, DPInvariantError
from .treewidth import FORGET, INTRODUCE, JOIN, LEAF, greedy_decomposition, make_nice

ABSENT = -1
CLOSED = -2

# The most states one run may build over all its ops.  Only the tables
# not yet consumed stay in memory, so this caps a run's work: max leaves
# on the reduced 9x9 grid at width 9 builds 5.1 M states in about 140 MB.
DP_STATE_BUDGET = 10_000_000


def _push(table, state, value):
    old = table.get(state)
    if old is None or value > old:
        table[state] = value


def _dominated(group, fewer_children_win):
    """The child-bit sets of group, a dict {child_bits: score}, that
    another item of group dominates.

    An item dominates another when it has at least its score and child
    bits that are a subset (fewer_children_win) or a superset of its own.
    Complementing every child-bit set turns a superset test into a subset
    test, so both rules test x & y == x.  A proper subset is also a
    smaller int, so ranking by score, then by that int, puts every item
    after each item that dominates it, and one pass against the items
    kept so far finds the dominated ones.
    """

    flip = 0 if fewer_children_win else -1
    kept, dropped = [], []
    for _, x in sorted((-score, cb ^ flip) for cb, score in group.items()):
        for c in kept:
            if c & x == c:
                dropped.append(x ^ flip)
                break
        else:
            kept.append(x)
    return dropped


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
    """(outside, inside, mapping) after a vertex enters the bag at position
    p: outside or as a new fragment of the solution, and the label map."""

    return (blocks[:p] + (-1,) + blocks[p:],
            *_relabel(blocks[:p] + (max(blocks, default=-1) + 1,) + blocks[p:]))


@_MEMO
def _remove(blocks, p):
    """(blocks, mapping, alone) after the vertex at position p leaves the
    bag.  mapping renumbers the labels, None when the vertex's fragment
    loses its last bag vertex; alone says that no fragment is left."""

    rb = blocks[:p] + blocks[p + 1:]
    if blocks[p] >= 0 and blocks[p] not in rb:
        return rb, None, all(b < 0 for b in rb)
    return (*_relabel(rb), False)


@_MEMO
def _fuse(blocks, keep, gone):
    """(blocks, mapping, one) after fragment ``gone`` joins fragment
    ``keep``: the canonical blocks, the label map, and whether one
    fragment is left."""

    fused, mapping = _relabel(tuple(keep if t == gone else t for t in blocks))
    return fused, mapping, max(fused) == 0


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


def _group_pairs(tl, tr, one_child):
    """Pairs of state groups that can be joined.

    A group holds the states that share (blocks, status, size) as
    (exclusive, parent_bits, child_bits, score, arcs) items; exclusive
    holds the bits no two joined states may share: the parent bits and,
    with one_child, the child bits shifted past them.  Yields (n_in,
    lkey, litems, rkey, ritems, merged) for each pair of groups with one
    in-bag mask of n_in vertices that _merge_fragments merges acyclically.
    """

    sides = []
    for tin in (tl, tr):
        groups = {}
        for (blocks, pb, cb, rstat, size), (score, arcs) in tin.items():
            x = pb | cb << len(blocks) if one_child else pb
            groups.setdefault((blocks, rstat, size), []).append((x, pb, cb, score, arcs))
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
    """Out-tree, spanning-branching and directed path tables.

    A table maps each state to the largest (score, arcs) of a partial
    solution with that state, where arcs is an int whose bit i is the
    i-th arc in sorted order.

    Bit i of parent_bits (child_bits) is set once the vertex at bag
    position i has its parent arc (a child arc).  The status is ABSENT
    before the root appears, CLOSED once the root fragment is complete,
    and the root fragment's label in between.

    spanning selects the problem: every vertex joins the solution and
    forgotten leaves score (max leaves), or vertices other than the root
    may stay outside and forgotten internal vertices score (max internal).

    root=None selects a longest path, rooted at whichever vertex lacks a
    parent arc: any solution vertex may be forgotten without one, an arc
    needs a tail without a child, a join needs disjoint child bits, and
    the status stays ABSENT until the one fragment closes.  The score
    counts internal vertices, one per arc.

    size counts the solution vertices seen so far under a size_cap and
    stays 0 without one, so only a capped run keeps a state per size.

    With a root, forget and join keep only the states no other state of
    their (blocks, parent_bits, status, size) group dominates (see
    _prune).  A _dominated that drops nothing turns the rule off.

    A target is the k of a decision run, for the non-spanning modes.
    Every state whose bound is below it is dropped: by the join and the
    forget, which _execute tells what a state needs.  On a path
    (root=None) it also stops the walk at the first edge or join state
    whose one fragment holds at least target arcs, and leaves that state
    in hit.  The fragment owns every arc of the state: the score counts
    the arcs with a forgotten tail and child_bits the rest, so the hit
    state passes the bound.
    """

    def __init__(self, digraph, root, spanning, size_cap=None, target=None):
        self.digraph = digraph
        self.root = root
        self.spanning = spanning
        self.grow = 0 if size_cap is None else 1
        self.size_cap = sys.maxsize if size_cap is None else size_cap
        self.target = target
        self.hit = None
        self.arcs = sorted(digraph.arcs)
        self.bit = {arc: 1 << i for i, arc in enumerate(self.arcs)}

    def leaf(self):
        return {((), 0, 0, ABSENT, 0): (0, 0)}

    def introduce(self, tin, bag, v):
        p = bag.index(v)
        low = (1 << p) - 1
        is_root = v == self.root
        outside = not self.spanning and not is_root
        cap, grow = self.size_cap, self.grow
        # distinct states stay distinct, so no two meet and none is kept
        # over another
        table = {}
        for (blocks, pb, cb, rstat, size), value in tin.items():
            pb = (pb & low) | (pb & ~low) << 1
            cb = (cb & low) | (cb & ~low) << 1
            ob, nb, mapping = _insert(blocks, p)
            if outside:
                table[ob, pb, cb, rstat, size] = value
            if rstat == CLOSED or size >= cap:
                continue
            if is_root:
                if rstat != ABSENT:
                    raise DPInvariantError(f"root {v} introduced twice")
                rstat = nb[p]
            elif rstat >= 0:
                rstat = mapping[rstat]
            table[nb, pb, cb, rstat, size + grow] = value
        return table

    def forget(self, tin, bag, v, need=0):
        """Forget v, then drop the states whose score plus in-bag solution
        vertices is below need."""

        p = bisect_left(bag, v)
        low = (1 << p) - 1
        rooted = self.root is not None
        needs_parent = rooted and v != self.root
        # a forgotten solution vertex scores when it is a leaf (no child
        # arc) for max leaves, and when it is internal otherwise
        flip = 1 if self.spanning else 0
        table = {}
        for (blocks, pb, cb, rstat, size), value in tin.items():
            b = blocks[p]
            rb, mapping, alone = _remove(blocks, p)
            if b >= 0:
                if needs_parent and not pb >> p & 1:
                    continue
                if (cb >> p & 1) ^ flip:
                    value = value[0] + 1, value[1]
                if mapping is not None:
                    if rstat >= 0:
                        rstat = mapping[rstat]
                elif alone and rstat == (b if rooted else ABSENT):
                    # the root fragment, or a path, lost its last bag vertex: it is finished
                    rstat = CLOSED
                else:
                    continue
            st = (rb, (pb & low) | (pb >> 1 & ~low), (cb & low) | (cb >> 1 & ~low), rstat, size)
            _push(table, st, value)
        if rooted:
            self._prune(table)
        if need > 0:
            table = {s: value for s, value in table.items()
                     if value[0] + len(s[0]) - s[0].count(-1) >= need}
        return table

    def edge(self, tin, bag, e):
        u, w = e
        pu, pw = bag.index(u), bag.index(w)
        one_child = self.root is None
        target = self.target if one_child else None
        # (arc bit, tail pos, head pos, head bit, tail bit, tail bit that blocks)
        cands = [(self.bit[x, y], px, py, 1 << py, 1 << px, one_child << px)
                 for x, y, px, py in ((u, w, pu, pw), (w, u, pw, pu))
                 if self.digraph.has_arc(x, y) and y != self.root]
        # every state may leave the edge unused
        table = dict(tin)
        for (blocks, pb, cb, rstat, size), (score, arcs) in tin.items():
            for abit, px, py, ybit, xbit, xblock in cands:
                bx, by = blocks[px], blocks[py]
                if bx < 0 or by < 0 or bx == by or pb & ybit or cb & xblock:
                    continue
                nb, mapping, one = _fuse(blocks, bx, by)
                rs2 = mapping[bx if rstat == by else rstat] if rstat >= 0 else rstat
                st = (nb, pb | ybit, cb | xbit, rs2, size)
                _push(table, st, (score, arcs | abit))
                if one and target is not None and score + st[2].bit_count() >= target:
                    self.hit = st
                    return table
        return table

    def join(self, tl, tr, need=0, room=sys.maxsize):
        """Join two tables, crossing only the pairs whose scores plus their
        in-bag solution vertices reach need; past room states it raises
        BudgetError."""

        table = {}
        cap, grow = self.size_cap, self.grow
        target = self.target if self.root is None else None
        for n_in, (_, lr, lsize), litems, (_, rr, rsize), ritems, (blocks, lmap, rmap) in (
                _group_pairs(tl, tr, self.root is None)):
            if len(table) > room:
                raise BudgetError("dp states", DP_STATE_BUDGET - room + len(table),
                                  DP_STATE_BUDGET)
            # a state is checked when it is set: one that loses to a kept
            # value was checked with that value's score
            one = target is not None and max(blocks, default=-1) == 0
            size = lsize + rsize - grow * n_in
            if size > cap:
                continue
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
            # every merged state has n_in solution vertices in the bag, so
            # a pair reaches need when its scores add up to floor
            floor = need - n_in
            rmin = min(item[3] for item in ritems) if floor > 0 else 0
            for lx, lp, lc, lscore, larcs in litems:
                rfloor = floor - lscore
                for rx, rp, rc, rscore, rarcs in (
                        ritems if rfloor <= rmin else [r for r in ritems if r[3] >= rfloor]):
                    if lx & rx:
                        continue
                    st = (blocks, lp | rp, lc | rc, rstat, size)
                    score = lscore + rscore
                    old = table.get(st)
                    # _push's rule, with the arcs built only on a tie
                    if old is None or score > old[0] or (
                            score == old[0] and larcs | rarcs > old[1]):
                        table[st] = score, larcs | rarcs
                        if one and score + (lc | rc).bit_count() >= target:
                            self.hit = st
                            return table
        return self._prune(table) if self.root is not None else table

    def _prune(self, table):
        """Drop from table, in place, each state that another state of its
        (blocks, parent_bits, status, size) group dominates (see
        _dominated), and return it.  Only a rooted run may."""

        groups = {}
        for (blocks, pb, cb, rstat, size), (score, _) in table.items():
            groups.setdefault((blocks, pb, rstat, size), {})[cb] = score
        if len(groups) < len(table):
            for (blocks, pb, rstat, size), group in groups.items():
                if len(group) > 1:
                    for cb in _dominated(group, self.spanning):
                        del table[blocks, pb, cb, rstat, size]
        return table


def _need(target, unseen):
    """What score plus in-bag solution vertices a state needs to keep a
    bound of target, where unseen counts the vertices neither forgotten
    below the op nor in its bag: 0 (all pass) without a target or with
    unseen >= target."""

    return 0 if target is None else max(0, target - unseen)


def _count(states, table):
    """states plus the table's size; past DP_STATE_BUDGET a BudgetError
    is raised."""

    states += len(table)
    if states > DP_STATE_BUDGET:
        raise BudgetError("dp states", states, DP_STATE_BUDGET)
    return states


def _execute(digraph, nice, engine):
    """Run an engine down the nice ops, splicing in an edge op for each
    underlying edge right before the forget of its first endpoint.

    ``nice`` defaults to the min-fill decomposition of the underlying
    graph.  Finished tables wait on a stack, and each op pops the tables
    it consumes, so a table lives only until its parent op is done: a
    join pops its left operand and then its right one, introduce and
    forget pop one.  A forget's bag lacks its vertex, which sat where it
    would sort into that bag.  A second stack holds each finished table's
    forgotten-vertex count: 0 at a leaf, one more at a forget, the sum of
    both sides at a join.  With engine.target set, the states that cannot
    reach it are dropped at every join and forget.  Returns the last
    table, or the table that holds engine.hit.
    """

    ug = underlying_graph(digraph)
    if nice is None:
        nice = make_nice(greedy_decomposition(ug))
    target, n = engine.target, digraph.n
    assigned = set()
    covered = set()
    done = []
    forgotten = []
    states = 0
    for kind, v, bag in nice.ops:
        if kind == LEAF:
            table = engine.leaf()
            forgotten.append(0)
        elif kind == INTRODUCE:
            table = engine.introduce(done.pop(), bag, v)
            covered.add(v)
        elif kind == FORGET:
            # Each edge runs on the child's bag just before its first
            # endpoint is forgotten, so its arc choice is made as late as
            # possible.  The other endpoint w is still in that bag: the
            # bags holding v form a subtree topped by this child, the bags
            # holding w one topped below w's later forget, and the two
            # meet, so the lower top, this child, holds w too.
            table = done.pop()
            p = bisect_left(bag, v)
            child_bag = bag[:p] + (v,) + bag[p:]
            nb = ug.neighbors(v)
            for e in sorted((min(v, x), max(v, x)) for x in bag if x in nb):
                if e not in assigned:
                    assigned.add(e)
                    table = engine.edge(table, child_bag, e)
                    if engine.hit is not None:
                        return table
                    states = _count(states, table)
            forgotten[-1] += 1
            table = engine.forget(table, bag, v, _need(target, n - forgotten[-1] - len(bag)))
        elif kind == JOIN:
            forgotten.append(forgotten.pop() + forgotten.pop())
            table = engine.join(done.pop(), done.pop(),
                                _need(target, n - forgotten[-1] - len(bag)),
                                DP_STATE_BUDGET - states)
            if engine.hit is not None:
                return table
        else:
            raise DPInvariantError(f"unknown nice op kind {kind!r}")
        states = _count(states, table)
        done.append(table)
    if not covered >= digraph.vertices:
        raise DPInvariantError("decomposition does not cover the digraph")
    if len(assigned) != ug.m:
        raise DPInvariantError("an underlying edge was never processed")
    return done.pop()


def _collect_arcs(arcs, mask):
    """The arcs whose bits are set in mask, where bit i stands for arcs[i]."""

    return [arc for i, arc in enumerate(arcs) if mask >> i & 1]


def _best_tree(digraph, root, nice, spanning, size_cap=None, target=None):
    """Run the _TreeEngine; (score, tree) for its hit state, else for its
    finished state with the largest (score, arcs) value, or None if there
    is neither.  root=None runs the path engine, whose tree is rooted at
    its one vertex without a parent.  The tree is validated, its leaf
    count (spanning) or internal count must match the score, and under a
    size cap its size must match the state's.
    """

    engine = _TreeEngine(digraph, root, spanning, size_cap, target)
    table = _execute(digraph, nice, engine)
    state = engine.hit or max((s for s in table if s[3] == CLOSED),
                              key=table.__getitem__, default=None)
    if state is None:
        return None
    score, arcs = table[state]
    # a finished state has no solution vertex in its bag, so only a hit
    # has child bits: arcs whose tails have not scored yet
    score += state[2].bit_count()
    arcs = _collect_arcs(engine.arcs, arcs)
    parents = {h: t for t, h in arcs}
    if len(parents) != len(arcs):
        raise DPInvariantError("a vertex got two parents")
    if root is None:
        root = min({t for t, _ in arcs} - parents.keys(), default=min(digraph.vertices))
    tree = witness_tree(digraph, root, parents, spanning)
    kind, got = (("leaves", tree.leaves()) if spanning
                 else ("internal vertices", tree.internal_vertices()))
    if len(got) != score:
        raise DPInvariantError(f"witness has {len(got)} {kind}, table says {score}")
    if size_cap is not None and tree.size != state[4]:
        raise DPInvariantError(f"witness has {tree.size} vertices, table says {state[4]}")
    return score, tree


def _check_root(digraph, root):
    if root not in digraph.vertices:
        raise ValueError(f"root {root} not in digraph")


def dp_max_leaves(digraph, root, nice=None):
    """Maximum number of leaves over spanning out-branchings rooted at root.

    Returns (count, tree) or None when no spanning branching exists.
    """

    _check_root(digraph, root)
    return _best_tree(digraph, root, nice, spanning=True)


def dp_max_internal_outtree(digraph, root, nice=None, size_cap=None, target=None):
    """Most internal vertices over out-trees rooted at root, with at most
    size_cap vertices when a cap is given.

    Returns (internal, tree).  The single-vertex tree {root} is always
    available, so without a target there is always an answer.  With a
    target the DP drops every state whose bound is below it and returns
    None when the optimum is below target; otherwise it returns the same
    optimum as a run without one, with a validated tree.
    """

    if size_cap is not None and size_cap < 1:
        raise ValueError(f"size_cap must be >= 1, got {size_cap}")
    _check_root(digraph, root)
    best = _best_tree(digraph, root, nice, spanning=False, size_cap=size_cap, target=target)
    if best is None and target is None:
        raise DPInvariantError("the one-vertex tree did not survive")
    return best


def dp_longest_path(digraph, nice=None, target=None):
    """Longest directed path, counted in arcs.  Returns (count, vertices).

    Runs the rootless _TreeEngine, whose one-leaf out-trees are the paths.
    With a target, the DP drops every state whose bound is below it and
    the walk stops at the first path of at least target arcs, which it
    returns as found, longest or not.  When no path has target arcs it
    returns None.
    """

    if not digraph.vertices:
        return None if target is not None and target > 0 else (0, [])
    best = _best_tree(digraph, None, nice, spanning=False, target=target)
    if best is None:
        if target is None:
            raise DPInvariantError("no one-vertex path survived")
        return None
    score, tree = best
    if len(tree.leaves()) != 1:
        raise DPInvariantError(f"path witness with {score} arcs has {len(tree.leaves())} leaves")
    nxt = {t: h for h, t in tree.parents.items()}
    path = [tree.root]
    while path[-1] in nxt:
        path.append(nxt[path[-1]])
    return score, path
