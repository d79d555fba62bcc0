"""Shared builders for the test suite: small graphs, wraps, actions, reps."""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace

import procover as pc
from procover import graphs, towers
from procover.cli import Report
from procover.covering import _deck_subgroup
from procover.formats import (
    GRAPH_FORMAT,
    REPORT_FORMAT,
    FormatError,
    _expect,
    _get,
    _str_list,
)
from procover.freegroup import NotTransitiveError, _automorphisms, _forced_map
from procover.graphs import edge_stem


def record_constructions(monkeypatch, guard):
    """Turn off the guards of ``tests/conftest.py`` (``guard`` is the value
    of its ``constructed_values_equal_the_checked_ones`` fixture) and
    record what construction checks from then on.  Returns a namespace:
    ``validated``, the validating ``GraphMorphism(...)`` constructions;
    ``builders``, the code names that build a ``Covering`` (``as_covering``
    when it is checked); ``graphs``, the validating ``FiniteGraph(...)``
    constructions; ``walks``, the graphs whose components are walked; and
    ``permreps``, the validating ``PermRep(...)`` constructions."""
    for cls, name, build in (
            (pc.FiniteGraph, "_of_tables", guard.unguarded_of_tables),
            (pc.GraphMorphism, "_of_maps", guard.unguarded_of_maps),
            (pc.Congruence, "_of_partition", guard.unguarded_of_partition),
            (pc.PermRep, "_of_moves", guard.unguarded_of_moves)):
        monkeypatch.setattr(cls, name, classmethod(build))
    init, check = guard.unguarded_init, pc.GraphMorphism.__init__
    partition = vars(pc.FiniteGraph)["_components"]
    build, walk = pc.FiniteGraph.__init__, partition.func
    rep_init = pc.PermRep.__init__
    seen = SimpleNamespace(validated=[], builders=[], graphs=[], walks=[],
                           permreps=[])

    def recorded(self, *args, **kwargs):
        seen.builders.append(sys._getframe(1).f_code.co_name)
        init(self, *args, **kwargs)

    def counted(self, *args):
        seen.validated.append(self)
        check(self, *args)

    def built(self, *args, **kwargs):
        seen.graphs.append(self)
        build(self, *args, **kwargs)

    def walked(g):
        seen.walks.append(g)
        return walk(g)

    def checked_rep(self, *args):
        seen.permreps.append(self)
        rep_init(self, *args)

    monkeypatch.setattr(pc.Covering, "__init__", recorded)
    monkeypatch.setattr(pc.GraphMorphism, "__init__", counted)
    monkeypatch.setattr(pc.FiniteGraph, "__init__", built)
    monkeypatch.setattr(partition, "func", walked)
    monkeypatch.setattr(pc.PermRep, "__init__", checked_rep)
    return seen


def record_spanning_trees(monkeypatch) -> list:
    """Record each spanning tree that ``pi1_data`` builds as (graph, root),
    passing it through.  Only ``pi1_data`` calls ``spanning_tree`` by its
    name in ``procover.graphs``, so a direct ``pc.spanning_tree`` call made
    by a test is not recorded."""
    build, calls = graphs.spanning_tree, []

    def recorded(g, root):
        calls.append((g, root))
        return build(g, root)

    monkeypatch.setattr(graphs, "spanning_tree", recorded)
    return calls


def queued_spanning_tree(g: pc.FiniteGraph, root: str) -> tuple[dict, set]:
    """Oracle for ``spanning_tree``: the breadth-first search with a
    ``deque`` and the graph's ``star`` and ``target`` methods that it
    replaced, which adds each tree dart pair as it is found.  Returns the
    parent darts and the tree darts."""
    if root not in g._vertex_set:
        raise pc.GraphError("unknown root vertex %r" % root)
    parent: dict = {}
    seen = {root}
    tree: set = set()
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for d in g.star(x):
            w = g.target(d)
            if w not in seen:
                seen.add(w)
                queue.append(w)
                tree.add(d)
                tree.add(g.inv[d])
                parent[w] = g.inv[d]
    if len(seen) != len(g.vertices):
        raise pc.GraphError("graph is not connected: %r unreachable from %r"
                            % (sorted(set(g.vertices) - seen)[0], root))
    return parent, tree


def scanned_fiber(c: pc.Covering, u: str) -> tuple:
    """Oracle for ``Covering.fiber``: the vertices over ``u`` picked from
    the items of the vertex map, then sorted."""
    return tuple(sorted(v for v, w in c.map.vmap.items() if w == u))


def grouped_fibers(f: pc.GraphMorphism) -> dict:
    """{base vertex: the vertices over it, sorted}, every fiber grouped in
    one pass over the cover's vertices, as the covering's
    ``vertex_fibers`` grouped them before ``Covering.fiber`` read one fiber
    at a time."""
    fibers = {u: [] for u in f.codomain.vertices}
    for v in f.domain.vertices:
        fibers[f.vmap[v]].append(v)
    return {u: tuple(sorted(vs)) for u, vs in fibers.items()}


def wrap_morphism(n: int, m: int) -> pc.GraphMorphism:
    """The m-periodic wrap of the n-cycle onto the m-cycle (m divides n)."""
    assert n % m == 0
    big, small = pc.cycle_graph(n), pc.cycle_graph(m)
    vmap = {"v%d" % i: "v%d" % (i % m) for i in range(n)}
    dmap = {}
    for i in range(n):
        dmap["e%d+" % i] = "e%d+" % (i % m)
        dmap["e%d-" % i] = "e%d-" % (i % m)
    return pc.GraphMorphism(big, small, vmap, dmap)


def rotation(n: int, k: int) -> pc.GraphMorphism:
    """Rotation of the n-cycle by k steps."""
    g = pc.cycle_graph(n)
    vmap = {"v%d" % i: "v%d" % ((i + k) % n) for i in range(n)}
    dmap = {}
    for i in range(n):
        dmap["e%d+" % i] = "e%d+" % ((i + k) % n)
        dmap["e%d-" % i] = "e%d-" % ((i + k) % n)
    return pc.GraphMorphism(g, g, vmap, dmap)


def rotation_action(n: int, step: int) -> pc.GroupAction:
    """Cyclic group of order n//step acting on the n-cycle by step-rotations."""
    assert n % step == 0
    order = n // step
    morphisms = {"r%d" % j: rotation(n, j * step) for j in range(order)}
    return pc.GroupAction(pc.cycle_graph(n), morphisms)


def theta_graph() -> pc.FiniteGraph:
    """Two vertices joined by three parallel edges (rank 2)."""
    return pc.FiniteGraph.from_edges(
        ["v0", "v1"],
        [("e0", "v0", "v1"), ("e1", "v0", "v1"), ("e2", "v0", "v1")],
        name="theta")


def cycle_with_loop() -> pc.FiniteGraph:
    """3-cycle with an extra loop at v0 (rank 2)."""
    return pc.FiniteGraph.from_edges(
        ["v0", "v1", "v2"],
        [("e0", "v0", "v1"), ("e1", "v1", "v2"), ("e2", "v2", "v0"),
         ("l0", "v0", "v0")],
        name="C3+loop")


def cycle_with_parallel() -> pc.FiniteGraph:
    """3-cycle with a doubled edge (rank 2)."""
    return pc.FiniteGraph.from_edges(
        ["v0", "v1", "v2"],
        [("e0", "v0", "v1"), ("e1", "v1", "v2"), ("e2", "v2", "v0"),
         ("p0", "v0", "v1")],
        name="C3+parallel")


def two_cycles(n: int) -> pc.FiniteGraph:
    """Disjoint union of two n-cycles (vertices a*/b*)."""
    vertices = ["a%d" % i for i in range(n)] + ["b%d" % i for i in range(n)]
    edges = [("ea%d" % i, "a%d" % i, "a%d" % ((i + 1) % n)) for i in range(n)]
    edges += [("eb%d" % i, "b%d" % i, "b%d" % ((i + 1) % n)) for i in range(n)]
    return pc.FiniteGraph.from_edges(vertices, edges, name="2C%d" % n)


def path_graph(n: int) -> pc.FiniteGraph:
    """Path on ``n`` vertices (``n - 1`` edges)."""
    vertices = ["v%d" % i for i in range(n)]
    edges = [("e%d" % i, "v%d" % i, "v%d" % (i + 1)) for i in range(n - 1)]
    return pc.FiniteGraph.from_edges(vertices, edges, name="P%d" % n)


def is_bijective(m: pc.GraphMorphism) -> bool:
    """Whether ``m`` is a bijection on vertices and on darts."""
    return (len(m.domain.vertices) == len(m.codomain.vertices)
            and len(m.domain.darts) == len(m.codomain.darts)
            and m.is_surjective())


def transport_basepoint(rep: pc.PermRep, w: pc.FreeWord) -> pc.PermRep:
    """The image subgroup after moving the basepoint along the path class
    ``w``: the conjugate stabilizer, canonically relabelled."""
    return rep.rebased(rep.act(0, w))


def fiber_transport(c: pc.Covering, e: str) -> dict:
    """The bijection fiber(src(e)) -> fiber(t(e)) given by following the
    lifts of ``e``, read off the fiber of cover darts over ``e``;
    transporting along inv(e) inverts it."""
    if e not in c.codomain._dart_set:
        raise pc.GraphError("unknown dart %r" % e)
    g = c.domain
    out = {g.src[d]: g.target(d) for d in g.darts if c.map.dmap[d] == e}
    assert len(out) == len(scanned_fiber(c, c.codomain.src[e]))
    assert len(set(out.values())) == len(out)
    return out


def transport_monodromy(c: pc.Covering, a: str, p: pc.Pi1Data) -> pc.PermRep:
    """The monodromy ``image_subgroup`` replaced: for each basis loop, the
    fiber transports of its darts composed one whole fiber at a time, with
    ``a`` labelled 0 and the other fiber points in fiber order."""
    fiber = scanned_fiber(c, p.basepoint)
    label = {a: 0}
    for x in fiber:
        if x != a:
            label[x] = len(label)
    perms = []
    for k in range(p.rank):
        transport = {x: x for x in fiber}
        for d in p.basis_loop(k):
            step = fiber_transport(c, d)
            transport = {x: step[y] for x, y in transport.items()}
        perm = [0] * len(fiber)
        for x, y in transport.items():
            perm[label[x]] = label[y]
        perms.append(tuple(perm))
    return pc.PermRep(p.rank, len(fiber), perms)


def walked_monodromy(c: pc.Covering, a: str, p: pc.Pi1Data) -> pc.PermRep:
    """The monodromy ``image_subgroup`` replaced: generator x_k sends a
    fiber point to the end of the lift of basis loop k that starts there,
    followed one dart at a time through ``c.lifts``, with ``a`` labelled 0
    and the other fiber points in fiber order."""
    fiber = scanned_fiber(c, p.basepoint)
    label = {a: 0}
    for x in fiber:
        if x != a:
            label[x] = len(label)
    lifts, src, inv = c.lifts, c.domain.src, c.domain.inv
    perms = []
    for k in range(p.rank):
        loop = p.basis_loop(k)
        perm = [0] * len(fiber)
        for x in fiber:
            y = x
            for d in loop:
                y = src[inv[lifts[y][d]]]
            perm[label[x]] = label[y]
        perms.append(tuple(perm))
    return pc.PermRep(p.rank, len(fiber), perms)


def cyclic_rep(n: int) -> pc.PermRep:
    """The index-n subgroup of the rank-1 free group (an n-cycle)."""
    return pc.PermRep(1, n, [tuple((i + 1) % n for i in range(n))])


def trivial_rep(rank: int) -> pc.PermRep:
    return pc.PermRep(rank, 1, [(0,)] * rank)


def s3_regular_rep() -> pc.PermRep:
    """Kernel of the surjection of the rank-2 free group onto the symmetric
    group on three letters, as the regular coset action (degree 6)."""
    elems = sorted(itertools.permutations(range(3)))

    def mult(a, b):
        return tuple(b[a[i]] for i in range(3))

    index = {g: i for i, g in enumerate(elems)}
    s, t = (1, 0, 2), (1, 2, 0)
    perms = []
    for gen in (s, t):
        perms.append(tuple(index[mult(elems[i], gen)] for i in range(6)))
    return pc.PermRep(2, 6, perms)


@functools.lru_cache(maxsize=None)
def recursive_subgroup_count(rank: int, index: int) -> int:
    """The count ``subgroup_count`` replaced, with each factorial power
    recomputed per term: N(n) = n*(n!)^(r-1) - sum_{k<n} ((n-k)!)^(r-1) N(k)."""
    if rank == 0:
        return 1 if index == 1 else 0
    total = index * math.factorial(index) ** (rank - 1)
    for k in range(1, index):
        total -= (math.factorial(index - k) ** (rank - 1)
                  * recursive_subgroup_count(rank, k))
    return total


def brute_force_canonical_keys(rank: int, degree: int) -> set:
    """Oracle enumeration of index-``degree`` subgroups: all permutation
    tuples, an independent transitivity filter, canonical-form dedup."""
    keys = set()
    for tables in itertools.product(itertools.permutations(range(degree)),
                                    repeat=rank):
        seen = {0}
        frontier = [0]
        while frontier:
            a = frontier.pop()
            for p in tables:
                for b in (p[a], p.index(a)):
                    if b not in seen:
                        seen.add(b)
                        frontier.append(b)
        if len(seen) != degree:
            continue
        keys.add(pc.PermRep(rank, degree, tables).canonical_key())
    return keys


@functools.lru_cache(maxsize=None)
def recursive_canonical_tables(rank: int, degree: int) -> tuple:
    """Oracle for the low-index search: the recursive generator it replaced.

    Fills the table slot by slot in scan order (point, generator, sign with
    forward before backward), one recursion level per slot, giving a fresh
    point only the next unused label; returns the completed tables in the
    order visited.
    """
    if rank == 0:
        return ((),) if degree == 1 else ()
    fwd = [[-1] * degree for _ in range(rank)]
    bwd = [[-1] * degree for _ in range(rank)]
    slots = [(p, i, s) for p in range(degree) for i in range(rank) for s in (0, 1)]

    def rec(si: int, used: int):
        if si == len(slots):
            if used == degree:
                yield tuple(tuple(row) for row in fwd)
            return
        p, i, s = slots[si]
        if p >= used:
            return
        table, other = (fwd[i], bwd[i]) if s == 0 else (bwd[i], fwd[i])
        if table[p] != -1:
            yield from rec(si + 1, used)
            return
        for q in range(used):
            if other[q] == -1:
                table[p], other[q] = q, p
                yield from rec(si + 1, used)
                table[p], other[q] = -1, -1
        if used < degree:
            table[p], other[used] = used, p
            yield from rec(si + 1, used + 1)
            table[p], other[used] = -1, -1

    return tuple(rec(0, 1))


def partial_forced_map(pairs, n: int, c: int):
    """The forced map 0 -> c of ``freegroup._forced_map`` on partial
    tables, as the per-degree search pruned with it: -1 marks an entry
    not yet defined, and a move undefined at either end is skipped.  The
    image list, or None when two moves force two images of one point."""
    image = [-1] * n
    image[0] = c
    queue = [0]
    for a in queue:
        ma = image[a]
        for s, d in pairs:
            b, mb = s[a], d[ma]
            if b < 0 or mb < 0:
                continue
            if image[b] < 0:
                image[b] = mb
                queue.append(b)
            elif image[b] != mb:
                return None
    return image


def per_degree_canonical_tables(rank: int, degree: int, normal_only: bool):
    """Oracle for the one-pass low-index search: the search it replaced,
    which yields the canonical tables of one degree, as ``_moves`` rows.

    Slots are filled in scan order, a fresh point gets the next unused
    label only while fewer than ``degree`` are used, and a table is
    yielded when every slot is filled.  With ``normal_only`` every
    definition that closes onto an existing point runs
    :func:`partial_forced_map` 0 -> c for each created c >= 1 from
    scratch, and the branch is cut when one fails."""
    if rank == 0:
        if degree == 1:
            yield ()
        return
    moves = [[-1] * degree for _ in range(2 * rank)]
    pairs = list(zip(moves, moves))
    slots = [(p, moves[k], moves[k ^ 1])
             for p in range(degree) for k in range(2 * rank)]
    nslots = len(slots)
    stack = []
    si, q, used = 0, 0, 1
    while True:
        while si < nslots:
            p, table, other = slots[si]
            if table[p] < 0:
                break
            si += 1
        if si == nslots:
            yield tuple(map(tuple, moves))
        elif p < used:
            top = used + 1 if used < degree else degree
            while q < top:
                if other[q] < 0:
                    table[p], other[q] = q, p
                    if (q == used or not normal_only
                            or all(partial_forced_map(pairs, used, c)
                                   for c in range(1, used))):
                        break
                    table[p] = other[q] = -1
                q += 1
            if q < top:
                stack.append((si, q, used))
                if q == used:
                    used += 1
                si, q = si + 1, 0
                continue
        if not stack:
            return
        si, q, used = stack.pop()
        p, table, other = slots[si]
        table[p] = other[q] = -1
        q += 1


def per_degree_low_index(rank: int, max_degree: int, normal_only: bool) -> list:
    """Oracle for ``pc.low_index_reps``: ``(degree, _moves)`` of every
    subgroup of index <= max_degree, one search per degree, in order."""
    return [(degree, moves) for degree in range(1, max_degree + 1)
            for moves in per_degree_canonical_tables(rank, degree, normal_only)]


def semiregular(tables) -> bool:
    """Whether every generator's permutation has all cycles of one length.

    Necessary for normality: a normal subgroup's coset action is regular,
    so an element fixing one point fixes all, and each power of a generator
    fixes either every point or none.
    """
    for perm in tables:
        seen = set()
        lengths = set()
        for a in range(len(perm)):
            n, b = 0, a
            while b not in seen:
                seen.add(b)
                b, n = perm[b], n + 1
            if n:
                lengths.add(n)
        if len(lengths) > 1:
            return False
    return True


def all_points_is_normal(rep: pc.PermRep) -> bool:
    """Oracle for ``pc.is_normal``: the test it replaced, which runs the
    forced map 0 -> c for every point c rather than the generators'
    images of 0."""
    pairs, n = list(zip(rep._moves, rep._moves)), rep.degree
    return all(_forced_map(pairs, n, c) for c in range(1, n))


def refusal_oracle(rank: int, max_degree: int, max_work: int):
    """Oracle for the refusal of ``pc.low_index_reps``: its message from the
    loop it replaced, which sums the subgroup counts degree by degree from
    degree 1 whatever the rank, or None when nothing is refused."""
    predicted = 0
    for n in range(1, max_degree + 1):
        predicted += pc.subgroup_count(rank, n)
        if predicted > max_work:
            count = ("%d" % predicted if predicted.bit_length() <= 64
                     else "2^%d" % (predicted.bit_length() - 1))
            return ("enumeration of rank %d, degree <= %d would visit at least "
                    "%s subgroups (those of degree <= %d), above the work "
                    "bound %d; raise max_work to proceed"
                    % (rank, max_degree, count, n, max_work))
    return None


def schreier_is_normal(rep: pc.PermRep) -> bool:
    """Oracle for ``pc.is_normal``: Stab(0) is normal exactly when every
    Schreier generator fixes every coset."""
    return all(rep.act(p, w) == p
               for w in rep.schreier_generators()
               for p in range(rep.degree))


def schreier_subgroup_leq(h: pc.PermRep, k: pc.PermRep) -> bool:
    """Oracle for ``pc.subgroup_leq``: the decider it replaced, which pushes
    every Schreier generator of ``h`` through the action of ``k``."""
    if h.rank != k.rank:
        raise ValueError("rank mismatch: %d vs %d" % (h.rank, k.rank))
    return all(k.act(0, w) == 0 for w in h.schreier_generators())


def schreier_pushforward_leq(n_src: pc.PermRep, images: pc.GeneratorImages,
                             n_tgt: pc.PermRep) -> bool:
    """Oracle for ``pc.pushforward_leq``: every Schreier generator of
    ``n_src``, substituted through the images, fixes the target's 0."""
    return all(n_tgt.act(0, pc.substitute(w, images)) == 0
               for w in n_src.schreier_generators())


def canonical_key_equivalent(a: pc.PermRep, b: pc.PermRep) -> bool:
    """Oracle for ``pc.rep_equivalent``: equal canonical relabellings."""
    if a.rank != b.rank:
        raise ValueError("rank mismatch: %d vs %d" % (a.rank, b.rank))
    return a.canonical_key() == b.canonical_key()


def injective_forced_map_extends(moves, used: int, c: int) -> bool:
    """Oracle for the forced-map test: the version that also failed when
    two points were forced onto one image."""
    image = [-1] * used
    preimage = [-1] * used
    image[0], preimage[c] = c, 0
    queue = [0]
    for a in queue:
        ma = image[a]
        for table in moves:
            b, mb = table[a], table[ma]
            if b < 0 or mb < 0:
                continue
            if image[b] < 0:
                if preimage[mb] >= 0:
                    return False
                image[b], preimage[mb] = mb, b
                queue.append(b)
            elif image[b] != mb:
                return False
    return True


def injective_normalizer_points(rep: pc.PermRep) -> tuple:
    """Oracle for ``normalizer_points``: the injective forced map run over
    tables rebuilt from ``perms`` alone."""
    moves = []
    for p in rep.perms:
        inv = [0] * rep.degree
        for a, b in enumerate(p):
            inv[b] = a
        moves += [p, inv]
    return tuple(c for c in range(rep.degree)
                 if injective_forced_map_extends(moves, rep.degree, c))


def validating_permrep(rank: int, degree: int, perms) -> pc.PermRep:
    """Oracle for the ``PermRep`` constructor: the constructor it replaced,
    which sorts every row of every table and checks transitivity by
    walking the orbit of 0 under every move, with its own walk.  Its value
    carries every attribute the constructor sets."""
    self = pc.PermRep.__new__(pc.PermRep)
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if len(perms) != rank:
        raise ValueError("expected %d permutations, got %d" % (rank, len(perms)))
    self.rank = rank
    self.degree = degree
    points = range(degree)
    moves: list[tuple[int, ...]] = []
    for p in tuple(tuple(p) for p in perms):
        if sorted(p) != list(points):
            raise ValueError("%r is not a permutation of 0..%d" % (p, degree - 1))
        moves += (p, tuple(sorted(points, key=p.__getitem__)))
    self._moves = tuple(moves)
    self.perms = self._moves[::2]

    def orbit(start):
        seen, frontier = {start}, [start]
        while frontier:
            a = frontier.pop()
            for table in self._moves:
                if table[a] not in seen:
                    seen.add(table[a])
                    frontier.append(table[a])
        return sorted(seen)

    if len(orbit(0)) != degree:
        orbits = []
        placed: set[int] = set()
        for p in points:
            if p not in placed:
                orbits.append(orbit(p))
                placed.update(orbits[-1])
        raise NotTransitiveError(
            "action is not transitive: %d orbits" % len(orbits), orbits)
    return self


def relabelled(rep: pc.PermRep, c: int, rng) -> pc.PermRep:
    """The conjugate Stab(c) as an action whose points are shuffled at
    random, with c relabelled 0."""
    rest = [p for p in range(rep.degree) if p != c]
    rng.shuffle(rest)
    label = {p: k for k, p in enumerate([c] + rest)}
    perms = []
    for p in rep.perms:
        q = [0] * rep.degree
        for a in range(rep.degree):
            q[label[a]] = label[p[a]]
        perms.append(q)
    return pc.PermRep(rep.rank, rep.degree, perms)


@functools.lru_cache(maxsize=None)
def normal_tables_oracle(rank: int, degree: int) -> tuple:
    """The oracle's tables whose subgroup :func:`schreier_is_normal`
    accepts, in order.

    Tables failing :func:`semiregular` are skipped without the Schreier
    check, which does not change the result and keeps index-5 cases cheap.
    """
    return tuple(t for t in recursive_canonical_tables(rank, degree)
                 if semiregular(t)
                 and schreier_is_normal(pc.PermRep(rank, degree, t)))


def pro2_tower(k: int) -> pc.Tower:
    """Levels C(3*2^i) wrapping onto C3, bondings the 2-fold wraps."""
    coverings = [pc.as_covering(wrap_morphism(3 * 2 ** i, 3)) for i in range(k + 1)]
    phis = [wrap_morphism(3 * 2 ** (i + 1), 3 * 2 ** i) for i in range(k)]
    psis = [pc.GraphMorphism.identity(pc.cycle_graph(3)) for _ in range(k)]
    return pc.Tower(coverings, phis, psis, basepoints=["v0"] * (k + 1))


def constant_tower(k: int) -> pc.Tower:
    """Every level the same C6 over C3 with identity bondings."""
    cov = pc.as_covering(wrap_morphism(6, 3))
    coverings = [cov] * (k + 1)
    phis = [pc.GraphMorphism.identity(pc.cycle_graph(6))] * k
    psis = [pc.GraphMorphism.identity(pc.cycle_graph(3))] * k
    return pc.Tower(coverings, phis, psis, basepoints=["v0"] * (k + 1))


def zigzag_tower() -> pc.Tower:
    """A two-level tower whose cover step folds the 6-cycle onto one edge of
    the triangle: its square fails and its level-0 kernel pair is not_half."""
    c6, c3 = pc.cycle_graph(6), pc.cycle_graph(3)
    zigzag = pc.GraphMorphism(
        c6, c3, {"v%d" % i: "v%d" % (i % 2) for i in range(6)},
        {"e%d%s" % (i, s): "e0%s" % ("+-"[(i + (s == "-")) % 2])
         for i in range(6) for s in "+-"})
    return pc.Tower([pc.as_covering(pc.GraphMorphism.identity(c3)),
                     pc.as_covering(wrap_morphism(6, 3))],
                    [zigzag], [pc.GraphMorphism.identity(c3)])


def factorial_spec() -> pc.UniversalSpec:
    import math
    c3 = pc.cycle_graph(3)
    return pc.UniversalSpec(
        base=c3, basepoint="v0",
        quotients=[pc.Congruence.diagonal(c3)] * 4,
        normals=[cyclic_rep(math.factorial(i + 1)) for i in range(4)])


def b2_homology_spec() -> pc.UniversalSpec:
    b2 = pc.bouquet_graph(2)
    return pc.UniversalSpec(
        base=b2, basepoint="v0",
        quotients=[pc.Congruence.diagonal(b2)] * 3,
        normals=[trivial_rep(2), pc.translation_kernel_rep(2, 2),
                 pc.translation_kernel_rep(2, 4)])


def non_refining_spec(case: str) -> pc.UniversalSpec:
    """A two-level universal spec whose finer quotient does not refine the
    coarser one: C6 with the diagonal and then the antipodal merge (a
    vertex class splits), or B2 with the diagonal and then its two loops
    merged (a dart class splits)."""
    if case == "vertex class":
        c6 = pc.cycle_graph(6)
        antipodal = pc.kernel_congruence(wrap_morphism(6, 3))
        return pc.UniversalSpec(c6, "v0", [pc.Congruence.diagonal(c6), antipodal],
                                [cyclic_rep(2), cyclic_rep(2)])
    b2 = pc.bouquet_graph(2)
    merged = pc.Congruence(b2, dart_classes=[["e0+", "e1+"], ["e0-", "e1-"]])
    return pc.UniversalSpec(b2, "v0", [pc.Congruence.diagonal(b2), merged],
                            [trivial_rep(2), trivial_rep(1)])


@functools.lru_cache(maxsize=None)
def rank2_reps():
    return tuple(pc.low_index_reps(2, 4))


@functools.lru_cache(maxsize=None)
def b2_covers():
    """Every cover of the two-loop bouquet of degree at most four."""
    b2 = pc.bouquet_graph(2)
    out = []
    for h in rank2_reps():
        cover, base, cov = pc.cover_from_subgroup(b2, "v0", h)
        out.append((h, base, cov))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def cyclic_family():
    return tuple(pc.as_covering(wrap_morphism(3 * m, 3)) for m in range(1, 9))


def composed_deck_oracle(cov: pc.Covering):
    """Deck group of a connected cover built from full morphisms.

    Elements are the lifts over the fiber of the first vertex, identity
    first; the table composes them pairwise with ``compose`` and matches
    each composite to an element by morphism equality.  Returns
    (elements, table, inverse) in the layout of ``pc.DeckGroup``.
    """
    a0 = cov.domain.vertices[0]
    lifts = {}
    for a in scanned_fiber(cov, cov.map.vmap[a0]):
        try:
            lifts[a] = pc.lift(cov.map, cov, a0, a)
        except pc.LiftObstruction:
            pass
    elements = [lifts[a0]] + [h for a, h in lifts.items() if a != a0]
    index = {h: i for i, h in enumerate(elements)}
    table = tuple(tuple(index[pc.compose(hi, hj)] for hj in elements)
                  for hi in elements)
    ident = pc.GraphMorphism.identity(cov.domain)
    inverse = tuple(next(j for j, hj in enumerate(elements)
                         if pc.compose(hi, hj) == ident)
                    for hi in elements)
    return tuple(elements), table, inverse


def unsieved_normalizer_generators(rep: pc.PermRep) -> tuple:
    """Oracle for ``_normalizer_generators``: the search before the cycle
    sieve, which runs the forced map at every point that neither the orbit
    of 0 nor a failed point's orbit holds."""
    pairs, n = list(zip(rep._moves, rep._moves)), rep.degree
    gens, orbit, outside = [], {0}, set()

    def orbit_of(point):
        seen, order = {point}, [point]
        for a in order:
            for g in gens:
                if g[a] not in seen:
                    seen.add(g[a])
                    order.append(g[a])
        return seen

    for c in range(1, n):
        if c in orbit or c in outside:
            continue
        phi = _forced_map(pairs, n, c)
        if phi is None:
            outside |= orbit_of(c)
        else:
            gens.append(phi)
            orbit = orbit_of(0)
    return gens, orbit


def dihedral_natural_rep(m: int) -> pc.PermRep:
    """The dihedral group acting on the m corners of an m-gon, by the
    rotation i -> i + 1 and the reflection i -> -i: for even m the
    stabilizer of corner 0 has the two normalizer points 0 and m/2."""
    return pc.PermRep(2, m, [[(i + 1) % m for i in range(m)],
                             [-i % m for i in range(m)]])


def per_point_normalizer_points(rep: pc.PermRep) -> tuple:
    """Oracle for ``normalizer_points``: the search it replaced, which runs
    the forced map 0 -> c from every point c."""
    pairs, n = list(zip(rep._moves, rep._moves)), rep.degree
    return (0,) + tuple(c for c in range(1, n)
                        if _forced_map(pairs, n, c) is not None)


@dataclass(frozen=True)
class DeckRecord:
    """A deck group as the eager oracles give it: every element built, in
    the order of ``pc.deck_group``, and the composition table."""

    covering: pc.Covering
    elements: tuple
    table: tuple

    @property
    def order(self) -> int:
        return len(self.elements)


def lift_deck_group(c: pc.Covering) -> DeckRecord:
    """Oracle for ``pc.deck_group``: an earlier construction, which finds
    the normalizer points with one forced map per fiber point and then
    lifts the covering map through itself once per point, with the same
    checks on the elements, table and order."""
    if not pc.is_connected(c.domain) or not pc.is_connected(c.codomain):
        raise ValueError("cover and base must be connected")
    a0 = c.domain.vertices[0]
    rep = pc.image_subgroup(c, a0, pc.pi1_data(c.codomain, c.map.vmap[a0]))
    fiber = scanned_fiber(c, c.map.vmap[a0])
    elements = [pc.lift(c.map, c, a0, fiber[k])
                for k in per_point_normalizer_points(rep)]
    for h in elements[1:]:
        assert all(a != b for a, b in h.vmap.items())
        assert all(d != e for d, e in h.dmap.items())
    at = {h.vmap[a0]: i for i, h in enumerate(elements)}
    table = [[at[hi.vmap[hj.vmap[a0]]] for hj in elements] for hi in elements]
    assert c.degree % len(elements) == 0
    return DeckRecord(c, tuple(elements), tuple(map(tuple, table)))


def eager_deck_group(c: pc.Covering) -> DeckRecord:
    """Oracle for ``pc.deck_group``: the construction it replaced, which
    builds and validates every element by sheet transport before it
    reads the table off the elements' images of the first vertex."""
    a0 = c.domain.vertices[0]
    p = pc.pi1_data(c.codomain, c.map.vmap[a0])
    rep = walked_monodromy(c, a0, p)
    base, cover = c.codomain, c.domain
    lifts, src, inv = c.lifts, cover.src, cover.inv
    ends = {p.basepoint: scanned_fiber(c, p.basepoint)}
    for w, up in p.parent_dart.items():
        down = base.inv[up]
        ends[w] = [src[inv[lifts[u][down]]] for u in ends[base.src[down]]]
    vrows = list(ends.values())
    drows = [[lifts[u][d] for u in ends[base.src[d]]] for d in base.darts]
    vertices = list(itertools.chain.from_iterable(vrows))
    darts = list(itertools.chain.from_iterable(drows))

    def moved(rows, phi):
        return itertools.chain.from_iterable(map(row.__getitem__, phi)
                                             for row in rows)

    automorphisms = _automorphisms(rep)
    elements = []
    for k in sorted(automorphisms):
        phi = automorphisms[k]
        elements.append(pc.GraphMorphism(cover, cover,
                                         dict(zip(vertices, moved(vrows, phi))),
                                         dict(zip(darts, moved(drows, phi)))))
    for h in elements[1:]:
        assert all(a != b for a, b in h.vmap.items())
        assert all(d != e for d, e in h.dmap.items())
    at = {h.vmap[a0]: i for i, h in enumerate(elements)}
    table = tuple(tuple(at[hi.vmap[hj.vmap[a0]]] for hj in elements)
                  for hi in elements)
    assert c.degree % len(elements) == 0
    return DeckRecord(c, tuple(elements), table)


def eager_deck_rows(c: pc.Covering) -> tuple:
    """Oracle for the facts ``DeckGroup`` derives on first read: the body
    of ``deck_group`` that built them up front, returning the
    automorphisms, the vertex rows, the dart rows and the composition
    table, read off the covering's sheet rows and monodromy."""
    rows, rep = c._sheets
    base, lifts = c.codomain, c.lifts
    vrows = list(rows.values())
    drows = [[lifts[u][d] for u in rows[base.src[d]]] for d in base.darts]
    automorphisms = _automorphisms(rep)
    images = sorted(automorphisms)
    phis = list(map(automorphisms.__getitem__, images))
    at = dict(zip(images, range(len(phis))))
    table = tuple(tuple(map(at.__getitem__, map(phi.__getitem__, images)))
                  for phi in phis)
    return phis, vrows, drows, table


def congruence_orbit_quotient(graph: pc.FiniteGraph, maps: list):
    """Oracle for the orbit quotient: the construction it replaced, which
    collects the orbits of the maps, checks them as a ``pc.Congruence`` and
    quotients by it."""
    orbits = []
    for points, images in ((graph.vertices, [m.vmap for m in maps]),
                           (graph.darts, [m.dmap for m in maps])):
        classes, seen = [], set()
        for x in points:
            if x not in seen:
                orbit = sorted({image[x] for image in images})
                seen.update(orbit)
                classes.append(orbit)
        orbits.append(classes)
    qg, proj = pc.quotient(graph, pc.Congruence(graph, *orbits))
    cov = pc.as_covering(proj)
    assert cov.degree == len(maps)
    return qg, cov


def direct_orbit_quotient(graph: pc.FiniteGraph, maps: list):
    """Oracle for the orbit quotient: the direct construction it replaced,
    which names each class by its least member, builds the orbit graph
    itself and validates the projection as a morphism."""
    vrep, drep = {}, {}
    for points, images, rep in ((graph.vertices, [m.vmap for m in maps], vrep),
                                (graph.darts, [m.dmap for m in maps], drep)):
        for x in points:
            if x not in rep:
                orbit = {image[x] for image in images}
                rep.update(dict.fromkeys(orbit, min(orbit)))
    src, inv = graph.src, graph.inv
    ids = set(drep.values())
    qinv = {d: drep[inv[d]] for d in ids}
    assert all(qinv[d] != d for d in ids)
    qg = pc.FiniteGraph(set(vrep.values()), ids,
                        {d: vrep[src[d]] for d in ids}, qinv, name=graph.name)
    cov = pc.as_covering(pc.GraphMorphism(graph, qg, vrep, drep))
    assert cov.degree == len(maps)
    return qg, cov


def congruence_quotient_by_deck_subgroup(deck, indices):
    """Oracle for ``pc.quotient_by_deck_subgroup``: the construction it
    replaced, which quotients by the orbits of the subgroup's deck
    elements through :func:`congruence_orbit_quotient`."""
    c = deck.covering
    chosen = _deck_subgroup(deck, indices)
    qg, h_map = congruence_orbit_quotient(c.domain,
                                          [deck.element(i) for i in chosen])
    vmap = {v: c.map.vmap[v] for v in qg.vertices}
    dmap = {d: c.map.dmap[d] for d in qg.darts}
    f_h = pc.as_covering(pc.GraphMorphism(qg, c.codomain, vmap, dmap))
    assert pc.compose(f_h.map, h_map.map) == c.map
    assert f_h.degree * h_map.degree == c.degree
    return qg, h_map, f_h


def validating_from_edges(vertices, edges, name=None) -> pc.FiniteGraph:
    """Oracle for ``FiniteGraph.from_edges``: the builder it replaced, which
    hands its tables to the validating ``FiniteGraph(...)``."""
    src, inv, darts, seen = {}, {}, [], set()
    for eid, a, b in edges:
        if eid in seen:
            raise pc.GraphError("duplicate edge id %r" % eid)
        seen.add(eid)
        pos, neg = eid + "+", eid + "-"
        darts += [pos, neg]
        src[pos], src[neg] = a, b
        inv[pos], inv[neg] = neg, pos
    return pc.FiniteGraph(vertices, darts, src, inv, name=name)


def entrywise_graph_from_obj(obj) -> pc.FiniteGraph:
    """Oracle for ``formats.graph_from_obj``: the reader it replaced, which
    reads every key of every edge entry through ``formats._get`` and builds
    through :func:`validating_from_edges`."""
    _expect(obj, GRAPH_FORMAT)
    vertices = _str_list(obj, "vertices")
    edges = []
    for entry in _get(obj, "edges", list):
        if not isinstance(entry, dict):
            raise FormatError("edge entries must be objects")
        edges.append((_get(entry, "id", str), _get(entry, "src", str),
                      _get(entry, "dst", str)))
    name = None
    if obj.get("name") is not None:
        name = _get(obj, "name", str)
    try:
        return validating_from_edges(vertices, edges, name=name)
    except pc.GraphError as exc:
        raise FormatError("bad graph document: %s" % exc) from exc


def entrywise_maps_from_obj(obj, domain, codomain):
    """Oracle for ``formats._maps_from_obj``: the reader it replaced, which
    reads both keys of every ``edge_map`` entry through ``formats._get``,
    with edge tables built here from the dart pairs and their stems."""
    vmap = _get(obj, "vertex_map", dict)
    if not all(isinstance(v, str) for v in vmap.values()):
        raise FormatError("vertex_map values must be vertex ids")
    edge_entries = _get(obj, "edge_map", dict)
    dmap = {}
    domain_edges = [(edge_stem(d, domain.inv[d]), d, domain.inv[d])
                    for d in domain.darts if d < domain.inv[d]]
    codomain_index = {edge_stem(d, codomain.inv[d]): (d, codomain.inv[d])
                      for d in codomain.darts if d < codomain.inv[d]}
    for eid, pos, neg in domain_edges:
        if eid not in edge_entries:
            raise FormatError("edge_map is missing edge %r" % eid)
        entry = edge_entries[eid]
        target = _get(entry, "edge", str)
        flip = _get(entry, "flip", bool)
        if target not in codomain_index:
            raise FormatError("edge_map sends %r to unknown edge %r" % (eid, target))
        tpos, tneg = codomain_index[target]
        dmap[pos], dmap[neg] = ((tneg, tpos) if flip else (tpos, tneg))
    return vmap, dmap


def checked_kernel_congruence(f: pc.GraphMorphism) -> pc.Congruence:
    """Oracle for ``pc.kernel_congruence``: the construction it replaced,
    which passes the fibers of ``f`` through every check of
    ``pc.Congruence``."""
    vfib: dict = {}
    for v in f.domain.vertices:
        vfib.setdefault(f.vmap[v], []).append(v)
    dfib: dict = {}
    for d in f.domain.darts:
        dfib.setdefault(f.dmap[d], []).append(d)
    return pc.Congruence(f.domain, vfib.values(), dfib.values())


def old_as_covering(f: pc.GraphMorphism) -> SimpleNamespace:
    """Oracle for ``pc.as_covering``: the recognizer it replaced, which
    walks the sorted vertices, asks the graphs for each star and compares
    each image star with a fresh set, and which computed the fibers and
    degrees of every covering up front, checking that the fiber sizes
    agree inside each component.  Returns those values by the names the
    ``Covering`` attributes had (``vertex_fibers``, the grouped fibers,
    is now read one fiber at a time by ``Covering.fiber``)."""
    dom, cod = f.domain, f.codomain
    lifts = {}
    for v in dom.vertices:
        star = dom.star(v)
        over = lifts[v] = {f.dmap[d]: d for d in star}
        if len(over) != len(star):
            raise pc.NotACoveringError(
                v, "two darts at the vertex have the same image")
        below = cod.star(f.vmap[v])
        if over.keys() != set(below):
            raise pc.NotACoveringError(
                v, "star maps onto %d of %d darts at %r"
                % (len(star), len(below), f.vmap[v]))
    vertex_fibers = grouped_fibers(f)
    component_degrees = []
    for comp in pc.components(cod):
        sizes = {len(vertex_fibers[u]) for u in comp}
        assert len(sizes) == 1
        component_degrees.append((comp[0], sizes.pop()))
    sizes = {n for _, n in component_degrees}
    degree = sizes.pop() if len(sizes) == 1 else None
    return SimpleNamespace(map=f, lifts=lifts, vertex_fibers=vertex_fibers,
                           degree=degree,
                           component_degrees=tuple(component_degrees))


def old_cover_from_subgroup(base: pc.FiniteGraph, basepoint: str,
                            rep: pc.PermRep):
    """Oracle for ``pc.cover_from_subgroup``: the voltage construction it
    replaced, which formats every name where it is used and moves each
    sheet by running the dart's voltage word through ``rep.act``."""
    p = pc.pi1_data(base, basepoint)
    assert rep.rank == p.rank
    n = rep.degree

    def vert(v, s):
        return "%s@%d" % (v, s)

    vertices = [vert(v, s) for v in base.vertices for s in range(n)]
    darts, src, inv = [], {}, {}
    vmap, dmap = {}, {}
    for v in base.vertices:
        for s in range(n):
            vmap[vert(v, s)] = v
    for d, e in base.dart_pairs():
        stem = edge_stem(d, e)
        lt = p.letter(d)
        w = pc.FreeWord() if lt is None else pc.FreeWord((lt,))
        for s in range(n):
            q = rep.act(s, w)
            pos, neg = "%s@%d+" % (stem, s), "%s@%d-" % (stem, s)
            darts += [pos, neg]
            src[pos] = vert(base.src[d], s)
            src[neg] = vert(base.src[e], q)
            inv[pos], inv[neg] = neg, pos
            dmap[pos], dmap[neg] = d, e
    cover = pc.FiniteGraph(vertices, darts, src, inv, name=None)
    proj = pc.GraphMorphism(cover, base, vmap, dmap)
    return cover, vert(basepoint, 0), old_as_covering(proj)


def dihedral_regular_rep(k: int) -> pc.PermRep:
    """The regular action of the dihedral group of order 2k on itself by
    right multiplication, generated by a rotation and a reflection: point
    i + k*s is the element r^i f^s, so 0 is the identity."""
    rot, ref = [0] * (2 * k), [0] * (2 * k)
    for s in (0, 1):
        for i in range(k):
            rot[i + k * s] = (i + (1 if s == 0 else -1)) % k + k * s
            ref[i + k * s] = i + k * (1 - s)
    return pc.PermRep(2, 2 * k, [rot, ref])


def three_vertex_base() -> pc.FiniteGraph:
    """A rank-two graph on vertices a, b, c: the triangle with a second
    edge from c to a.  Covers built at b have their least vertex a@0 over
    a, not over the basepoint."""
    return pc.FiniteGraph.from_edges(
        ["a", "b", "c"], [("ab", "a", "b"), ("bc", "b", "c"),
                          ("ca", "c", "a"), ("ca2", "c", "a")], name="T2")


def scanned_deck_hom(phi: pc.GraphMorphism, upper: pc.DeckGroup,
                     lower: pc.DeckGroup) -> tuple[int, ...]:
    """Projection of deck groups through a bonding map by linear scan: the
    index of the one lower element beta with beta o phi == phi o alpha."""
    hom = []
    for alpha in deck_elements(upper):
        target = pc.compose(phi, alpha)
        found = [b for b, beta in enumerate(deck_elements(lower))
                 if pc.compose(beta, phi) == target]
        assert len(found) == 1
        hom.append(found[0])
    return tuple(hom)


def three_way_regularity_oracle(cov: pc.Covering) -> pc.RegularityReport:
    """Regularity of a connected cover decided three independent ways.

    (i) the order of the composed deck group equals the degree; (ii) the
    monodromy image subgroup passes :func:`schreier_is_normal`; (iii) the
    composed deck group is transitive on every vertex fiber.  The three
    must agree; the report carries the verdict and the two numbers in the
    layout of ``pc.is_regular``.
    """
    elements, _table, _inverse = composed_deck_oracle(cov)
    a0 = cov.domain.vertices[0]
    p = pc.pi1_data(cov.codomain, cov.map.vmap[a0])
    by_order = len(elements) == cov.degree
    by_normal = schreier_is_normal(pc.image_subgroup(cov, a0, p))
    by_transitive = all(
        {h.vmap[fiber[0]] for h in elements} == set(fiber)
        for fiber in grouped_fibers(cov.map).values())
    assert by_order == by_normal == by_transitive
    return pc.RegularityReport(regular=by_order, degree=cov.degree,
                               deck_order=len(elements))


def composed_lift_oracle(g: pc.GraphMorphism, cov: pc.Covering,
                         h: pc.GraphMorphism) -> bool:
    """The check ``lift`` used to make: ``c.map o h == g`` through a
    composed, re-validated morphism compared with ``==``."""
    return pc.compose(cov.map, h) == g


def searched_lift(g: pc.GraphMorphism, c: pc.Covering, base_c: str,
                  base_a: str) -> pc.GraphMorphism:
    """Oracle for ``lift``: the breadth-first search it replaced.  Each
    dart is read from the lift table as the search reaches its source,
    with its own discovery table, and an obstruction's witness is walked
    back along the discovery darts: the path out, the dart, the path
    back."""
    if g.codomain != c.codomain:
        raise pc.GraphError("map and covering have different codomains")
    if base_c not in g.domain._vertex_set:
        raise pc.GraphError("unknown source basepoint %r" % base_c)
    if base_a not in c.domain._vertex_set:
        raise pc.GraphError("unknown cover basepoint %r" % base_a)
    if g.vmap[base_c] != c.map.vmap[base_a]:
        raise ValueError("basepoint mismatch: %r maps to %r but %r lies over %r"
                         % (base_c, g.vmap[base_c], base_a, c.map.vmap[base_a]))
    if not pc.is_connected(g.domain):
        raise ValueError("source graph is not connected")
    sigma, gamma = g.domain, c.domain
    sstar, ssrc, sinv = sigma._star, sigma.src, sigma.inv
    gsrc, ginv, gd = gamma.src, gamma.inv, g.dmap

    def path_to(v):
        back = []
        while v != base_c:
            d = reached_by[v]
            back.append(d)
            v = ssrc[d]
        return tuple(reversed(back))

    hv = {base_c: base_a}
    hd: dict = {}
    reached_by: dict = {}
    queue = deque([base_c])
    while queue:
        x = queue.popleft()
        over = c.lifts[hv[x]]
        for d in sstar[x]:
            up = over[gd[d]]
            e, up_e = sinv[d], ginv[up]
            hd[d] = up
            hd[e] = up_e
            w, lw = ssrc[e], gsrc[up_e]
            if w not in hv:
                hv[w] = lw
                reached_by[w] = d
                queue.append(w)
            elif hv[w] != lw:
                back = tuple(sinv[b] for b in reversed(path_to(w)))
                raise pc.LiftObstruction(path_to(x) + (d,) + back)
    return pc.GraphMorphism(sigma, gamma, hv, hd)


def deck_elements(deck: pc.DeckGroup) -> tuple:
    """Every element of the deck group as a morphism, in index order, each
    built by ``DeckGroup.element``."""
    return tuple(map(deck.element, range(deck.order)))


def composed_square_oracle(phi: pc.GraphMorphism, alpha: pc.GraphMorphism,
                           beta: pc.GraphMorphism) -> bool:
    """The check ``deck_tower`` used to make for a projected deck element:
    ``beta o phi == phi o alpha`` as composed morphisms."""
    return pc.compose(beta, phi) == pc.compose(phi, alpha)


def sorted_item_key(m: pc.GraphMorphism) -> tuple:
    """The eager equality key morphisms used to carry: both maps as sorted
    item tuples (``hash(m)`` was ``hash`` of it)."""
    return (tuple(sorted(m.vmap.items())), tuple(sorted(m.dmap.items())))


def fresh_components(g: pc.FiniteGraph) -> tuple:
    """Oracle for ``pc.components``: a depth-first search over ``src`` and
    ``inv`` that keeps nothing, components ordered by least vertex."""
    out_darts: dict = {v: [] for v in g.vertices}
    for d in g.darts:
        out_darts[g.src[d]].append(d)
    seen: set = set()
    comps = []
    for v in g.vertices:
        if v in seen:
            continue
        seen.add(v)
        comp, stack = [v], [v]
        while stack:
            for d in out_darts[stack.pop()]:
                w = g.src[g.inv[d]]
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps))


def path_to_word(p: pc.Pi1Data, path) -> pc.FreeWord:
    """Oracle for the words ``induced_hom`` reads off the letters, and the
    library function it once was: a dart path rewritten through the tree
    of ``p`` into a reduced word.  Tree darts contribute nothing; the word
    of a closed path at the basepoint is its fundamental-group element.
    Raises GraphError on an unknown dart or darts that do not chain head
    to tail."""
    g = p.graph
    letters = []
    prev_end = None
    for d in path:
        if d not in g._dart_set:
            raise pc.GraphError("unknown dart %r in path" % d)
        if prev_end is not None and g.src[d] != prev_end:
            raise pc.GraphError("darts do not form a path at %r" % d)
        prev_end = g.target(d)
        lt = p.letter(d)
        if lt is not None:
            letters.append(lt)
    return pc.FreeWord(letters)


def rewritten_induced_hom(f: pc.GraphMorphism, p_dom: pc.Pi1Data,
                          p_cod: pc.Pi1Data) -> pc.GeneratorImages:
    """Oracle for ``induced_hom``: every basis loop of ``p_dom`` pushed
    through ``f`` and rewritten by :func:`path_to_word`, which checks that
    the pushed darts chain."""
    assert f.vmap[p_dom.basepoint] == p_cod.basepoint
    words = tuple(path_to_word(p_cod, [f.dmap[d] for d in p_dom.basis_loop(k)])
                  for k in range(p_dom.rank))
    return pc.GeneratorImages(p_dom.rank, p_cod.rank, words)


def table_quotient(g: pc.FiniteGraph, r: pc.Congruence):
    """Oracle for ``quotient``: the quotient graph built from the class
    tables for every congruence, the diagonal too, through the checking
    ``FiniteGraph(...)``, and the projection through the checking
    ``GraphMorphism(...)``."""
    vrep = {x: c[0] for c in r.vertex_classes for x in c}
    drep = {x: c[0] for c in r.dart_classes for x in c}
    darts = [c[0] for c in r.dart_classes]
    qg = pc.FiniteGraph([c[0] for c in r.vertex_classes], darts,
                        {d: vrep[g.src[d]] for d in darts},
                        {d: drep[g.inv[d]] for d in darts}, name=g.name)
    return qg, pc.GraphMorphism(g, qg, vrep, drep)


def table_classify_pair(f: pc.GraphMorphism, r: pc.Congruence,
                        s: pc.Congruence, level=None) -> towers.GoodPairRecord:
    """Oracle for ``classify_pair``: the induced map read class by class
    and checked by ``GraphMorphism(...)`` between the quotients of
    :func:`table_quotient`, then checked by ``as_covering``."""
    maps = []
    for classes, image, rep in ((r.vertex_classes, f.vmap, s._vrep),
                                (r.dart_classes, f.dmap, s._drep)):
        m = {}
        for cls in classes:
            m[cls[0]] = rep[image[cls[0]]]
            bad = [x for x in cls if rep[image[x]] != m[cls[0]]]
            if bad:
                return towers.GoodPairRecord("not_half", witness=(cls[0], bad[0]),
                                             level=level)
        maps.append(m)
    induced = pc.GraphMorphism(table_quotient(f.domain, r)[0],
                               table_quotient(f.codomain, s)[0], *maps)
    try:
        cov = pc.as_covering(induced)
    except pc.NotACoveringError as exc:
        return towers.GoodPairRecord("half", witness=(exc.vertex, exc.reason),
                                     level=level)
    if not induced.domain.vertices:
        raise ValueError("the cover has no vertices")
    regular = (pc.is_connected(induced.domain) and pc.is_connected(induced.codomain)
               and pc.is_regular(cov).regular)
    return towers.GoodPairRecord("regular_good" if regular else "good",
                                 level=level)


def all_pairs_triviality_oracle(t: pc.Tower, max_index: int,
                                max_work: int = pc.DEFAULT_MAX_WORK
                                ) -> towers.TrivialityReport:
    """The triviality check ``pi1_triviality_check`` replaced: the induced
    homomorphism of ``t.cover_map_to(i, j)`` for every pair i <= j, the
    identity pairs too, rewritten loop by loop
    (:func:`rewritten_induced_hom`), the normal subgroups of every level,
    and a scan of every j >= i per row."""
    basepoints = t.require_basepoints()
    p = []
    for i in range(t.top + 1):
        if not pc.is_connected(t.cover_graph(i)):
            raise pc.TowerError("level %d is not connected" % i)
        p.append(pc.pi1_data(t.cover_graph(i), basepoints[i]))
    homs = {}
    for i in range(t.top + 1):
        for j in range(i, t.top + 1):
            homs[(i, j)] = rewritten_induced_hom(t.cover_map_to(i, j), p[j], p[i])
    rows = []
    for i in range(t.top + 1):
        for rep in pc.low_index_reps(p[i].rank, max_index, normal_only=True,
                                     max_work=max_work):
            satisfied_at = None
            for j in range(i, t.top + 1):
                if all(rep.act(0, w) == 0 for w in homs[(i, j)].images):
                    satisfied_at = j
                    break
            rows.append(towers.TrivialityRow(level=i, rep=rep,
                                             satisfied_at=satisfied_at))
    trivial = all(row.satisfied_at is not None for row in rows if row.level == 0)
    return towers.TrivialityReport(max_index=max_index, depth=t.top,
                                   rows=rows, trivial=trivial)


def composed_square_validation_oracle(level_maps, cover_steps, base_steps
                                      ) -> towers.TowerReport:
    """The tower validation ``validate_tower_pieces`` replaced: both
    composites of every square built with ``compose`` and compared."""
    report = towers.TowerReport()
    for i, f in enumerate(level_maps):
        try:
            pc.as_covering(f)
        except pc.NotACoveringError as exc:
            report.violations.append({
                "kind": "not-locally-bijective", "level": i,
                "witness": exc.vertex, "reason": exc.reason})
    for i, (phi, psi) in enumerate(zip(cover_steps, base_steps)):
        left = pc.compose(level_maps[i], phi)
        right = pc.compose(psi, level_maps[i + 1])
        for v in left.domain.vertices:
            if left.vmap[v] != right.vmap[v]:
                report.violations.append({
                    "kind": "square", "step": i, "witness": v,
                    "via-cover": left.vmap[v], "via-base": right.vmap[v]})
                break
        else:
            for d in left.domain.darts:
                if left.dmap[d] != right.dmap[d]:
                    report.violations.append({
                        "kind": "square", "step": i, "witness": d,
                        "via-cover": left.dmap[d], "via-base": right.dmap[d]})
                    break
        for m, side in ((phi, "cover"), (psi, "base")):
            if not m.is_surjective():
                missing = sorted(m.codomain._vertex_set - set(m.vmap.values())
                                 or m.codomain._dart_set - set(m.dmap.values()))
                report.warnings.append({
                    "kind": "bonding-not-surjective", "step": i,
                    "side": side, "witness": missing[0]})
    return report


def per_pair_good_pairs_oracle(t: pc.Tower, top: int) -> list:
    """``kernel_good_pairs`` as it was: the kernels of the composite bonding
    maps from ``top`` down to each level i, each composite built afresh,
    the identities at the top too, each pair classified on quotients built
    from their tables (:func:`table_classify_pair`)."""
    f_top = t.coverings[top].map
    records = []
    for i in range(top + 1):
        base_map = pc.GraphMorphism.identity(t.base_graph(top))
        for step in range(top - 1, i - 1, -1):
            base_map = pc.compose(t.base_steps[step], base_map)
        records.append(table_classify_pair(
            f_top, pc.kernel_congruence(t.cover_map_to(i, top)),
            pc.kernel_congruence(base_map), level=i))
    return records


class TableCheckedAction:
    """Oracle for ``pc.GroupAction``: the constructor it replaced.

    Takes a caller-supplied composition table and re-verifies it: one
    composed morphism per pair of elements, an associativity scan over
    every triple and an inverse scan, besides the checks on the maps.
    :meth:`from_morphisms` derives the table by composing and matching.
    """

    def __init__(self, graph, elements, identity, table, morphisms):
        self.graph = graph
        self.elements = tuple(elements)
        self.identity = identity
        self.table = dict(table)
        self.morphisms = dict(morphisms)
        if len(set(self.elements)) != len(self.elements):
            raise pc.ActionError("duplicate element ids")
        if identity not in self.elements:
            raise pc.ActionError("identity %r is not an element" % (identity,))
        if set(self.morphisms) != set(self.elements):
            raise pc.ActionError("every element needs an action morphism")
        for g, m in self.morphisms.items():
            if m.domain != graph or m.codomain != graph:
                raise pc.ActionError("element %r does not act on the graph" % (g,))
            if not is_bijective(m):
                raise pc.ActionError("element %r does not act bijectively" % (g,))
        if self.morphisms[identity] != pc.GraphMorphism.identity(graph):
            raise pc.ActionError("identity element must act as the identity map")
        for g in self.elements:
            for h in self.elements:
                if (g, h) not in self.table:
                    raise pc.ActionError(
                        "composition table is missing (%r, %r)" % (g, h))
                gh = self.table[(g, h)]
                if gh not in self.morphisms:
                    raise pc.ActionError("table value %r is not an element" % (gh,))
                if self.morphisms[gh] != pc.compose(self.morphisms[g],
                                                    self.morphisms[h]):
                    raise pc.ActionError(
                        "action is not a homomorphism at (%r, %r)" % (g, h),
                        witness=(g, h))
        for g in self.elements:
            for h in self.elements:
                for k in self.elements:
                    if self.table[(self.table[(g, h)], k)] != \
                            self.table[(g, self.table[(h, k)])]:
                        raise pc.ActionError(
                            "composition table is not associative",
                            witness=(g, h, k))
        for g in self.elements:
            if not any(self.table[(g, h)] == identity for h in self.elements):
                raise pc.ActionError("element %r has no inverse" % (g,))
        for g in self.elements:
            m = self.morphisms[g]
            for d in graph.darts:
                if m.dmap[d] == graph.inv[d]:
                    raise pc.ActionError("element %r inverts an edge" % (g,),
                                         witness=(g, d))

    @classmethod
    def from_morphisms(cls, graph, morphisms):
        ident = pc.GraphMorphism.identity(graph)
        lookup = {}
        identity = None
        for g, m in morphisms.items():
            if m in lookup:
                raise pc.ActionError("elements %r and %r act identically"
                                     % (lookup[m], g), witness=(lookup[m], g))
            lookup[m] = g
            if m == ident:
                identity = g
        if identity is None:
            raise pc.ActionError("no element acts as the identity map")
        table = {}
        for g, mg in morphisms.items():
            for h, mh in morphisms.items():
                composite = pc.compose(mg, mh)
                if composite not in lookup:
                    raise pc.ActionError(
                        "morphisms are not closed under composition",
                        witness=(g, h))
                table[(g, h)] = lookup[composite]
        return cls(graph, sorted(morphisms, key=str), identity, table, morphisms)

    @classmethod
    def of_deck(cls, deck, indices):
        """The action ``deck_action`` used to build: the deck group's own
        table restricted to the (checked) subgroup, re-verified."""
        chosen = sorted(set(indices))
        if not deck.is_subgroup(chosen):
            raise pc.ActionError("deck elements %r are not a subgroup"
                                 % (chosen,), witness=tuple(chosen))
        morphisms = {i: deck.element(i) for i in chosen}
        table = {(i, j): deck.table[i][j] for i in chosen for j in chosen}
        return cls(deck.covering.domain, chosen, 0, table, morphisms)


def pairwise_group_action(graph: pc.FiniteGraph, morphisms) -> pc.GroupAction:
    """Oracle for the ``pc.GroupAction`` constructor: the one before the
    generating-set closure check, verbatim, which looks up the composite of
    every ordered pair of elements."""
    self = pc.GroupAction.__new__(pc.GroupAction)
    self.graph = graph
    self.morphisms = dict(morphisms)
    for g, m in self.morphisms.items():
        if m.domain != graph or m.codomain != graph:
            raise pc.ActionError("element %r does not act on the graph" % (g,),
                                 witness=g)
    vertices, darts = graph.vertices, graph.darts
    images = {g: (tuple(map(m.vmap.__getitem__, vertices)),
                  tuple(map(m.dmap.__getitem__, darts)))
              for g, m in self.morphisms.items()}
    lookup = {}
    for g, key in images.items():
        if key in lookup:
            raise pc.ActionError("elements %r and %r act identically"
                                 % (lookup[key], g), witness=(lookup[key], g))
        lookup[key] = g
    self.identity = lookup.get((vertices, darts))
    if self.identity is None:
        raise pc.ActionError("no element acts as the identity map",
                             witness=tuple(sorted(self.morphisms, key=str)))
    for g, mg in self.morphisms.items():
        gv, gd = mg.vmap.__getitem__, mg.dmap.__getitem__
        for h, (hv, hd) in images.items():
            if (tuple(map(gv, hv)), tuple(map(gd, hd))) not in lookup:
                raise pc.ActionError(
                    "morphisms are not closed under composition",
                    witness=(g, h))
    for g, (gv, gd) in images.items():
        missing = (sorted(graph._vertex_set.difference(gv))
                   or sorted(graph._dart_set.difference(gd)))
        if missing:
            raise pc.ActionError("element %r does not act bijectively" % (g,),
                                 witness=(g, missing[0]))
    self.elements = tuple(sorted(self.morphisms, key=str))
    for g in self.elements:
        m = self.morphisms[g]
        for d in darts:
            if m.dmap[d] == graph.inv[d]:
                raise pc.ActionError("element %r inverts an edge" % (g,),
                                     witness=(g, d))
    return self


def composes_to_an_element(morphisms, g, h) -> bool:
    """Whether the map "``h`` then ``g``" is the map of some element."""
    mg, mh = morphisms[g], morphisms[h]
    composite = ({v: mg.vmap[w] for v, w in mh.vmap.items()},
                 {d: mg.dmap[e] for d, e in mh.dmap.items()})
    return any(composite == (m.vmap, m.dmap) for m in morphisms.values())


def rejected_action_documents() -> dict:
    """One action per rejection the constructor can make on documents read
    from a file, as (graph, morphisms by element id)."""
    c6, c2, b2 = pc.cycle_graph(6), pc.cycle_graph(2), pc.bouquet_graph(2)
    swap = pc.GraphMorphism(c2, c2, {"v0": "v1", "v1": "v0"},
                            {"e0+": "e0-", "e0-": "e0+",
                             "e1+": "e1-", "e1-": "e1+"})
    fold = pc.GraphMorphism(b2, b2, {"v0": "v0"},
                            {"e0+": "e0+", "e0-": "e0-",
                             "e1+": "e0+", "e1-": "e0-"})
    return {
        "duplicate map": (c6, {"id": pc.GraphMorphism.identity(c6),
                               "r": rotation(6, 3), "s": rotation(6, 3)}),
        "no identity": (c6, {"r": rotation(6, 3)}),
        "not closed": (c6, {"id": pc.GraphMorphism.identity(c6),
                            "r": rotation(6, 2)}),
        "non-bijective idempotent": (b2, {"id": pc.GraphMorphism.identity(b2),
                                          "f": fold}),
        "inverted edge": (c2, {"id": pc.GraphMorphism.identity(c2), "s": swap}),
    }


def action_table(act: pc.GroupAction) -> dict:
    """The composition table of an action: ``table[(g, h)]`` is the element
    acting as "h then g", matched by composing the maps with ``compose``."""
    element = {m: g for g, m in act.morphisms.items()}
    return {(g, h): element[pc.compose(mg, mh)]
            for g, mg in act.morphisms.items()
            for h, mh in act.morphisms.items()}


def action_deck_isomorphism(act: pc.GroupAction, deck: pc.DeckGroup) -> dict:
    """Oracle for ``pc.action_deck_indices``: the matcher it replaced, which
    finds each element's map among the deck transformations of the orbit
    map and compares the action's composition table with the deck
    group's."""
    index = {h: i for i, h in enumerate(deck_elements(deck))}
    mapping = {}
    for g in act.elements:
        m = act.morphisms[g]
        if m not in index:
            raise pc.ActionError("element %r does not act by a deck "
                                 "transformation of the orbit map" % (g,),
                                 witness=g)
        mapping[g] = index[m]
    if len(act.elements) != deck.order:
        # distinct elements act by distinct maps, so the mapping is
        # one-to-one and only the sizes can differ
        raise pc.ActionError("action group and deck group have different sizes",
                             witness=next(i for i in range(deck.order)
                                          if i not in mapping.values()))
    table = action_table(act)
    for g in act.elements:
        for h in act.elements:
            if mapping[table[(g, h)]] != deck.table[mapping[g]][mapping[h]]:
                raise pc.ActionError("composition tables do not correspond",
                                     witness=(g, h))
    return mapping


def fiber_position_deck_indices(act: pc.GroupAction, c: pc.Covering) -> dict:
    """Oracle for ``pc.action_deck_indices``: the read it replaced, the
    position of each element's image of the first vertex in that vertex's
    fiber, listed off the orbit map."""
    a0 = c.domain.vertices[0]
    position = {a: k for k, a in enumerate(scanned_fiber(c, c.map.vmap[a0]))}
    return {g: position[act.morphisms[g].vmap[a0]] for g in act.elements}


def deck_inverse(deck: pc.DeckGroup, i: int) -> int:
    """The index of the inverse of deck element ``i``, read off its row."""
    return deck.table[i].index(0)


def deck_closure(deck: pc.DeckGroup, indices) -> frozenset:
    """Smallest subgroup containing the given elements: a breadth-first
    walk from the identity multiplying by them through ``table`` (in a
    finite group the products reached already hold every inverse)."""
    gens = set(indices)
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for g in gens:
            k = deck.table[g][i]
            if k not in seen:
                seen.add(k)
                queue.append(k)
    return frozenset(seen)


def deck_subgroups(deck: pc.DeckGroup) -> list:
    """All subgroups, as sorted index sets (closure of every subset)."""
    found = {frozenset([0])}
    frontier = [frozenset([0])]
    while frontier:
        s = frontier.pop()
        for i in range(deck.order):
            if i in s:
                continue
            bigger = deck_closure(deck, s | {i})
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def is_normal_deck_subgroup(deck: pc.DeckGroup, indices) -> bool:
    """Whether the elements form a subgroup closed under conjugation."""
    s = set(indices)
    return deck.is_subgroup(s) and all(
        deck.table[deck.table[g][h]][deck_inverse(deck, g)] in s
        for g in range(deck.order) for h in s)


def deck_action(deck: pc.DeckGroup, indices) -> pc.GroupAction:
    """The action of a deck subgroup (indices in range, forming a subgroup)
    on the cover, its maps checked like any other ``pc.GroupAction``."""
    chosen = _deck_subgroup(deck, indices)
    return pc.GroupAction(deck.covering.domain,
                          {i: deck.element(i) for i in chosen})


@functools.lru_cache(maxsize=None)
def free_actions() -> dict:
    """Free actions by name: the rotations of C(2m) by 2 for m = 1..8, the
    rotations of C12 by each divisor of 12, and the full deck actions of
    five regular covers (the mod-2 covers of the two- and three-loop
    bouquets, the symmetric-group and mod-4 covers of the two-loop
    bouquet, and the cyclic degree-8 cover of the triangle)."""
    actions = {"C%d by 2" % (2 * m): rotation_action(2 * m, 2)
               for m in range(1, 9)}
    actions.update(("C12 by %d" % s, rotation_action(12, s))
                   for s in (1, 2, 3, 4, 6, 12))
    b2, b3 = pc.bouquet_graph(2), pc.bouquet_graph(3)
    for name, base, rep in (
            ("B2 mod-2", b2, pc.translation_kernel_rep(2, 2)),
            ("B3 mod-2", b3, pc.translation_kernel_rep(3, 2)),
            ("S3-regular", b2, s3_regular_rep()),
            ("B2 mod-4", b2, pc.translation_kernel_rep(2, 4)),
            ("C3 cyclic-8", pc.cycle_graph(3), cyclic_rep(8))):
        deck = pc.deck_group(pc.cover_from_subgroup(base, "v0", rep)[2])
        actions[name] = deck_action(deck, range(deck.order))
    return actions


def pairwise_closure(deck: pc.DeckGroup, indices) -> frozenset:
    """Oracle for :func:`deck_closure`: the closure it replaced, which
    adds both products of every pair of members and every inverse until
    nothing new appears."""
    seen = {0} | set(indices)
    frontier = list(seen)
    while frontier:
        i = frontier.pop()
        for j in list(seen):
            for k in (deck.table[i][j], deck.table[j][i], deck_inverse(deck, i)):
                if k not in seen:
                    seen.add(k)
                    frontier.append(k)
    return frozenset(seen)


@functools.lru_cache(maxsize=None)
def small_deck_groups() -> tuple:
    """Deck groups of order at most eight: every cover of the two-loop
    bouquet of degree at most four, the Klein-four and the symmetric-group
    covers of the bouquet, and the cyclic wraps onto the triangle."""
    b2 = pc.bouquet_graph(2)
    covs = [cov for _, _, cov in b2_covers()]
    covs += [pc.cover_from_subgroup(b2, "v0", rep)[2]
             for rep in (pc.translation_kernel_rep(2, 2), s3_regular_rep())]
    covs += cyclic_family()
    return tuple(pc.deck_group(cov) for cov in covs)


def parse_report(text: str) -> Report:
    """A ``--json`` report read back into the CLI's ``Report``."""
    obj = json.loads(text)
    if obj.get("format") != REPORT_FORMAT:
        raise FormatError("not a report document")
    return Report(verdict=obj["verdict"], details=obj["details"],
                  warnings=obj["warnings"])
