"""Finite graphs with explicit darts and a fixed-point-free involution.

A graph is a finite set of vertices together with a finite set of darts
(directed half-edges).  Every dart ``e`` has a source vertex ``src(e)`` and
an opposite dart ``inv(e)``; the target of ``e`` is ``src(inv(e))``.  Darts
come in pairs ``{e, inv(e)}`` forming undirected edges, and ``inv(e) != e``
always, so quotients by congruences are again graphs of the same kind.

All values in this module are immutable after construction and every
operation is a pure function; values may be shared freely between threads.
All ids are opaque strings, and every traversal orders by id, so equal
inputs always produce identical outputs.

Immutability is also what makes derived facts safe to keep.  Each is a
``cached_property``, derived by one function of the value on first read
and kept in the instance dict, so a racing second computation stores the
same answer.  A graph is built with its tables alone and keeps what is
read of it: its vertex and dart id sets, the star of each vertex, its
equality key, its component partition (a graph derived connected carries
it from its construction), its edge table with the two indexes the
document formats read, and its fundamental-group coordinates by
basepoint (:func:`pi1_data`); a morphism keeps its hash.  A graph that
is never walked derives none of them.  No kept fact refers back to its
value, so a graph is freed with its last reference, without the cyclic
collector.
The quotient by the diagonal congruence is the graph itself
(:func:`quotient`), so it shares every fact the graph keeps.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping


class GraphError(ValueError):
    """Structurally broken graph, morphism, or request (bad ids, bad maps)."""


class VerdictError(ValueError):
    """A well-formed request whose answer is no, with its certificate.

    ``verdict`` names the answer and ``witness`` certifies it: a vertex, a
    path, a pair of elements, a level.  :meth:`details` is the report the
    command line prints for it with exit code 1.
    """

    verdict = "negative"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness

    def details(self) -> dict:
        """The message, and the witness as a list of strings: a list or
        tuple entry by entry, anything else as one entry, None as no
        ``witness`` key."""
        details = {"error": str(self)}
        w = self.witness
        if w is not None:
            details["witness"] = ([str(x) for x in w] if isinstance(w, (tuple, list))
                                  else [str(w)])
        return details


class CongruenceError(VerdictError):
    """A partition that is not a graph congruence; ``witness`` is the
    offending element or pair of elements."""

    verdict = "not a congruence"


class FiniteGraph:
    """A finite graph given by vertices, darts, ``src`` and ``inv``.

    A graph is checked where it enters and built everywhere else.
    Construction checks that ``src`` and ``inv`` are total on the declared
    dart set and that ids are unique; it is for graphs a caller gives,
    through this constructor and :meth:`from_edges`, which the document
    readers of :mod:`procover.formats` call and which makes the same
    checks in its one loop over the edges.  It and every graph the library
    derives from its own values build with :meth:`_of_tables`, which
    checks none of it, with the proof where it is built, and derives
    nothing: the id sets (``_vertex_set``, ``_dart_set``), the stars and
    the edge table are derived on first read, and only the one component
    of a graph its caller proves connected is handed over.  The semantic
    invariants (``inv`` is a fixed-point-free involution, sources are
    declared vertices) are checked by :func:`validate_graph`, so damaged
    data read from a file can still be loaded and reported on instead of
    crashing the loader.
    """

    def __init__(self, vertices: Iterable[str], darts: Iterable[str],
                 src: Mapping[str, str], inv: Mapping[str, str],
                 name: str | None = None):
        self.vertices = tuple(sorted(vertices))
        self.darts = tuple(sorted(darts))
        self.name = name
        if len(self.vertices) != len(self._vertex_set):
            raise GraphError("duplicate vertex ids")
        if len(self.darts) != len(self._dart_set):
            raise GraphError("duplicate dart ids")
        if self._vertex_set & self._dart_set:
            raise GraphError("vertex and dart ids overlap: %r"
                             % sorted(self._vertex_set & self._dart_set)[0])
        self.src = dict(src)
        self.inv = dict(inv)
        for label, mapping in (("src", self.src), ("inv", self.inv)):
            if mapping.keys() != self._dart_set:
                missing = self._dart_set - mapping.keys()
                if missing:
                    raise GraphError("%s is undefined on dart %r"
                                     % (label, sorted(missing)[0]))
                raise GraphError("%s defined on unknown dart %r"
                                 % (label, sorted(mapping.keys() - self._dart_set)[0]))

    @classmethod
    def _of_tables(cls, vertices: tuple, darts: tuple, src: dict, inv: dict,
                   name: str | None = None, connected: bool = False) -> "FiniteGraph":
        """The graph of these tables, taken over unchecked and not copied:
        the library builds here every graph it derives, and
        :meth:`from_edges` the graph it has checked.  The caller proves that
        the sorted tuples ``vertices`` and ``darts`` hold distinct ids,
        disjoint from each other, and that ``src`` and ``inv`` are defined
        on exactly the darts.  Nothing is derived here: the star and the id
        sets are derived on first read, like every other fact.  A caller
        that proves the graph connected passes ``connected``, and the graph
        carries its one component."""
        g = cls.__new__(cls)
        g.vertices, g.darts, g.src, g.inv, g.name = vertices, darts, src, inv, name
        if connected:
            g._components = (vertices,)
        return g

    @cached_property
    def _vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    @cached_property
    def _dart_set(self) -> frozenset:
        return frozenset(self.darts)

    @cached_property
    def _star(self) -> dict[str, tuple[str, ...]]:
        """{vertex: the darts with that source, in id order}; a dart whose
        source is no vertex is in no star."""
        star: dict[str, list[str]] = {v: [] for v in self.vertices}
        for d, v in zip(self.darts, map(self.src.__getitem__, self.darts)):
            if v in star:
                star[v].append(d)
        return {v: tuple(ds) for v, ds in star.items()}

    @cached_property
    def _key(self) -> tuple:
        """The tables as one tuple, for equality and the hash: built at the
        first comparison with another graph, and kept."""
        darts = self.darts
        return (self.vertices, darts, tuple(map(self.src.__getitem__, darts)),
                tuple(map(self.inv.__getitem__, darts)))

    @cached_property
    def _components(self) -> tuple[tuple[str, ...], ...]:
        """The partition :func:`components` returns, by one breadth-first
        pass."""
        star, src, inv = self._star, self.src, self.inv
        seen: set[str] = set()
        comps = []
        for v in self.vertices:
            if v in seen:
                continue
            comp = [v]
            seen.add(v)
            for x in comp:  # breadth first: comp grows as it is read
                try:
                    darts = star[x]
                except KeyError:
                    raise GraphError("unknown vertex %r" % x) from None
                for d in darts:
                    w = src[inv[d]]
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    @cached_property
    def _edges(self) -> tuple[tuple[str, str, str], ...]:
        """The edge table: (edge id, positive dart, negative dart) per dart
        pair, in id order of the positive dart, the smaller id of the pair;
        the edge id is the pair's :func:`edge_stem`."""
        inv = self.inv
        return tuple((edge_stem(d, inv[d]), d, inv[d])
                     for d in self.darts if d < inv[d])

    @cached_property
    def _edge_index(self) -> dict[str, tuple[str, str, str]]:
        """{edge id: its row of the edge table}."""
        return {row[0]: row for row in self._edges}

    @cached_property
    def _dart_refs(self) -> dict[str, tuple[str, str, str]]:
        """{dart: the row of the edge table that holds it}."""
        refs = {}
        for row in self._edges:
            refs[row[1]] = refs[row[2]] = row
        return refs

    @cached_property
    def _pi1(self) -> dict[str, tuple[tuple[str, ...], frozenset, dict, dict]]:
        """{basepoint: (basis darts, tree darts, parent darts, letters)},
        the coordinates :func:`pi1_data` builds there, none of which refers
        to the graph."""
        return {}

    @classmethod
    def from_edges(cls, vertices: Iterable[str],
                   edges: Iterable[tuple[str, str, str]],
                   name: str | None = None) -> "FiniteGraph":
        """Build a graph from undirected edges ``(id, src, dst)``.

        Each edge ``E`` contributes the dart pair ``E+`` (src to dst) and
        ``E-`` (dst to src).

        The constructor's checks are made here, and the graph is built by
        :meth:`_of_tables`.  Dart ids are distinct when edge ids are, as
        ``E+`` is no other edge's dart, and ``src`` and ``inv`` are filled
        on exactly the darts.  What is left is checked in this order: a
        repeated edge id, in the one loop over the edges, then repeated
        vertex ids, then vertex and dart ids that overlap, the last two
        raising GraphError with the constructor's messages.
        """
        src, inv = {}, {}
        for eid, a, b in edges:
            pos, neg = eid + "+", eid + "-"
            if pos in src:
                raise GraphError("duplicate edge id %r" % eid)
            src[pos], src[neg] = a, b
            inv[pos], inv[neg] = neg, pos
        vertices = tuple(sorted(vertices))
        vertex_set = frozenset(vertices)
        if len(vertex_set) != len(vertices):
            raise GraphError("duplicate vertex ids")
        if not vertex_set.isdisjoint(src):
            raise GraphError("vertex and dart ids overlap: %r"
                             % min(vertex_set.intersection(src)))
        return cls._of_tables(vertices, tuple(sorted(src)), src, inv, name=name)

    def target(self, d: str) -> str:
        return self.src[self.inv[d]]

    def star(self, v: str) -> tuple[str, ...]:
        """Darts whose source is ``v``, in id order."""
        try:
            return self._star[v]
        except KeyError:
            raise GraphError("unknown vertex %r" % v) from None

    def dart_pairs(self) -> tuple[tuple[str, str], ...]:
        """Edge pairs ``(d, inv(d))`` with ``d`` the smaller id, read off
        the edge table."""
        return tuple((pos, neg) for _eid, pos, neg in self._edges)

    def edge_count(self) -> int:
        return len(self.darts) // 2

    def __eq__(self, other):
        return other is self or (isinstance(other, FiniteGraph)
                                 and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        label = self.name or "graph"
        return "FiniteGraph(%s: %d vertices, %d darts)" % (
            label, len(self.vertices), len(self.darts))


def edge_stem(pos: str, neg: str) -> str:
    """Undirected label of a dart pair: the shared stem of ``X+``/``X-``
    ids when the pair has that shape, otherwise the positive dart id."""
    if pos.endswith("+") and neg == pos[:-1] + "-":
        return pos[:-1]
    return pos


def cycle_graph(n: int, name: str | None = None) -> FiniteGraph:
    """Cycle with vertices ``v0..v{n-1}`` and edges ``e{i}: v{i} -> v{i+1}``."""
    if n < 1:
        raise GraphError("cycle needs at least one vertex")
    vertices = ["v%d" % i for i in range(n)]
    edges = [("e%d" % i, "v%d" % i, "v%d" % ((i + 1) % n)) for i in range(n)]
    return FiniteGraph.from_edges(vertices, edges, name=name or "C%d" % n)


def bouquet_graph(r: int, name: str | None = None) -> FiniteGraph:
    """Wedge of ``r`` loops at the single vertex ``v0``."""
    if r < 0:
        raise GraphError("negative loop count")
    edges = [("e%d" % i, "v0", "v0") for i in range(r)]
    return FiniteGraph.from_edges(["v0"], edges, name=name or "B%d" % r)


def validate_graph(g: FiniteGraph) -> list[dict]:
    """All invariant violations of ``g``, each with a witness element.

    An empty list means the graph is valid.  Reported kinds:
    ``dangling-involution`` (inv leaves the dart set), ``involution``
    (inv o inv is not the identity), ``fixed-dart`` (inv(e) = e),
    ``dangling-incidence`` (src leaves the vertex set).
    """
    out = []
    for d in g.darts:
        e = g.inv[d]
        if e not in g._dart_set:
            out.append({"kind": "dangling-involution", "witness": d})
        elif e == d:
            out.append({"kind": "fixed-dart", "witness": d})
        elif g.inv[e] != d:
            out.append({"kind": "involution", "witness": d})
        if g.src[d] not in g._vertex_set:
            out.append({"kind": "dangling-incidence", "witness": d})
    return out


def components(g: FiniteGraph) -> tuple[tuple[str, ...], ...]:
    """Partition of the vertices into connected components (sorted),
    derived on the first call and kept on the graph."""
    return g._components


def is_connected(g: FiniteGraph) -> bool:
    """Whether ``g`` has exactly one component, so the graph with no
    vertices is not connected (a lookup after the first
    :func:`components` call on ``g``)."""
    return len(components(g)) == 1


class SpanningTreeData:
    """A spanning tree of a connected graph, rooted and canonically ordered.

    ``tree_darts`` holds both orientations of every tree edge, and
    ``parent_dart[v]`` is the dart from ``v`` one step toward the root.
    The ``parent_dart`` dict is taken over, not copied: :func:`pi1_data`
    passes the one it keeps, which no code changes.
    """

    def __init__(self, graph, root, tree_darts, parent_dart):
        self.graph = graph
        self.root = root
        self.tree_darts = frozenset(tree_darts)
        self.parent_dart = parent_dart

    def path_from_root(self, v: str) -> tuple[str, ...]:
        """The darts of the unique tree path from the root to ``v``."""
        g = self.graph
        back = []
        x = v
        while x != self.root:
            d = self.parent_dart[x]
            back.append(g.inv[d])
            x = g.target(d)
        return tuple(reversed(back))


def spanning_tree(g: FiniteGraph, root: str) -> SpanningTreeData:
    """Breadth-first spanning tree from ``root``, scanning darts by id.

    Deterministic: equal inputs give identical trees.  Raises GraphError on
    an unknown root or a disconnected graph.
    """
    if root not in g._star:  # the stars, walked below, are keyed by vertex
        raise GraphError("unknown root vertex %r" % root)
    src, inv = g.src, g.inv
    parent: dict[str, str] = {}
    seen = {root}
    reached = [root]
    for x in reached:  # breadth first: reached grows as it is read
        for d in g.star(x):
            up = inv[d]
            w = src[up]
            if w not in seen:
                seen.add(w)
                reached.append(w)
                parent[w] = up
    if len(seen) != len(g.vertices):
        raise GraphError("graph is not connected: %r unreachable from %r"
                         % (sorted(set(g.vertices) - seen)[0], root))
    tree = set(parent.values())
    tree.update(map(inv.__getitem__, parent.values()))
    return SpanningTreeData(g, root, tree, parent)


class Pi1Data:
    """Free-group coordinates on a connected graph.

    A spanning tree plus one chosen orientation of each non-tree edge pair;
    the k-th basis dart stands for the generator ``x_k`` of the fundamental
    group at the basepoint.  rank = edge pairs - vertices + 1.

    ``_letter`` maps each basis dart and its inverse to its letter.  It
    depends on the basis alone, so coordinates whose basis is the tuple
    :func:`pi1_data` keeps at the basepoint read the table kept with it,
    and any other basis has its own built here.
    """

    def __init__(self, graph, basepoint, tree, basis_darts):
        self.graph = graph
        self.basepoint = basepoint
        self.tree = tree
        self.basis_darts = tuple(basis_darts)
        self.rank = len(self.basis_darts)
        kept = graph._pi1.get(basepoint)
        if kept is not None and kept[0] is self.basis_darts:
            self._letter = kept[3]
        else:
            self._letter = _letters(graph, self.basis_darts)

    def letter(self, d: str) -> tuple[int, int] | None:
        """Generator letter carried by a dart; None on tree darts."""
        if d in self.tree.tree_darts:
            return None
        return self._letter[d]

    def basis_loop(self, k: int) -> tuple[str, ...]:
        """The closed path at the basepoint representing generator x_k:
        the loop through the k-th basis dart."""
        return self.loop_through(self.basis_darts[k])

    def loop_through(self, d: str) -> tuple[str, ...]:
        """The closed path at the basepoint through dart ``d``: tree path
        out, ``d``, tree path back."""
        g = self.graph
        out = self.tree.path_from_root(g.src[d])
        back = self.tree.path_from_root(g.target(d))
        return out + (d,) + tuple(g.inv[x] for x in reversed(back))


def _letters(g: FiniteGraph, basis: tuple) -> dict[str, tuple[int, int]]:
    """{dart: letter}: the k-th basis dart is ``(k, 1)`` and its inverse
    ``(k, -1)``."""
    letters = {}
    for k, d in enumerate(basis):
        letters[d] = (k, 1)
        letters[g.inv[d]] = (k, -1)
    return letters


def pi1_data(g: FiniteGraph, base: str) -> Pi1Data:
    """Spanning tree and non-tree basis at ``base`` (graph must be connected).

    The basis, the tree's darts, its parent darts and the letter table are
    built on the first call for ``base`` and kept on the graph (``_pi1``).
    They do not refer to the graph, so it is freed with its last
    reference.  Each call pairs ``g`` with them in a new :class:`Pi1Data`,
    whose ``basis_darts`` is the kept tuple; neither it nor its
    :class:`SpanningTreeData` copies what is kept, so a call at a kept
    basepoint builds nothing whose size grows with the graph.
    """
    kept = g._pi1.get(base)
    if kept is None:
        tree, inv = spanning_tree(g, base), g.inv
        # the basis in id order: the smaller dart of each non-tree pair
        basis = tuple(d for d in g.darts if d < inv[d] and d not in tree.tree_darts)
        if len(basis) != g.edge_count() - len(g.vertices) + 1:
            raise RuntimeError("basis size is not the cycle rank (internal error)")
        kept = g._pi1[base] = (basis, tree.tree_darts, tree.parent_dart,
                               _letters(g, basis))
    basis, tree_darts, parent_dart = kept[:3]
    return Pi1Data(g, base, SpanningTreeData(g, base, tree_darts, parent_dart), basis)


class GraphMorphism:
    """Map of graphs: commutes with ``src`` and with the involution.

    Construction validates the whole map.  It is for maps that enter from
    outside, the document readers of :mod:`procover.formats`; every map the
    library derives from its own values is built by :meth:`_of_maps`, which
    checks none, with the proof where it is built.  Two morphisms are equal
    when their graphs and vertex and dart maps are equal; the hash is
    derived on first use and kept.
    """

    def __init__(self, domain: FiniteGraph, codomain: FiniteGraph,
                 vmap: Mapping[str, str], dmap: Mapping[str, str]):
        self.domain = domain
        self.codomain = codomain
        self.vmap = dict(vmap)
        self.dmap = dict(dmap)
        if self.vmap.keys() != domain._vertex_set:
            bad = sorted(self.vmap.keys() ^ domain._vertex_set)[0]
            raise GraphError("vertex map domain mismatch at %r" % bad)
        if self.dmap.keys() != domain._dart_set:
            bad = sorted(self.dmap.keys() ^ domain._dart_set)[0]
            raise GraphError("dart map domain mismatch at %r" % bad)
        if not codomain._vertex_set.issuperset(self.vmap.values()):
            v, w = next((v, w) for v, w in self.vmap.items()
                        if w not in codomain._vertex_set)
            raise GraphError("vertex %r maps outside the codomain (to %r)" % (v, w))
        if not codomain._dart_set.issuperset(self.dmap.values()):
            d, e = next((d, e) for d, e in self.dmap.items()
                        if e not in codomain._dart_set)
            raise GraphError("dart %r maps outside the codomain (to %r)" % (d, e))
        vmap, dmap = self.vmap, self.dmap
        dsrc, dinv, csrc, cinv = domain.src, domain.inv, codomain.src, codomain.inv
        for d in domain.darts:
            e = dmap[d]
            if vmap[dsrc[d]] != csrc[e]:
                raise GraphError("morphism breaks incidence at dart %r" % d)
            if dmap[dinv[d]] != cinv[e]:
                raise GraphError("morphism breaks the involution at dart %r" % d)

    @classmethod
    def _of_maps(cls, domain, codomain, vmap: dict, dmap: dict) -> "GraphMorphism":
        """The morphism of these maps, taken over unchecked: the library
        builds every map it derives here, and its caller proves it."""
        m = cls.__new__(cls)
        m.domain, m.codomain, m.vmap, m.dmap = domain, codomain, vmap, dmap
        return m

    @classmethod
    def identity(cls, g: FiniteGraph) -> "GraphMorphism":
        return cls._of_maps(g, g, {v: v for v in g.vertices},
                            {d: d for d in g.darts})

    def is_surjective(self) -> bool:
        # the maps take values in the codomain, so onto is a count
        return (len(set(self.vmap.values())) == len(self.codomain.vertices)
                and len(set(self.dmap.values())) == len(self.codomain.darts))

    def __eq__(self, other):
        return (isinstance(other, GraphMorphism)
                and self.domain == other.domain
                and self.codomain == other.codomain
                and self.vmap == other.vmap
                and self.dmap == other.dmap)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((tuple(sorted(self.vmap.items())),
                     tuple(sorted(self.dmap.items()))))

    def __repr__(self):
        return "GraphMorphism(%r -> %r)" % (self.domain.name, self.codomain.name)


def compose(outer: GraphMorphism, inner: GraphMorphism) -> GraphMorphism:
    """The composite ``outer o inner`` (apply ``inner`` first), a morphism."""
    if inner.codomain != outer.domain:
        raise GraphError("morphisms do not compose: codomain/domain mismatch")
    return GraphMorphism._of_maps(inner.domain, outer.codomain,
                                  {v: outer.vmap[w] for v, w in inner.vmap.items()},
                                  {d: outer.dmap[e] for d, e in inner.dmap.items()})


def _normalize_classes(universe, given, what):
    """Complete a partial list of classes to a partition of ``universe``."""
    assigned: dict[str, int] = {}
    classes: list[tuple[str, ...]] = []
    for cls in given:
        members = tuple(sorted(set(cls)))
        if not members:
            continue
        for x in members:
            if x not in universe:
                raise CongruenceError("unknown %s %r in a class" % (what, x),
                                      witness=x)
            if x in assigned:
                raise CongruenceError("%s %r appears in two classes" % (what, x),
                                      witness=x)
            assigned[x] = len(classes)
        classes.append(members)
    for x in universe:
        if x not in assigned:
            assigned[x] = len(classes)
            classes.append((x,))
    classes.sort(key=lambda c: c[0])
    return classes


class Congruence:
    """A partition of vertices and darts compatible with the graph structure.

    Compatibility: related darts have related sources and related inverses.
    No class may contain a dart together with its inverse, so the quotient
    involution stays fixed-point-free.  Unlisted elements form singleton
    classes.
    """

    def __init__(self, base: FiniteGraph,
                 vertex_classes: Iterable[Iterable[str]] = (),
                 dart_classes: Iterable[Iterable[str]] = ()):
        self.base = base
        self.vertex_classes = tuple(_normalize_classes(base._vertex_set,
                                                       vertex_classes, "vertex"))
        self.dart_classes = tuple(_normalize_classes(base._dart_set,
                                                     dart_classes, "dart"))
        self._vrep = {x: c[0] for c in self.vertex_classes for x in c}
        self._drep = {x: c[0] for c in self.dart_classes for x in c}
        for cls in self.dart_classes:
            srcs = {self._vrep[base.src[d]] for d in cls}
            if len(srcs) > 1:
                a, b = cls[0], next(d for d in cls
                                    if self._vrep[base.src[d]] != self._vrep[base.src[cls[0]]])
                raise CongruenceError(
                    "incompatible dart class: %r and %r have unrelated sources" % (a, b),
                    witness=(a, b))
            invs = {self._drep[base.inv[d]] for d in cls}
            if len(invs) > 1:
                a, b = cls[0], next(d for d in cls
                                    if self._drep[base.inv[d]] != self._drep[base.inv[cls[0]]])
                raise CongruenceError(
                    "incompatible dart class: %r and %r have unrelated inverses" % (a, b),
                    witness=(a, b))
            for d in cls:
                if self._drep[base.inv[d]] == self._drep[d]:
                    raise CongruenceError(
                        "dart %r is merged with its inverse" % d,
                        witness=(d, base.inv[d]))

    @classmethod
    def _of_partition(cls, base: FiniteGraph, vertex_classes, dart_classes
                      ) -> "Congruence":
        """The congruence with the given classes, trusted to partition
        the vertices and the darts, each sorted and listed in order of
        least member; only merged inverses are checked.

        Fibers of a morphism, and orbits of a group of automorphisms, are
        compatible by construction.  But a morphism sends
        a dart and its inverse to one dart exactly when that dart is fixed
        by the codomain's involution, which :class:`FiniteGraph` admits.
        In a compatible class every member is merged with its inverse when
        one is, so the class's least member is the same witness
        :meth:`__init__` reports.
        """
        r = cls.__new__(cls)
        r.base = base
        r.vertex_classes = tuple(map(tuple, vertex_classes))
        r.dart_classes = tuple(map(tuple, dart_classes))
        r._vrep = {x: c[0] for c in r.vertex_classes for x in c}
        r._drep = drep = {x: c[0] for c in r.dart_classes for x in c}
        inv = base.inv
        for c in r.dart_classes:
            if drep[inv[c[0]]] == c[0]:
                raise CongruenceError(
                    "dart %r is merged with its inverse" % c[0],
                    witness=(c[0], inv[c[0]]))
        return r

    @classmethod
    def diagonal(cls, base: FiniteGraph) -> "Congruence":
        """The identity congruence (all classes singletons), built by
        :meth:`_of_partition`: one-element classes are compatible, and only
        a dart that is its own inverse is refused."""
        return cls._of_partition(base, [(v,) for v in base.vertices],
                                 [(d,) for d in base.darts])

    def vertex_rep(self, v: str) -> str:
        return self._vrep[v]

    def dart_rep(self, d: str) -> str:
        return self._drep[d]

    def __eq__(self, other):
        return (isinstance(other, Congruence)
                and self.base == other.base
                and self.vertex_classes == other.vertex_classes
                and self.dart_classes == other.dart_classes)

    def __hash__(self):
        return hash((self.base, self.vertex_classes, self.dart_classes))

    def __repr__(self):
        return "Congruence(%d vertex classes, %d dart classes)" % (
            len(self.vertex_classes), len(self.dart_classes))


def quotient(g: FiniteGraph, r: Congruence) -> tuple[FiniteGraph, GraphMorphism]:
    """Quotient graph ``g / r`` and the projection morphism onto it.

    Class ids are the smallest member ids, so the quotient by the diagonal
    congruence, every class a singleton, has ``g``'s ids, tables and name:
    it is ``g`` itself, and the projection is the identity, read off
    ``r``'s representative maps, which send each element to itself.  It
    shares everything ``g`` keeps (components, edge table,
    :func:`pi1_data`).  The classes, which partition the vertices and the
    darts, are singletons exactly when there are as many as elements.

    Any other projection is built, not checked: a congruence's classes
    have related sources and related inverses, as
    :meth:`Congruence.__init__` checks or the callers of
    :meth:`Congruence._of_partition` prove, so each class of darts goes to
    the class whose source and inverse the quotient gives it.  The graph
    is built by :meth:`FiniteGraph._of_tables`: the classes partition the
    vertices and the darts of ``g``, which are disjoint, and come in order
    of least member, so their ids are distinct and sorted, and ``_vrep``
    and ``_drep`` are total.  It is connected when ``g`` is known to be
    (its partition is kept), as the image of a connected graph.
    """
    if r.base != g:
        raise GraphError("congruence belongs to a different graph")
    vrep, drep = r._vrep, r._drep
    if (len(r.vertex_classes), len(r.dart_classes)) == (len(g.vertices), len(g.darts)):
        return g, GraphMorphism._of_maps(g, g, vrep, drep)
    darts = tuple(c[0] for c in r.dart_classes)
    qg = FiniteGraph._of_tables(
        tuple(c[0] for c in r.vertex_classes), darts,
        {d: vrep[g.src[d]] for d in darts}, {d: drep[g.inv[d]] for d in darts},
        name=g.name, connected=len(vars(g).get("_components", ())) == 1)
    return qg, GraphMorphism._of_maps(g, qg, vrep, drep)


def kernel_congruence(f: GraphMorphism) -> Congruence:
    """The congruence on the domain whose classes are the fibers of ``f``.

    The fibers are collected in id order, so each is sorted and they come
    in order of least member, as :meth:`Congruence._of_partition` takes them.
    """
    fibers = []
    for points, image in ((f.domain.vertices, f.vmap), (f.domain.darts, f.dmap)):
        fiber: dict[str, list[str]] = {}
        for x, y in zip(points, map(image.__getitem__, points)):
            fiber.setdefault(y, []).append(x)
        fibers.append(fiber.values())
    return Congruence._of_partition(f.domain, *fibers)


class InducedMapError(VerdictError):
    """The congruence pair does not transport along the morphism.

    ``witness`` is a related pair of vertices or of darts whose images are
    unrelated; the message says which.
    """

    verdict = "no induced map"


def induced_quotient_map(f: GraphMorphism, r: Congruence,
                         s: Congruence) -> GraphMorphism:
    """The map ``domain/r -> codomain/s`` induced by ``f``.

    Requires related elements to have related images; otherwise raises
    InducedMapError carrying a witness pair.  The map is built, not
    checked: the class of a dart ``d`` goes to the class of ``f(d)``, and
    ``f`` commutes with ``src`` and ``inv``, so the class map does too.
    Each member's image is compared with its class's first member's, so
    the witness pair is that first member and the first that differs.
    """
    if r.base != f.domain:
        raise GraphError("domain congruence belongs to a different graph")
    if s.base != f.codomain:
        raise GraphError("codomain congruence belongs to a different graph")
    maps = []
    for what, classes, image, rep in (("vertices", r.vertex_classes, f.vmap, s._vrep),
                                      ("darts", r.dart_classes, f.dmap, s._drep)):
        m = {}
        for cls in classes:
            first = cls[0]
            m[first] = target = rep[image[first]]
            for x in cls:
                if rep[image[x]] != target:
                    raise InducedMapError(
                        "%s %r and %r are identified but their images are not"
                        % (what, first, x), witness=(first, x))
        maps.append(m)
    vmap, dmap = maps
    return GraphMorphism._of_maps(quotient(f.domain, r)[0],
                                  quotient(f.codomain, s)[0], vmap, dmap)
