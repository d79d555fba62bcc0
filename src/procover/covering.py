"""Coverings of finite graphs and everything that lives over them.

A covering is a graph morphism that restricts to a bijection on the star of
darts at every vertex.  This module recognizes coverings, keeping the lift
table that check builds, builds them from subgroups (voltage construction),
reads subgroups back off as monodromy and lifts maps through them (both
from the lift table), computes deck transformation groups, decides
regularity, and forms quotients by free group actions and by deck subgroups.
Its covers are coverings by construction (Stallings, 1983), proved where built.

A covering is its map: fibers and degrees are read off it, and so are the
sheet coordinates.  Monodromy, deck groups and regularity rest on one lift
of a spanning tree, which gives the cover's sheet rows and the monodromy on
one fiber; every covering takes it once, at its first vertex, when it is
first read, and keeps it.  For a connected cover
with monodromy subgroup H at a fiber point, the deck transformations
correspond to the fiber points whose stabilizer equals H, that is to
N(H)/H, and the cover is regular exactly when every fiber point qualifies
(H is normal).  Those points are the orbit of the fiber's first
point under the automorphisms of the monodromy action
(:func:`~procover.freegroup.normalizer_points`), and each deck
transformation permutes the sheet rows by its automorphism, with no lift.
Each automorphism is proved by the forced map that finds it, so
:func:`deck_group` proves nothing again.

A group action given by its maps is checked for closure on a generating
set, not pairwise (:class:`GroupAction`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping

from .graphs import (
    Congruence,
    FiniteGraph,
    GraphError,
    GraphMorphism,
    Pi1Data,
    VerdictError,
    components,
    edge_stem,
    is_connected,
    pi1_data,
    quotient,
    validate_graph,
)
from .freegroup import FreeWord, PermRep, _automorphisms, normalizer_points


class NotACoveringError(VerdictError):
    """Local bijectivity fails at ``vertex`` (the witness), for ``reason``."""

    verdict = "not a covering"

    def __init__(self, vertex, reason):
        super().__init__("not a covering at vertex %r: %s" % (vertex, reason),
                         witness=vertex)
        self.vertex = vertex
        self.reason = reason

    def details(self) -> dict:
        return dict(super().details(), reason=self.reason)


class LiftObstruction(VerdictError):
    """A lift does not exist; the witness is a closed path in the source,
    as a tuple of darts, whose image fails to lift to a loop at the chosen
    basepoint."""

    verdict = "obstruction"

    def __init__(self, path):
        path = tuple(path)
        super().__init__("no lift: obstruction path of %d darts" % len(path),
                         witness=path)


class ActionError(VerdictError):
    """A group action request is inconsistent; carries a witness."""


class Covering:
    """A locally bijective morphism, checked or proved so, and what its map
    determines, each derived once, on first read, and kept.

    ``lifts[u]`` maps each dart at the image of cover vertex ``u`` to the
    one dart at ``u`` over it.  :func:`as_covering` and
    :func:`cover_from_subgroup` pass the table they build anyway; any other
    covering reads it off the stars.  ``vertex_fibers[u]`` lists the
    vertices over base vertex ``u`` in id order.  ``component_degrees``
    holds the fiber size at the first vertex of each base component, and
    ``degree`` their shared value, or None when they disagree.  Between
    valid graphs (:func:`~procover.graphs.validate_graph`) fiber sizes
    agree along every base dart ``d``: one dart over ``d`` starts at each
    vertex over its source, and ``inv`` sends those one to one onto the
    darts over ``inv(d)``, one at each vertex over its target.
    """

    def __init__(self, map: GraphMorphism, lifts: dict | None = None):
        self.map = map
        if lifts is not None:
            self.lifts = lifts

    @cached_property
    def lifts(self) -> dict:
        """The lift table read off the stars: the map is locally bijective,
        so each star maps one to one onto the star below."""
        return _star_lifts(self.map)

    @cached_property
    def vertex_fibers(self) -> dict:
        fibers = {u: [] for u in self.codomain.vertices}
        vertices = self.domain.vertices
        for v, u in zip(vertices, map(self.map.vmap.__getitem__, vertices)):
            fibers[u].append(v)
        return {u: tuple(vs) for u, vs in fibers.items()}

    @cached_property
    def component_degrees(self) -> tuple:
        fibers = self.vertex_fibers
        return tuple((comp[0], len(fibers[comp[0]]))
                     for comp in components(self.codomain))

    @cached_property
    def degree(self) -> int | None:
        sizes = {n for _, n in self.component_degrees}
        return sizes.pop() if len(sizes) == 1 else None

    @cached_property
    def _sheets(self) -> tuple[dict, PermRep]:
        """:func:`_sheet_rows` at the first vertex ``a0``, with
        :func:`pi1_data` at its image: ``a0`` is the least of its fiber, so
        fiber point k is in sheet k.  Cover and base must be connected."""
        if not self.domain.vertices:
            raise ValueError("the cover has no vertices")
        if not is_connected(self.domain) or not is_connected(self.codomain):
            raise ValueError("cover and base must be connected")
        a0 = self.domain.vertices[0]
        return _sheet_rows(self, a0, pi1_data(self.codomain, self.map.vmap[a0]))

    @property
    def domain(self) -> FiniteGraph:
        return self.map.domain

    @property
    def codomain(self) -> FiniteGraph:
        return self.map.codomain

    def __repr__(self):
        return "Covering(degree=%r, %r -> %r)" % (
            self.degree, self.domain.name, self.codomain.name)


def _star_lifts(f: GraphMorphism) -> dict:
    """The star of each domain vertex keyed by image dart: the lift table
    of ``f`` when ``f`` is locally bijective."""
    dmap = f.dmap
    return {v: dict(zip(map(dmap.__getitem__, star), star))
            for v, star in f.domain._star.items()}


def as_covering(f: GraphMorphism) -> Covering:
    """Verify local bijectivity and wrap ``f`` as a Covering whose lift
    table rows are the stars keyed by image dart.

    Raises NotACoveringError with the first failing vertex otherwise.
    """
    dom, cod = f.domain, f.codomain
    vmap = f.vmap
    below = {u: frozenset(star) for u, star in cod._star.items()}
    lifts = _star_lifts(f)
    for v, star in dom._star.items():
        over = lifts[v]
        if len(over) != len(star):
            raise NotACoveringError(v, "two darts at the vertex have the same image")
        u = vmap[v]
        if over.keys() != below[u]:
            raise NotACoveringError(
                v, "star maps onto %d of %d darts at %r"
                % (len(star), len(below[u]), u))
    return Covering(f, lifts)


def path_to_word(p: Pi1Data, path: Iterable[str]) -> FreeWord:
    """Rewrite a dart path through the tree into a reduced word.

    Tree darts contribute nothing; the word of a closed path at the
    basepoint is its fundamental-group element.  Raises GraphError if the
    darts do not chain head to tail.
    """
    g = p.graph
    letters = []
    prev_end = None
    for d in path:
        if d not in g._dart_set:
            raise GraphError("unknown dart %r in path" % d)
        if prev_end is not None and g.src[d] != prev_end:
            raise GraphError("darts do not form a path at %r" % d)
        prev_end = g.target(d)
        lt = p.letter(d)
        if lt is not None:
            letters.append(lt)
    return FreeWord(letters)


def cover_from_subgroup(base: FiniteGraph, basepoint: str, rep: PermRep
                        ) -> tuple[FiniteGraph, str, Covering]:
    """Build the cover of ``base`` whose fundamental-group image is the
    subgroup of ``rep``, by the voltage construction.

    Sheets are the points of the action; tree darts stay in their sheet and
    the k-th basis dart moves sheets by the permutation of x_k.  Returns the
    cover, its basepoint (sheet 0 over ``basepoint``), and the projection.

    The projection is built, not checked; a base that
    :func:`~procover.graphs.validate_graph` rejects raises GraphError.  In
    sheet s an edge ``{d, e}`` lifts to a dart over ``d`` at the sheet-s
    vertex over ``src(d)`` and its inverse in sheet ``move(s)``, a
    permutation, so each vertex has one dart over each dart at its image,
    and the lift table is filled on the way.

    The cover graph is built by
    :meth:`~procover.graphs.FiniteGraph._of_tables`.  Its ids are disjoint:
    a vertex id is ``v@s`` and a dart id ``stem@s+`` or ``stem@s-``, split
    at the last ``@``.  The vertex ids are distinct, as the base's are.
    The dart ids are distinct when the base's dart-pair stems are, which
    the count of the filled ``src`` checks: the stem of a pair not shaped
    ``X+``/``X-`` is its positive dart id, which can be the stem of another
    pair, and such a base raises GraphError, as a graph with duplicate
    dart ids.  ``src`` and ``inv`` are filled on every dart.  It is connected:
    the base is, and the action is transitive (as every :class:`PermRep`
    is), so the tree lifts in each sheet and the basis darts join them.
    """
    bad = validate_graph(base)
    if bad:
        raise GraphError("base graph is invalid: %(kind)s at %(witness)r" % bad[0])
    p = pi1_data(base, basepoint)
    if rep.rank != p.rank:
        raise ValueError("rep rank %d does not match the base rank %d"
                         % (rep.rank, p.rank))
    n = rep.degree
    # each sheet name is made once; vertices, vmap and src share it
    at = ["@%d" % s for s in range(n)]
    names = {v: list(map(v.__add__, at)) for v in base.vertices}
    vmap = {}
    for v, row in names.items():
        vmap.update(dict.fromkeys(row, v))
    vertices = sorted(vmap)
    lifts = {x: {} for x in vertices}
    src, inv, dmap = {}, {}, {}
    plus, minus = [x + "+" for x in at], [x + "-" for x in at]
    for d, e in base.dart_pairs():
        stem = edge_stem(d, e)
        # the sheet move of the pair: its voltage is one letter or none
        lt = p.letter(d)
        at_d, at_e = names[base.src[d]], names[base.src[e]]
        if lt is not None:
            at_e = list(map(at_e.__getitem__, rep.move(lt)))
        pos, neg = list(map(stem.__add__, plus)), list(map(stem.__add__, minus))
        for ends, ds, x, opposite in ((at_d, pos, d, neg), (at_e, neg, e, pos)):
            src.update(zip(ds, ends))
            inv.update(zip(ds, opposite))
            dmap.update(dict.fromkeys(ds, x))
            for row, y in zip(map(lifts.__getitem__, ends), ds):
                row[x] = y
    if len(src) != n * len(base.darts):
        raise GraphError("duplicate dart ids")
    cover = FiniteGraph._of_tables(tuple(vertices), tuple(sorted(src)), src, inv,
                                   connected=True)
    return cover, names[basepoint][0], Covering(
        GraphMorphism._of_maps(cover, base, vmap, dmap), lifts)


def _sheet_rows(c: Covering, a: str, p: Pi1Data) -> tuple[dict, PermRep]:
    """The vertex rows and the monodromy of a connected cover, from one
    lift of the spanning tree of ``p`` with ``a`` in sheet 0 and the rest
    of its fiber in fiber order.  ``rows[v][k]``, the sheet-k vertex over
    ``v``, ends the lift of the tree path to ``v`` from sheet k, so a tree
    dart keeps the sheet.  Generator x_k sends sheet s to the sheet where
    the lift of the k-th basis dart from sheet s ends: with the tree paths
    in and out, that is the lift of basis loop k.  Its inverse sends a
    sheet to the end of the lift of the inverse dart from there.

    The monodromy is built by :meth:`~procover.freegroup.PermRep._of_moves`.
    Each row is a permutation: the lifts of one base dart from distinct
    sheets are distinct darts, so their inverses, one per vertex over the
    inverse dart, start at distinct vertices, and a row of ``rows`` holds
    the whole fiber.  The lift of the inverse dart from the end of a lift
    is that lift reversed, so the second row inverts the first.  The action
    is transitive because the cover is connected, as :func:`image_subgroup`
    and :attr:`Covering._sheets` check."""
    base, cover = c.codomain, c.domain
    lifts, src, inv = c.lifts, cover.src, cover.inv
    rows = {p.basepoint: [a] + [x for x in c.vertex_fibers[p.basepoint]
                                if x != a]}
    # the tree's parent darts are held in breadth-first order, so each
    # parent is reached before its children
    for w, up in p.tree.parent_dart.items():
        down = base.inv[up]
        rows[w] = [src[inv[lifts[u][down]]] for u in rows[base.src[down]]]
    sheet = {x: k for row in rows.values() for k, x in enumerate(row)}
    moves = tuple(tuple([sheet[src[inv[lifts[u][e]]]] for u in rows[base.src[e]]])
                  for d in p.basis_darts for e in (d, base.inv[d]))
    return rows, PermRep._of_moves(p.rank, len(rows[p.basepoint]), moves)


def image_subgroup(c: Covering, a: str, p: Pi1Data) -> PermRep:
    """Monodromy of the base fundamental group on the fiber through ``a``,
    read off the sheet rows (:func:`_sheet_rows`): the covering's kept
    ones when ``a`` is its first vertex and ``p`` is the kept
    :func:`pi1_data` there.

    The fiber point ``a`` is labelled 0, so the stabilizer of 0 is the image
    of the cover's fundamental group at ``a``.  Degree = covering degree.
    """
    if p.graph != c.codomain:
        raise GraphError("fundamental-group data is for a different graph")
    if a not in c.domain._vertex_set:
        raise GraphError("unknown vertex %r" % a)
    if c.map.vmap[a] != p.basepoint:
        raise ValueError("basepoint mismatch: %r lies over %r, not %r"
                         % (a, c.map.vmap[a], p.basepoint))
    if not is_connected(c.domain):
        raise ValueError("cover is not connected")
    if a == c.domain.vertices[0] and p is c.codomain._pi1.get(p.basepoint):
        return c._sheets[1]
    return _sheet_rows(c, a, p)[1]


def lift(g: GraphMorphism, c: Covering, base_c: str,
         base_a: str) -> GraphMorphism:
    """The unique lift of ``g`` through the covering, sending base_c to base_a.

    Proceeds breadth-first: each dart of the (connected) source has exactly
    one possible image, read from the lift table ``c.lifts``, so the whole
    lift is forced once the basepoint image is fixed.  When some closed
    path blocks the lift, raises LiftObstruction carrying that path.

    The result is built, not checked: the search reaches all of the
    connected source, ``hd[d]`` is the dart over ``g(d)`` in the row of
    ``hv[src(d)]`` (so ``c.map o h == g``), and ``hd[inv d] = inv(hd[d])``
    is the one dart over ``g(inv d)`` at its source once ``hv`` agrees.
    """
    if g.codomain != c.codomain:
        raise GraphError("map and covering have different codomains")
    if base_c not in g.domain._vertex_set:
        raise GraphError("unknown source basepoint %r" % base_c)
    if base_a not in c.domain._vertex_set:
        raise GraphError("unknown cover basepoint %r" % base_a)
    if g.vmap[base_c] != c.map.vmap[base_a]:
        raise ValueError("basepoint mismatch: %r maps to %r but %r lies over %r"
                         % (base_c, g.vmap[base_c], base_a, c.map.vmap[base_a]))
    if not is_connected(g.domain):
        raise ValueError("source graph is not connected")
    sigma, gamma = g.domain, c.domain
    sstar, ssrc, sinv = sigma._star, sigma.src, sigma.inv
    gsrc, ginv, gd = gamma.src, gamma.inv, g.dmap

    def path_to(v):
        # the tree path from base_c, read back along the discovery darts
        back = []
        while v != base_c:
            d = reached_by[v]
            back.append(d)
            v = ssrc[d]
        return tuple(reversed(back))

    hv = {base_c: base_a}
    hd: dict[str, str] = {}
    reached_by: dict[str, str] = {}
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
                raise LiftObstruction(path_to(x) + (d,) + back)
    return GraphMorphism._of_maps(sigma, gamma, hv, hd)


class DeckGroup:
    """The covering transformations of a connected cover, held as the
    automorphisms of the monodromy action on one fiber.

    ``automorphisms[i]`` is the image list of element i on the sheet
    positions 0..n-1, in fiber order with the identity first, and ``vrows``
    and ``drows`` are the sheet rows :func:`deck_group` builds: one row per
    base vertex and per base dart, whose k-th entry is the vertex or dart
    over it in sheet k.  ``table[i][j]`` is the index of the composite that
    applies element j first and element i second.  Order, table, subgroups,
    :meth:`indices_sending` and :meth:`vertex_map` read the automorphisms
    and the rows; :meth:`element` builds one element as a morphism, and
    :attr:`elements` builds them all on first read and keeps
    them (a pure function of the value, like the caches of
    :mod:`procover.graphs`).  No element but the identity has a fixed
    point, as proved by the forced map
    (:func:`~procover.freegroup._automorphisms`).
    """

    def __init__(self, covering: Covering, automorphisms, vrows, drows, table):
        self.covering = covering
        self.automorphisms = tuple(automorphisms)
        self.vrows = vrows
        self.drows = drows
        self.table = table

    @property
    def order(self) -> int:
        return len(self.automorphisms)

    def is_subgroup(self, indices: Iterable[int]) -> bool:
        """Whether the indices form a subgroup: a nonempty subset of a
        finite group closed under products is one, as every inverse is a
        power.  An index outside 0..order-1 names no element."""
        s = set(indices)
        return (bool(s) and s.issubset(range(self.order))
                and all(self.table[i][j] in s for i in s for j in s))

    def indices_sending(self, x: str, ys: Iterable[str]) -> list[int]:
        """For each vertex y of ``ys``, the index of the element that sends
        the cover vertex ``x`` to ``y``: with ``x`` in sheet k of its row
        and y in sheet m of the same row, the element i with
        ``automorphisms[i][k] == m``.  No element is built.  A y that no
        element sends ``x`` to raises KeyError; on a regular cover that is
        a y outside the fiber of ``x``."""
        row = next((row for row in self.vrows if x in row), ())
        sheet = {v: m for m, v in enumerate(row)}
        k = sheet[x]
        index = {phi[k]: i for i, phi in enumerate(self.automorphisms)}
        return [index[sheet[y]] for y in ys]

    def vertex_map(self, i: int) -> dict:
        """The vertex map of deck element i, read off the vertex rows with
        no morphism built: the entry in sheet k of every row goes to the
        entry in sheet ``automorphisms[i][k]`` of the same row."""
        if not 0 <= i < self.order:
            raise IndexError("no deck element %r in 0..%d" % (i, self.order - 1))
        return dict(zip(chain.from_iterable(self.vrows),
                        _moved(self.vrows, self.automorphisms[i])))

    def element(self, i: int) -> GraphMorphism:
        """Deck element i as a morphism of the cover: :meth:`vertex_map`
        and the same permutation of the dart rows, built, not checked (a
        morphism by the forced map, as :func:`deck_group` proves)."""
        cover, hv = self.covering.domain, self.vertex_map(i)
        return GraphMorphism._of_maps(cover, cover, hv, dict(zip(
            chain.from_iterable(self.drows),
            _moved(self.drows, self.automorphisms[i]))))

    @cached_property
    def elements(self) -> tuple[GraphMorphism, ...]:
        """Every element, built by :meth:`element` on first read."""
        return tuple(map(self.element, range(self.order)))


def _moved(rows, phi):
    """The entries of ``rows`` with each row permuted by ``phi``: the entry
    in sheet ``phi[k]`` where the row has its sheet-k entry."""
    return chain.from_iterable(map(row.__getitem__, phi) for row in rows)


def deck_group(c: Covering) -> DeckGroup:
    """All covering transformations of a connected cover of a connected base.

    A deck transformation is fixed by the fiber point it sends the first
    vertex ``a0`` to, and on that fiber it acts as the automorphism of the
    monodromy action with that image of 0: the deck group is N(H)/H, and
    its elements come in the fiber order of the normalizer points
    (:func:`normalizer_points`), the identity first.  The sheet rows and
    the monodromy are the covering's (:attr:`Covering._sheets`); the sheet-k
    dart over a base dart ``d`` is the dart over ``d`` at the sheet-k vertex
    over its source.  The element of an automorphism ``phi`` sends the
    sheet-k vertex or dart over each base element to the sheet-``phi[k]``
    one, so it covers the covering map by construction.

    Nothing is checked again here.  The rows partition the cover: a vertex
    row is the fiber over its base vertex, reached by lifting tree paths
    from the first fiber, and a dart row holds the darts over its base dart
    at one such fiber, each once by the star check of :func:`as_covering`.
    The inverse of the sheet-k dart over ``d`` is the sheet-``s_d(k)`` dart
    over ``inv(d)``, so the sheet map of ``phi`` is a morphism when ``phi``
    commutes with every sheet move ``s_d``: the identity on a tree dart, a
    monodromy move on a basis dart.  That, freeness and closure are proved
    where the automorphisms are found
    (:func:`~procover.freegroup._automorphisms`).  The composition table is
    read off the images of 0.  An element is built as a morphism, with no
    check, only when it is read (:meth:`DeckGroup.element`,
    :attr:`DeckGroup.elements`).
    """
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
    return DeckGroup(c, phis, vrows, drows, table)


def action_deck_indices(act: GroupAction, c: Covering) -> dict:
    """The index in :func:`deck_group` of the deck transformation each
    element of ``act`` acts by, where ``c`` is the orbit map that
    :func:`quotient_by_group` returned for ``act``.

    The action is free on a connected graph, so the orbit map is regular
    and its deck group is the acting group itself.  ``deck_group`` lists
    its elements in the fiber order of their images of the first vertex
    ``a0``, so an element's index is the position of its image of ``a0``
    in the fiber of ``a0``; no deck transformation is built.
    """
    a0 = c.domain.vertices[0]
    position = {a: k for k, a in enumerate(c.vertex_fibers[c.map.vmap[a0]])}
    return {g: position[act.morphisms[g].vmap[a0]] for g in act.elements}


@dataclass(frozen=True)
class RegularityReport:
    """Regularity of a connected cover with the numbers behind it.

    ``deck_order`` is [N(H) : H] for the monodromy image H, and the cover is
    regular when it equals the degree.  ``image_normal`` (H is normal) and
    ``fiber_transitive`` (deck transformations act transitively on every
    fiber) are equivalent to that by the Galois correspondence, so they
    always equal ``regular``.
    """

    regular: bool
    degree: int
    deck_order: int
    image_normal: bool
    fiber_transitive: bool

    def __bool__(self):
        return self.regular


def is_regular(c: Covering) -> RegularityReport:
    """Decide regularity from the monodromy image subgroup H alone.

    The deck order is the number of fiber points whose stabilizer equals H
    (:func:`normalizer_points`), and the cover is regular exactly when that
    is the whole fiber.  No deck transformation is constructed.
    """
    deck_order = len(normalizer_points(c._sheets[1]))
    regular = deck_order == c.degree
    return RegularityReport(regular=regular, degree=c.degree,
                            deck_order=deck_order, image_normal=regular,
                            fiber_transitive=regular)


class GroupAction:
    """A finite group acting on a graph, given by the map of each element.

    Construction checks that every map is an endomorphism of ``graph``,
    that no two elements act alike, that one acts as the identity, that the
    maps are closed under composition, that each is bijective and that none
    sends a dart to its inverse.  Closure is checked on a generating set T,
    picked greedily: each element not yet reached joins T, and every
    element reached is multiplied on the left by every member of T, each
    composite looked up by its vertex and dart images among the elements'
    own, with no composite morphism built.  That suffices: the elements
    reached are the products of members of T, so once they are all of S
    and T S lies in S, S S lies in S, one factor of T at a time.  In a
    group each new member of T at least doubles what is reached (a
    subgroup grows by whole cosets), so |T| <= log2 |S| and the check
    composes |T| |S| pairs, not |S|^2.  The group laws need no check:
    composition of maps is associative, and a finite set of bijections
    closed under composition is a group (every inverse is a power).
    ``elements`` holds the ids sorted by ``str``.
    """

    def __init__(self, graph: FiniteGraph, morphisms: Mapping):
        self.graph = graph
        self.morphisms = dict(morphisms)
        for g, m in self.morphisms.items():
            if m.domain != graph or m.codomain != graph:
                raise ActionError("element %r does not act on the graph" % (g,),
                                  witness=g)
        vertices, darts = graph.vertices, graph.darts
        images = {g: (tuple(map(m.vmap.__getitem__, vertices)),
                      tuple(map(m.dmap.__getitem__, darts)))
                  for g, m in self.morphisms.items()}
        lookup = {}
        for g, key in images.items():
            if key in lookup:
                raise ActionError("elements %r and %r act identically"
                                  % (lookup[key], g), witness=(lookup[key], g))
            lookup[key] = g
        self.identity = lookup.get((vertices, darts))
        if self.identity is None:
            raise ActionError("no element acts as the identity map",
                              witness=tuple(sorted(self.morphisms, key=str)))
        reached, seen, gens = [self.identity], {self.identity}, []

        def times(g, h):
            # the element acting as "h then g" joins those reached
            mg, (hv, hd) = self.morphisms[g], images[h]
            gh = lookup.get((tuple(map(mg.vmap.__getitem__, hv)),
                             tuple(map(mg.dmap.__getitem__, hd))))
            if gh is None:
                raise ActionError("morphisms are not closed under composition",
                                  witness=(g, h))
            if gh not in seen:
                seen.add(gh)
                reached.append(gh)

        for t in self.morphisms:
            if t in seen:
                continue
            gens.append(t)
            # t on every element reached before it, then every member of T
            # on each element reached since
            i = len(reached)
            for h in reached[:i]:
                times(t, h)
            while i < len(reached):
                for g in gens:
                    times(g, reached[i])
                i += 1
        for g, (gv, gd) in images.items():
            missing = (sorted(graph._vertex_set.difference(gv))
                       or sorted(graph._dart_set.difference(gd)))
            if missing:
                raise ActionError("element %r does not act bijectively" % (g,),
                                  witness=(g, missing[0]))
        self.elements = tuple(sorted(self.morphisms, key=str))
        for g in self.elements:
            m = self.morphisms[g]
            for d in darts:
                if m.dmap[d] == graph.inv[d]:
                    raise ActionError("element %r inverts an edge" % (g,),
                                      witness=(g, d))

    def free_violation(self):
        """A pair (g, fixed element) with g not the identity, or None."""
        for g in self.elements:
            if g == self.identity:
                continue
            m = self.morphisms[g]
            for v in self.graph.vertices:
                if m.vmap[v] == v:
                    return (g, v)
            for d in self.graph.darts:
                if m.dmap[d] == d:
                    return (g, d)
        return None


def _deck_subgroup(deck: DeckGroup, indices: Iterable[int]) -> list[int]:
    """The given deck element indices, sorted, once they are checked to be
    given, in range and to form a subgroup."""
    chosen = sorted(set(indices))
    if not chosen:
        raise ValueError("no deck element index given")
    bad = [i for i in chosen if not 0 <= i < deck.order]
    if bad:
        raise ValueError("deck element index %r is outside 0..%d"
                         % (bad[0], deck.order - 1))
    if not deck.is_subgroup(chosen):
        raise ActionError("deck elements %r are not a subgroup" % (chosen,),
                          witness=tuple(chosen))
    return chosen


def _orbit_quotient(graph: FiniteGraph, vertex_orbits, dart_orbits
                    ) -> tuple[FiniteGraph, Covering]:
    """Orbit graph and orbit map of a group acting on ``graph`` with the
    given vertex and dart orbits; the caller has checked that the graph is
    connected and the action free and inversion-free.

    The orbit map is the projection of :func:`quotient`.  Orbits of
    automorphisms are compatible with ``src`` and ``inv``: a congruence
    once no orbit holds a dart and its inverse, as
    :meth:`Congruence._of_partition` checks.  A free action leaves each
    dart orbit at the orbit of ``u`` one member at ``u``, so the orbit map
    is locally bijective and its lift table is left to the first read
    (:attr:`Covering.lifts`).
    """
    classes = [sorted(map(sorted, orbits))
               for orbits in (vertex_orbits, dart_orbits)]
    qg, proj = quotient(graph, Congruence._of_partition(graph, *classes))
    return qg, Covering(proj)


def _orbits(points, images) -> list[set]:
    """The orbits of ``points`` under the maps ``images``, which hold the
    identity and are closed under composition."""
    orbits, seen = [], set()
    for x in points:
        if x not in seen:
            orbit = {image[x] for image in images}
            seen |= orbit
            orbits.append(orbit)
    return orbits


def quotient_by_group(act: GroupAction) -> tuple[FiniteGraph, Covering]:
    """Orbit graph and orbit map of a free, inversion-free action.

    The orbit map is a regular covering of degree equal to the group
    order, and its deck group is the acting group
    (:func:`action_deck_indices`).
    """
    if not is_connected(act.graph):
        raise ValueError("the graph being acted on must be connected")
    bad = act.free_violation()
    if bad is not None:
        raise ActionError("action is not free: %r fixes %r" % bad, witness=bad)
    maps = [act.morphisms[g] for g in act.elements]
    return _orbit_quotient(act.graph,
                           _orbits(act.graph.vertices, [m.vmap for m in maps]),
                           _orbits(act.graph.darts, [m.dmap for m in maps]))


def quotient_by_deck_subgroup(deck: DeckGroup, indices: Iterable[int]
                              ) -> tuple[FiniteGraph, Covering, Covering]:
    """Factor the covering through the orbits of a deck subgroup.

    Returns (intermediate graph, quotient map onto it, induced covering of
    the original base).  Only the indices are checked (in range, a
    subgroup); both maps are built, not checked.  The orbits are read off
    the sheet rows with no deck element built: the subgroup K permutes the
    sheet positions by its automorphisms, and over every base vertex and
    base dart the K-orbits are the entries of its row at one K-orbit of
    positions.  So the two maps compose dart-for-dart to the original, as
    every entry of a row lies over the row's base element.  Connectivity is
    checked by :func:`deck_group`, and closure and freeness are proved by
    the forced map (:func:`~procover.freegroup._automorphisms`); no deck
    transformation inverts an edge, as the covering map would send a dart
    and its inverse to one base dart.  The lower map is a covering, as
    the original map is it after the upper map, a surjective covering;
    like the upper map's, its lift table is left to the first read.
    """
    c = deck.covering
    chosen = _deck_subgroup(deck, indices)
    positions = _orbits(range(c.degree),
                        [deck.automorphisms[i] for i in chosen])

    def orbits(rows):
        return [list(map(row.__getitem__, orbit))
                for row in rows for orbit in positions]

    qg, h_map = _orbit_quotient(c.domain, orbits(deck.vrows),
                                orbits(deck.drows))
    # orbit class ids are member ids of the cover, so the original covering
    # map restricts to them directly
    cv, cd = c.map.vmap, c.map.dmap
    vmap = {v: cv[v] for v in qg.vertices}
    dmap = {d: cd[d] for d in qg.darts}
    return qg, h_map, Covering(GraphMorphism._of_maps(qg, c.codomain, vmap, dmap))
