"""Finite chains of covering squares and the universal-tower construction.

A tower is a truncated inverse system: one covering per level plus bonding
morphisms one step down on the cover side and on the base side, every
square commuting.  On top of plain validation this module classifies the
kernel pairs of a tower (good pairs), projects deck groups down the chain,
builds the tower realizing a compatible chain of finite-index normal
subgroups, and runs the finite shadow of the trivial-fundamental-group
criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .graphs import (
    Congruence,
    FiniteGraph,
    GraphError,
    GraphMorphism,
    InducedMapError,
    Pi1Data,
    VerdictError,
    compose,
    induced_quotient_map,
    is_connected,
    kernel_congruence,
    pi1_data,
    quotient,
)
from .freegroup import (
    DEFAULT_MAX_WORK,
    FreeWord,
    GeneratorImages,
    PermRep,
    is_normal,
    low_index_reps,
    pushforward_leq,
    substitute,
)
from .covering import (
    Covering,
    NotACoveringError,
    as_covering,
    cover_from_subgroup,
    deck_group,
    is_regular,
    lift,
)


class TowerError(VerdictError):
    """A tower request cannot be satisfied; ``witness`` names the level,
    step, level pair or basepoint at fault."""


class CompatibilityError(VerdictError):
    """A subgroup chain is not compatible with its bonding maps.

    ``levels`` is the offending pair (lower, upper) and the witness a
    Schreier generator of the upper subgroup whose image escapes the lower
    one.
    """

    verdict = "incompatible"

    def __init__(self, levels, word):
        super().__init__(
            "subgroup at level %d does not push into level %d (witness %s)"
            % (levels[1], levels[0], word), witness=word)
        self.levels = levels

    def details(self) -> dict:
        return dict(super().details(), levels=list(self.levels))


class Tower:
    """Levels 0..k of coverings with one-step bonding morphisms.

    ``cover_steps[i]`` maps the level i+1 cover onto the level i cover and
    ``base_steps[i]`` does the same on the bases.  Shapes are checked at
    construction (an empty tower is a ValueError, a misplaced step or
    basepoint a TowerError naming it); the semantic checks (squares
    commute, surjectivity) are the job of :func:`validate_tower`.  An
    optional basepoint thread gives a vertex per cover with each bonding
    step sending one to the next.
    """

    def __init__(self, coverings: Iterable[Covering],
                 cover_steps: Iterable[GraphMorphism],
                 base_steps: Iterable[GraphMorphism],
                 basepoints: Iterable[str] | None = None):
        self.coverings = tuple(coverings)
        self.cover_steps = tuple(cover_steps)
        self.base_steps = tuple(base_steps)
        self.basepoints = None if basepoints is None else tuple(basepoints)
        if not self.coverings:
            raise ValueError("a tower needs at least one level")
        k = len(self.coverings) - 1
        if len(self.cover_steps) != k or len(self.base_steps) != k:
            raise TowerError("expected %d bonding morphisms per side" % k,
                             witness=(len(self.cover_steps), len(self.base_steps)))
        for i in range(k):
            upper, lower = self.coverings[i + 1], self.coverings[i]
            for side, step, start, end in (
                    ("cover", self.cover_steps[i], upper.domain, lower.domain),
                    ("base", self.base_steps[i], upper.codomain, lower.codomain)):
                if step.domain != start:
                    raise TowerError("%s step %d does not start at level %d"
                                     % (side, i, i + 1), witness=(i,))
                if step.codomain != end:
                    raise TowerError("%s step %d does not end at level %d"
                                     % (side, i, i), witness=(i,))
        if self.basepoints is not None:
            if len(self.basepoints) != k + 1:
                raise TowerError("expected one basepoint per level",
                                 witness=self.basepoints)
            for i, a in enumerate(self.basepoints):
                if a not in self.coverings[i].map.vmap:
                    raise TowerError("basepoint %r is not in level %d" % (a, i),
                                     witness=(a, i))
            for i in range(k):
                if self.cover_steps[i].vmap[self.basepoints[i + 1]] != self.basepoints[i]:
                    raise TowerError("basepoints are not threaded at step %d" % i,
                                     witness=(i,))

    @property
    def top(self) -> int:
        return len(self.coverings) - 1

    def cover_graph(self, i: int) -> FiniteGraph:
        return self.coverings[i].domain

    def base_graph(self, i: int) -> FiniteGraph:
        return self.coverings[i].codomain

    def cover_map_to(self, i: int, j: int) -> GraphMorphism:
        """Composite bonding morphism from level j down to level i (j >= i).

        Each call builds its own chain of j - i compositions; the tower
        operations below keep one running chain instead of calling this.
        """
        if not 0 <= i <= j <= self.top:
            raise TowerError("bad level pair (%d, %d)" % (i, j), witness=(i, j))
        out = GraphMorphism.identity(self.cover_graph(j))
        for step in range(j - 1, i - 1, -1):
            out = compose(self.cover_steps[step], out)
        return out

    def require_basepoints(self) -> tuple[str, ...]:
        """The basepoint thread; a tower without one raises ValueError."""
        if self.basepoints is None:
            raise ValueError("this operation needs a basepoint thread")
        return self.basepoints


@dataclass
class TowerReport:
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_tower_pieces(level_maps: list[GraphMorphism],
                          cover_steps: list[GraphMorphism],
                          base_steps: list[GraphMorphism]) -> TowerReport:
    """Report-style validation of tower data given as bare morphisms: the
    local bijectivity of every level, then the checks of
    :func:`validate_tower`.  Lists every violation with a witness element."""
    report = TowerReport()
    for i, f in enumerate(level_maps):
        try:
            as_covering(f)
        except NotACoveringError as exc:
            report.violations.append({
                "kind": "not-locally-bijective", "level": i,
                "witness": exc.vertex, "reason": exc.reason})
    return _check_squares(report, level_maps, cover_steps, base_steps)


def _check_squares(report: TowerReport, level_maps, cover_steps, base_steps
                   ) -> TowerReport:
    """Add to ``report`` the first failure of every square
    ``f_i o phi_i == psi_i o f_{i+1}``, read pointwise without building
    either composite, and (as warnings) the bonding maps that are not
    surjective.  Maps that do not compose raise the GraphError of
    :func:`compose`."""
    for i, (phi, psi) in enumerate(zip(cover_steps, base_steps)):
        f, g = level_maps[i], level_maps[i + 1]
        if phi.codomain != f.domain or g.codomain != psi.domain:
            raise GraphError("morphisms do not compose: codomain/domain mismatch")
        violation = _square_violation(phi.domain.vertices, phi.vmap, f.vmap,
                                      g.vmap, psi.vmap)
        if violation is None:
            violation = _square_violation(phi.domain.darts, phi.dmap, f.dmap,
                                          g.dmap, psi.dmap)
        if violation is not None:
            x, via_cover, via_base = violation
            report.violations.append({
                "kind": "square", "step": i, "witness": x,
                "via-cover": via_cover, "via-base": via_base})
        for m, side in ((phi, "cover"), (psi, "base")):
            if not m.is_surjective():
                missing = sorted(m.codomain._vertex_set - set(m.vmap.values())
                                 or m.codomain._dart_set - set(m.dmap.values()))
                report.warnings.append({
                    "kind": "bonding-not-surjective", "step": i,
                    "side": side, "witness": missing[0]})
    return report


def _square_violation(elements, phi, f, g, psi):
    """The first element x with ``f[phi[x]] != psi[g[x]]``, with both
    values, or None when the square commutes on ``elements``."""
    for x in elements:
        via_cover, via_base = f[phi[x]], psi[g[x]]
        if via_cover != via_base:
            return x, via_cover, via_base
    return None


def validate_tower(t: Tower) -> TowerReport:
    """Semantic validation of a tower: its squares commute and (warning
    level) its bonding maps are surjective.  Every level is a
    :class:`Covering`, checked locally bijective when it was built."""
    return _check_squares(TowerReport(), [c.map for c in t.coverings],
                          t.cover_steps, t.base_steps)


def require_valid_tower(t: Tower) -> Tower:
    report = validate_tower(t)
    if not report.ok:
        first = report.violations[0]
        raise TowerError("invalid tower: %r" % (first,), witness=first)
    return t


@dataclass
class GoodPairRecord:
    """Classification of one congruence pair against a morphism.

    Verdicts, weakest first: ``not_half`` (pair does not transport along the
    map), ``half`` (induced map exists but is not locally bijective),
    ``good`` (induced map is a covering), ``regular_good`` (a regular
    covering of connected graphs).
    """

    verdict: str
    witness: tuple | None = None
    level: int | None = None


def classify_pair(f: GraphMorphism, r: Congruence, s: Congruence,
                  level: int | None = None) -> GoodPairRecord:
    """Classify the pair (r, s) for the map ``f``."""
    try:
        induced = induced_quotient_map(f, r, s)
    except InducedMapError as exc:
        return GoodPairRecord("not_half", witness=exc.witness, level=level)
    try:
        cov = as_covering(induced)
    except NotACoveringError as exc:
        return GoodPairRecord("half", witness=(exc.vertex, exc.reason),
                              level=level)
    return _classify_covering(cov, level)


def _classify_covering(cov: Covering, level: int | None) -> GoodPairRecord:
    """``regular_good`` for a regular covering of connected graphs, else
    ``good``; a cover with no vertices is a ValueError."""
    if not cov.domain.vertices:
        raise ValueError("the cover has no vertices")
    if is_connected(cov.domain) and is_connected(cov.codomain) \
            and is_regular(cov).regular:
        verdict = "regular_good"
    else:
        verdict = "good"
    return GoodPairRecord(verdict, level=level)


def kernel_good_pairs(t: Tower, top: int | None = None) -> list[GoodPairRecord]:
    """Classify the kernel pair of every bonding composite into level i <= top.

    For each i the pair is (kernel of the cover-side composite, kernel of
    the base-side composite) taken on the top level's covering.  In a valid
    tower every record is at least ``good``.  The composites are built as
    one running chain per side, each step one :func:`compose` onto the
    previous composite, so a depth-k tower makes at most 2k compositions.

    The top pair is the diagonal on both sides, and is classified on the
    top level's covering itself.  The quotient by a diagonal is the graph
    itself (:func:`~procover.graphs.quotient`), and the map that ``f_top``
    induces sends each singleton class to the class of its image: it is
    ``f_top``.  A level of a tower is a :class:`Covering`, checked or
    proved locally bijective where it was built, so ``f_top`` is not
    checked again, and the sheets :func:`is_regular` reads stay on that
    covering for :func:`deck_tower`.  Its record is what
    :func:`classify_pair` gives for the two diagonals.
    """
    j = t.top if top is None else top
    if not 0 <= j <= t.top:
        raise ValueError("no level %r in this tower" % (top,))
    f_top = t.coverings[j].map
    pairs = []
    down_cover = down_base = None
    for i in range(j - 1, -1, -1):
        down_cover = _extend_down(t.cover_steps[i], down_cover)
        down_base = _extend_down(t.base_steps[i], down_base)
        pairs.append((kernel_congruence(down_cover), kernel_congruence(down_base)))
    pairs.reverse()
    records = [classify_pair(f_top, r, s, level=i)
               for i, (r, s) in enumerate(pairs)]
    records.append(_classify_covering(t.coverings[j], j))
    return records


def _extend_down(step: GraphMorphism, chain: GraphMorphism | None) -> GraphMorphism:
    """``step o chain``, or ``step`` itself when the chain is still empty."""
    return step if chain is None else compose(step, chain)


@dataclass
class DeckTowerStep:
    """Projection of one deck group a step down the tower."""

    hom: tuple[int, ...]
    surjective: bool


@dataclass
class DeckTowerResult:
    decks: list
    steps: list[DeckTowerStep]

    @property
    def orders(self) -> list[int]:
        return [d.order for d in self.decks]


def deck_tower(t: Tower) -> DeckTowerResult:
    """Deck group of every level plus the connecting homomorphisms.

    The tower must be valid (:func:`require_valid_tower`) and every level
    connected and regular: its deck group, computed once, has order equal
    to the degree.  No deck element is built.  With ``f_i`` the level-i
    covering map, ``phi`` and ``psi`` the cover and base bonding maps and
    ``x0`` the upper cover's first vertex, upper element ``alpha`` number
    ``a`` sends ``x0`` to the a-th point of its fiber, and ``hom[a]`` is the
    lower element ``beta`` sending ``phi(x0)`` to ``phi(alpha(x0))``; both
    lie over ``psi(f_{i+1}(x0))``, so exactly one ``beta`` does.  Then
    ``beta o phi`` and ``phi o alpha`` both lift ``psi o f_{i+1}`` through
    ``f_i`` and agree at ``x0``, so by unique lifting they are equal on the
    connected upper cover.  Hence ``hom`` is a homomorphism: ``hom[a]
    hom[a']`` sends ``phi(x0)`` where ``phi o alpha alpha'`` does.
    """
    require_valid_tower(t)
    for i, cov in enumerate(t.coverings):
        if not cov.domain.vertices:
            raise ValueError("the cover has no vertices")
        if not is_connected(cov.domain) or not is_connected(cov.codomain):
            raise TowerError("level %d is not connected" % i, witness=(i,))
    decks = []
    for i, cov in enumerate(t.coverings):
        deck = deck_group(cov)
        if deck.order != cov.degree:
            raise TowerError("level %d is not a regular covering" % i,
                             witness=(i,))
        decks.append(deck)
    steps = []
    for i in range(t.top):
        pv, upper = t.cover_steps[i].vmap, t.coverings[i + 1]
        x0 = upper.domain.vertices[0]
        fiber = upper.vertex_fibers[upper.map.vmap[x0]]
        hom = tuple(decks[i].indices_sending(pv[x0], [pv[x] for x in fiber]))
        steps.append(DeckTowerStep(
            hom=hom, surjective=set(hom) == set(range(decks[i].order))))
    return DeckTowerResult(decks=decks, steps=steps)


@dataclass
class UniversalSpec:
    """Input for the universal-tower construction.

    A connected based graph, a chain of congruences on it from coarsest to
    finest (the last may well be the diagonal), and one normal finite-index
    subgroup per quotient level, given as a coset action in the
    fundamental-group basis of that quotient.
    """

    base: FiniteGraph
    basepoint: str
    quotients: list[Congruence]
    normals: list[PermRep]


def _check_refines(coarse: Congruence, fine: Congruence, i: int):
    for cls in fine.vertex_classes:
        if len({coarse.vertex_rep(x) for x in cls}) > 1:
            raise TowerError(
                "quotient %d does not refine quotient %d (vertex class %r splits)"
                % (i + 1, i, cls[0]), witness=cls)
    for cls in fine.dart_classes:
        if len({coarse.dart_rep(x) for x in cls}) > 1:
            raise TowerError(
                "quotient %d does not refine quotient %d (dart class %r splits)"
                % (i + 1, i, cls[0]), witness=cls)


def universal_tower(spec: UniversalSpec) -> Tower:
    """Realize a compatible chain of normal subgroups as a regular tower.

    Level i is the cover of base/quotients[i] built from normals[i]; the
    base bondings are induced quotient maps and the cover bondings are the
    unique lifts, which the compatibility condition guarantees to exist.
    Once quotient i+1 is checked to refine quotient i, the base bonding
    sends each class of level i+1 to the level-i class that holds it, read
    off the two congruences and built, not checked: it is the map that the
    identity of the base induces, a morphism as
    :func:`~procover.graphs.induced_quotient_map` proves.  When the
    pushed-forward subgroup is not contained, one of its Schreier
    generators escapes (they generate it), and it is the witness.
    A malformed spec raises ValueError; a subgroup that is not normal
    raises TowerError with its level as the witness.

    The quotient by a diagonal congruence is the base itself
    (:func:`~procover.graphs.quotient`), so the two bases of a step are
    one graph exactly when both quotients are diagonal.  Then the base
    bonding is the identity of that graph, and both levels read the
    coordinates :func:`pi1_data` keeps at the basepoint, which is its own
    class.  The identity sends basis loop k to itself, whose word is
    ``x_k``, so the step induces the identity on generators, and the map
    lifted to the cover bonding is the upper level's own map: no loop is
    rewritten and nothing is composed.
    """
    if len(spec.quotients) != len(spec.normals) or not spec.quotients:
        raise ValueError("need the same positive number of quotients and subgroups")
    if not is_connected(spec.base):
        raise ValueError("base graph is not connected")
    if spec.basepoint not in spec.base._vertex_set:
        raise ValueError("unknown basepoint %r" % spec.basepoint)
    k = len(spec.quotients) - 1
    levels = []
    for i, (cong, rep) in enumerate(zip(spec.quotients, spec.normals)):
        if cong.base != spec.base:
            raise ValueError("quotient %d is not a congruence on the base" % i)
        delta = quotient(spec.base, cong)[0]
        b_i = cong.vertex_rep(spec.basepoint)
        p_i = pi1_data(delta, b_i)
        if rep.rank != p_i.rank:
            raise ValueError(
                "subgroup %d has rank %d but level %d needs rank %d"
                % (i, rep.rank, i, p_i.rank))
        if not is_normal(rep):
            raise TowerError("subgroup %d is not normal" % i, witness=(i,))
        cover, a_i, cov = cover_from_subgroup(delta, b_i, rep)
        levels.append((delta, b_i, p_i, cover, a_i, cov))
    base_steps = []
    cover_steps = []
    for i in range(k):
        coarse, fine = spec.quotients[i], spec.quotients[i + 1]
        _check_refines(coarse, fine, i)
        psi = GraphMorphism._of_maps(
            levels[i + 1][0], levels[i][0],
            {c[0]: coarse.vertex_rep(c[0]) for c in fine.vertex_classes},
            {c[0]: coarse.dart_rep(c[0]) for c in fine.dart_classes})
        if levels[i + 1][0] is levels[i][0]:  # both quotients diagonal
            images = _identity_images(levels[i][2].rank)
            lowered = levels[i + 1][5].map
        else:
            images = induced_hom(psi, levels[i + 1][2], levels[i][2])
            lowered = compose(psi, levels[i + 1][5].map)
        if not pushforward_leq(spec.normals[i + 1], images, spec.normals[i]):
            bad = next(w for w in spec.normals[i + 1].schreier_generators()
                       if spec.normals[i].act(0, substitute(w, images)) != 0)
            raise CompatibilityError((i, i + 1), bad)
        base_steps.append(psi)
        phi = lift(lowered, levels[i][5], levels[i + 1][4], levels[i][4])
        cover_steps.append(phi)
    return Tower([lv[5] for lv in levels], cover_steps, base_steps,
                 basepoints=[lv[4] for lv in levels])


def induced_hom(f: GraphMorphism, p_dom: Pi1Data, p_cod: Pi1Data) -> GeneratorImages:
    """The homomorphism of fundamental groups induced by a based map.

    Each basis loop upstairs is pushed through ``f``, and its word is the
    reduced product of the letters ``p_cod`` gives its darts, tree darts
    giving none.  The letters are read with no check that the darts chain:
    the graphs and the basepoint are checked here, and a morphism sends a
    closed path at the basepoint upstairs to a closed path at its image,
    the basepoint downstairs, so every pushed dart starts where the one
    before it ends.
    """
    if f.domain != p_dom.graph or f.codomain != p_cod.graph:
        raise GraphError("fundamental-group data does not match the morphism")
    if f.vmap[p_dom.basepoint] != p_cod.basepoint:
        raise ValueError("basepoint mismatch: %r maps to %r, not %r"
                         % (p_dom.basepoint, f.vmap[p_dom.basepoint],
                            p_cod.basepoint))
    letter, dmap = p_cod._letter.get, f.dmap
    words = []
    for key in range(p_dom.rank):
        letters = map(letter, map(dmap.__getitem__, p_dom.basis_loop(key)))
        words.append(FreeWord([lt for lt in letters if lt is not None]))
    return GeneratorImages(p_dom.rank, p_cod.rank, tuple(words))


def _identity_images(rank: int) -> GeneratorImages:
    """The identity of the free group of this rank, generator by generator."""
    return GeneratorImages(rank, rank, tuple(map(FreeWord.generator, range(rank))))


@dataclass
class TrivialityRow:
    """One (level, normal subgroup) pair and where it became satisfied."""

    level: int
    rep: PermRep
    index: int
    satisfied_at: int | None


@dataclass
class TrivialityReport:
    """Finite shadow of the trivial-fundamental-group criterion.

    ``trivial`` certifies only the base level within this truncation:
    every normal subgroup of index <= max_index at level 0 absorbs the
    whole image of some deeper level.  ``rows`` holds the level-0 rows the
    verdict reads, or, for a check run with ``all_levels``, one row per
    normal subgroup at every level; the rows for higher levels are evidence
    only: a pair at the top level can never be satisfied unless it is the
    full group, and a truncation can never speak for the limit.
    """

    max_index: int
    depth: int
    rows: list[TrivialityRow]
    trivial: bool


def pi1_triviality_check(t: Tower, max_index: int,
                         max_work: int = DEFAULT_MAX_WORK,
                         all_levels: bool = False) -> TrivialityReport:
    """For every normal subgroup H of index <= max_index in the fundamental
    group of level 0 (of every level i, with ``all_levels``), find the first
    level j >= i whose whole image lands inside H, if any within the tower.

    The image of level j shrinks as j grows, so H is tested at the top
    level first, and the levels above i are scanned for the first
    satisfying one only when the top level satisfies H.  The maps from
    level j down to level i are built as one running chain of
    compositions; by default only level 0 is enumerated, so a depth-k
    tower makes at most k compositions and one low-index search.
    """
    basepoints = t.require_basepoints()
    p = []
    for i in range(t.top + 1):
        if not is_connected(t.cover_graph(i)):
            raise TowerError("level %d is not connected" % i, witness=(i,))
        p.append(pi1_data(t.cover_graph(i), basepoints[i]))
    rows = []
    for i in range(t.top + 1 if all_levels else 1):
        homs = _homs_down_to(t, p, i)
        for rep in low_index_reps(p[i].rank, max_index, normal_only=True,
                                  max_work=max_work):
            satisfied_at = None
            if _absorbs(rep, homs[-1]):
                satisfied_at = next(j for j, images in enumerate(homs, i)
                                    if _absorbs(rep, images))
            rows.append(TrivialityRow(level=i, rep=rep, index=rep.degree,
                                      satisfied_at=satisfied_at))
    trivial = all(row.satisfied_at is not None for row in rows if row.level == 0)
    return TrivialityReport(max_index=max_index, depth=t.top, rows=rows,
                            trivial=trivial)


def _homs_down_to(t: Tower, p: list[Pi1Data], i: int) -> list[GeneratorImages]:
    """The homomorphisms induced from level j into level i, for j = i..top,
    read off one running chain of bonding composites.

    From level i to itself the map is the identity, which sends basis loop
    k of ``p[i]`` to itself, whose word is ``x_k``: that homomorphism is
    the identity on generators, with no morphism built and no loop
    rewritten."""
    homs, down = [_identity_images(p[i].rank)], None
    for j in range(i + 1, t.top + 1):
        step = t.cover_steps[j - 1]
        down = step if down is None else compose(down, step)
        homs.append(induced_hom(down, p[j], p[i]))
    return homs


def _absorbs(rep: PermRep, images: GeneratorImages) -> bool:
    """Whether every image generator lies in the subgroup Stab(0) of ``rep``."""
    return all(rep.act(0, w) == 0 for w in images.images)


@dataclass
class FiberLevel:
    level: int
    vertex: str
    size: int
    onto: bool | None
    missing: tuple[str, ...]


@dataclass
class FiberReport:
    """Fiber sizes along a vertex thread, with per-step surjectivity."""

    start: str
    levels: list[FiberLevel]
    dead_end_at: int | None

    @property
    def sizes(self) -> list[int]:
        return [lv.size for lv in self.levels]


def limit_fiber_report(t: Tower, v: str) -> FiberReport:
    """Follow a vertex thread over ``v`` upward and check that each bonding
    map carries the deeper fiber onto the shallower one.

    The thread takes the smallest preimage at each step; a step with no
    preimage is reported as a dead end and stops the climb.
    """
    if v not in t.base_graph(0)._vertex_set:
        raise GraphError("unknown vertex %r in the level-0 base" % v)
    levels = []
    dead_end = None
    current = v
    previous_fiber = None
    for i in range(t.top + 1):
        fiber = t.coverings[i].vertex_fibers[current]
        onto = None
        missing = ()
        if i > 0:
            phi = t.cover_steps[i - 1]
            image = {phi.vmap[x] for x in fiber}
            missing = tuple(sorted(set(previous_fiber) - image))
            onto = not missing
        levels.append(FiberLevel(level=i, vertex=current, size=len(fiber),
                                 onto=onto, missing=missing))
        previous_fiber = fiber
        if i < t.top:
            psi = t.base_steps[i]
            preimages = sorted(x for x in psi.domain.vertices
                               if psi.vmap[x] == current)
            if not preimages:
                dead_end = i + 1
                break
            current = preimages[0]
    return FiberReport(start=v, levels=levels, dead_end_at=dead_end)
