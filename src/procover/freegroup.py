"""Free-group words and finite-index subgroups as permutation actions.

A subgroup of finite index n in the free group on generators x0..x{r-1} is
stored as the action of the group on the n cosets: one permutation of
{0..n-1} per generator, transitive, with the subgroup itself recovered as
the stabilizer of the base coset 0.  Membership runs a word through the
action; containment, equality and normality are one forced-map test, so
every answer is exact.

Canonical form: relabelling the points in breadth-first discovery order
from 0, scanning moves in the order x0, x0^-1, x1, x1^-1, ..., assigns each
coset action a unique table.  Two actions describe the same subgroup
exactly when their canonical tables agree, and the low-index enumerator
generates precisely the canonical tables, so each subgroup appears once.

The enumerator is one iterative backtracking search (C. Sims, *Computation
with Finitely Presented Groups*, 1994, ch. 5).  Asked for normal subgroups
only, it prunes while searching: a partial table is cut as soon as some
map 0 -> c forced by its defined edges fails to be well defined, because
the action of a normal subgroup has an automorphism 0 -> c for every c.

That forced-map test (:func:`_forced_map`) asks whether the coset map
0 -> c extends along the moves of one table into another, and returns the
map when it does.  From a table into itself it passes exactly for the
cosets of H in its normalizer N(H), and the maps it returns are the
automorphisms of the action, a group acting freely on the points whose
orbit of 0 is N(H)/H (:func:`normalizer_points`).  An automorphism maps the
x_k-cycle through 0 onto the x_k-cycle through its image, so the normalizer
search runs the test only at points whose cycle lengths under every x_k are
those of 0.  The search prunes with
it, :func:`is_normal` tries it at the generators' images of 0, deck groups
read the automorphisms themselves, and into another table with c = 0 it
decides containment, equality and the containment of an image.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterable, Sequence

from .graphs import VerdictError

DEFAULT_MAX_WORK = 5_000_000


class ResourceLimitError(RuntimeError):
    """An enumeration was refused because it would exceed its work bound."""


class NotTransitiveError(VerdictError):
    """The permutations do not act transitively; ``orbits`` holds the
    partition of the points, and is the witness."""

    verdict = "not transitive"

    def __init__(self, message, orbits):
        orbits = tuple(tuple(o) for o in orbits)
        super().__init__(message, witness=orbits)
        self.orbits = orbits

    def details(self) -> dict:
        """The orbits as lists of points, then each one as a witness
        string of its points."""
        return {"error": str(self), "orbits": [list(o) for o in self.orbits],
                "witness": [" ".join(map(str, o)) for o in self.orbits]}


def _reduce(letters) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for i, s in letters:
        if s not in (1, -1):
            raise ValueError("letter sign must be +1 or -1, got %r" % (s,))
        if not isinstance(i, int) or i < 0:
            raise ValueError("generator index must be a nonnegative int, got %r" % (i,))
        if out and out[-1] == (i, -s):
            out.pop()
        else:
            out.append((i, s))
    return tuple(out)


class FreeWord:
    """A reduced word; letters are (generator index, sign) pairs."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[tuple[int, int]] = ()):
        object.__setattr__(self, "letters", _reduce(letters))

    @classmethod
    def generator(cls, i: int, sign: int = 1) -> "FreeWord":
        return cls(((i, sign),))

    def __setattr__(self, *args):
        raise AttributeError("FreeWord is immutable")

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((i, -s) for i, s in reversed(self.letters)))

    def __pow__(self, n: int) -> "FreeWord":
        if n < 0:
            return self.inverse() ** (-n)
        out = FreeWord()
        for _ in range(n):
            out = out * self
        return out

    def max_index(self) -> int:
        """Largest generator index used; -1 for the empty word."""
        return max((i for i, _ in self.letters), default=-1)

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __str__(self):
        if not self.letters:
            return "1"
        return " ".join("x%d" % i if s > 0 else "x%d^-1" % i
                        for i, s in self.letters)

    def __repr__(self):
        return "FreeWord(%s)" % self


@dataclass(frozen=True)
class GeneratorImages:
    """A homomorphism of free groups given by the images of the generators."""

    source_rank: int
    target_rank: int
    images: tuple[FreeWord, ...]

    def __post_init__(self):
        if len(self.images) != self.source_rank:
            raise ValueError("expected %d images, got %d"
                             % (self.source_rank, len(self.images)))
        for w in self.images:
            if w.max_index() >= self.target_rank:
                raise ValueError("image %s uses a generator outside rank %d"
                                 % (w, self.target_rank))


def substitute(w: FreeWord, images: GeneratorImages) -> FreeWord:
    """Apply the homomorphism to ``w``; the result is reduced."""
    if w.max_index() >= images.source_rank:
        raise ValueError("word %s uses a generator outside rank %d"
                         % (w, images.source_rank))
    letters: list[tuple[int, int]] = []
    for i, s in w.letters:
        piece = images.images[i] if s > 0 else images.images[i].inverse()
        letters.extend(piece.letters)
    return FreeWord(letters)


class PermRep:
    """Transitive action of a free group on {0..degree-1}; Stab(0) is the
    subgroup represented.  Index = degree.

    The coset table is held once, in scan order: ``_moves[2i]`` is the
    permutation of x_i and ``_moves[2i + 1]`` its inverse, the layout the
    low-index search fills.  ``perms`` is ``_moves[::2]``.

    An action is checked where it enters and built everywhere else.
    ``PermRep(...)`` is for actions a caller gives, and the document
    reader of :mod:`procover.formats` is its one library caller: it checks
    the rank, the degree and the number of permutations, that each row is
    a permutation of 0..degree-1 with ``int`` entries (not bools or
    floats), and that the action is transitive, and inverts each row.
    Every action the library derives (the low-index search, monodromy,
    relabelling, the translation actions) is built by :meth:`_of_moves`,
    which checks none of it, with the proof where it is built.
    """

    def __init__(self, rank: int, degree: int, perms: Sequence[Sequence[int]]):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if len(perms) != rank:
            raise ValueError("expected %d permutations, got %d" % (rank, len(perms)))
        points = range(degree)
        moves: list[tuple[int, ...]] = []
        for p in tuple(map(tuple, perms)):
            # degree ints that cover 0..degree-1: a permutation (the length
            # first, so a wrong degree builds nothing)
            if len(p) != degree or set(map(type, p)) != {int} \
                    or set(p) != set(points):
                raise ValueError("%r is not a permutation of 0..%d" % (p, degree - 1))
            moves += (p, tuple(sorted(points, key=p.__getitem__)))
        self.rank = rank
        self.degree = degree
        self._moves = tuple(moves)
        self.perms = self._moves[::2]
        # a finite orbit is closed under inverses: the forward moves suffice
        if len(_orbit(0, self.perms)) != degree:
            orbits = []
            placed: set[int] = set()
            for p in points:
                if p not in placed:
                    orbit = sorted(_orbit(p, self.perms))
                    placed.update(orbit)
                    orbits.append(orbit)
            raise NotTransitiveError(
                "action is not transitive: %d orbits" % len(orbits), orbits)
        self._schreier: tuple[FreeWord, ...] | None = None
        self._canonical_key: tuple | None = None
        self._normalizer: tuple[list[list[int]], set[int]] | None = None

    @classmethod
    def _of_moves(cls, rank: int, degree: int, moves: tuple) -> "PermRep":
        """The action of these rows, taken over unchecked and not copied:
        the library builds here every action it derives.  The caller proves
        that ``moves`` holds ``2 * rank`` tuples in the layout of
        ``_moves``, each a permutation of 0..degree-1 with ``int`` entries
        followed by its inverse, and that the action is transitive."""
        rep = cls.__new__(cls)
        rep.rank = rank
        rep.degree = degree
        rep._moves = moves
        rep.perms = moves[::2]
        rep._schreier = rep._canonical_key = rep._normalizer = None
        return rep

    def move(self, letter: tuple[int, int]) -> tuple[int, ...]:
        """The permutation of the points by the letter ``(i, sign)``: x_i,
        or its inverse for a negative sign."""
        i, s = letter
        return self._moves[2 * i + (s < 0)]

    def act(self, point: int, w: FreeWord) -> int:
        """Right action on cosets: act(p, uv) = act(act(p, u), v)."""
        if not 0 <= point < self.degree:
            raise ValueError("point %r out of range" % (point,))
        for i, s in w.letters:
            if i >= self.rank:
                raise ValueError("word %s uses a generator outside rank %d"
                                 % (w, self.rank))
            point = self._moves[2 * i + (s < 0)][point]
        return point

    def transversal(self) -> tuple[FreeWord, ...]:
        """Coset representative words from the canonical BFS, one per point."""
        words: dict[int, FreeWord] = {0: FreeWord()}
        order = [0]
        for a in order:
            for k, table in enumerate(self._moves):
                b = table[a]
                if b not in words:
                    words[b] = words[a] * FreeWord.generator(k >> 1, 1 - 2 * (k & 1))
                    order.append(b)
        return tuple(words[p] for p in range(self.degree))

    def schreier_generators(self) -> tuple[FreeWord, ...]:
        """Generators t_p x_i t_{p.x_i}^-1 of Stab(0), trivial ones dropped.

        With the breadth-first transversal these are distinct and freely
        generate the subgroup, so there are exactly
        1 + degree*(rank - 1) of them for rank >= 1.
        """
        if self._schreier is None:
            t = self.transversal()
            gens = []
            for p in range(self.degree):
                for i in range(self.rank):
                    w = t[p] * FreeWord.generator(i) * t[self.perms[i][p]].inverse()
                    if w:
                        gens.append(w)
            self._schreier = tuple(gens)
        return self._schreier

    def _normalizer_search(self) -> tuple[list[list[int]], set[int]]:
        """:func:`_normalizer_generators` of this action, searched at the
        first use and kept, like the Schreier generators: the deck group
        and the regularity verdict of one cover search once."""
        if self._normalizer is None:
            self._normalizer = _normalizer_generators(self)
        return self._normalizer

    def canonical(self) -> "PermRep":
        """The same subgroup with points relabelled in canonical BFS order."""
        return self.rebased(0)

    def canonical_key(self) -> tuple:
        if self._canonical_key is None:
            c = self.canonical()
            self._canonical_key = (self.rank, self.degree, c.perms)
        return self._canonical_key

    def rebased(self, point: int) -> "PermRep":
        """The conjugate subgroup Stab(point), canonically labelled.

        Built by :meth:`_of_moves`: the points are relabelled in the order
        the moves discover them from ``point``, a bijection of 0..degree-1
        on a transitive action, so each relabelled row is a permutation,
        the relabelled inverse is the inverse of the relabelled row, and
        the relabelled action is transitive."""
        if not 0 <= point < self.degree:
            raise ValueError("point %r out of range" % (point,))
        label = [0] * self.degree
        for k, p in enumerate(_orbit(point, self._moves)):
            label[p] = k
        moves = []
        for p in self._moves:
            q = [0] * self.degree
            for a, b in enumerate(p):
                q[label[a]] = label[b]
            moves.append(tuple(q))
        return PermRep._of_moves(self.rank, self.degree, tuple(moves))

    def __eq__(self, other):
        return (isinstance(other, PermRep) and self.rank == other.rank
                and self.degree == other.degree and self.perms == other.perms)

    def __hash__(self):
        return hash((self.rank, self.degree, self.perms))

    def __repr__(self):
        return "PermRep(rank=%d, degree=%d, perms=%r)" % (
            self.rank, self.degree, [list(p) for p in self.perms])


def subgroup_leq(h: PermRep, k: PermRep) -> bool:
    """Whether the subgroup of ``h`` is contained in the subgroup of ``k``:
    the coset map 0 -> 0 extends from the table of ``h`` into that of ``k``.
    """
    if h.rank != k.rank:
        raise ValueError("rank mismatch: %d vs %d" % (h.rank, k.rank))
    pairs = list(zip(h._moves, k._moves))
    return _forced_map(pairs, h.degree, 0) is not None


def is_normal(rep: PermRep) -> bool:
    """Whether H = Stab(0) is normal: every generator x_k normalizes it.

    The normalizer is a subgroup, so it is the whole group exactly when it
    holds every generator, and x_k lies in it exactly when the map
    0 -> x_k(0) extends to an automorphism of the action
    (:func:`_forced_map`).  That is at most one map per generator.
    """
    pairs, n = list(zip(rep._moves, rep._moves)), rep.degree
    return all(_forced_map(pairs, n, c) for c in {p[0] for p in rep.perms} - {0})


def normalizer_points(rep: PermRep) -> tuple[int, ...]:
    """The points c with Stab(c) = Stab(0), in increasing order.

    These are the cosets of H = Stab(0) in its normalizer, so there are
    [N(H) : H] of them; 0 is always first.  Each one is the image of 0
    under exactly one automorphism of the action, and together they are
    the orbit of 0 under the automorphisms (:func:`_normalizer_generators`).
    """
    return tuple(sorted(rep._normalizer_search()[1]))


def _normalizer_generators(rep: PermRep) -> tuple[list[list[int]], set[int]]:
    """Automorphisms of the action that generate all of them, as image
    lists, and the orbit of 0 under them: the normalizer points.

    The automorphisms form a group acting freely on the points, and the
    normalizer points are the orbit of 0.  Points are tried in increasing
    order, skipping those the orbit already holds.  A point whose forced
    map extends adds a generator and the orbit grows; a point whose map
    fails lies outside the orbit, and so does its whole orbit under the
    generators found so far (g(c) = h(0) would put c = g^-1 h(0) in it), so
    those points are skipped too.

    Before its forced map a point is sieved by cycle type: it is skipped
    when its cycle under some x_k is not as long as the cycle of 0.  An
    automorphism ``phi`` with ``phi(0) = c`` commutes with x_k, so it maps
    the x_k-cycle through 0 onto the one through c, and the two have one
    length.  A skipped point would have failed its forced map, and so would
    every point of its orbit, which the generators, being automorphisms,
    give the same cycle lengths: the sieve skips them all.  So the
    generators found, their order and the orbit are those of the search
    without the sieve.  Cycle lengths are walked only at the points asked.
    """
    pairs, n = list(zip(rep._moves, rep._moves)), rep.degree
    gens: list[list[int]] = []
    orbit, outside = {0}, set()
    sieve = []  # (x_k, its cycle lengths so far, the length through 0)
    for p in rep.perms:
        lengths = [0] * n
        sieve.append((p, lengths, _cycle_length(p, lengths, 0)))
    for c in range(1, n):
        if c in orbit or c in outside:
            continue
        for p, lengths, t in sieve:
            if _cycle_length(p, lengths, c) != t:
                break
        else:
            phi = _forced_map(pairs, n, c)
            if phi is None:
                outside.update(_orbit(c, gens))
            else:
                gens.append(phi)
                orbit = set(_orbit(0, gens))
    return gens, orbit


def _cycle_length(p: Sequence[int], lengths: list[int], a: int) -> int:
    """The length of the cycle of the permutation ``p`` through ``a``,
    recorded in ``lengths`` (0 where not yet walked) for every point of
    the cycle when it is first walked."""
    if not lengths[a]:
        cycle = [a]
        b = p[a]
        while b != a:
            cycle.append(b)
            b = p[b]
        for b in cycle:
            lengths[b] = len(cycle)
    return lengths[a]


def _orbit(point: int, gens: Sequence[Sequence[int]]) -> list[int]:
    """The orbit of ``point`` under the group the image lists generate (a
    finite group: forward images suffice), in breadth-first discovery
    order, trying the image lists in their order at each point."""
    seen = {point}
    order = [point]
    for a in order:
        for g in gens:
            b = g[a]
            if b not in seen:
                seen.add(b)
                order.append(b)
    return order


def _automorphisms(rep: PermRep) -> dict[int, list[int]]:
    """Every automorphism of the action as {image of 0: image list}, one
    per normalizer point.

    The generators of :func:`_normalizer_generators` are closed into the
    group by composing image lists, breadth first from the identity; an
    automorphism is fixed by its image of 0, so each composite is built
    only when that image is new.

    Every map returned is proved an automorphism by the forced map, with
    no check after it, and :func:`~procover.covering.deck_group` relies on
    these facts:

    - It commutes with every move ``x_k^{+-1}``.  :func:`_forced_map`
      returns a generator only after checking ``image[s[a]] == s[image[a]]``
      for every move ``s`` at every point it reaches, and on a transitive
      action it reaches every point; a composite of maps that commute with
      the moves commutes with them too.
    - None but the identity fixes a point.  On a transitive action an
      automorphism is forced by its image of one point, as the forced map
      from 0 is by its image of 0, so one that fixes a point agrees there
      with the identity and is the identity.
    - The maps form a group.  The closure multiplies every map found by
      every generator, so the maps are all the products of generators: a
      finite set of bijections closed under composition, which is a group.
      So every composite's image of 0 is a key.
    - Their number divides the degree.  The group acts freely, so its
      orbits on the points all have its order as size, and they partition
      the points.
    """
    gens = rep._normalizer_search()[0]
    group = {0: list(range(rep.degree))}
    queue = [group[0]]
    for g in queue:
        for s in gens:
            c = s[g[0]]
            if c not in group:
                group[c] = h = list(map(s.__getitem__, g))
                queue.append(h)
    return group


def rep_equivalent(a: PermRep, b: PermRep) -> bool:
    """Whether two actions describe the same subgroup: equal index and
    containment one way, which together force equality."""
    if a.rank != b.rank:
        raise ValueError("rank mismatch: %d vs %d" % (a.rank, b.rank))
    return a.degree == b.degree and subgroup_leq(a, b)


def pushforward_leq(n_src: PermRep, images: GeneratorImages,
                    n_tgt: PermRep) -> bool:
    """Whether the homomorphism maps the subgroup of ``n_src`` into the
    subgroup of ``n_tgt``: phi(H) <= K is H <= phi^-1(K), the stabilizer
    of 0 in the target action pulled back through the images.
    """
    if n_src.rank != images.source_rank:
        raise ValueError("source rank mismatch: %d vs %d"
                         % (n_src.rank, images.source_rank))
    if n_tgt.rank != images.target_rank:
        raise ValueError("target rank mismatch: %d vs %d"
                         % (n_tgt.rank, images.target_rank))
    points = range(n_tgt.degree)
    pulled: list[tuple[int, ...]] = []
    for w in images.images:
        t = tuple(n_tgt.act(p, w) for p in points)
        pulled += (t, tuple(sorted(points, key=t.__getitem__)))
    pairs = list(zip(n_src._moves, pulled))
    return _forced_map(pairs, n_src.degree, 0) is not None


@lru_cache(maxsize=None)
def subgroup_count(rank: int, index: int) -> int:
    """Number of index-n subgroups of the free group of the given rank.

    Classical recursion: N(n) = n*(n!)^(r-1) - sum_{k<n} ((n-k)!)^(r-1) N(k).
    """
    if rank == 0:
        return 1 if index == 1 else 0
    total = index * _factorial_power(index, rank - 1)
    for k in range(1, index):
        total -= _factorial_power(index - k, rank - 1) * subgroup_count(rank, k)
    return total


@lru_cache(maxsize=None)
def _factorial_power(n: int, exponent: int) -> int:
    """(n!)^exponent, computed once per process for each pair."""
    return factorial(n) ** exponent


def _forced_map(pairs, n: int, c: int) -> list[int] | None:
    """The map from the points of ``src`` to those of ``dst`` that sends
    0 -> c and commutes with every move defined at both ends, as its list
    of images (-1 where 0 does not reach), or None when no such map exists.

    ``pairs`` is ``list(zip(src, dst))``, zipped once by the caller: the
    tables are in scan order (x0, x0^-1, x1, ...), -1 marking an entry
    not yet defined, and ``src`` uses the points 0..n-1.  On complete
    tables with ``src`` transitive, a map means Stab_src(0) <= Stab_dst(c);
    for ``src`` = ``dst`` the indices agree, so Stab(0) = Stab(c) and the
    map is the automorphism of the action sending 0 to c.  On a partial
    table None rules out every completion with Stab(0) = Stab(c).  Callers
    that want a yes or no read its truth value: the list is never empty.
    """
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


def _canonical_tables(rank: int, degree: int, normal_only: bool):
    """Yield every canonically-labelled transitive table of the given degree.

    A table is yielded as the ``2 * rank`` rows of ``PermRep._moves``,
    interned: a row equal to one yielded before by this call is that
    row's tuple, so the tables of one degree share their rows (a degree-n
    search has at most n! distinct ones).

    The table is filled slot by slot in scan order (point, generator, sign
    with forward before backward), and a fresh point may only receive the
    next unused label.  A completed table is therefore labelled exactly in
    breadth-first discovery order, which makes the output one table per
    subgroup, in a fixed lexicographic order.  The search is a loop over a
    slot cursor with an explicit stack of definitions, so its depth is not
    bounded by the interpreter's recursion limit.

    With ``normal_only`` every definition that closes onto an existing
    point is followed by :func:`_forced_map` for each c in 1..used-1, and
    the branch is cut as soon as one map 0 -> c fails to extend, since the
    action of a normal subgroup has an automorphism 0 -> c for every c.
    The last definition of a complete table always closes onto an existing
    point, so exactly the normal tables are yielded.

    Each yielded table is a transitive action, which
    :func:`low_index_reps` builds unchecked.  A definition fills
    ``table[p], other[q] = q, p`` only where both entries are empty, and
    backtracking empties both, so a row and its partner are always mutually
    inverse partial injections, and total once every slot is filled.
    Every point from 1 on is created as ``q == used`` from a point already
    reached, so 0 reaches every point.
    """
    if rank == 0:
        if degree == 1:
            yield ()
        return
    # the layout of PermRep._moves: moves[2i] is x_i and moves[2i+1] its
    # inverse, partial while searching
    moves = [[-1] * degree for _ in range(2 * rank)]
    # the rows are filled in place, so one zip serves every forced map
    pairs = list(zip(moves, moves))
    slots = [(p, moves[k], moves[k ^ 1])
             for p in range(degree) for k in range(2 * rank)]
    nslots = len(slots)
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    stack: list[tuple[int, int, int]] = []  # (slot, point defined, used before)
    si, q, used = 0, 0, 1
    while True:
        while si < nslots:
            p, table, other = slots[si]
            if table[p] < 0:
                break
            si += 1
        if si == nslots:
            # every slot is filled, so every point was created: used == degree
            # (a list, not a generator, per table: a generator object per
            # table left about 0.3 MiB more peak RSS on the lattice benchmark)
            yield tuple([rows.setdefault(r, r) for r in map(tuple, moves)])
        elif p < used:
            # (p >= used: every created point is fully scanned, so no new
            # point can ever appear and the branch is dead)
            top = used + 1 if used < degree else degree
            while q < top:
                if other[q] < 0:
                    table[p], other[q] = q, p
                    if (q == used or not normal_only
                            or all(_forced_map(pairs, used, c)
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


def low_index_reps(rank: int, max_degree: int, normal_only: bool = False,
                   max_work: int = DEFAULT_MAX_WORK) -> list[PermRep]:
    """All subgroups of index <= max_degree, one canonical action each.

    Results are ordered by degree and then lexicographically by table.
    Each is built by :meth:`PermRep._of_moves` from a table of
    :func:`_canonical_tables`, whose docstring proves it a transitive
    action, and the tables of one degree share their rows.  With
    ``normal_only`` the search cuts non-normal branches as it goes.
    Refuses with ResourceLimitError when the predicted number of subgroups
    exceeds ``max_work``; the bound counts all subgroups even when only
    normal ones are kept, so refusals do not depend on ``normal_only`` and
    overestimate the pruned search's work.  The count stops at the first
    degree where its running total passes the bound.  Through degree n the
    total is 1 at rank 0 and n at rank 1, so those ranks take it in closed
    form; rank 0 has no subgroup of degree above 1.  For rank >= 2 the
    total at degree 2 is exactly 2^rank, so a rank that makes it pass the
    bound is refused before any count is built.
    """
    if rank < 0 or max_degree < 1:
        raise ValueError("need rank >= 0 and max_degree >= 1")

    def refuse(count: str, n: int):
        return ResourceLimitError(
            "enumeration of rank %s, degree <= %s would visit at least %s "
            "subgroups (those of degree <= %s), above the work bound %s; "
            "raise max_work to proceed"
            % (_decimal(rank), _decimal(max_degree), count, _decimal(n),
               _decimal(max_work)))

    top = max_degree
    if rank <= 1:
        # the first degree whose running total passes the bound, if any
        first = 1 if max_work < 1 else max_work + 1 if rank else None
        if first is not None and first <= max_degree:
            raise refuse(_count(first), first)
        top = max_degree if rank else 1
    elif max_degree >= 2 and max_work >= 1 and rank >= max_work.bit_length():
        # 1 <= max_work < 2^rank: degree 1 passes, the total at 2 does not
        raise refuse("2^%s" % _decimal(rank) if rank >= 64
                     else _count(1 << rank), 2)
    else:
        predicted = 0
        for n in range(1, max_degree + 1):
            predicted += subgroup_count(rank, n)
            if predicted > max_work:
                raise refuse(_count(predicted), n)
    return [PermRep._of_moves(rank, degree, moves)
            for degree in range(1, top + 1)
            for moves in _canonical_tables(rank, degree, normal_only)]


def _count(n: int) -> str:
    """A count for a refusal message: in decimal up to 64 bits, and past
    that as the power of two below it, since Python will not print an int
    of more than 4300 digits."""
    return "%d" % n if n.bit_length() <= 64 else "2^%d" % (n.bit_length() - 1)


def _decimal(n: int) -> str:
    """An argument for a refusal message: in decimal, unless Python will not
    print it (more than 4300 digits), and then as the power of two below
    its magnitude, so that the refusal itself cannot fail."""
    try:
        return "%d" % n
    except ValueError:
        return "%s2^%d" % ("-" if n < 0 else "", abs(n).bit_length() - 1)


def translation_kernel_rep(rank: int, modulus: int,
                           max_work: int = DEFAULT_MAX_WORK) -> PermRep:
    """Action of the free group on (Z/modulus)^rank by coordinate shifts.

    Point p encodes the vector (p % m, p//m % m, ...); generator x_i adds 1
    to coordinate i.  The stabilizer of 0 is the kernel of the map onto
    (Z/modulus)^rank, hence normal of index modulus^rank.

    Built by :meth:`PermRep._of_moves`: the inverse of x_i subtracts 1
    from coordinate i, and each shift is a bijection of the vectors.  The
    shifts reach every vector from 0, so the action is transitive.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    degree = modulus ** rank
    if degree > max_work:
        raise ResourceLimitError(
            "degree %s exceeds the work bound %s"
            % (_count(degree), _decimal(max_work)))
    moves = []
    for i in range(rank):
        step = modulus ** i
        for shift in (1, -1):
            p = [0] * degree
            for a in range(degree):
                digit = (a // step) % modulus
                p[a] = a + ((digit + shift) % modulus - digit) * step
            moves.append(tuple(p))
    return PermRep._of_moves(rank, degree, tuple(moves))
