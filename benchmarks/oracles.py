"""Reference answers that do not come from the code path being timed.

Subgroups are compared through equivariant maps of their coset actions:
Stab_a(0) lies inside Stab_b(q) exactly when p -> q extends to a map of
a-points to b-points that commutes with every generator.  Normality and
deck orders use the conjugate-stabilizer test: a point p has the same
stabilizer as 0 exactly when the action rebased at p is canonically equal
to the action itself.
"""

from __future__ import annotations

import procover as pc


def deck_order(rep: pc.PermRep) -> int:
    """Number of points whose stabilizer equals Stab(0), i.e. |N(H)/H|."""
    key = rep.canonical_key()
    return sum(1 for p in range(rep.degree)
               if rep.rebased(p).canonical_key() == key)


def is_normal(rep: pc.PermRep) -> bool:
    return deck_order(rep) == rep.degree


def maps_into(src_perms, dst_perms, start: int = 0) -> bool:
    """Whether 0 -> start extends to an equivariant map from the (transitive)
    action ``src_perms`` to the action ``dst_perms``."""
    image = {0: start}
    frontier = [0]
    while frontier:
        p = frontier.pop()
        for s, d in zip(src_perms, dst_perms):
            q, want = s[p], d[image[p]]
            if q not in image:
                image[q] = want
                frontier.append(q)
            elif image[q] != want:
                return False
    return True


def leq(h: pc.PermRep, k: pc.PermRep) -> bool:
    """Whether the subgroup of ``h`` lies inside the subgroup of ``k``."""
    return maps_into(h.perms, k.perms)


def equivalent(h: pc.PermRep, k: pc.PermRep) -> bool:
    return h.degree == k.degree and leq(h, k)


def pushforward_leq(h: pc.PermRep, images: pc.GeneratorImages,
                    k: pc.PermRep) -> bool:
    """Whether the homomorphism maps the subgroup of ``h`` into that of
    ``k``: ``h`` must map into the pullback of ``k``'s action."""
    pulled = [tuple(k.act(p, w) for p in range(k.degree))
              for w in images.images]
    return maps_into(h.perms, pulled)


def first_absorbing_level(t: pc.Tower, rep: pc.PermRep) -> int | None:
    """First level j whose fundamental group maps into the level-0
    subgroup of ``rep``, decided by lifting the bonding map into the cover
    of level 0 that belongs to ``rep``."""
    g0, a0 = t.cover_graph(0), t.basepoints[0]
    _, c0, cov = pc.cover_from_subgroup(g0, a0, rep)
    for j in range(t.top + 1):
        try:
            pc.lift(t.cover_map_to(0, j), cov, t.basepoints[j], c0)
        except pc.LiftObstruction:
            continue
        return j
    return None


def normal_count_at_most(rank: int, max_index: int) -> int | None:
    """Closed-form number of normal subgroups of index <= max_index in the
    free group of the given rank, where one is known (else None)."""
    if max_index == 1:
        return 1
    if rank == 1:
        return max_index
    if max_index == 2:
        return 2 ** rank
    return None
