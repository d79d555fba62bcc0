"""Seeded input builders shared by the workloads.

Builders that draw anything take a ``random.Random``; all return plain
library values (graphs, ``PermRep`` actions, towers), so the library only
ever sees the generated inputs and never the seed.
"""

from __future__ import annotations

import procover as pc

import oracles


def theta_graph() -> pc.FiniteGraph:
    """Two vertices joined by three parallel edges (rank 2)."""
    return pc.FiniteGraph.from_edges(
        ["v0", "v1"],
        [("e0", "v0", "v1"), ("e1", "v0", "v1"), ("e2", "v0", "v1")],
        name="theta")


def relabel(rank: int, perms, rng) -> pc.PermRep:
    """The same subgroup with the points other than 0 shuffled."""
    n = len(perms[0])
    rest = list(range(1, n))
    rng.shuffle(rest)
    new = [0] + rest
    out = []
    for p in perms:
        q = [0] * n
        for a in range(n):
            q[new[a]] = new[p[a]]
        out.append(tuple(q))
    return pc.PermRep(rank, n, out)


def abelian_rep(m: int, rng) -> pc.PermRep:
    """Kernel of the rank-2 free group onto (Z/m)^2: normal, index m^2."""
    return relabel(2, pc.translation_kernel_rep(2, m).perms, rng)


def dihedral_regular_rep(k: int, rng) -> pc.PermRep:
    """Regular action of the dihedral group of order 2k on itself, by the
    rotation r and the reflection s: a normal subgroup of index 2k whose
    deck group is the (nonabelian, k >= 3) dihedral group.  Point r^a s^b
    is a + k*b; right multiplication by r adds 1 to a when b = 0 and
    subtracts 1 when b = 1, and by s flips b."""
    x0 = [(a + (1 if b == 0 else -1)) % k + k * b
          for b in (0, 1) for a in range(k)]
    x1 = [a + k * (1 - b) for b in (0, 1) for a in range(k)]
    return relabel(2, (x0, x1), rng)


def dihedral_natural_rep(m: int, rng) -> pc.PermRep:
    """The dihedral group acting on the m corners of an m-gon (m even):
    Stab(0) is fixed by exactly one other corner, so the deck group has
    order 2."""
    x0 = [(p + 1) % m for p in range(m)]
    x1 = [(m - p) % m for p in range(m)]
    return relabel(2, (x0, x1), rng)


def random_transitive_rep(n: int, rng, trivial_deck: bool = True) -> pc.PermRep:
    """Two seeded random permutations acting transitively on n points.

    With ``trivial_deck`` the draw is repeated until no point other than 0
    has the stabilizer of 0, so the cover has a trivial deck group.
    """
    while True:
        perms = []
        for _ in range(2):
            p = list(range(n))
            rng.shuffle(p)
            perms.append(tuple(p))
        try:
            rep = pc.PermRep(2, n, perms)
        except ValueError:
            continue
        if not trivial_deck or oracles.deck_order(rep) == 1:
            return rep


def blow_up(rep: pc.PermRep, m: int, rng) -> pc.PermRep:
    """A seeded transitive action on rep.degree * m points that maps onto
    ``rep`` by (p, j) -> p, so its subgroup lies inside the subgroup of
    ``rep``.  Point (p, j) is p * m + j."""
    n = rep.degree
    while True:
        perms = []
        for perm in rep.perms:
            q = [0] * (n * m)
            for p in range(n):
                sigma = list(range(m))
                rng.shuffle(sigma)
                for j in range(m):
                    q[p * m + j] = perm[p] * m + sigma[j]
            perms.append(tuple(q))
        try:
            return pc.PermRep(rep.rank, n * m, perms)
        except ValueError:
            continue


def cyclic_rep(n: int) -> pc.PermRep:
    """The index-n subgroup of the rank-1 free group (an n-cycle)."""
    return pc.PermRep(1, n, [tuple((i + 1) % n for i in range(n))])


def loop_map(base: pc.FiniteGraph, basepoint: str, word: pc.FreeWord
             ) -> pc.GraphMorphism:
    """A cycle graph wrapped around the closed path that spells ``word`` in
    the fundamental-group basis of ``base`` at ``basepoint``."""
    p = pc.pi1_data(base, basepoint)
    path: list[str] = []
    for k, sign in word.letters:
        loop = p.basis_loop(k)
        if sign < 0:
            loop = tuple(base.inv[d] for d in reversed(loop))
        path.extend(loop)
    n = len(path)
    cycle = pc.cycle_graph(n)
    vmap = {"v%d" % i: base.src[path[i]] for i in range(n)}
    dmap = {}
    for i in range(n):
        dmap["e%d+" % i] = path[i]
        dmap["e%d-" % i] = base.inv[path[i]]
    return pc.GraphMorphism(cycle, base, vmap, dmap)


def wrap_morphism(n: int, m: int) -> pc.GraphMorphism:
    """The m-periodic wrap of the n-cycle onto the m-cycle (m divides n)."""
    big, small = pc.cycle_graph(n), pc.cycle_graph(m)
    vmap = {"v%d" % i: "v%d" % (i % m) for i in range(n)}
    dmap = {}
    for i in range(n):
        dmap["e%d+" % i] = "e%d+" % (i % m)
        dmap["e%d-" % i] = "e%d-" % (i % m)
    return pc.GraphMorphism(big, small, vmap, dmap)


def pro2_tower(k: int) -> pc.Tower:
    """Levels C(3*2^i) wrapping onto C3, bondings the 2-fold wraps."""
    coverings = [pc.as_covering(wrap_morphism(3 * 2 ** i, 3))
                 for i in range(k + 1)]
    phis = [wrap_morphism(3 * 2 ** (i + 1), 3 * 2 ** i) for i in range(k)]
    psis = [pc.GraphMorphism.identity(pc.cycle_graph(3)) for _ in range(k)]
    return pc.Tower(coverings, phis, psis, basepoints=["v0"] * (k + 1))


def chain_spec(base: pc.FiniteGraph, normals) -> pc.UniversalSpec:
    """A universal-tower spec over ``base`` with diagonal quotients."""
    return pc.UniversalSpec(
        base=base, basepoint="v0",
        quotients=[pc.Congruence.diagonal(base)] * len(normals),
        normals=list(normals))


def b2_homology_spec(moduli) -> pc.UniversalSpec:
    """Chain 1 -> Z/m1 -> Z/m2 ... of homology kernels over B2 (each
    modulus divides the next; modulus 1 is the whole group)."""
    return chain_spec(pc.bouquet_graph(2),
                      [pc.translation_kernel_rep(2, m) for m in moduli])
