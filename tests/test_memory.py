"""A graph is freed with its last reference.

Everything a graph keeps (components, edge tables, the fundamental-group
coordinates of ``pi1_data``) is plain data that does not refer back to it,
and nothing the library builds over a graph is kept on it.  So with the
cyclic collector off, a graph dies when the last reference to it goes,
after each of the requests below.
"""

import gc
import weakref

import pytest

import procover as pc
from procover import formats
from helpers import (
    b2_homology_spec,
    dihedral_natural_rep,
    theta_graph,
    two_cycles,
    wrap_morphism,
)


def pi1_request():
    g = pc.cycle_graph(5)
    cover = pc.cover_from_subgroup(pc.bouquet_graph(2), "v0",
                                   pc.translation_kernel_rep(2, 3))[0]
    assert pc.pi1_data(g, "v0").rank == 1
    assert pc.pi1_data(cover, cover.vertices[0]).rank == 10
    return [g, cover]


def components_request():
    """Components derived on a read, and carried by a quotient of a graph
    known to be connected."""
    g, f = two_cycles(3), wrap_morphism(6, 3)
    assert len(pc.components(g)) == 2 and pc.is_connected(f.domain)
    qg, _proj = pc.quotient(f.domain, pc.kernel_congruence(f))
    assert "_components" in vars(qg) and pc.is_connected(qg)
    return [g, f.domain, qg]


def morphism_round_trip():
    f = wrap_morphism(12, 4)
    back = formats.morphism_from_obj(formats.morphism_to_obj(f))
    assert back == f
    given = formats.morphism_from_obj(formats.morphism_to_obj(f, embed_graphs=False),
                                      domain=f.domain, codomain=f.codomain)
    assert given == f
    return [f.domain, f.codomain, back.domain, back.codomain]


def cover_request():
    base = theta_graph()
    cover, _a, cov = pc.cover_from_subgroup(base, "v0", dihedral_natural_rep(8))
    assert pc.deck_group(cov).order == 2
    assert not pc.is_regular(cov).regular
    return [base, cover]


def tower_request():
    spec = b2_homology_spec()
    t = pc.universal_tower(spec)
    assert [r.verdict for r in pc.kernel_good_pairs(t)] == ["regular_good"] * 3
    assert pc.pi1_triviality_check(t, 1).rows
    return [spec.base] + [g for i in range(t.top + 1)
                          for g in (t.cover_graph(i), t.base_graph(i))]


@pytest.mark.parametrize("request_graphs", [
    pi1_request, components_request, morphism_round_trip, cover_request,
    tower_request])
def test_a_graph_dies_with_its_last_reference(request_graphs):
    enabled = gc.isenabled()
    gc.disable()
    try:
        alive = [weakref.ref(g) for g in request_graphs()]
        assert alive
        assert [ref() for ref in alive] == [None] * len(alive)
    finally:
        if enabled:
            gc.enable()
