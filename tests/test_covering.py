import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import procover as pc
from procover import (
    ActionError,
    FreeWord,
    GraphError,
    GraphMorphism,
    LiftObstruction,
    NotACoveringError,
    PermRep,
    action_deck_indices,
    as_covering,
    compose,
    cover_from_subgroup,
    deck_group,
    image_subgroup,
    is_regular,
    lift,
    low_index_reps,
    pi1_data,
    quotient_by_deck_subgroup,
    quotient_by_group,
    rep_equivalent,
    subgroup_leq,
)
from procover import covering, freegroup
from procover.formats import dump_json, morphism_to_obj
from procover.freegroup import NotTransitiveError
from procover.graphs import SpanningTreeData, edge_stem
from helpers import (
    TableCheckedAction,
    action_deck_isomorphism,
    action_table,
    b2_covers,
    composed_deck_oracle,
    composed_lift_oracle,
    composes_to_an_element,
    congruence_orbit_quotient,
    congruence_quotient_by_deck_subgroup,
    cycle_with_loop,
    cycle_with_parallel,
    cyclic_family,
    cyclic_rep,
    deck_action,
    deck_elements,
    free_actions,
    deck_closure,
    deck_inverse,
    deck_subgroups,
    dihedral_natural_rep,
    dihedral_regular_rep,
    direct_orbit_quotient,
    eager_deck_group,
    fiber_transport,
    is_bijective,
    is_normal_deck_subgroup,
    lift_deck_group,
    old_as_covering,
    old_cover_from_subgroup,
    pairwise_closure,
    pairwise_group_action,
    path_graph,
    path_to_word,
    record_constructions,
    rejected_action_documents,
    relabelled,
    rotation,
    rotation_action,
    s3_regular_rep,
    searched_lift,
    small_deck_groups,
    theta_graph,
    three_vertex_base,
    three_way_regularity_oracle,
    transport_basepoint,
    transport_monodromy,
    trivial_rep,
    two_cycles,
    walked_monodromy,
    wrap_morphism,
)

X = FreeWord.generator(0)


class TestAsCovering:
    def test_wrap_is_degree_two(self):
        cov = as_covering(wrap_morphism(6, 3))
        assert cov.degree == 2
        assert all(len(f) == 2 for f in cov.vertex_fibers.values())

    def test_identity_is_degree_one(self):
        cov = as_covering(GraphMorphism.identity(pc.cycle_graph(3)))
        assert cov.degree == 1

    def test_path_into_cycle_fails_at_endpoint(self):
        p2, c3 = path_graph(2), pc.cycle_graph(3)
        f = GraphMorphism(p2, c3, {"v0": "v0", "v1": "v1"},
                          {"e0+": "e0+", "e0-": "e0-"})
        with pytest.raises(NotACoveringError) as err:
            as_covering(f)
        assert err.value.vertex in ("v0", "v1")

    def test_collapse_fails_injectivity(self):
        b2, b1 = pc.bouquet_graph(2), pc.bouquet_graph(1)
        f = GraphMorphism(b2, b1, {"v0": "v0"},
                          {"e0+": "e0+", "e0-": "e0-", "e1+": "e0+", "e1-": "e0-"})
        with pytest.raises(NotACoveringError):
            as_covering(f)


class TestFiberTransport:
    """The fiber-transport oracle of ``tests/helpers.py`` on small wraps."""

    def test_wrap_transport(self):
        cov = as_covering(wrap_morphism(6, 3))
        tr = fiber_transport(cov, "e0+")
        assert tr == {"v0": "v1", "v3": "v4"}
        assert all(a != b for a, b in tr.items())

    def test_degree_one(self):
        cov = as_covering(GraphMorphism.identity(pc.cycle_graph(3)))
        assert fiber_transport(cov, "e0+") == {"v0": "v1"}

    def test_inverse_dart_inverts(self):
        cov = as_covering(wrap_morphism(6, 3))
        fwd = fiber_transport(cov, "e1+")
        back = fiber_transport(cov, "e1-")
        for a, b in fwd.items():
            assert back[b] == a


class TestPi1:
    def test_bouquet(self):
        p = pi1_data(pc.bouquet_graph(2), "v0")
        assert p.rank == 2
        assert p.letter("e0+") != p.letter("e1+")
        assert path_to_word(p, ["e0+"]) != path_to_word(p, ["e1+"])

    def test_cycle(self):
        p = pi1_data(pc.cycle_graph(3), "v0")
        assert p.rank == 1
        w = path_to_word(p, ["e0+", "e1+", "e2+"])
        assert w in (X, X.inverse())

    def test_c6_cycle_word(self):
        p = pi1_data(pc.cycle_graph(6), "v0")
        assert p.rank == 1
        loop = ["e%d+" % i for i in range(6)]
        assert path_to_word(p, loop) in (X, X.inverse())

    def test_non_path_rejected(self):
        p = pi1_data(pc.cycle_graph(3), "v0")
        with pytest.raises(GraphError):
            path_to_word(p, ["e0+", "e0+"])

    def test_homomorphic_on_loops(self):
        p = pi1_data(pc.bouquet_graph(2), "v0")
        l1, l2 = ["e0+"], ["e1+", "e1+"]
        assert path_to_word(p, l1 + l2) == \
            path_to_word(p, l1) * path_to_word(p, l2)


class TestCoverFromSubgroup:
    def test_mod2_cover_of_b2(self):
        cover, base, cov = cover_from_subgroup(
            pc.bouquet_graph(2), "v0", pc.translation_kernel_rep(2, 2))
        assert len(cover.vertices) == 4
        assert cover.edge_count() == 8
        assert cover.edge_count() - len(cover.vertices) + 1 == 5

    def test_c3_double_cover_is_hexagon(self):
        cover, base, cov = cover_from_subgroup(
            pc.cycle_graph(3), "v0", cyclic_rep(2))
        assert len(cover.vertices) == 6
        assert cover.edge_count() == 6
        assert pc.is_connected(cover)
        assert all(len(cover.star(v)) == 2 for v in cover.vertices)

    def test_trivial_rep_gives_isomorphic_copy(self):
        g = theta_graph()
        cover, base, cov = cover_from_subgroup(g, "v0", trivial_rep(2))
        assert cov.degree == 1
        assert is_bijective(cov.map)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            cover_from_subgroup(pc.bouquet_graph(2), "v0", cyclic_rep(2))

    @pytest.mark.parametrize("inv, kind, witness", [
        ({"a": "b", "b": "a", "c": "c"}, "fixed-dart", "c"),
        ({"a": "b", "b": "c", "c": "a"}, "involution", "a")])
    def test_invalid_base_is_an_input_error(self, inv, kind, witness):
        """A base that ``FiniteGraph`` admits and ``validate_graph`` rejects
        raises GraphError with the first violation and its witness: not a
        negative verdict (a fixed dart used to fail the star check) and not
        an internal error (a non-involution used to fail the rank check)."""
        g = pc.FiniteGraph(["v0"], ["a", "b", "c"], dict.fromkeys(inv, "v0"), inv)
        assert pc.validate_graph(g)[0] == {"kind": kind, "witness": witness}
        with pytest.raises(GraphError, match="%s at '%s'" % (kind, witness)):
            cover_from_subgroup(g, "v0", cyclic_rep(2))

    @pytest.mark.parametrize("rep", [trivial_rep(2), pc.translation_kernel_rep(2, 2)])
    def test_two_pairs_with_one_stem_are_refused(self, rep):
        """A valid base whose dart pairs ``(a, b)`` and ``(a+, a-)`` share
        the stem ``a`` would give two cover darts one id: GraphError, as for
        a graph with duplicate dart ids, and no cover with half its darts."""
        darts = ["a", "b", "a+", "a-"]
        g = pc.FiniteGraph(["v0"], darts, dict.fromkeys(darts, "v0"),
                           {"a": "b", "b": "a", "a+": "a-", "a-": "a+"})
        assert pc.validate_graph(g) == []
        assert [edge_stem(d, e) for d, e in g.dart_pairs()] == ["a", "a"]
        with pytest.raises(GraphError, match="^duplicate dart ids$"):
            cover_from_subgroup(g, "v0", rep)


class TestImageSubgroup:
    def test_wrap(self):
        cov = as_covering(wrap_morphism(6, 3))
        p = pi1_data(pc.cycle_graph(3), "v0")
        rep = image_subgroup(cov, "v0", p)
        assert rep == PermRep(1, 2, [(1, 0)])

    def test_identity(self):
        c3 = pc.cycle_graph(3)
        cov = as_covering(GraphMorphism.identity(c3))
        assert image_subgroup(cov, "v0", pi1_data(c3, "v0")).degree == 1

    def test_round_trip_small(self):
        b2 = pc.bouquet_graph(2)
        p = pi1_data(b2, "v0")
        for h in low_index_reps(2, 3):
            cover, base, cov = cover_from_subgroup(b2, "v0", h)
            assert rep_equivalent(image_subgroup(cov, base, p), h)

    def test_monodromy_matches_transport(self):
        cov = as_covering(wrap_morphism(6, 3))
        p = pi1_data(pc.cycle_graph(3), "v0")
        for a in ("v0", "v3"):
            rep = image_subgroup(cov, a, p)
            assert rep == transport_monodromy(cov, a, p)
            assert rep == walked_monodromy(cov, a, p)

    def test_basepoint_mismatch(self):
        cov = as_covering(wrap_morphism(6, 3))
        p = pi1_data(pc.cycle_graph(3), "v0")
        with pytest.raises(ValueError):
            image_subgroup(cov, "v1", p)


class TestLift:
    def test_lift_between_equal_covers(self):
        f = as_covering(wrap_morphism(6, 3))
        h = lift(wrap_morphism(6, 3), f, "v0", "v0")
        assert is_bijective(h)
        assert compose(f.map, h) == wrap_morphism(6, 3)

    def test_obstruction_for_identity(self):
        f = as_covering(wrap_morphism(6, 3))
        g = GraphMorphism.identity(pc.cycle_graph(3))
        with pytest.raises(LiftObstruction) as err:
            lift(g, f, "v0", "v0")
        path = err.value.witness
        sigma = g.domain
        assert sigma.src[path[0]] == "v0"
        assert sigma.target(path[-1]) == "v0"
        for a, b in zip(path, path[1:]):
            assert sigma.target(a) == sigma.src[b]

    def test_single_vertex_always_lifts(self):
        c3 = pc.cycle_graph(3)
        dot = pc.FiniteGraph(["p"], [], {}, {})
        g = GraphMorphism(dot, c3, {"p": "v0"}, {})
        f = as_covering(wrap_morphism(6, 3))
        h = lift(g, f, "p", "v3")
        assert h.vmap == {"p": "v3"}

    def test_matches_containment_criterion(self):
        rng = random.Random(11)
        bases = [pc.bouquet_graph(1), pc.bouquet_graph(2), pc.cycle_graph(3),
                 theta_graph()]
        trials = 0
        for base in bases:
            p = pi1_data(base, "v0")
            reps = low_index_reps(p.rank, 3)
            for _ in range(20):
                h_up = rng.choice(reps)
                h_down = rng.choice(reps)
                up, up_base, up_cov = cover_from_subgroup(base, "v0", h_up)
                down, down_base, down_cov = cover_from_subgroup(base, "v0", h_down)
                expected = subgroup_leq(
                    image_subgroup(up_cov, up_base, p),
                    image_subgroup(down_cov, down_base, p))
                try:
                    lift(up_cov.map, down_cov, up_base, down_base)
                    got = True
                except LiftObstruction:
                    got = False
                assert got == expected
                trials += 1
        assert trials == 80


class TestDeckGroup:
    def test_wrap_deck_is_antipodal(self):
        deck = deck_group(as_covering(wrap_morphism(6, 3)))
        assert deck.order == 2
        other = deck.element(1)
        assert other.vmap["v0"] == "v3"

    def test_nonnormal_cover_has_trivial_deck(self):
        _, _, cov = cover_from_subgroup(
            pc.bouquet_graph(2), "v0", PermRep(2, 3, [(1, 0, 2), (0, 2, 1)]))
        assert deck_group(cov).order == 1

    def test_identity_covering(self):
        deck = deck_group(as_covering(GraphMorphism.identity(pc.cycle_graph(3))))
        assert deck.order == 1

    def test_freeness(self):
        for n in (6, 9, 12):
            deck = deck_group(as_covering(wrap_morphism(n, 3)))
            for h in deck_elements(deck)[1:]:
                assert all(h.vmap[v] != v for v in h.domain.vertices)
                assert all(h.dmap[d] != d for d in h.domain.darts)

    def test_subgroup_helpers(self):
        deck = deck_group(as_covering(wrap_morphism(12, 3)))
        assert deck.order == 4
        sizes = sorted(len(s) for s in deck_subgroups(deck))
        assert sizes == [1, 2, 4]
        assert deck.is_subgroup([0, 2])
        assert not deck.is_subgroup([0, 1])

    def test_is_subgroup_holds_no_index_outside_the_group(self):
        """An index outside 0..order-1 names no element: a negative one
        does not wrap around to the end, and a large one raises nothing."""
        cov = cover_from_subgroup(pc.bouquet_graph(2), "v0",
                                  pc.translation_kernel_rep(2, 2))[2]
        deck = deck_group(cov)
        assert deck.order == 4 and deck.is_subgroup([0, 1, 2, 3])
        assert not deck.is_subgroup([0, -4])
        assert not deck.is_subgroup([0, 1, 2, 3, -1, -2])
        assert not deck.is_subgroup([0, 7])

    def test_closure_matches_pairwise_oracle(self):
        for deck in small_deck_groups():
            for size in (0, 1, 2):
                for s in itertools.combinations(range(deck.order), size):
                    assert deck_closure(deck, s) == pairwise_closure(deck, s)

    def test_subgroups_are_the_closures_of_all_subsets(self):
        for deck in small_deck_groups():
            every = {pairwise_closure(deck, s)
                     for size in range(deck.order + 1)
                     for s in itertools.combinations(range(deck.order), size)}
            assert deck_subgroups(deck) == sorted(every, key=lambda s: (len(s), sorted(s)))


@st.composite
def rank2_covers(draw, max_degree=6):
    """A cover of a rank-2 base from a random transitive action."""
    base = draw(st.sampled_from([pc.bouquet_graph(2), theta_graph(),
                                 cycle_with_loop(), cycle_with_parallel()]))
    n = draw(st.integers(1, max_degree))
    perms = [draw(st.permutations(range(n))) for _ in range(2)]
    try:
        rep = PermRep(2, n, perms)
    except NotTransitiveError:
        assume(False)
    return cover_from_subgroup(base, "v0", rep)[2]


class TestLiftTableOracle:
    """``image_subgroup`` reads the monodromy off one sheet transport; the
    basis-loop walk through the lift table and the fiber-transport
    monodromy it replaced agree at every fiber point over every base
    vertex.  Every table entry starts at its row's vertex and lies over
    its key.  Every cover built from a transitive action is connected
    (``cover_from_subgroup`` does not check it again)."""

    @staticmethod
    def check(cov):
        base, cover = cov.codomain, cov.domain
        for u in base.vertices:
            p = pi1_data(base, u)
            for a in cov.vertex_fibers[u]:
                rep = image_subgroup(cov, a, p)
                assert rep == transport_monodromy(cov, a, p)
                assert rep == walked_monodromy(cov, a, p)
        assert list(cov.lifts) == list(cover.vertices)
        for v, row in cov.lifts.items():
            assert row.keys() == set(base.star(cov.map.vmap[v]))
            for e, d in row.items():
                assert cover.src[d] == v and cov.map.dmap[d] == e

    def test_b2_and_theta_covers(self):
        for base in (pc.bouquet_graph(2), theta_graph()):
            for h in low_index_reps(2, 4):
                cover, _a, cov = cover_from_subgroup(base, "v0", h)
                assert pc.is_connected(cover)
                self.check(cov)

    def test_cyclic_family(self):
        for cov in cyclic_family():
            self.check(cov)

    @settings(max_examples=40, deadline=None)
    @given(rank2_covers(max_degree=64))
    def test_random_transitive_actions(self, cov):
        assert pc.is_connected(cov.domain)
        self.check(cov)


class TestDeckGroupOracle:
    """deck_group against the table built by composing full morphisms, and
    is_regular against the three-way regularity decision."""

    @staticmethod
    def check(cov):
        deck = deck_group(cov)
        elements, table, inverse = composed_deck_oracle(cov)
        assert [h.vmap for h in deck_elements(deck)] == [h.vmap for h in elements]
        assert deck_elements(deck) == elements
        assert deck.table == table
        assert tuple(deck_inverse(deck, i) for i in range(deck.order)) == inverse
        assert is_regular(cov) == three_way_regularity_oracle(cov)

    def test_b2_covers(self):
        for _h, _base, cov in b2_covers():
            self.check(cov)

    def test_cyclic_family(self):
        for cov in cyclic_family():
            self.check(cov)

    def test_s3_regular_cover(self):
        _, _, cov = cover_from_subgroup(pc.bouquet_graph(2), "v0", s3_regular_rep())
        self.check(cov)

    def test_wrap_covers(self):
        for n in (3, 6, 9, 12, 24, 48):
            self.check(as_covering(wrap_morphism(n, 3)))

    def test_abelian_covers(self):
        for rep in (pc.translation_kernel_rep(2, 3), pc.translation_kernel_rep(2, 3)):
            self.check(cover_from_subgroup(pc.bouquet_graph(2), "v0", rep)[2])

    @settings(max_examples=60, deadline=None)
    @given(rank2_covers())
    def test_generated_covers(self, cov):
        self.check(cov)


class TestDeckGroupBySheetTransport:
    """``deck_group`` holds each element as its fiber automorphism; the
    eager sheet-transport construction it replaced and the lift-based one
    before it give the same order, an equal table and equal elements in
    the same order, and ``is_regular`` reads the same order."""

    @staticmethod
    def check(cov):
        deck = deck_group(cov)
        for want in (eager_deck_group(cov), lift_deck_group(cov)):
            assert deck.order == want.order
            assert deck.table == want.table
            assert all(deck.element(i) == h for i, h in enumerate(want.elements))
            assert deck_elements(deck) == want.elements
        assert [h.vmap[cov.domain.vertices[0]] for h in deck_elements(deck)] == \
            [cov.vertex_fibers[cov.map.vmap[cov.domain.vertices[0]]][phi[0]]
             for phi in deck.automorphisms]
        assert is_regular(cov).deck_order == deck.order
        return deck

    @pytest.mark.parametrize("base", [pc.bouquet_graph(2), theta_graph()],
                             ids=["B2", "theta"])
    def test_every_cover_of_degree_at_most_five(self, base):
        orders = set()
        for rep in low_index_reps(2, 5):
            orders.add(self.check(cover_from_subgroup(base, "v0", rep)[2]).order)
        assert orders == {1, 2, 3, 4, 5}

    def test_translation_kernels(self):
        for m in range(1, 9):
            rep = pc.translation_kernel_rep(2, m)
            deck = self.check(cover_from_subgroup(pc.bouquet_graph(2), "v0", rep)[2])
            assert deck.order == m * m

    def test_dihedral_regular_covers(self):
        for k in range(2, 9):
            for base in (pc.bouquet_graph(2), theta_graph()):
                cov = cover_from_subgroup(base, "v0", dihedral_regular_rep(k))[2]
                assert self.check(cov).order == 2 * k

    def test_least_vertex_off_the_basepoint(self):
        base = three_vertex_base()
        reps = list(low_index_reps(2, 4)) + [pc.translation_kernel_rep(2, 3),
                                             dihedral_regular_rep(3)]
        for rep in reps:
            cover, a, cov = cover_from_subgroup(base, "b", rep)
            assert a == "b@0" and cover.vertices[0] == "a@0"
            assert cov.map.vmap["a@0"] == "a"
            self.check(cov)

    def test_builds_no_lift(self, monkeypatch):
        covs = [cov for _h, _base, cov in b2_covers()]
        covs.append(cover_from_subgroup(pc.bouquet_graph(2), "v0",
                                        pc.translation_kernel_rep(2, 4))[2])
        wants = [lift_deck_group(cov) for cov in covs]

        def no_lift(*args):
            raise AssertionError("deck_group called lift")

        monkeypatch.setattr(covering, "lift", no_lift)
        for cov, want in zip(covs, wants):
            deck = deck_group(cov)
            assert deck_elements(deck) == want.elements and deck.table == want.table

    def test_walks_no_basis_loop(self, monkeypatch):
        """The monodromy comes from the sheet transport that gives the rows:
        neither ``image_subgroup`` nor a basis loop is used."""
        covs = [cov for _h, _base, cov in b2_covers()]
        covs += [cover_from_subgroup(three_vertex_base(), "b", rep)[2]
                 for rep in low_index_reps(2, 4)]
        wants = [(eager_deck_group(cov), lift_deck_group(cov),
                  three_way_regularity_oracle(cov)) for cov in covs]

        def no_walk(*args):
            raise AssertionError("a basis loop was walked")

        monkeypatch.setattr(covering, "image_subgroup", no_walk)
        monkeypatch.setattr(pc.Pi1Data, "basis_loop", no_walk)
        for cov, (eager, lifted, regular) in zip(covs, wants):
            deck = deck_group(cov)
            for want in (eager, lifted):
                assert deck.order == want.order and deck.table == want.table
                assert deck_elements(deck) == want.elements
            assert is_regular(cov) == regular

    def test_rows_partition_the_cover(self):
        """The vertex rows and the dart rows hold every vertex and dart of
        the cover once, each row the fiber over its base element in a
        fixed sheet order: on constructed covers and on ``as_covering``
        copies of them."""
        covs = [cov for _h, _base, cov in b2_covers()]
        rng = random.Random(22)
        covs += [cover_from_subgroup(theta_graph(), "v0", rep)[2]
                 for rep in (pc.translation_kernel_rep(2, 4),
                             dihedral_regular_rep(6), dihedral_natural_rep(12),
                             relabelled(dihedral_natural_rep(48), 0, rng))]
        copies = [as_covering(cov.map) for cov in covs]
        for cov in covs + copies:
            deck = deck_group(cov)
            cover, base, f = cov.domain, cov.codomain, cov.map
            for rows, members, over, below in (
                    (deck.vrows, cover.vertices, f.vmap, base.vertices),
                    (deck.drows, cover.darts, f.dmap, base.darts)):
                assert len(rows) == len(below)
                assert sorted(itertools.chain.from_iterable(rows)) == \
                    sorted(members)
                for row in rows:
                    assert len(row) == cov.degree
                    assert len({over[x] for x in row}) == 1

    @pytest.mark.parametrize("base, rep", [
        (pc.bouquet_graph(2), pc.translation_kernel_rep(2, 3)),
        (theta_graph(), dihedral_regular_rep(3)),
        (pc.cycle_graph(3), cyclic_rep(5))], ids=["Z3^2", "D3", "Z5"])
    def test_swapped_automorphism_fails_the_sheet_check(
            self, monkeypatch, constructed_values_equal_the_checked_ones,
            base, rep):
        """A non-automorphism planted among the automorphisms is not looked
        for by ``deck_group`` or by ``DeckGroup.element``, which trust the
        forced map; the guard of ``tests/conftest.py`` records the element
        built from it, and the table differs from the lifted one."""
        cov = cover_from_subgroup(base, "v0", rep)[2]
        lifted = lift_deck_group(cov)
        mismatches = constructed_values_equal_the_checked_ones.mismatches
        automorphisms = covering._automorphisms
        for k in range(1, rep.degree):
            def swapped(r, k=k):
                group = automorphisms(r)
                phi = group[k] = list(group[k])
                phi[1], phi[2] = phi[2], phi[1]
                return group

            monkeypatch.setattr(covering, "_automorphisms", swapped)
            deck = deck_group(cov)
            assert mismatches == []
            deck.element(k)
            assert len(mismatches) == 1 and "breaks" in mismatches[0]
            mismatches.pop()
            assert deck.table != lifted.table
        monkeypatch.setattr(covering, "_automorphisms", automorphisms)
        assert deck_group(cov).order == rep.degree


class TestCarriedSheetCoordinates:
    """Every covering, constructed or loaded, takes its sheet rows and
    monodromy once, at its first vertex, when ``deck_group``,
    ``is_regular`` or ``image_subgroup`` (at that vertex, in the kept
    ``pi1_data`` there) first reads them, and keeps them: later readers
    transport nothing, and all agree with the oracles, which transport or
    walk.  Other fiber points and coordinate systems are transported on
    every call, and agree with the walked monodromy."""

    @staticmethod
    def large_covers():
        """Covers of degree above ten, whose fiber order is the string order
        of the names (``v0@10`` before ``v0@2``), not the voltage order."""
        rng = random.Random(21)
        reps = [relabelled(pc.translation_kernel_rep(2, 4), 0, rng),
                dihedral_natural_rep(48),
                relabelled(dihedral_natural_rep(48), 0, rng)]
        return [cover_from_subgroup(base, "v0", rep)[2]
                for base in (pc.bouquet_graph(2), theta_graph())
                for rep in reps]

    @classmethod
    def fresh_covers(cls):
        """The covers of ``b2_covers`` built again, so that no other test
        has read them, and the large covers."""
        b2 = pc.bouquet_graph(2)
        return ([cover_from_subgroup(b2, "v0", h)[2] for h, _a, _c in b2_covers()]
                + cls.large_covers())

    @staticmethod
    def first_coordinates(cov):
        a0 = cov.domain.vertices[0]
        return a0, pi1_data(cov.codomain, cov.map.vmap[a0])

    @staticmethod
    def transports(monkeypatch):
        """Record each ``_sheet_rows`` call, passing it through."""
        sheet_rows, calls = covering._sheet_rows, []

        def recorded(c, a, p):
            calls.append(a)
            return sheet_rows(c, a, p)

        monkeypatch.setattr(covering, "_sheet_rows", recorded)
        return calls

    def test_constructed_covers_read_no_transport(self, monkeypatch):
        """A cover is not transported when it is built, once when it is
        first read, and never again."""
        transports = self.transports(monkeypatch)
        covs = self.fresh_covers()
        assert transports == []
        wants = []
        for cov in covs:
            a0, p = self.first_coordinates(cov)
            wants.append((eager_deck_group(cov), lift_deck_group(cov),
                          three_way_regularity_oracle(cov),
                          walked_monodromy(cov, a0, p)))
        assert transports == [cov.domain.vertices[0] for cov in covs]

        def no_transport(*args):
            raise AssertionError("a cover was transported twice")

        monkeypatch.setattr(covering, "_sheet_rows", no_transport)
        for cov, (eager, lifted, regular, monodromy) in zip(covs, wants):
            deck = deck_group(cov)
            for want in (eager, lifted):
                assert deck.order == want.order and deck.table == want.table
                assert deck_elements(deck) == want.elements
            assert is_regular(cov) == regular
            a0, p = self.first_coordinates(cov)
            assert image_subgroup(cov, a0, p) == monodromy

    def test_a_covers_request_transports_once(self, monkeypatch):
        """The calls of one ``covers`` benchmark request make exactly one
        transport and build exactly one ``PermRep``, both at the first
        read: the kept monodromy, which ``_sheet_rows`` builds by
        ``PermRep._of_moves``.  Construction and the readers after the
        first transport and build nothing."""
        transports = self.transports(monkeypatch)
        of_moves, built = PermRep._of_moves, []

        def counted(cls, *args):
            built.append(of_moves(*args))
            return built[-1]

        monkeypatch.setattr(PermRep, "_of_moves", classmethod(counted))
        for rep in (pc.translation_kernel_rep(2, 3), dihedral_natural_rep(8),
                    pc.translation_kernel_rep(2, 4), dihedral_natural_rep(48)):
            for base in (pc.bouquet_graph(2), theta_graph()):
                del built[:], transports[:]
                cover, a, cov = cover_from_subgroup(base, "v0", rep)
                assert transports == [] and built == []
                deck = deck_group(cov)
                is_regular(cov)
                image_subgroup(cov, a, pi1_data(base, "v0"))
                lift(cov.map, cov, cover.vertices[0], a)
                quotient_by_deck_subgroup(deck, range(deck.order))
                assert transports == [cover.vertices[0]]
                assert built == [cov._sheets[1]]

    def test_least_vertex_off_the_basepoint_carries(self, monkeypatch):
        """A cover whose least vertex a@0 lies off the basepoint b keeps its
        coordinates at a@0, with ``pi1_data`` at a, and makes no later
        transport there; fiber points over b are transported."""
        transports = self.transports(monkeypatch)
        base = three_vertex_base()
        for rep in (list(low_index_reps(2, 3)) + [pc.translation_kernel_rep(2, 4),
                                                 dihedral_natural_rep(12)]):
            del transports[:]
            cover, a, cov = cover_from_subgroup(base, "b", rep)
            assert transports == [] and cover.vertices[0] == "a@0"
            a0, p = self.first_coordinates(cov)
            eager, regular = eager_deck_group(cov), three_way_regularity_oracle(cov)
            monodromy = walked_monodromy(cov, a0, p)
            assert transports == ["a@0"]
            rows, carried = cov._sheets
            assert next(iter(rows)) == "a" and rows["a"][0] == "a@0"
            del transports[:]
            deck = deck_group(cov)
            assert deck.table == eager.table and deck_elements(deck) == eager.elements
            assert is_regular(cov) == regular
            assert image_subgroup(cov, a0, p) is carried
            assert carried == monodromy
            assert transports == []
            p = pi1_data(base, "b")
            for x in cov.vertex_fibers["b"]:
                assert image_subgroup(cov, x, p) == walked_monodromy(cov, x, p)
            assert transports == list(cov.vertex_fibers["b"])

    def other_coordinates(self, base):
        """Pi1Data at v0 other than those ``pi1_data(base, "v0")`` pairs
        with the kept coordinates: an equal copy, whose basis is an equal
        tuple but not the kept one, and coordinates that differ in the
        basis order, in a basis orientation and, on theta, in the tree."""
        p = pi1_data(base, "v0")
        out = [pc.Pi1Data(base, "v0", p.tree, list(p.basis_darts)),
               pc.Pi1Data(base, "v0", p.tree, p.basis_darts[::-1]),
               pc.Pi1Data(base, "v0", p.tree,
                          (base.inv[p.basis_darts[0]],) + p.basis_darts[1:])]
        if base.name == "theta":
            tree = SpanningTreeData(base, "v0", {"e1+", "e1-"}, {"v1": "e1-"})
            out.append(pc.Pi1Data(base, "v0", tree, ("e0+", "e2+")))
        return out

    def test_other_points_and_coordinates_are_transported(self, monkeypatch):
        transports = self.transports(monkeypatch)
        covs = [cov for _h, _a, cov in b2_covers()][::3] + self.large_covers()
        for cov in covs:
            base = cov.codomain
            a0, p = self.first_coordinates(cov)
            kept = cov._sheets[1]
            for q in [p] + self.other_coordinates(base):
                for a in cov.vertex_fibers["v0"][:4]:
                    del transports[:]
                    assert image_subgroup(cov, a, q) == \
                        walked_monodromy(cov, a, q)
                    assert transports == ([] if (a, q) == (a0, p) else [a])
            del transports[:]
            assert image_subgroup(cov, a0, p) is kept
            # a second call pairs the graph with the same kept coordinates
            assert image_subgroup(cov, a0, pi1_data(base, "v0")) is kept
            assert transports == []

    def test_as_covering_cover_carries_the_same(self, monkeypatch):
        """A loaded cover, which ``as_covering`` checks, is transported once
        too, to the same rows, monodromy and deck group as the cover it
        was read from."""
        transports = self.transports(monkeypatch)
        for cov in self.fresh_covers():
            plain = as_covering(cov.map)
            a0, p = self.first_coordinates(cov)
            del transports[:]
            deck, want = deck_group(plain), deck_group(cov)
            assert (deck.automorphisms, deck.vrows, deck.drows, deck.table) \
                == (want.automorphisms, want.vrows, want.drows, want.table)
            assert is_regular(plain) == is_regular(cov)
            assert image_subgroup(plain, a0, p) == walked_monodromy(cov, a0, p)
            assert image_subgroup(plain, a0, p) is plain._sheets[1]
            assert transports == [a0, a0]


class TestDeckElementsWhereRead:
    """Order, table, subgroups and deck quotients are read off the
    automorphisms and the sheet rows: none of them builds an element."""

    @pytest.fixture
    def no_elements(self, monkeypatch):
        def no_element(self, i):
            raise AssertionError("deck element %d was built" % i)

        monkeypatch.setattr(covering.DeckGroup, "element", no_element)

    def test_covers_calls_build_no_element(self, no_elements):
        for deck in small_deck_groups() + (order_64_deck_group(),):
            assert deck.order == len(deck.table) == len(deck.automorphisms)
            assert all(sorted(row) == list(range(deck.order))
                       for row in deck.table)
            assert deck.is_subgroup([0])
            for s in deck_subgroups(deck):
                assert deck.is_subgroup(s)
                _, h_map, f_h = quotient_by_deck_subgroup(deck, s)
                assert h_map.degree == len(s)
                assert f_h.degree * len(s) == deck.covering.degree
        with pytest.raises(AssertionError, match="deck element 0 was built"):
            deck_elements(deck)

    def test_indices_sending_matches_the_elements(self):
        for deck in small_deck_groups():
            cov = deck.covering
            for x in cov.domain.vertices:
                reached = {h.vmap[x]: i for i, h in enumerate(deck_elements(deck))}
                fiber = cov.vertex_fibers[cov.map.vmap[x]]
                ys = [y for y in fiber if y in reached]
                assert deck.indices_sending(x, ys) == [reached[y] for y in ys]
                for y in fiber:
                    if y not in reached:
                        with pytest.raises(KeyError):
                            deck.indices_sending(x, [y])

    def test_indices_outside_the_group_are_refused(self):
        """A negative index does not count from the end of the group."""
        deck = deck_group(cover_from_subgroup(
            pc.bouquet_graph(2), "v0", pc.translation_kernel_rep(2, 2))[2])
        assert deck.order == 4
        for i in (-1, -4, 4):
            with pytest.raises(IndexError):
                deck.vertex_map(i)
            with pytest.raises(IndexError):
                deck.element(i)

    def test_no_element_is_kept(self):
        """A deck group keeps no element: each read of ``element`` builds a
        new morphism, equal to the last, whose vertex map is ``vertex_map``."""
        deck = deck_group(as_covering(wrap_morphism(12, 3)))
        assert not hasattr(deck, "elements")
        for i in range(deck.order):
            h = deck.element(i)
            assert h is not deck.element(i) and h == deck.element(i)
            assert h.vmap == deck.vertex_map(i)


def order_64_deck_group():
    """The deck group of the B2 cover of the kernel onto (Z/8)^2."""
    return deck_group(cover_from_subgroup(pc.bouquet_graph(2), "v0",
                                          pc.translation_kernel_rep(2, 8))[2])


class TestBuiltNotChecked:
    """Covers and maps that the library builds are not checked again: the
    guard of ``tests/conftest.py`` compares each with the checking
    constructors, and these tests show that it sees a wrong one."""

    def test_the_guard_sees_a_wrong_lift_entry(
            self, constructed_values_equal_the_checked_ones):
        cov = cover_from_subgroup(pc.bouquet_graph(2), "v0",
                                  pc.translation_kernel_rep(2, 2))[2]
        mismatches = constructed_values_equal_the_checked_ones.mismatches
        assert mismatches == []
        a0 = cov.domain.vertices[0]
        lifts = dict(cov.lifts)
        lifts[a0] = dict(lifts[a0], **{"e0+": lifts[a0]["e1+"]})
        pc.Covering(cov.map, lifts)
        assert len(mismatches) == 1
        mismatches.pop()
        # the right rows in another vertex order are also refused
        pc.Covering(cov.map, dict(reversed(cov.lifts.items())))
        assert len(mismatches) == 1
        mismatches.pop()
        # a covering given no lift table must still be one
        pc.Covering(GraphMorphism(path_graph(2), pc.cycle_graph(3),
                                  {"v0": "v0", "v1": "v1"},
                                  {"e0+": "e0+", "e0-": "e0-"}))
        assert len(mismatches) == 1 and "not a covering" in mismatches[0]
        mismatches.pop()
        pc.Covering(cov.map)
        assert mismatches == []

    def test_the_guard_sees_a_broken_trusted_morphism(
            self, constructed_values_equal_the_checked_ones):
        f = rotation(6, 1)
        mismatches = constructed_values_equal_the_checked_ones.mismatches
        GraphMorphism._of_maps(f.domain, f.codomain, dict(f.vmap),
                               dict(f.dmap, **{"e0+": "e3+"}))
        assert len(mismatches) == 1 and "incidence" in mismatches[0]
        mismatches.pop()

    def test_the_guard_sees_a_wrong_graph_table(
            self, constructed_values_equal_the_checked_ones):
        g = pc.cycle_graph(3)
        mismatches = constructed_values_equal_the_checked_ones.mismatches
        assert mismatches == []
        # darts out of order, then a disconnected graph said connected
        pc.FiniteGraph._of_tables(g.vertices, g.darts[::-1], g.src, g.inv)
        assert len(mismatches) == 1
        mismatches.pop()
        two = pc.FiniteGraph.from_edges(["a", "b"], [])
        pc.FiniteGraph._of_tables(two.vertices, (), {}, {}, connected=True)
        assert len(mismatches) == 1
        mismatches.pop()

    def test_a_covers_request_checks_nothing(
            self, monkeypatch, constructed_values_equal_the_checked_ones):
        """With the guards off, the calls of one ``covers`` benchmark
        request build no ``Covering`` in ``as_covering``, validate no
        ``GraphMorphism``, no ``FiniteGraph`` and no ``PermRep``, and walk
        the components of no graph: the deck quotient and the kernel
        quotient too.  The bases are built and walked first, as the
        benchmark's set-up graphs are in its first pass, and the actions
        are built first, as its inputs are."""
        bases = (pc.bouquet_graph(2), theta_graph())
        assert all(map(pc.is_connected, bases))
        reps = (pc.translation_kernel_rep(2, 3), dihedral_natural_rep(8))
        seen = record_constructions(
            monkeypatch, constructed_values_equal_the_checked_ones)
        for rep in reps:
            for base in bases:
                cover, a, cov = cover_from_subgroup(base, "v0", rep)
                deck = deck_group(cov)
                is_regular(cov)
                image_subgroup(cov, a, pi1_data(base, "v0"))
                compose(cov.map, lift(cov.map, cov, cover.vertices[0], a))
                quotient_by_deck_subgroup(deck, range(deck.order))
                qg, _ = pc.quotient(cover, pc.kernel_congruence(cov.map))
                assert (len(qg.vertices), qg.edge_count()) == \
                    (len(base.vertices), base.edge_count())
        assert seen.validated == [] and seen.graphs == [] and seen.walks == []
        assert seen.permreps == []
        assert seen.builders and "as_covering" not in seen.builders

    def test_a_covers_request_derives_no_star_and_lists_no_fiber(
            self, monkeypatch, constructed_values_equal_the_checked_ones):
        """With the guards off, the calls of one ``covers`` benchmark
        request derive no star on the cover graph, the deck-quotient graph
        or the kernel-quotient graph, none of which they walk, and build
        no fiber lists on the deck quotient's two coverings, whose degrees
        they read: a degree is counted off the map.  The cover's own
        degree is the size of its monodromy's fiber, so it is not counted
        at all."""
        bases = (pc.bouquet_graph(2), theta_graph())
        reps = (pc.translation_kernel_rep(2, 3), dihedral_natural_rep(8))
        loops = {(rep, base): power_loop_map(base, "v0", rep)
                 for rep in reps for base in bases}
        record_constructions(monkeypatch, constructed_values_equal_the_checked_ones)
        for (rep, base), loop in loops.items():
            cover, a, cov = cover_from_subgroup(base, "v0", rep)
            deck = deck_group(cov)
            is_regular(cov)
            image_subgroup(cov, a, pi1_data(base, "v0"))
            assert compose(cov.map, lift(loop, cov, "v0", a)) == loop
            for sub in (range(deck.order), deck_closure(deck, [1])):
                mid, upper, lower = quotient_by_deck_subgroup(deck, sub)
                assert upper.degree * lower.degree == rep.degree
                assert upper.degree == len(sub)
                assert "_star" not in vars(mid)
                assert "vertex_fibers" not in vars(upper)
                assert "vertex_fibers" not in vars(lower)
            assert "component_degrees" not in vars(cov)
            qg, _ = pc.quotient(cover, pc.kernel_congruence(cov.map))
            assert qg.edge_count() == base.edge_count()
            assert "_star" not in vars(cover) and "_star" not in vars(qg)

    def test_a_covers_request_searches_the_normalizer_once(self, monkeypatch):
        """The calls of one ``covers`` benchmark request search the
        normalizer of the kept monodromy once: ``deck_group`` and
        ``is_regular`` read one search."""
        search, searched = freegroup._normalizer_generators, []

        def counted(rep):
            searched.append(rep)
            return search(rep)

        monkeypatch.setattr(freegroup, "_normalizer_generators", counted)
        for rep in (pc.translation_kernel_rep(2, 3), dihedral_natural_rep(8),
                    pc.translation_kernel_rep(2, 4), dihedral_natural_rep(48)):
            for base in (pc.bouquet_graph(2), theta_graph()):
                del searched[:]
                cover, a, cov = cover_from_subgroup(base, "v0", rep)
                deck = deck_group(cov)
                verdict = is_regular(cov)
                image_subgroup(cov, a, pi1_data(base, "v0"))
                quotient_by_deck_subgroup(deck, range(deck.order))
                assert searched == [cov._sheets[1]]
                assert verdict.deck_order == deck.order


class TestConstructorsAgainstOracles:
    """``cover_from_subgroup`` and ``as_covering`` against the constructions
    they replaced: equal graphs, maps and lift tables, fibers and degrees
    read off the map equal to the ones those constructions computed up
    front, and on maps that are not coverings the same failing vertex and
    reason."""

    @staticmethod
    def same_covering(got, want):
        assert got.map == want.map
        assert got.lifts == want.lifts and list(got.lifts) == list(want.lifts)
        assert got.vertex_fibers == want.vertex_fibers
        assert got.degree == want.degree
        assert got.component_degrees == want.component_degrees

    def check_cover(self, base, basepoint, rep):
        cover, a, cov = cover_from_subgroup(base, basepoint, rep)
        want_cover, want_a, want_cov = old_cover_from_subgroup(base, basepoint, rep)
        assert cover == want_cover and a == want_a
        assert cover.vertices == want_cover.vertices
        self.same_covering(cov, want_cov)
        # one string object per sheet name, shared by every table
        names = {id(v) for v in cover.vertices}
        assert {id(v) for v in cov.map.vmap} == names
        assert {id(v) for v in cover.src.values()} <= names

    def test_cover_from_subgroup(self):
        for base in (pc.bouquet_graph(2), theta_graph()):
            for rep in low_index_reps(2, 4):
                self.check_cover(base, "v0", rep)
        for rep in low_index_reps(2, 3):
            self.check_cover(three_vertex_base(), "b", rep)
        for rank, m in ((1, 6), (2, 5), (3, 2)):
            self.check_cover(pc.bouquet_graph(rank), "v0",
                             pc.translation_kernel_rep(rank, m))
        self.check_cover(pc.cycle_graph(3), "v1", cyclic_rep(5))
        self.check_cover(theta_graph(), "v0", dihedral_regular_rep(5))

    def check_map(self, f):
        """True when ``f`` is a covering, after comparing with the oracle."""
        try:
            want = old_as_covering(f)
        except NotACoveringError as exc:
            with pytest.raises(NotACoveringError) as err:
                as_covering(f)
            assert (err.value.vertex, err.value.reason) == (exc.vertex, exc.reason)
            assert str(err.value) == str(exc)
            return False
        self.same_covering(as_covering(f), want)
        return True

    def test_degrees_are_counted_as_the_fibers_were_grouped(self):
        """``component_degrees`` and ``degree``, counted off the vertex
        map, equal the oracle's, taken from fiber lists grouped up front,
        over connected, disconnected and empty codomains: a component with
        nothing over it has degree 0, components of unequal degree give
        none, and so does a codomain with no component.  The fiber lists,
        built where they are read, agree too."""
        maps = [cov.map for _, _, cov in b2_covers()]
        maps += [c.map for c in cyclic_family()]
        maps += [cover_from_subgroup(theta_graph(), "v0", rep)[2].map
                 for rep in (dihedral_natural_rep(8), trivial_rep(2))]
        # {component letter: cycle length}, domain then codomain, and the
        # codomain component each domain component wraps around
        for dom, cod, onto in (
                ({"a": 6, "b": 3}, {"a": 3, "b": 3}, {"a": "a", "b": "b"}),
                ({"a": 6, "b": 6}, {"a": 3, "b": 2}, {"a": "a", "b": "b"}),
                ({"a": 3, "b": 3}, {"a": 3}, {"a": "a", "b": "a"}),
                ({"a": 3}, {"a": 3, "b": 4}, {"a": "a"}),
                ({}, {"a": 2}, {}),
                ({}, {}, {})):
            maps.append(wrap_cycles(dom, cod, onto))
        degrees = set()
        for f in maps:
            got, want = as_covering(f), old_as_covering(f)
            assert got.component_degrees == want.component_degrees
            assert got.degree == want.degree
            degrees.add((got.degree, len(got.component_degrees)))
            assert got.vertex_fibers == want.vertex_fibers
        assert {(None, 2), (0, 1), (None, 0), (2, 1)} <= degrees

    def test_as_covering_on_mutated_maps(self):
        b2 = pc.bouquet_graph(2)
        b2_darts = [("e0+", "e0-"), ("e1+", "e1-")]
        rng = random.Random(14)
        reasons, covers = set(), 0
        for _h, _base, cov in b2_covers():
            f = cov.map
            assert self.check_map(f)
            for _ in range(6):
                dmap = dict(f.dmap)
                for d, e in rng.sample(f.domain.dart_pairs(), rng.randint(1, 2)):
                    x, y = rng.choice(b2_darts)
                    dmap[d], dmap[e] = (x, y) if rng.random() < 0.5 else (y, x)
                g = GraphMorphism(f.domain, b2, f.vmap, dmap)
                if self.check_map(g):
                    covers += 1
                else:
                    reasons.add(as_covering_reason(g))
        # vertices of degree other than four never cover the bouquet
        for graph in (theta_graph(), pc.cycle_graph(4), pc.bouquet_graph(3),
                      cycle_with_loop(), path_graph(3)):
            for _ in range(4):
                dmap = {}
                for d, e in graph.dart_pairs():
                    x, y = rng.choice(b2_darts)
                    dmap[d], dmap[e] = (x, y) if rng.random() < 0.5 else (y, x)
                g = GraphMorphism(graph, b2, dict.fromkeys(graph.vertices, "v0"),
                                  dmap)
                assert not self.check_map(g)
                reasons.add(as_covering_reason(g))
        assert covers and reasons == {"two", "star"}

    def test_as_covering_on_fixed_maps(self):
        maps = [wrap_morphism(6, 3), wrap_morphism(12, 4),
                GraphMorphism.identity(two_cycles(3)),
                GraphMorphism.identity(cycle_with_loop())]
        for f in maps:
            assert self.check_map(f)
        walk = GraphMorphism(path_graph(3), pc.cycle_graph(3),
                             {"v0": "v0", "v1": "v1", "v2": "v2"},
                             {"e0+": "e0+", "e0-": "e0-",
                              "e1+": "e1+", "e1-": "e1-"})
        b2, b1 = pc.bouquet_graph(2), pc.bouquet_graph(1)
        collapse = GraphMorphism(b2, b1, {"v0": "v0"},
                                 {"e0+": "e0+", "e0-": "e0-",
                                  "e1+": "e0+", "e1-": "e0-"})
        assert not self.check_map(walk) and not self.check_map(collapse)


def as_covering_reason(f):
    try:
        as_covering(f)
    except NotACoveringError as exc:
        return exc.reason.split(" ")[0]
    return None


class TestLiftOracle:
    """Every lift ``lift`` returns passes the composed check it replaced:
    ``compose(c.map, h) == g``.  Lifts of each cover through itself at every
    point over the first vertex's image, plus lifts of each B2 cover into
    the B2 covers of degree at most two."""

    @staticmethod
    def check(g, cov, base_c):
        made = 0
        for a in cov.vertex_fibers[g.vmap[base_c]]:
            try:
                h = lift(g, cov, base_c, a)
            except LiftObstruction:
                continue
            assert composed_lift_oracle(g, cov, h)
            made += 1
        return made

    def test_b2_covers(self):
        small = [(base, cov) for _h, base, cov in b2_covers() if cov.degree <= 2]
        made = 0
        for _h, base, cov in b2_covers():
            made += self.check(cov.map, cov, base)
            for _base, down in small:
                made += self.check(cov.map, down, base)
        assert made > len(b2_covers())

    def test_cyclic_family(self):
        for cov in cyclic_family():
            assert self.check(cov.map, cov, "v0") == cov.degree

    @settings(max_examples=60, deadline=None)
    @given(rank2_covers())
    def test_generated_covers(self, cov):
        a0 = cov.domain.vertices[0]
        assert self.check(cov.map, cov, a0) == deck_group(cov).order


def wrap_cycles(domain, codomain, onto) -> GraphMorphism:
    """The map wrapping each cycle of a disjoint union onto a cycle of
    another: ``domain`` and ``codomain`` give each component's letter and
    length, and ``onto`` the codomain letter each domain letter goes to,
    whose length divides its own.  Vertex i of cycle ``x`` is ``x<i>``
    and its edge to i + 1 is ``ex<i>``."""
    def union(cycles):
        vertices, edges = [], []
        for x, n in cycles.items():
            vertices += ["%s%d" % (x, i) for i in range(n)]
            edges += [("e%s%d" % (x, i), "%s%d" % (x, i), "%s%d" % (x, (i + 1) % n))
                      for i in range(n)]
        return pc.FiniteGraph.from_edges(vertices, edges)

    vmap, dmap = {}, {}
    for x, n in domain.items():
        y, m = onto[x], codomain[onto[x]]
        for i in range(n):
            vmap["%s%d" % (x, i)] = "%s%d" % (y, i % m)
            for sign in "+-":
                dmap["e%s%d%s" % (x, i, sign)] = "e%s%d%s" % (y, i % m, sign)
    return GraphMorphism(union(domain), union(codomain), vmap, dmap)


def power_loop_map(base, basepoint, rep):
    """A map from a cycle onto the basis loop x_0 at ``basepoint``, wound
    as many times as the order of x_0 in ``rep``, so that its image lies
    in every stabilizer of the action and the map lifts to the cover of
    ``rep`` at every point over ``basepoint``."""
    perm, power, order = rep.perms[0], list(range(rep.degree)), 0
    while True:
        power, order = [perm[i] for i in power], order + 1
        if power == list(range(rep.degree)):
            break
    walk = pi1_data(base, basepoint).basis_loop(0) * order
    cycle = pc.cycle_graph(len(walk))
    vmap = {"v%d" % i: base.src[d] for i, d in enumerate(walk)}
    dmap = {}
    for i, d in enumerate(walk):
        dmap["e%d+" % i], dmap["e%d-" % i] = d, base.inv[d]
    return GraphMorphism(cycle, base, vmap, dmap)


def closed_walk_map(base, basepoint, rng, length):
    """A map from a cycle onto a random closed walk at ``basepoint``:
    ``length`` random darts, closed up along the tree path home."""
    walk, x = [], basepoint
    for _ in range(length):
        d = rng.choice(base.star(x))
        walk.append(d)
        x = base.target(d)
    home = pi1_data(base, basepoint).tree.path_from_root(x)
    walk += [base.inv[d] for d in reversed(home)]
    if not walk:
        return GraphMorphism(pc.bouquet_graph(0), base, {"v0": basepoint}, {})
    cycle = pc.cycle_graph(len(walk))
    vmap = {"v%d" % i: base.src[d] for i, d in enumerate(walk)}
    dmap = {}
    for i, d in enumerate(walk):
        dmap["e%d+" % i], dmap["e%d-" % i] = d, base.inv[d]
    return GraphMorphism(cycle, base, vmap, dmap)


def bouquet_map(base, rng, loops):
    """A map from a bouquet of ``loops`` loops into the one-vertex ``base``,
    each loop sent to a random dart."""
    (v,) = base.vertices
    bouquet = pc.bouquet_graph(loops)
    dmap = {}
    for i in range(loops):
        d = rng.choice(base.darts)
        dmap["e%d+" % i], dmap["e%d-" % i] = d, base.inv[d]
    return GraphMorphism(bouquet, base, {"v0": v}, dmap)


def lift_outcome(lifting, g, cov, base_c, base_a):
    """What a lift gives: the maps, with the vertex map's key order, or
    the obstruction's witness."""
    try:
        h = lifting(g, cov, base_c, base_a)
    except LiftObstruction as exc:
        return "obstruction", exc.witness
    return "lift", h.domain, h.codomain, h.vmap, list(h.vmap), h.dmap


class TestLiftAgainstTheSearch:
    """``lift`` walks the kept spanning tree and checks the lifting
    criterion on the darts outside it; the breadth-first search it
    replaced (``searched_lift``) gives the same lift, or the same witness,
    on generated maps from cycles, bouquets and other covers into the B2
    covers, the theta covers and the covers of degree above ten, at
    several basepoints on both sides."""

    @staticmethod
    def sources(base, rng, covers):
        """Generated maps into ``base``: closed walks, bouquets when the
        base has one vertex, and the maps of other covers of it."""
        out = [closed_walk_map(base, "v0", rng, rng.randint(0, 7))
               for _ in range(3)]
        if len(base.vertices) == 1:
            out.append(bouquet_map(base, rng, rng.randint(1, 3)))
        out.append(rng.choice(covers).map)
        return out

    @staticmethod
    def compare(g, cov, rng, counts):
        for base_c in rng.sample(g.domain.vertices, min(2, len(g.domain.vertices))):
            fiber = cov.vertex_fibers[g.vmap[base_c]]
            for base_a in rng.sample(fiber, min(2, len(fiber))):
                got = lift_outcome(lift, g, cov, base_c, base_a)
                assert got == lift_outcome(searched_lift, g, cov, base_c, base_a)
                counts[got[0]] += 1

    def test_generated_maps(self):
        rng = random.Random(32)
        theta = theta_graph()
        targets = {"B2": [cov for _h, _a, cov in b2_covers()],
                   "theta": [cover_from_subgroup(theta, "v0", h)[2]
                             for h in low_index_reps(2, 4)]}
        for cov in TestCarriedSheetCoordinates.large_covers():
            targets[cov.codomain.name].append(cov)
        counts = {"lift": 0, "obstruction": 0}
        for covers in targets.values():
            for cov in covers:
                for g in self.sources(cov.codomain, rng, covers):
                    self.compare(g, cov, rng, counts)
        assert counts["lift"] > 300 and counts["obstruction"] > 300


class TestRegularity:
    def test_wrap_regular(self):
        report = is_regular(as_covering(wrap_morphism(6, 3)))
        assert report.regular
        assert report.deck_order == report.degree == 2
        assert report.image_normal and report.fiber_transitive

    def test_degree_three_not_regular(self):
        _, _, cov = cover_from_subgroup(
            pc.bouquet_graph(2), "v0", PermRep(2, 3, [(1, 0, 2), (0, 2, 1)]))
        report = is_regular(cov)
        assert not report.regular
        assert report.deck_order == 1
        assert not report.image_normal and not report.fiber_transitive

    def test_degree_one_regular(self):
        assert is_regular(as_covering(GraphMorphism.identity(theta_graph()))).regular

    def test_cyclic_family(self):
        for m in range(1, 9):
            report = is_regular(as_covering(wrap_morphism(3 * m, 3)))
            assert report.regular and report.degree == m


class TestGroupActions:
    def test_antipodal_quotient(self):
        act = rotation_action(6, 3)
        qg, cov = quotient_by_group(act)
        assert len(qg.vertices) == 3
        assert cov.degree == 2
        assert is_regular(cov).regular
        mapping = action_deck_isomorphism(act, deck_group(cov))
        assert len(mapping) == 2
        assert action_deck_indices(act, cov) == mapping

    def test_trivial_action(self):
        act = rotation_action(6, 6)
        qg, cov = quotient_by_group(act)
        assert cov.degree == 1
        assert qg == pc.cycle_graph(6)

    def test_klein_four_on_mod2_cover(self):
        cover, base, cov = cover_from_subgroup(
            pc.bouquet_graph(2), "v0", pc.translation_kernel_rep(2, 2))
        deck = deck_group(cov)
        act = deck_action(deck, range(deck.order))
        qg, qcov = quotient_by_group(act)
        assert qcov.degree == 4
        assert len(qg.vertices) == 1 and qg.edge_count() == 2
        mapping = action_deck_isomorphism(act, deck_group(qcov))
        assert len(mapping) == 4
        assert action_deck_indices(act, qcov) == mapping

    def test_reflection_is_not_free(self):
        c6 = pc.cycle_graph(6)
        vmap = {"v%d" % i: "v%d" % ((6 - i) % 6) for i in range(6)}
        dmap = {}
        for i in range(6):
            dmap["e%d+" % i] = "e%d-" % ((5 - i) % 6)
            dmap["e%d-" % i] = "e%d+" % ((5 - i) % 6)
        refl = GraphMorphism(c6, c6, vmap, dmap)
        act = pc.GroupAction(
            c6, {"id": GraphMorphism.identity(c6), "r": refl})
        with pytest.raises(ActionError) as err:
            quotient_by_group(act)
        assert err.value.witness is not None

    def test_edge_inversion_rejected(self):
        c2 = pc.cycle_graph(2)
        vmap = {"v0": "v1", "v1": "v0"}
        dmap = {"e0+": "e0-", "e0-": "e0+", "e1+": "e1-", "e1-": "e1+"}
        swap = GraphMorphism(c2, c2, vmap, dmap)
        with pytest.raises(ActionError):
            pc.GroupAction(
                c2, {"id": GraphMorphism.identity(c2), "s": swap})

    def test_non_action_table_rejected(self):
        c6 = pc.cycle_graph(6)
        morphs = {"id": GraphMorphism.identity(c6), "r": rotation(6, 2)}
        with pytest.raises(ActionError):
            pc.GroupAction(c6, morphs)

    @staticmethod
    def assert_same_action(act, oracle):
        assert act.elements == oracle.elements
        assert act.identity == oracle.identity
        assert action_table(act) == oracle.table

    @pytest.mark.parametrize("n, step", [(1, 1), (6, 1), (6, 2), (6, 3),
                                         (6, 6), (8, 2), (12, 1)])
    def test_rotation_actions_match_table_checked_oracle(self, n, step):
        act = rotation_action(n, step)
        self.assert_same_action(act, TableCheckedAction.from_morphisms(
            act.graph, act.morphisms))

    def test_deck_actions_match_table_checked_oracle(self):
        for deck in small_deck_groups():
            for s in deck_subgroups(deck):
                act = deck_action(deck, s)
                self.assert_same_action(act, TableCheckedAction.of_deck(deck, s))
                self.assert_same_action(act, TableCheckedAction.from_morphisms(
                    act.graph, act.morphisms))

    # rejections the oracle reports without a witness, and the witness the
    # constructor gives: the element ids, and the map with its first missed
    # vertex or dart
    NEW_WITNESSES = {"no identity": ("r",),
                     "non-bijective idempotent": ("f", "e1+")}

    @pytest.mark.parametrize("name", sorted(rejected_action_documents()))
    def test_rejections_match_table_checked_oracle(self, name):
        graph, morphisms = rejected_action_documents()[name]
        with pytest.raises(ActionError) as new:
            pc.GroupAction(graph, morphisms)
        with pytest.raises(ActionError) as old:
            TableCheckedAction.from_morphisms(graph, morphisms)
        assert str(new.value) == str(old.value)
        if name in self.NEW_WITNESSES:
            assert old.value.witness is None
            assert new.value.witness == self.NEW_WITNESSES[name]
        else:
            assert new.value.witness == old.value.witness

    @staticmethod
    def outcome(build, graph, morphisms):
        """What a constructor makes of an action: its elements and identity,
        or its ActionError's message and witness.  A closure witness is
        checked here, since the two constructors may name different
        pairs: "h then g" must not be the map of an element."""
        try:
            act = build(graph, morphisms)
        except ActionError as exc:
            if str(exc) != "morphisms are not closed under composition":
                return str(exc), exc.witness
            g, h = exc.witness
            assert not composes_to_an_element(morphisms, g, h)
            return str(exc), None
        return act.elements, act.identity

    @staticmethod
    def generated_actions():
        """Every rejected document and free action of the helpers, and
        seeded subsets, with and without the identity, of the deck groups
        of order at most eight and of order 16, of the symmetries of C12
        (rotations and reflections, some inverting an edge) and of a
        non-bijective map with the identity."""
        yield from rejected_action_documents().values()
        for act in free_actions().values():
            yield act.graph, act.morphisms
        rng = random.Random(14)
        groups = [(deck.covering.domain, deck_elements(deck))
                  for deck in small_deck_groups()]
        mod4 = deck_group(cover_from_subgroup(
            pc.bouquet_graph(2), "v0", pc.translation_kernel_rep(2, 4))[2])
        groups.append((mod4.covering.domain, deck_elements(mod4)))
        c12 = pc.cycle_graph(12)
        flips = []
        for k in range(12):
            dmap = {}
            for i in range(12):
                j = (k - i - 1) % 12
                dmap["e%d+" % i], dmap["e%d-" % i] = "e%d-" % j, "e%d+" % j
            flips.append(GraphMorphism(
                c12, c12, {"v%d" % i: "v%d" % ((k - i) % 12) for i in range(12)},
                dmap))
        groups.append((c12, tuple(rotation(12, k) for k in range(12))
                       + tuple(flips)))
        b2 = pc.bouquet_graph(2)
        fold = GraphMorphism(b2, b2, {"v0": "v0"},
                             {"e0+": "e0+", "e0-": "e0-",
                              "e1+": "e0+", "e1-": "e0-"})
        groups.append((b2, (GraphMorphism.identity(b2), fold)))
        for graph, maps in groups:
            for _ in range(12):
                picked = [m for m in maps if rng.random() < 0.5]
                if rng.random() < 0.7:
                    picked.append(GraphMorphism.identity(graph))
                if rng.random() < 0.5:
                    picked.append(maps[0])
                morphisms = {}
                for m in picked:
                    if m not in morphisms.values():
                        morphisms["g%d" % len(morphisms)] = m
                yield graph, morphisms
            yield graph, {"g%d" % i: m for i, m in enumerate(maps)}

    def test_actions_match_the_pairwise_oracle(self):
        verdicts = set()
        for graph, morphisms in self.generated_actions():
            new = self.outcome(pc.GroupAction, graph, morphisms)
            assert new == self.outcome(pairwise_group_action, graph, morphisms)
            verdicts.add(new[0] if isinstance(new[0], str) else "accepted")
        for verdict in ("accepted", "act identically", "acts as the identity",
                        "not closed", "bijectively", "inverts an edge"):
            assert any(verdict in v for v in verdicts)

    def test_foreign_map_rejected(self):
        c6 = pc.cycle_graph(6)
        with pytest.raises(ActionError) as err:
            pc.GroupAction(c6, {"id": GraphMorphism.identity(c6),
                                "w": wrap_morphism(6, 3)})
        assert str(err.value) == "element 'w' does not act on the graph"
        assert err.value.witness == "w"

    def test_deck_isomorphism_rejections_have_witnesses(self):
        deck = deck_group(as_covering(wrap_morphism(6, 3)))
        with pytest.raises(ActionError) as err:
            action_deck_isomorphism(rotation_action(6, 2), deck)
        assert str(err.value) == ("element 'r1' does not act by a deck "
                                  "transformation of the orbit map")
        assert err.value.witness == "r1"
        with pytest.raises(ActionError) as err:
            action_deck_isomorphism(rotation_action(6, 6), deck)
        assert str(err.value) == "action group and deck group have different sizes"
        assert err.value.witness == 1


class TestActionDeckIndices:
    """``action_deck_indices`` reads each element's deck index off its image
    of the first vertex; the matcher it replaced, which builds the deck
    group and compares composition tables, agrees on every action."""

    def test_agrees_with_the_matching_oracle(self):
        for name, act in free_actions().items():
            _, cov = quotient_by_group(act)
            assert action_deck_indices(act, cov) == \
                action_deck_isomorphism(act, deck_group(cov)), name
        # 8 + 6 + 5 actions, with C12 by 2 in both families
        assert len(free_actions()) == 18

    def test_is_a_bijection_onto_the_deck_indices(self):
        for act in free_actions().values():
            _, cov = quotient_by_group(act)
            indices = action_deck_indices(act, cov)
            assert list(indices) == list(act.elements)
            assert sorted(indices.values()) == list(range(len(act.elements)))


class TestDeckQuotient:
    def test_intermediate_cover_of_c12(self):
        cov = as_covering(wrap_morphism(12, 3))
        deck = deck_group(cov)
        half = next(s for s in deck_subgroups(deck) if len(s) == 2)
        qg, h_map, f_h = quotient_by_deck_subgroup(deck, half)
        assert len(qg.vertices) == 6
        assert h_map.degree == 2 and f_h.degree == 2
        assert is_regular(f_h).regular
        assert compose(f_h.map, h_map.map) == cov.map

    def test_trivial_subgroup(self):
        cov = as_covering(wrap_morphism(6, 3))
        deck = deck_group(cov)
        qg, h_map, f_h = quotient_by_deck_subgroup(deck, [0])
        assert h_map.degree == 1
        assert f_h.degree == cov.degree

    def test_full_deck_of_regular_cover(self):
        cov = as_covering(wrap_morphism(6, 3))
        deck = deck_group(cov)
        qg, h_map, f_h = quotient_by_deck_subgroup(deck, range(deck.order))
        assert f_h.degree == 1
        assert is_bijective(f_h.map)

    def test_not_a_subgroup(self):
        cov = as_covering(wrap_morphism(12, 3))
        deck = deck_group(cov)
        with pytest.raises(ActionError):
            quotient_by_deck_subgroup(deck, [1])

    @pytest.mark.parametrize("deck", small_deck_groups() + (None,),
                             ids=lambda d: "order-64" if d is None
                             else "order-%d" % d.order)
    def test_matches_the_congruence_oracle(self, deck):
        deck = deck or order_64_deck_group()
        subgroups = deck_subgroups(deck)
        assert deck.order != 64 or len(subgroups) == 37
        for s in subgroups:
            got = quotient_by_deck_subgroup(deck, s)
            want = congruence_quotient_by_deck_subgroup(deck, s)
            assert got[0] == want[0] and got[0].name == want[0].name
            for cov, oracle in zip(got[1:], want[1:]):
                # the bytes ``deck-quotient --out`` writes for each map
                assert dump_json(morphism_to_obj(cov.map)) == \
                    dump_json(morphism_to_obj(oracle.map))
                # both maps are built unchecked: the oracle's and the
                # checked lift tables, with their key order
                for other in (oracle, as_covering(cov.map)):
                    TestConstructorsAgainstOracles.same_covering(cov, other)

    def test_orbit_quotient_matches_the_congruence_oracle(self):
        for name, act in free_actions().items():
            qg, cov = quotient_by_group(act)
            maps = [act.morphisms[g] for g in act.elements]
            for oracle in (congruence_orbit_quotient, direct_orbit_quotient):
                oqg, ocov = oracle(act.graph, maps)
                assert qg == oqg and qg.name == oqg.name, name
                assert cov.map == ocov.map, name
                assert cov.lifts == ocov.lifts, name
                assert cov.degree == ocov.degree == len(maps), name

    def test_matches_quotient_by_deck_action(self):
        for deck in small_deck_groups():
            cov = deck.covering
            for s in deck_subgroups(deck):
                qg, h_map, f_h = quotient_by_deck_subgroup(deck, s)
                oqg, ocov = quotient_by_group(deck_action(deck, s))
                assert qg == oqg and h_map.map == ocov.map
                assert compose(f_h.map, h_map.map) == cov.map

    def test_s3_cover_nonnormal_subgroup_gives_irregular_intermediate(self):
        _, _, cov = cover_from_subgroup(pc.bouquet_graph(2), "v0", s3_regular_rep())
        deck = deck_group(cov)
        assert deck.order == 6
        small = [s for s in deck_subgroups(deck)
                 if len(s) == 2 and not is_normal_deck_subgroup(deck, s)]
        assert small
        _, _, f_h = quotient_by_deck_subgroup(deck, small[0])
        assert not is_regular(f_h).regular


class TestTransportBasepoint:
    def test_empty_word(self):
        rep = PermRep(2, 3, [(1, 0, 2), (0, 2, 1)])
        assert rep_equivalent(transport_basepoint(rep, FreeWord()), rep)

    def test_normal_invariant(self):
        rep = pc.translation_kernel_rep(2, 2)
        for w in (X, X * FreeWord.generator(1)):
            assert rep_equivalent(transport_basepoint(rep, w), rep)

    def test_nonnormal_moves(self):
        rep = PermRep(2, 3, [(1, 0, 2), (0, 2, 1)])
        assert not rep_equivalent(transport_basepoint(rep, X), rep)

    def test_transport_is_conjugation(self):
        rep = PermRep(2, 3, [(1, 0, 2), (0, 2, 1)])
        for w in (X, X * FreeWord.generator(1), FreeWord.generator(1).inverse()):
            moved = transport_basepoint(rep, w)
            assert moved.degree == rep.degree
            for u in rep.schreier_generators():
                assert moved.act(0, w.inverse() * u * w) == 0


class TestEulerMultiplicativity:
    def test_across_covers(self):
        cases = []
        for base in (pc.bouquet_graph(2), pc.cycle_graph(3), theta_graph(),
                     cycle_with_loop(), cycle_with_parallel()):
            p = pi1_data(base, "v0")
            for h in low_index_reps(p.rank, 3)[:8]:
                cases.append((base, p, h))
        for base, p, h in cases:
            cover, _, cov = cover_from_subgroup(base, "v0", h)
            cover_rank = cover.edge_count() - len(cover.vertices) + 1
            assert cover_rank - 1 == cov.degree * (p.rank - 1)
