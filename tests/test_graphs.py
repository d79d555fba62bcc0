import random
import tracemalloc

import pytest

import procover as pc
from procover import (
    Congruence,
    CongruenceError,
    FiniteGraph,
    GraphError,
    GraphMorphism,
    InducedMapError,
    compose,
    induced_quotient_map,
    kernel_congruence,
    quotient,
    validate_graph,
)
from procover.freegroup import NotTransitiveError
from helpers import (
    b2_covers,
    checked_kernel_congruence,
    cyclic_family,
    deck_elements,
    free_actions,
    fresh_components,
    is_bijective,
    path_graph,
    queued_spanning_tree,
    record_spanning_trees,
    rotation,
    small_deck_groups,
    sorted_item_key,
    table_quotient,
    two_cycles,
    wrap_morphism,
)


def antipodal_congruence(c6):
    vcls = [["v%d" % i, "v%d" % (i + 3)] for i in range(3)]
    dcls = [["e%d%s" % (i, s), "e%d%s" % (i + 3, s)]
            for i in range(3) for s in "+-"]
    return Congruence(c6, vcls, dcls)


class TestValidate:
    def test_cycle_is_valid(self):
        assert validate_graph(pc.cycle_graph(3)) == []

    def test_fixed_dart(self):
        g = FiniteGraph(["v"], ["d"], {"d": "v"}, {"d": "d"})
        kinds = [v["kind"] for v in validate_graph(g)]
        assert "fixed-dart" in kinds

    def test_broken_involution(self):
        g = FiniteGraph(["v"], ["a", "b", "c", "d"], dict.fromkeys("abcd", "v"),
                        {"a": "b", "b": "c", "c": "d", "d": "a"})
        kinds = {v["kind"] for v in validate_graph(g)}
        assert kinds == {"involution"}

    def test_dangling_incidence(self):
        g = FiniteGraph(["v"], ["a", "b"], {"a": "v", "b": "w"},
                        {"a": "b", "b": "a"})
        assert [v["kind"] for v in validate_graph(g)] == ["dangling-incidence"]

    def test_totality_enforced_at_construction(self):
        with pytest.raises(GraphError):
            FiniteGraph(["v"], ["a", "b"], {"a": "v"}, {"a": "b", "b": "a"})


class TestConnectivity:
    def test_cycle(self):
        assert pc.is_connected(pc.cycle_graph(3))

    def test_disjoint_union(self):
        g = two_cycles(3)
        assert not pc.is_connected(g)
        assert len(pc.components(g)) == 2

    def test_single_vertex(self):
        g = FiniteGraph(["v"], [], {}, {})
        assert pc.is_connected(g)

    def test_dangling_source_is_an_unknown_vertex(self):
        # construction admits damaged data; the walk reaches "zz" as the
        # target of "d+" and finds no star there
        g = FiniteGraph(["a"], ["d+", "d-"], {"d+": "a", "d-": "zz"},
                        {"d+": "d-", "d-": "d+"})
        with pytest.raises(GraphError, match="^unknown vertex 'zz'$"):
            pc.components(g)
        with pytest.raises(GraphError, match="^unknown vertex 'zz'$"):
            pc.is_connected(g)


class TestSpanningTree:
    def test_cycle(self):
        t = pc.spanning_tree(pc.cycle_graph(3), "v0")
        assert len(t.tree_darts) // 2 == 2

    def test_bouquet(self):
        t = pc.spanning_tree(pc.bouquet_graph(2), "v0")
        assert not t.tree_darts

    def test_path_all_tree(self):
        g = path_graph(3)
        t = pc.spanning_tree(g, "v0")
        assert t.tree_darts == frozenset(g.darts)

    def test_deterministic(self):
        g = pc.cycle_graph(6)
        t1 = pc.spanning_tree(g, "v0")
        t2 = pc.spanning_tree(g, "v0")
        assert t1.tree_darts == t2.tree_darts
        assert t1.parent_dart == t2.parent_dart

    def test_errors(self):
        with pytest.raises(GraphError):
            pc.spanning_tree(pc.cycle_graph(3), "nope")
        with pytest.raises(GraphError):
            pc.spanning_tree(two_cycles(3), "a0")

    def test_matches_the_queued_search(self):
        """The tree, its parent darts in breadth-first order and the errors
        are those of the ``deque`` search it replaced, from every root of
        seeded random multigraphs (loops, parallel edges, disconnected
        ones, edges to an undeclared vertex) and of the B2 covers."""
        rng = random.Random(5)
        graphs = [cov.domain for _h, _a, cov in b2_covers()]
        for _ in range(60):
            n = rng.randint(1, 7)
            ends = ["v%d" % i for i in range(n)] + ["ghost"] * rng.randint(0, 1)
            edges = [("e%d" % i, rng.choice(ends), rng.choice(ends))
                     for i in range(rng.randint(0, 10))]
            graphs.append(pc.FiniteGraph.from_edges(ends[:n], edges))
        outcomes = []
        for g in graphs:
            for root in g.vertices + ("nope",):
                got = []
                for build in (pc.spanning_tree, queued_spanning_tree):
                    try:
                        t = build(g, root)
                    except GraphError as exc:
                        got.append(str(exc))
                    else:
                        got.append((list(t.parent_dart.items()), t.tree_darts))
                assert got[0] == got[1]
                outcomes.append(type(got[0]))
        assert outcomes.count(str) > 100 and outcomes.count(tuple) > 100

    def test_path_from_root(self):
        g = pc.cycle_graph(6)
        t = pc.spanning_tree(g, "v0")
        path = t.path_from_root("v3")
        assert g.src[path[0]] == "v0"
        assert g.target(path[-1]) == "v3"
        for a, b in zip(path, path[1:]):
            assert g.target(a) == g.src[b]


class TestPi1DataAtAKeptBasepoint:
    def test_a_second_call_builds_nothing_that_grows_with_the_graph(
            self, monkeypatch):
        """At a kept basepoint ``pi1_data`` pairs the graph with the kept
        basis, tree darts, parent darts and letter table, copying none of
        them and building no tree: on a cover of degree 1024 of the
        bouquet (2048 edges, rank 1025) the call allocates under 2 KiB,
        where one copy of the parent darts alone takes tens of KiB.
        Coordinates with any other basis get their own letter table."""
        cover = pc.cover_from_subgroup(pc.bouquet_graph(2), "v0",
                                       pc.translation_kernel_rep(2, 32))[0]
        base = cover.vertices[0]
        first = pc.pi1_data(cover, base)
        assert first.rank == 1025
        trees = record_spanning_trees(monkeypatch)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            again = pc.pi1_data(cover, base)
            grown = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert grown < 2048 and trees == []
        assert again.basis_darts is first.basis_darts
        assert again.tree.tree_darts is first.tree.tree_darts
        assert again.tree.parent_dart is first.tree.parent_dart
        assert again._letter is first._letter
        assert len(first._letter) == 2 * first.rank
        other = pc.Pi1Data(cover, base, first.tree, list(first.basis_darts))
        assert other._letter == first._letter and other._letter is not first._letter
        assert [other.letter(d) for d in cover.darts] == \
            [first.letter(d) for d in cover.darts]


class TestQuotient:
    def test_c6_antipodal_gives_c3(self):
        c6 = pc.cycle_graph(6)
        qg, proj = quotient(c6, antipodal_congruence(c6))
        assert len(qg.vertices) == 3
        assert len(qg.darts) == 6
        assert pc.is_connected(qg)
        assert all(len(qg.star(v)) == 2 for v in qg.vertices)
        assert proj.is_surjective()
        assert kernel_congruence(proj) == antipodal_congruence(c6)

    def test_diagonal_is_identity(self):
        c3 = pc.cycle_graph(3)
        qg, proj = quotient(c3, Congruence.diagonal(c3))
        assert qg == c3
        assert proj == GraphMorphism.identity(c3)

    def test_bouquet_loops_identified(self):
        b2 = pc.bouquet_graph(2)
        r = Congruence(b2, dart_classes=[["e0+", "e1+"], ["e0-", "e1-"]])
        qg, proj = quotient(b2, r)
        assert len(qg.vertices) == 1
        assert qg.edge_count() == 1

    def test_wrong_graph(self):
        with pytest.raises(GraphError):
            quotient(pc.cycle_graph(3), Congruence.diagonal(pc.cycle_graph(4)))

    def test_diagonal_is_the_graph_itself(self):
        """The quotient by the diagonal is the graph itself, with the
        identity as its projection, and so shares what the graph keeps.
        Its tables, name and maps are those of the full build from the
        class tables (:func:`table_quotient`), on seeded random multigraphs
        (loops, parallel edges, disconnected ones) and on the graphs of the
        kernel tests, for the diagonal built trusted, checked and from
        given singleton classes.  The kernels of the kernel tests, diagonal
        exactly for the injective maps, agree with the full build too, and
        every other one gets a new graph."""
        rng = random.Random(33)
        graphs = {g for f in kernel_test_morphisms() for g in (f.domain, f.codomain)}
        for _ in range(40):
            vertices = ["v%d" % i for i in range(rng.randint(1, 7))]
            edges = [("e%d" % i, rng.choice(vertices), rng.choice(vertices))
                     for i in range(rng.randint(0, 10))]
            graphs.add(FiniteGraph.from_edges(vertices, edges))
        assert len(graphs) > 60
        kernels = [(f.domain, kernel_congruence(f)) for f in kernel_test_morphisms()]
        shared = 0
        for g, r in [(g, r) for g in graphs
                     for r in (Congruence.diagonal(g), Congruence(g),
                               Congruence(g, [[v] for v in g.vertices],
                                          [[d] for d in g.darts]))] + kernels:
            kept = pc.pi1_data(g, g.vertices[0]) if pc.is_connected(g) else None
            qg, proj = quotient(g, r)
            want, want_proj = table_quotient(g, r)
            assert (qg._key, qg.name) == (want._key, want.name)
            assert (proj.vmap, proj.dmap) == (want_proj.vmap, want_proj.dmap)
            assert proj.domain is g and proj.codomain is qg
            assert (qg is g) == (r == Congruence(g))
            if qg is g and kept is not None:
                again = pc.pi1_data(qg, g.vertices[0])
                assert again.basis_darts is kept.basis_darts
                shared += 1
        assert shared > 60
        assert 0 < sum(quotient(g, r)[0] is g for g, r in kernels) < len(kernels)


class TestCongruenceValidation:
    def test_incompatible_sources(self):
        c6 = pc.cycle_graph(6)
        with pytest.raises(CongruenceError):
            Congruence(c6, dart_classes=[["e0+", "e1+"]])

    def test_dart_merged_with_inverse(self):
        b1 = pc.bouquet_graph(1)
        with pytest.raises(CongruenceError) as err:
            Congruence(b1, dart_classes=[["e0+", "e0-"]])
        assert err.value.witness is not None

    def test_overlapping_classes(self):
        c3 = pc.cycle_graph(3)
        with pytest.raises(CongruenceError):
            Congruence(c3, vertex_classes=[["v0", "v1"], ["v1", "v2"]])

    def test_unknown_element_is_the_witness(self):
        with pytest.raises(CongruenceError) as err:
            Congruence(pc.cycle_graph(3), vertex_classes=[["v0", "w9"]])
        assert err.value.witness == "w9"
        assert err.value.details() == {
            "error": "unknown vertex 'w9' in a class", "witness": ["w9"]}


class TestVerdictError:
    @pytest.mark.parametrize("witness, rendered", [
        (None, None), ("v0", ["v0"]), (3, ["3"]), ((0,), ["0"]),
        (("e0+", "e1-"), ["e0+", "e1-"]), ([1, "a"], ["1", "a"]), ((), []),
        (pc.FreeWord([(0, 1), (1, -1)]), ["x0 x1^-1"])])
    def test_details_render_the_witness(self, witness, rendered):
        details = pc.VerdictError("no", witness=witness).details()
        expected = {"error": "no"}
        if rendered is not None:
            expected["witness"] = rendered
        assert details == expected
        assert list(details) == list(expected)

    def test_every_negative_verdict_error_is_one(self):
        verdicts = {pc.CongruenceError: "not a congruence",
                    pc.InducedMapError: "no induced map",
                    pc.NotACoveringError: "not a covering",
                    pc.LiftObstruction: "obstruction",
                    pc.ActionError: "negative",
                    pc.TowerError: "negative",
                    pc.CompatibilityError: "incompatible",
                    NotTransitiveError: "not transitive"}
        for cls, verdict in verdicts.items():
            assert issubclass(cls, pc.VerdictError)
            assert issubclass(cls, ValueError)
            assert cls.verdict == verdict


class TestKernel:
    def test_wrap_kernel_is_antipodal(self):
        f = wrap_morphism(6, 3)
        assert kernel_congruence(f) == antipodal_congruence(f.domain)

    def test_identity_kernel_is_diagonal(self):
        c3 = pc.cycle_graph(3)
        assert kernel_congruence(GraphMorphism.identity(c3)) == \
            Congruence.diagonal(c3)

    def test_component_collapse(self):
        g = two_cycles(3)
        c3 = pc.cycle_graph(3)
        vmap = {}
        dmap = {}
        for i in range(3):
            vmap["a%d" % i] = vmap["b%d" % i] = "v%d" % i
            for s in "+-":
                dmap["ea%d%s" % (i, s)] = dmap["eb%d%s" % (i, s)] = "e%d%s" % (i, s)
        f = GraphMorphism(g, c3, vmap, dmap)
        r = kernel_congruence(f)
        assert all(len(c) == 2 for c in r.vertex_classes)
        assert all(len(c) == 2 for c in r.dart_classes)


def fixed_dart_fold():
    """A loop folded onto a dart that is its own inverse: a morphism whose
    kernel merges the loop's darts with each other."""
    g = FiniteGraph.from_edges(["x", "y"], [("a", "x", "y"), ("b", "y", "y")])
    h = FiniteGraph(["u", "w"], ["a+", "a-", "f"],
                    {"a+": "u", "a-": "w", "f": "w"},
                    {"a+": "a-", "a-": "a+", "f": "f"})
    return GraphMorphism(g, h, {"x": "u", "y": "w"},
                         {"a+": "a+", "a-": "a-", "b+": "f", "b-": "f"})


def kernel_test_morphisms():
    """The morphisms of the graph and covering tests: wraps, identities,
    rotations, a component collapse, cover maps, deck elements, orbit maps
    and lifts."""
    ms = [wrap_morphism(n, m) for n, m in ((6, 3), (6, 2), (12, 6), (12, 4),
                                            (12, 3), (3, 3), (8, 2))]
    ms += [GraphMorphism.identity(g) for g in (
        pc.cycle_graph(3), pc.bouquet_graph(2), two_cycles(3), path_graph(4),
        FiniteGraph([], [], {}, {}))]
    ms += [rotation(6, k) for k in range(6)]
    c3, g = pc.cycle_graph(3), two_cycles(3)
    vmap, dmap = {}, {}
    for i in range(3):
        vmap["a%d" % i] = vmap["b%d" % i] = "v%d" % i
        for s in "+-":
            dmap["ea%d%s" % (i, s)] = dmap["eb%d%s" % (i, s)] = "e%d%s" % (i, s)
    ms.append(GraphMorphism(g, c3, vmap, dmap))
    ms += [cov.map for _, _, cov in b2_covers()]
    ms += [cov.map for cov in cyclic_family()]
    for deck in small_deck_groups():
        ms += deck_elements(deck)
    for act in free_actions().values():
        ms.append(pc.quotient_by_group(act)[1].map)
    cov = pc.as_covering(wrap_morphism(6, 3))
    ms.append(pc.lift(wrap_morphism(12, 3), cov, "v0", "v3"))
    return ms


class TestKernelOracle:
    """``kernel_congruence`` takes the fibers of a validated morphism as a
    congruence without re-checking their compatibility; the checked
    construction it replaced gives an equal congruence on every morphism
    of the graph and covering tests."""

    def test_equal_to_the_checked_construction(self):
        ms = kernel_test_morphisms()
        assert len(ms) > 100
        for f in ms:
            r, want = kernel_congruence(f), checked_kernel_congruence(f)
            assert r == want
            assert (r._vrep, r._drep) == (want._vrep, want._drep)
            assert quotient(f.domain, r) == quotient(f.domain, want)

    def test_fixed_dart_codomain_is_rejected_with_the_same_witness(self):
        f = fixed_dart_fold()
        for kernel in (kernel_congruence, checked_kernel_congruence):
            with pytest.raises(CongruenceError) as err:
                kernel(f)
            assert err.value.witness == ("b+", "b-")
            assert str(err.value) == "dart 'b+' is merged with its inverse"

    def test_diagonal_equals_the_checked_construction(self):
        """``Congruence.diagonal`` takes its singleton classes as a trusted
        partition; ``Congruence(g)`` checks them."""
        graphs = {g for f in kernel_test_morphisms()
                  for g in (f.domain, f.codomain)}
        assert len(graphs) > 20
        for g in graphs:
            r, want = Congruence.diagonal(g), Congruence(g)
            assert r == want
            assert (r._vrep, r._drep) == (want._vrep, want._drep)
            assert quotient(g, r) == quotient(g, want)

    def test_diagonal_of_a_fixed_dart_is_rejected_with_the_same_witness(self):
        g = fixed_dart_fold().codomain
        for diagonal in (Congruence.diagonal, Congruence):
            with pytest.raises(CongruenceError) as err:
                diagonal(g)
            assert err.value.witness == ("f", "f")
            assert str(err.value) == "dart 'f' is merged with its inverse"


class TestInducedMap:
    def test_wrap_with_antipodal_kernel_is_iso(self):
        f = wrap_morphism(6, 3)
        r = antipodal_congruence(f.domain)
        s = Congruence.diagonal(f.codomain)
        induced = induced_quotient_map(f, r, s)
        assert is_bijective(induced)

    def test_diagonal_pairs_reproduce_f(self):
        f = wrap_morphism(6, 3)
        induced = induced_quotient_map(f, Congruence.diagonal(f.domain),
                                       Congruence.diagonal(f.codomain))
        assert induced == f

    def test_witness_on_failure(self):
        f = wrap_morphism(6, 3)
        mod2 = kernel_congruence(wrap_morphism(6, 2))
        with pytest.raises(InducedMapError) as err:
            induced_quotient_map(f, mod2, Congruence.diagonal(f.codomain))
        assert err.value.witness == ("v0", "v2")
        assert str(err.value).startswith("vertices ")

    def test_graphs_are_the_quotient_graphs(self):
        """The induced map's graphs are the graphs ``quotient`` builds, for
        the diagonal pair and for the kernel of ``f`` over the diagonal."""
        for f in kernel_test_morphisms():
            diagonal = Congruence.diagonal(f.codomain)
            for r in (Congruence.diagonal(f.domain), kernel_congruence(f)):
                induced = induced_quotient_map(f, r, diagonal)
                assert induced.domain == quotient(f.domain, r)[0]
                assert induced.codomain == quotient(f.codomain, diagonal)[0]
                assert induced.domain.name == f.domain.name


class TestMorphismAlgebra:
    def test_identity_units(self):
        f = wrap_morphism(6, 3)
        assert compose(f, GraphMorphism.identity(f.domain)) == f
        assert compose(GraphMorphism.identity(f.codomain), f) == f

    def test_associativity(self):
        f = wrap_morphism(12, 6)
        g = wrap_morphism(6, 3)
        h = GraphMorphism.identity(pc.cycle_graph(3))
        assert compose(h, compose(g, f)) == compose(compose(h, g), f)

    def test_quotient_by_kernel_matches_image(self):
        # surjective wrap: quotient by its kernel is isomorphic to the image
        for f in (wrap_morphism(6, 3), wrap_morphism(12, 4)):
            induced = induced_quotient_map(
                f, kernel_congruence(f), Congruence.diagonal(f.codomain))
            assert is_bijective(induced)

    def test_morphism_validation(self):
        c3 = pc.cycle_graph(3)
        vmap = {v: v for v in c3.vertices}
        dmap = {d: d for d in c3.darts}
        dmap["e0+"] = "e1+"
        with pytest.raises(GraphError):
            GraphMorphism(c3, c3, vmap, dmap)


class TestMorphismEquality:
    """``==`` and ``hash`` against the sorted-item-tuple key morphisms used
    to build eagerly."""

    def test_insertion_order_is_irrelevant(self):
        f = wrap_morphism(12, 3)
        g = GraphMorphism(f.domain, f.codomain,
                          dict(reversed(list(f.vmap.items()))),
                          dict(reversed(list(f.dmap.items()))))
        assert list(g.vmap) != list(f.vmap)
        assert f == g and hash(f) == hash(g)
        assert sorted_item_key(f) == sorted_item_key(g)
        assert hash(f) == hash(sorted_item_key(f))

    def test_one_edge_apart(self):
        # B2 onto itself: swap the images of one loop's two darts
        b2 = pc.bouquet_graph(2)
        ident = GraphMorphism.identity(b2)
        flipped = GraphMorphism(b2, b2, dict(ident.vmap),
                                dict(ident.dmap, **{"e1+": "e1-", "e1-": "e1+"}))
        assert ident != flipped
        assert sorted_item_key(ident) != sorted_item_key(flipped)
        assert {ident, flipped, GraphMorphism.identity(b2)} == {ident, flipped}

    def test_same_maps_other_codomain(self):
        c3 = pc.cycle_graph(3)
        bigger = FiniteGraph(c3.vertices + ("w",), c3.darts, c3.src, c3.inv)
        ident = GraphMorphism.identity(c3)
        into = GraphMorphism(c3, bigger, ident.vmap, ident.dmap)
        assert sorted_item_key(into) == sorted_item_key(ident)
        assert into != ident and ident != into

    def test_agrees_with_sorted_key_on_deck_elements(self):
        pairs = 0
        for _h, _base, cov in b2_covers():
            if cov.degree < 3:
                continue
            a0 = cov.domain.vertices[0]
            maps = [rotation(6, k) for k in range(6)]
            for a in cov.vertex_fibers[cov.map.vmap[a0]]:
                try:
                    maps.append(pc.lift(cov.map, cov, a0, a))
                except pc.LiftObstruction:
                    pass
            for m in maps:
                assert hash(m) == hash(sorted_item_key(m))
                for n in maps:
                    same_graphs = (m.domain == n.domain
                                   and m.codomain == n.codomain)
                    assert (m == n) == (same_graphs and sorted_item_key(m)
                                        == sorted_item_key(n))
                    pairs += 1
        assert pairs > 1000


class TestComponentCache:
    def graphs(self):
        yield FiniteGraph([], [], {}, {})
        yield path_graph(1)
        yield pc.cycle_graph(7)
        yield two_cycles(4)
        yield FiniteGraph.from_edges(["a", "b", "c", "d", "e"],
                                     [("x", "a", "c"), ("y", "e", "e")])
        for _h, _base, cov in b2_covers():
            yield cov.domain

    def test_matches_fresh_search(self):
        for g in self.graphs():
            first = pc.components(g)
            assert first == fresh_components(g)
            assert pc.components(g) is first
            assert pc.is_connected(g) == (len(first) == 1)

    def test_equal_graphs_cache_separately(self):
        g, h = two_cycles(3), two_cycles(3)
        assert pc.components(g) == pc.components(h) == fresh_components(h)
        assert not pc.is_connected(g) and not pc.is_connected(h)
