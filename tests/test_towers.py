import contextlib
import io
import json
import math
import random

import pytest

import procover as pc
from procover import (
    CompatibilityError,
    Congruence,
    FreeWord,
    GeneratorImages,
    GraphMorphism,
    Tower,
    TowerError,
    UniversalSpec,
    as_covering,
    classify_pair,
    compose,
    deck_tower,
    induced_hom,
    kernel_good_pairs,
    limit_fiber_report,
    pi1_data,
    pi1_triviality_check,
    rep_equivalent,
    substitute,
    universal_tower,
    validate_tower,
)
from procover import cli, covering, formats, towers
from procover.covering import image_subgroup
from helpers import (
    all_pairs_triviality_oracle,
    b2_homology_spec,
    composed_square_oracle,
    composed_square_validation_oracle,
    constant_tower,
    cyclic_rep,
    factorial_spec,
    non_refining_spec,
    path_graph,
    per_pair_good_pairs_oracle,
    pro2_tower,
    record_constructions,
    record_spanning_trees,
    relabelled,
    rotation,
    scanned_deck_hom,
    theta_graph,
    three_vertex_base,
    trivial_rep,
    two_cycles,
    walked_monodromy,
    wrap_morphism,
    zigzag_tower,
)

X = FreeWord.generator(0)


class TestValidateTower:
    def test_constant_tower_valid(self):
        report = validate_tower(constant_tower(2))
        assert report.ok and not report.warnings

    def test_pro2_tower_valid(self):
        assert validate_tower(pro2_tower(2)).ok

    def test_levels_are_trusted_coverings(self, monkeypatch):
        """Every level of a ``Tower`` is a ``Covering``, so neither
        ``validate_tower`` nor ``deck_tower`` checks local bijectivity
        again; ``validate_tower_pieces``, on bare morphisms, does."""
        t = pro2_tower(3)
        pieces = ([c.map for c in t.coverings], list(t.cover_steps),
                  list(t.base_steps))
        want = deck_tower(t)

        def no_check(f):
            raise AssertionError("a level was checked again")

        monkeypatch.setattr(towers, "as_covering", no_check)
        assert validate_tower(t).ok
        got = deck_tower(t)
        assert got.orders == want.orders
        assert [s.hom for s in got.steps] == [s.hom for s in want.steps]
        with pytest.raises(AssertionError, match="checked again"):
            pc.validate_tower_pieces(*pieces)

    def test_rotated_bonding_breaks_square(self):
        t = pro2_tower(1)
        bad_phi = compose(rotation(3, 1), t.cover_steps[0])
        broken = Tower(t.coverings, [bad_phi], t.base_steps)
        report = validate_tower(broken)
        assert not report.ok
        assert report.violations[0]["kind"] == "square"
        assert "witness" in report.violations[0]

    def test_nonsurjective_bonding_warns(self):
        from helpers import two_cycles
        both = two_cycles(6)
        c3, c6 = pc.cycle_graph(3), pc.cycle_graph(6)
        vmap = {}
        dmap = {}
        for prefix in "ab":
            for i in range(6):
                vmap["%s%d" % (prefix, i)] = "v%d" % (i % 3)
                dmap["e%s%d+" % (prefix, i)] = "e%d+" % (i % 3)
                dmap["e%s%d-" % (prefix, i)] = "e%d-" % (i % 3)
        f0 = GraphMorphism(both, c3, vmap, dmap)
        into_a = GraphMorphism(
            c6, both, {"v%d" % i: "a%d" % i for i in range(6)},
            {d: "ea" + d[1:] for d in c6.darts})
        t = Tower([as_covering(f0), as_covering(wrap_morphism(6, 3))],
                  [into_a], [GraphMorphism.identity(c3)])
        report = validate_tower(t)
        assert report.ok
        assert any(w["kind"] == "bonding-not-surjective" for w in report.warnings)

    def test_shape_validation(self):
        cov = as_covering(wrap_morphism(6, 3))
        with pytest.raises(TowerError):
            Tower([cov, cov], [GraphMorphism.identity(pc.cycle_graph(3))],
                  [GraphMorphism.identity(pc.cycle_graph(3))])

    def test_basepoint_thread_checked(self):
        t = pro2_tower(1)
        with pytest.raises(TowerError):
            Tower(t.coverings, t.cover_steps, t.base_steps,
                  basepoints=["v0", "v1"])

    def test_shape_errors_name_their_witness(self):
        cov, t = as_covering(wrap_morphism(6, 3)), pro2_tower(1)
        c3, c6 = (GraphMorphism.identity(pc.cycle_graph(n)) for n in (3, 6))
        cases = [
            (([cov, cov], [], []),
             "expected 1 bonding morphisms per side", (0, 0)),
            (([cov, cov], [c3], [c3]),
             "cover step 0 does not start at level 1", (0,)),
            (([cov, cov], [wrap_morphism(6, 3)], [c3]),
             "cover step 0 does not end at level 0", (0,)),
            (([cov, cov], [c6], [c6]),
             "base step 0 does not start at level 1", (0,)),
            (([cov, cov], [c6], [wrap_morphism(3, 1)]),
             "base step 0 does not end at level 0", (0,)),
            ((t.coverings, t.cover_steps, t.base_steps, ["v0"]),
             "expected one basepoint per level", ("v0",)),
            ((t.coverings, t.cover_steps, t.base_steps, ["v0", "zz"]),
             "basepoint 'zz' is not in level 1", ("zz", 1)),
            ((t.coverings, t.cover_steps, t.base_steps, ["v0", "v1"]),
             "basepoints are not threaded at step 0", (0,)),
        ]
        for args, message, witness in cases:
            with pytest.raises(TowerError) as err:
                Tower(*args)
            assert (str(err.value), err.value.witness) == (message, witness)

    def test_empty_tower_is_not_a_verdict(self):
        with pytest.raises(ValueError) as err:
            Tower([], [], [])
        assert type(err.value) is ValueError
        assert str(err.value) == "a tower needs at least one level"

    def test_bad_level_pair_is_the_witness(self):
        t = pro2_tower(2)
        for i, j in ((0, 3), (2, 1)):
            with pytest.raises(TowerError) as err:
                t.cover_map_to(i, j)
            assert err.value.witness == (i, j)


class TestGoodPairs:
    def test_pro2_kernel_pairs_regular_good(self):
        t = pro2_tower(2)
        records = kernel_good_pairs(t, 2)
        assert [r.verdict for r in records] == ["regular_good"] * 3
        assert [r.level for r in records] == [0, 1, 2]

    def test_top_level_pair_is_diagonal(self):
        t = pro2_tower(2)
        record = kernel_good_pairs(t, 2)[-1]
        assert record == classify_pair(
            t.coverings[2].map, Congruence.diagonal(t.cover_graph(2)),
            Congruence.diagonal(t.base_graph(2)), level=2)
        assert record.verdict == "regular_good" and record.witness is None

    def test_diagonal_pair_regular_iff_cover_regular(self):
        from procover import cover_from_subgroup
        _, _, cov = cover_from_subgroup(
            pc.bouquet_graph(2), "v0", pc.PermRep(2, 3, [(1, 0, 2), (0, 2, 1)]))
        t = Tower([cov], [], [])
        record = kernel_good_pairs(t, 0)[0]
        assert record.verdict == "good"

    def test_half_pair(self):
        b2 = pc.bouquet_graph(2)
        ident = GraphMorphism.identity(b2)
        loops_merged = Congruence(
            b2, dart_classes=[["e0+", "e1+"], ["e0-", "e1-"]])
        record = classify_pair(ident, Congruence.diagonal(b2), loops_merged)
        assert record.verdict == "half"
        assert record.witness is not None

    def test_not_half_pair(self):
        f = wrap_morphism(6, 3)
        mod2 = pc.kernel_congruence(wrap_morphism(6, 2))
        record = classify_pair(f, mod2, Congruence.diagonal(f.codomain))
        assert record.verdict == "not_half"
        assert record.witness == ("v0", "v2")


class TestDeckTower:
    def test_pro2_deck_orders_and_surjections(self):
        result = deck_tower(pro2_tower(3))
        assert result.orders == [1, 2, 4, 8]
        assert all(step.surjective for step in result.steps)

    def test_constant_tower_identity_maps(self):
        result = deck_tower(constant_tower(2))
        assert result.orders == [2, 2, 2]
        for step in result.steps:
            assert step.hom == (0, 1)

    def test_homology_tower_orders(self):
        t = universal_tower(b2_homology_spec())
        result = deck_tower(t)
        assert result.orders == [1, 4, 16]
        assert all(step.surjective for step in result.steps)

    def test_irregular_level_rejected(self):
        from procover import cover_from_subgroup
        _, _, cov = cover_from_subgroup(
            pc.bouquet_graph(2), "v0", pc.PermRep(2, 3, [(1, 0, 2), (0, 2, 1)]))
        t = Tower([cov], [], [])
        with pytest.raises(TowerError):
            deck_tower(t)

    def test_nonsurjective_connecting_hom_is_recorded(self):
        # base-side quotient chains can swallow deck elements even when every
        # bonding map is surjective; the step records that honestly
        t = antipodal_c6_tower()
        assert all(m.is_surjective() for m in t.cover_steps)
        assert all(m.is_surjective() for m in t.base_steps)
        result = deck_tower(t)
        assert result.orders == [2, 2]
        assert result.steps[0].hom == (0, 0)
        assert not result.steps[0].surjective


def antipodal_c6_tower():
    """Double covers of C6 modulo the antipodal map and of C6 itself: every
    bonding map is onto, but the connecting homomorphism is trivial."""
    c6 = pc.cycle_graph(6)
    antipodal = pc.kernel_congruence(wrap_morphism(6, 3))
    return universal_tower(UniversalSpec(c6, "v0",
                                         [antipodal, Congruence.diagonal(c6)],
                                         [cyclic_rep(2), cyclic_rep(2)]))


def relabelled_c3_tower():
    """The cyclic chain of indices 1 | 2 | 6 | 12 over C3, each normal
    subgroup given with its points other than 0 shuffled."""
    rng = random.Random(3)
    c3 = pc.cycle_graph(3)
    return universal_tower(UniversalSpec(
        c3, "v0", [Congruence.diagonal(c3)] * 4,
        [relabelled(cyclic_rep(n), 0, rng) for n in (1, 2, 6, 12)]))


def twisted(t, k):
    """``t`` with each cover step followed by deck element ``k`` (mod the
    order) of the level below, so that it moves the first vertex off sheet
    0 wherever that deck group is nontrivial.  Every square still commutes;
    the basepoint thread is dropped, since the twist breaks it."""
    steps = []
    for i, phi in enumerate(t.cover_steps):
        deck = pc.deck_group(t.coverings[i])
        steps.append(compose(deck.element(k % deck.order), phi))
    return Tower(t.coverings, steps, t.base_steps)


def deck_oracle_towers():
    yield pro2_tower(3)
    yield universal_tower(b2_homology_spec())
    yield universal_tower(factorial_spec())
    yield constant_tower(2)
    yield antipodal_c6_tower()
    yield relabelled_c3_tower()


class TestDeckTowerOracle:
    """deck_tower's projections against a linear scan of full morphisms."""

    @staticmethod
    def check(t):
        result = deck_tower(t)
        assert len(result.steps) == t.top
        for i, step in enumerate(result.steps):
            assert step.hom == scanned_deck_hom(
                t.cover_steps[i], result.decks[i + 1], result.decks[i])

    def test_pro2_tower(self):
        self.check(pro2_tower(3))

    def test_homology_tower(self):
        self.check(universal_tower(b2_homology_spec()))

    def test_factorial_tower(self):
        self.check(universal_tower(factorial_spec()))

    def test_constant_tower(self):
        self.check(constant_tower(2))

    def test_antipodal_c6_tower(self):
        self.check(antipodal_c6_tower())

    def test_relabelled_c3_tower(self):
        self.check(relabelled_c3_tower())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_twisted_towers(self, k):
        for t in deck_oracle_towers():
            self.check(twisted(t, k))


class TestDeckTowerSquareOracle:
    """Every projection ``deck_tower`` accepts passes the composed check it
    replaced: ``compose(beta, phi) == compose(phi, alpha)``."""

    @staticmethod
    def check(t):
        result = deck_tower(t)
        for i, step in enumerate(result.steps):
            upper, lower = result.decks[i + 1], result.decks[i]
            for alpha, b in zip(upper.elements, step.hom):
                assert composed_square_oracle(t.cover_steps[i], alpha,
                                              lower.elements[b])

    def test_pro2_tower(self):
        self.check(pro2_tower(3))

    def test_homology_tower(self):
        self.check(universal_tower(b2_homology_spec()))

    def test_factorial_tower(self):
        self.check(universal_tower(factorial_spec()))

    def test_constant_tower(self):
        self.check(constant_tower(2))

    def test_antipodal_c6_tower(self):
        self.check(antipodal_c6_tower())

    def test_relabelled_c3_tower(self):
        self.check(relabelled_c3_tower())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_twisted_towers(self, k):
        for t in deck_oracle_towers():
            self.check(twisted(t, k))


class TestDeckTowerBuildsNoElement:
    """``deck_tower`` reads each projection off the automorphisms by unique
    lifting, so it builds no deck element, and a tower that fails
    validation is refused before any deck group is computed."""

    @pytest.fixture
    def no_elements(self, monkeypatch):
        def no_element(self, i):
            raise AssertionError("deck element %d was built" % i)

        monkeypatch.setattr(covering.DeckGroup, "element", no_element)

    @pytest.mark.parametrize("make, orders", [
        (lambda: pro2_tower(3), [1, 2, 4, 8]),
        (lambda: universal_tower(b2_homology_spec()), [1, 4, 16]),
        (lambda: universal_tower(factorial_spec()), [1, 2, 6, 24]),
    ], ids=["pro2", "homology", "factorial"])
    def test_no_element_is_built(self, no_elements, make, orders):
        result = deck_tower(make())
        assert result.orders == orders
        assert all(step.surjective for step in result.steps)

    def test_broken_square_is_refused_before_any_deck_group(self, monkeypatch):
        def no_deck_group(c):
            raise AssertionError("a deck group was computed")

        monkeypatch.setattr(towers, "deck_group", no_deck_group)
        t = zigzag_tower()
        with pytest.raises(TowerError) as err:
            deck_tower(t)
        assert err.value.witness == validate_tower(t).violations[0]
        assert err.value.witness["kind"] == "square"


class TestUniversalTower:
    def test_factorial_tower(self):
        t = universal_tower(factorial_spec())
        assert [c.degree for c in t.coverings] == [1, 2, 6, 24]
        assert [len(t.cover_graph(i).vertices) for i in range(4)] == [3, 6, 18, 72]
        assert validate_tower(t).ok
        for record in kernel_good_pairs(t, 3):
            assert record.verdict == "regular_good"

    def test_factorial_images_match_subgroups(self):
        spec = factorial_spec()
        t = universal_tower(spec)
        for i in range(4):
            p = pi1_data(t.base_graph(i), "v0")
            back = image_subgroup(t.coverings[i], t.basepoints[i], p)
            assert rep_equivalent(back, spec.normals[i])

    def test_homology_tower_valid_and_regular(self):
        t = universal_tower(b2_homology_spec())
        assert validate_tower(t).ok
        for cov in t.coverings:
            assert pc.is_regular(cov).regular

    def test_single_level_identity(self):
        c3 = pc.cycle_graph(3)
        spec = UniversalSpec(c3, "v0", [Congruence.diagonal(c3)],
                             [trivial_rep(1)])
        t = universal_tower(spec)
        assert t.top == 0
        assert t.coverings[0].degree == 1

    def test_nondiagonal_quotient_chain(self):
        c6 = pc.cycle_graph(6)
        antipodal = pc.kernel_congruence(wrap_morphism(6, 3))
        spec = UniversalSpec(c6, "v0",
                             [antipodal, Congruence.diagonal(c6)],
                             [cyclic_rep(2), cyclic_rep(2)])
        t = universal_tower(spec)
        assert validate_tower(t).ok
        assert [len(t.base_graph(i).vertices) for i in range(2)] == [3, 6]
        assert [c.degree for c in t.coverings] == [2, 2]

    def test_base_steps_match_the_induced_map_oracle(self):
        """Each base step is read off the two congruences; the construction
        it replaced, the map the identity of the base induces, is equal."""
        c6 = pc.cycle_graph(6)
        antipodal = pc.kernel_congruence(wrap_morphism(6, 3))
        for spec in (b2_homology_spec(), factorial_spec(),
                     UniversalSpec(c6, "v0", [antipodal, Congruence.diagonal(c6)],
                                   [cyclic_rep(2), cyclic_rep(2)])):
            t = universal_tower(spec)
            q, identity = spec.quotients, GraphMorphism.identity(spec.base)
            assert len(t.base_steps) == len(q) - 1
            for i, psi in enumerate(t.base_steps):
                assert psi == pc.induced_quotient_map(identity, q[i + 1], q[i])

    @pytest.mark.parametrize("case, error, witness", [
        ("vertex class", "quotient 1 does not refine quotient 0 "
         "(vertex class 'v0' splits)", ("v0", "v3")),
        ("dart class", "quotient 1 does not refine quotient 0 "
         "(dart class 'e0+' splits)", ("e0+", "e1+")),
    ])
    def test_non_refining_chain_raises(self, case, error, witness):
        spec = non_refining_spec(case)
        with pytest.raises(TowerError) as err:
            universal_tower(spec)
        assert str(err.value) == error
        assert err.value.witness == witness

    def test_incompatible_chain_raises(self):
        c3 = pc.cycle_graph(3)
        spec = UniversalSpec(c3, "v0", [Congruence.diagonal(c3)] * 2,
                             [cyclic_rep(2), cyclic_rep(3)])
        with pytest.raises(CompatibilityError) as err:
            universal_tower(spec)
        assert err.value.levels == (0, 1)
        assert err.value.witness == X ** 3

    def test_nonnormal_subgroup_rejected(self):
        b2 = pc.bouquet_graph(2)
        spec = UniversalSpec(b2, "v0", [Congruence.diagonal(b2)],
                             [pc.PermRep(2, 3, [(1, 0, 2), (0, 2, 1)])])
        with pytest.raises(TowerError) as err:
            universal_tower(spec)
        assert err.value.witness == (0,)

    def test_foreign_congruence_is_an_input_error(self):
        # the CLI cannot produce this case: its loader builds every
        # congruence on the spec's own base graph
        c3 = pc.cycle_graph(3)
        spec = UniversalSpec(c3, "v0", [Congruence.diagonal(pc.cycle_graph(6))],
                             [cyclic_rep(2)])
        with pytest.raises(ValueError) as err:
            universal_tower(spec)
        assert not isinstance(err.value, TowerError)
        assert str(err.value) == "quotient 0 is not a congruence on the base"


class TestTriviality:
    def test_pro2_two_trivial(self):
        t = pro2_tower(4)
        report = pi1_triviality_check(t, 2, all_levels=True)
        assert {row.level for row in report.rows} == set(range(t.top + 1))
        assert report.trivial
        for row in report.rows:
            if row.index == 2 and row.level < t.top:
                assert row.satisfied_at == row.level + 1

    def test_pro2_not_three_trivial(self):
        t = pro2_tower(4)
        report = pi1_triviality_check(t, 3)
        assert not report.trivial
        threes = [r for r in report.rows if r.index == 3]
        assert threes and all(r.satisfied_at is None for r in threes)

    def test_factorial_three_trivial(self):
        t = universal_tower(factorial_spec())
        report = pi1_triviality_check(t, 3)
        assert report.trivial
        base_rows = {r.index: r.satisfied_at for r in report.rows if r.level == 0}
        assert base_rows == {1: 0, 2: 1, 3: 2}

    def test_monotone_in_index_bound(self):
        t = universal_tower(factorial_spec())
        for m in (1, 2, 3):
            assert pi1_triviality_check(t, m).trivial

    def test_needs_basepoints(self):
        t = pro2_tower(1)
        bare = Tower(t.coverings, t.cover_steps, t.base_steps)
        with pytest.raises(ValueError) as err:
            pi1_triviality_check(bare, 2)
        assert not isinstance(err.value, TowerError)

    def test_default_reports_level_zero_only(self):
        t = pro2_tower(3)
        default = pi1_triviality_check(t, 3)
        full = pi1_triviality_check(t, 3, all_levels=True)
        assert {row.level for row in default.rows} == {0}
        assert default.rows == [row for row in full.rows if row.level == 0]
        assert default.trivial == full.trivial

    def test_deeper_refusal_only_with_all_levels(self):
        # level 1 of the B2 homology tower has rank 5: its index-3 search is
        # refused at a budget the rank-2 level-0 search fits in
        t = universal_tower(b2_homology_spec())
        report = pi1_triviality_check(t, 3, max_work=5000)
        assert not report.trivial
        with pytest.raises(pc.ResourceLimitError):
            pi1_triviality_check(t, 3, max_work=5000, all_levels=True)

    def test_disconnected_level_has_witness(self):
        both = two_cycles(3)
        f = GraphMorphism(both, pc.cycle_graph(3),
                          {v: "v" + v[1:] for v in both.vertices},
                          {d: "e" + d[2:] for d in both.darts})
        t = Tower([as_covering(f)], [], [], basepoints=["a0"])
        with pytest.raises(TowerError) as err:
            pi1_triviality_check(t, 2)
        assert err.value.witness == (0,)


def oracle_towers():
    yield pro2_tower(3)
    yield universal_tower(b2_homology_spec())
    yield universal_tower(factorial_spec())
    yield constant_tower(3)


def truncated_b2_homology_tower():
    """The first two levels of the B2 homology tower (ranks 2 and 5), whose
    every level can be searched to index 3 in milliseconds."""
    spec = b2_homology_spec()
    return universal_tower(UniversalSpec(spec.base, spec.basepoint,
                                         spec.quotients[:2], spec.normals[:2]))


class TestTrivialityOracle:
    """The level-0 check with monotone search and running chains against
    the all-pairs check it replaced."""

    @staticmethod
    def check(t, max_index):
        old = all_pairs_triviality_oracle(t, max_index)
        assert pi1_triviality_check(t, max_index, all_levels=True) == old
        default = pi1_triviality_check(t, max_index)
        assert default.rows == [r for r in old.rows if r.level == 0]
        assert (default.trivial, default.depth, default.max_index) == \
            (old.trivial, old.depth, old.max_index)

    @pytest.mark.parametrize("max_index", [1, 2, 3, 4])
    def test_pro2_tower(self, max_index):
        self.check(pro2_tower(3), max_index)

    @pytest.mark.parametrize("max_index", [1, 2, 3])
    def test_homology_tower(self, max_index):
        self.check(truncated_b2_homology_tower(), max_index)

    def test_full_homology_tower(self):
        # index 2 at the rank-17 top level is 131,071 subgroups; index 1 is not
        self.check(universal_tower(b2_homology_spec()), 1)

    @pytest.mark.parametrize("max_index", [1, 2, 3, 4])
    def test_factorial_tower(self, max_index):
        self.check(universal_tower(factorial_spec()), max_index)

    @pytest.mark.parametrize("max_index", [1, 2, 3])
    def test_constant_tower(self, max_index):
        self.check(constant_tower(3), max_index)


class TestGoodPairsOracle:
    """Running bonding chains against one fresh composite per level."""

    def test_against_per_pair_composites(self):
        for t in oracle_towers():
            for top in range(t.top + 1):
                assert kernel_good_pairs(t, top) == \
                    per_pair_good_pairs_oracle(t, top)


def broken_towers():
    """Tower data (level maps, cover steps, base steps) that fails
    validation in each way the report knows."""
    t = pro2_tower(3)
    fs, phis, psis = [c.map for c in t.coverings], list(t.cover_steps), \
        list(t.base_steps)
    phis[0] = compose(rotation(3, 1), phis[0])
    phis[2] = compose(rotation(12, 5), phis[2])
    yield fs, phis, psis
    # a square that commutes on vertices and fails on darts only
    b2 = pc.bouquet_graph(2)
    swap = GraphMorphism(b2, b2, {"v0": "v0"},
                         {"e0+": "e1+", "e0-": "e1-", "e1+": "e0+", "e1-": "e0-"})
    ident = GraphMorphism.identity(b2)
    yield [ident, ident], [ident], [swap]
    # a level that is not locally bijective
    p2 = path_graph(2)
    fold = GraphMorphism(p2, pc.cycle_graph(3), {"v0": "v0", "v1": "v1"},
                         {"e0+": "e0+", "e0-": "e0-"})
    yield [fold], [], []
    # a bonding map that misses half of level 0
    both = two_cycles(6)
    c3, c6 = pc.cycle_graph(3), pc.cycle_graph(6)
    f0 = GraphMorphism(both, c3, {v: "v%d" % (int(v[1:]) % 3) for v in both.vertices},
                       {d: "e%d%s" % (int(d[2:-1]) % 3, d[-1]) for d in both.darts})
    into_a = GraphMorphism(c6, both, {"v%d" % i: "a%d" % i for i in range(6)},
                           {d: "ea" + d[1:] for d in c6.darts})
    yield [f0, wrap_morphism(6, 3)], [into_a], [GraphMorphism.identity(c3)]


class TestValidationOracle:
    """Pointwise squares against the composed squares they replaced."""

    def test_valid_towers(self):
        for t in oracle_towers():
            pieces = ([c.map for c in t.coverings], list(t.cover_steps),
                      list(t.base_steps))
            report = pc.validate_tower_pieces(*pieces)
            assert report.ok
            assert report == composed_square_validation_oracle(*pieces)

    def test_broken_towers(self):
        kinds = set()
        for pieces in broken_towers():
            report = pc.validate_tower_pieces(*pieces)
            assert report == composed_square_validation_oracle(*pieces)
            kinds |= {v["kind"] for v in report.violations + report.warnings}
        assert kinds == {"square", "not-locally-bijective",
                         "bonding-not-surjective"}
        square = pc.validate_tower_pieces(*next(broken_towers()))
        assert [v["step"] for v in square.violations] == [0, 2]

    def test_dart_only_square(self):
        pieces = list(broken_towers())[1]
        report = pc.validate_tower_pieces(*pieces)
        assert report.violations == [{"kind": "square", "step": 0,
                                      "witness": "e0+", "via-cover": "e0+",
                                      "via-base": "e1+"}]

    def test_shape_mismatch_raises_like_compose(self):
        t = pro2_tower(1)
        fs = [c.map for c in t.coverings]
        for phis, psis in (([wrap_morphism(12, 6)], list(t.base_steps)),
                           (list(t.cover_steps),
                            [GraphMorphism.identity(pc.cycle_graph(6))])):
            for check in (pc.validate_tower_pieces,
                          composed_square_validation_oracle):
                with pytest.raises(pc.GraphError, match="do not compose"):
                    check(fs, phis, psis)


class TestDepthCost:
    """A depth-30 tower costs O(depth) compositions and, by default, one
    low-index search."""

    DEPTH = 30

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"compose": 0, "low_index_reps": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(towers, name, counting(name, getattr(towers, name)))
        return calls

    def test_triviality_check(self, counted):
        t = constant_tower(self.DEPTH)
        report = pi1_triviality_check(t, 2)
        assert report.trivial is False
        assert [r.satisfied_at for r in report.rows] == [0, None]
        assert counted["compose"] <= self.DEPTH
        assert counted["low_index_reps"] == 1

    def test_kernel_good_pairs(self, counted):
        t = constant_tower(self.DEPTH)
        records = kernel_good_pairs(t)
        assert len(records) == self.DEPTH + 1
        assert counted["compose"] <= 2 * self.DEPTH


class TestInducedHom:
    def test_identity(self):
        c3 = pc.cycle_graph(3)
        p = pi1_data(c3, "v0")
        hom = induced_hom(GraphMorphism.identity(c3), p, p)
        assert hom.images == (X,)

    def test_wrap_squares_generator(self):
        f = wrap_morphism(6, 3)
        hom = induced_hom(f, pi1_data(f.domain, "v0"), pi1_data(f.codomain, "v0"))
        assert hom.images[0] in (X ** 2, X ** -2)

    def test_loop_collapse(self):
        b2, b1 = pc.bouquet_graph(2), pc.bouquet_graph(1)
        f = GraphMorphism(b2, b1, {"v0": "v0"},
                          {"e0+": "e0+", "e0-": "e0-", "e1+": "e0+", "e1-": "e0-"})
        hom = induced_hom(f, pi1_data(b2, "v0"), pi1_data(b1, "v0"))
        assert hom.images == (X, X)

    def test_functorial(self):
        f = wrap_morphism(12, 6)
        g = wrap_morphism(6, 3)
        p12 = pi1_data(f.domain, "v0")
        p6 = pi1_data(f.codomain, "v0")
        p3 = pi1_data(g.codomain, "v0")
        outer = induced_hom(g, p6, p3)
        inner = induced_hom(f, p12, p6)
        direct = induced_hom(compose(g, f), p12, p3)
        composed = GeneratorImages(
            inner.source_rank, outer.target_rank,
            tuple(substitute(w, outer) for w in inner.images))
        assert direct == composed

    def test_basepoint_mismatch(self):
        f = wrap_morphism(6, 3)
        with pytest.raises(ValueError):
            induced_hom(f, pi1_data(f.domain, "v1"), pi1_data(f.codomain, "v0"))


class TestFiberReport:
    def test_pro2_fibers(self):
        report = limit_fiber_report(pro2_tower(3), "v0")
        assert report.sizes == [1, 2, 4, 8]
        assert report.dead_end_at is None
        assert all(lv.onto for lv in report.levels[1:])

    def test_constant_tower(self):
        report = limit_fiber_report(constant_tower(2), "v1")
        assert report.sizes == [2, 2, 2]

    def test_nonsurjective_bonding_reports_missing(self):
        from helpers import two_cycles
        both = two_cycles(6)
        c3, c6 = pc.cycle_graph(3), pc.cycle_graph(6)
        vmap, dmap = {}, {}
        for prefix in "ab":
            for i in range(6):
                vmap["%s%d" % (prefix, i)] = "v%d" % (i % 3)
                dmap["e%s%d+" % (prefix, i)] = "e%d+" % (i % 3)
                dmap["e%s%d-" % (prefix, i)] = "e%d-" % (i % 3)
        f0 = GraphMorphism(both, c3, vmap, dmap)
        into_a = GraphMorphism(
            c6, both, {"v%d" % i: "a%d" % i for i in range(6)},
            {d: "ea" + d[1:] for d in c6.darts})
        t = Tower([as_covering(f0), as_covering(wrap_morphism(6, 3))],
                  [into_a], [GraphMorphism.identity(c3)])
        report = limit_fiber_report(t, "v0")
        assert report.sizes == [4, 2]
        assert report.levels[1].onto is False
        assert set(report.levels[1].missing) == {"b0", "b3"}

    def test_base_thread_dead_end(self):
        from helpers import two_cycles
        both3 = two_cycles(3)
        both6 = two_cycles(6)
        vmap, dmap = {}, {}
        for prefix in "ab":
            for i in range(6):
                vmap["%s%d" % (prefix, i)] = "%s%d" % (prefix, i % 3)
                dmap["e%s%d+" % (prefix, i)] = "e%s%d+" % (prefix, i % 3)
                dmap["e%s%d-" % (prefix, i)] = "e%s%d-" % (prefix, i % 3)
        f0 = GraphMorphism(both6, both3, vmap, dmap)
        c6, c3 = pc.cycle_graph(6), pc.cycle_graph(3)
        psi = GraphMorphism(c3, both3, {"v%d" % i: "a%d" % i for i in range(3)},
                            {d: "ea" + d[1:] for d in c3.darts})
        phi = GraphMorphism(c6, both6, {"v%d" % i: "a%d" % i for i in range(6)},
                            {d: "ea" + d[1:] for d in c6.darts})
        t = Tower([as_covering(f0), as_covering(wrap_morphism(6, 3))],
                  [phi], [psi])
        report = limit_fiber_report(t, "b0")
        assert report.dead_end_at == 1
        assert len(report.levels) == 1


class TestTowerInvariants:
    def test_universal_towers_fully_checked(self):
        for spec in (factorial_spec(), b2_homology_spec()):
            t = universal_tower(spec)
            assert validate_tower(t).ok
            for record in kernel_good_pairs(t):
                assert record.verdict == "regular_good"
            result = deck_tower(t)
            assert result.orders == [n.degree for n in spec.normals]
            assert all(s.surjective for s in result.steps)


def test_a_towers_request_checks_nothing(
        monkeypatch, constructed_values_equal_the_checked_ones):
    """With the guards off, the calls of one ``towers`` benchmark request
    validate no ``GraphMorphism``, no ``FiniteGraph`` and no ``PermRep``:
    levels, base and cover steps, induced maps, identities, composites,
    every quotient graph and every coset action are all built.  Only the
    spec's base, which enters from outside, has its components walked;
    every graph derived from it carries them."""
    spec = b2_homology_spec()
    seen = record_constructions(
        monkeypatch, constructed_values_equal_the_checked_ones)
    t = universal_tower(spec)
    assert validate_tower(t).ok
    assert {r.verdict for r in kernel_good_pairs(t)} == {"regular_good"}
    assert deck_tower(t).orders == [1, 4, 16]
    assert limit_fiber_report(t, "v0").sizes == [1, 4, 16]
    pi1_triviality_check(t, 2)
    assert seen.validated == [] and seen.graphs == [] and seen.permreps == []
    assert [g is spec.base for g in seen.walks] == [True]


def test_a_universal_tower_builds_pi1_data_once_per_graph_and_basepoint(
        monkeypatch):
    """``universal_tower`` builds the fundamental-group data of each level
    once, and ``cover_from_subgroup`` reads the kept one: one spanning tree
    per (graph, basepoint), three for the three levels of the B2 chain.
    The deck groups, the good pairs and the triviality check then build
    no tree on a level base, and one on each other graph they read: the
    quotients of the good pairs and the level covers."""
    calls = record_spanning_trees(monkeypatch)
    t = universal_tower(b2_homology_spec())
    assert len(calls) == len(t.coverings) == 3
    assert all(g is c.codomain and base == "v0"
               for (g, base), c in zip(calls, t.coverings))
    assert deck_tower(t).orders == [1, 4, 16]
    assert len(calls) == 3
    kernel_good_pairs(t)
    pi1_triviality_check(t, 2)
    trees = [(id(g), base) for g, base in calls]
    assert len(set(trees)) == len(trees) > 3
    levels = {id(t.base_graph(i)) for i in range(3)}
    assert all(id(g) not in levels for g, _base in calls[3:])


def conjugate_stabilizer_deck_order(rep) -> int:
    """The number of points whose stabilizer is Stab(0), |N(H)/H|: a point
    p qualifies when the action rebased at p is canonically the action."""
    key = rep.canonical_key()
    return sum(rep.rebased(p).canonical_key() == key
               for p in range(rep.degree))


def identity_images(rank: int) -> GeneratorImages:
    """The identity of the free group of the given rank: the map that a
    diagonal quotient step induces on fundamental groups."""
    return GeneratorImages(rank, rank, tuple(map(FreeWord.generator, range(rank))))


GENERATED_BASES = (("B2", pc.bouquet_graph(2), "v0", 8),
                   ("theta", theta_graph(), "v0", 8),
                   ("C3", pc.cycle_graph(3), "v0", 12),
                   ("T2", three_vertex_base(), "b", 8))


def generated_specs(samples: int = 8):
    """Derandomized universal specs over B2, theta, C3 and the three-vertex
    base T2 at b (whose covers have their least vertex off the basepoint),
    ``samples`` per base: the diagonal quotient at every level and a chain
    of normal subgroups from ``low_index_reps(rank, d, normal_only=True)``,
    the first of index at most d / 2 and each contained in the one before
    (``pushforward_leq`` along the identity, the map a diagonal step
    induces), with its points relabelled at random and 0 fixed.  Each
    sample also gives a broken spec: the chain up to a random link, whose
    upper subgroup is not contained in the lower one.  Then the refining
    chains of :func:`refining_cycle_specs`.  Yields (name, spec, broken
    spec, broken link, power), where every base step sends each generator
    to its ``power``-th power."""
    for name, base, basepoint, max_index in GENERATED_BASES:
        rank = pc.pi1_data(base, basepoint).rank
        pool = pc.low_index_reps(rank, max_index, normal_only=True)
        identity = identity_images(rank)
        for sample in range(samples):
            rng = random.Random("%s-%d" % (name, sample))
            chain = [rng.choice([n for n in pool
                                 if 1 < n.degree <= max_index // 2])]
            for _ in range(rng.randint(1, 2)):
                inside = [n for n in pool
                          if pc.pushforward_leq(n, identity, chain[-1])]
                chain.append(rng.choice([n for n in inside
                                         if n.degree > chain[-1].degree]
                                        or inside))
            link = rng.randrange(len(chain) - 1)
            escaping = [n for n in pool
                        if not pc.pushforward_leq(n, identity, chain[link])]
            normals = [relabelled(n, 0, rng) for n in chain]
            bad = relabelled(rng.choice(escaping), 0, rng)
            diagonal = Congruence.diagonal(base)
            yield ("%s-%d" % (name, sample),
                   UniversalSpec(base, basepoint, [diagonal] * len(normals),
                                 normals),
                   UniversalSpec(base, basepoint, [diagonal] * (link + 2),
                                 normals[:link + 1] + [bad]),
                   link, 1)
    yield from refining_cycle_specs(samples)


def refining_cycle_specs(samples: int):
    """Refining chains of quotients of the cycle C4k: C4k -> C2k -> Ck, or
    two consecutive of them, each the kernel congruence of a wrap.  Each
    step wraps twice, so it sends the generator to its square (up to the
    sign the bases' orientations give).  Level i carries the index-n_i
    subgroup of Z, relabelled with 0 fixed, and the chain is compatible
    exactly when n_i divides 2 n_{i+1}; the broken spec replaces the upper
    subgroup of one link by an index ``b`` with n_link not dividing 2 b."""
    for sample in range(samples):
        rng = random.Random("C4k-%d" % sample)
        k = rng.randint(1, 3)
        base = pc.cycle_graph(4 * k)
        quotients = [pc.kernel_congruence(wrap_morphism(4 * k, k)),
                     pc.kernel_congruence(wrap_morphism(4 * k, 2 * k)),
                     Congruence.diagonal(base)]
        quotients = quotients[rng.randrange(2):][:rng.randint(2, 3)]
        links = []
        while not links:  # a link can break only where n_link exceeds 2
            indices = [rng.randint(1, 6)]
            for _ in quotients[1:]:
                step = indices[-1] // math.gcd(2, indices[-1])
                indices.append(step * rng.randint(1, 12 // step))
            links = [i for i in range(len(indices) - 1) if indices[i] > 2]
        link = rng.choice(links)
        escaping = [b for b in range(1, 13) if 2 * b % indices[link]]
        normals = [relabelled(cyclic_rep(n), 0, rng) for n in indices]
        bad = relabelled(cyclic_rep(rng.choice(escaping)), 0, rng)
        yield ("C4k-%d" % sample,
               UniversalSpec(base, "v0", quotients, normals),
               UniversalSpec(base, "v0", quotients[:link + 2],
                             normals[:link + 1] + [bad]),
               link, 2)


class TestGeneratedTowers:
    """Universal towers of generated specs against group-theoretic oracles
    that share no code path with the tower operations."""

    SPECS = tuple(generated_specs())

    def test_the_generator_is_fixed_and_varied(self):
        assert len(self.SPECS) == 40
        assert {len(spec.normals) for _n, spec, *_ in self.SPECS} == {2, 3}
        assert max(spec.normals[-1].degree for _n, spec, *_ in self.SPECS) >= 8
        # the refining chains have steps that are onto and steps that are
        # not (n_i odd or even), over each of the three cycles
        refining = [spec for _n, spec, _b, _l, power in self.SPECS if power == 2]
        assert len(refining) == 8
        assert {len(spec.base.vertices) for spec in refining} == {4, 8, 12}
        assert {len(spec.quotients) for spec in refining} == {2, 3}
        parities = {n.degree % 2 for spec in refining for n in spec.normals[:-1]}
        assert parities == {0, 1}

    @pytest.mark.parametrize("name", ["C4k-0", "C4k-1"])
    def test_the_cli_answers_as_the_library(self, tmp_path, name):
        """Two refining specs, one with no step onto, through ``tower
        universal --out`` and then ``tower deck``, ``good-pairs`` and
        ``fibers`` at every level-0 base vertex, in process: the answers
        are the library's."""
        spec = next(s[1] for s in self.SPECS if s[0] == name)
        formats.save_graph(str(tmp_path / "base.json"), spec.base)
        docs = {"format": formats.UNIVERSAL_FORMAT, "base": "base.json",
                "basepoint": spec.basepoint, "quotients": [], "normals": []}
        for i, (r, rep) in enumerate(zip(spec.quotients, spec.normals)):
            docs["quotients"].append("q%d.json" % i)
            docs["normals"].append("n%d.json" % i)
            formats.save_congruence(str(tmp_path / docs["quotients"][i]), r)
            formats.save_rep(str(tmp_path / docs["normals"][i]), rep)
        formats.save_json(str(tmp_path / "spec.json"), docs)

        def run(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["--json", *argv])
            assert code == 0
            return json.loads(out.getvalue())["details"]

        t = universal_tower(spec)
        built = run("tower", "universal", str(tmp_path / "spec.json"),
                    "--out", str(tmp_path / "tower"))
        assert built["degrees"] == [c.degree for c in t.coverings]
        assert built["basepoints"] == list(t.basepoints)
        manifest = built["written"][0]
        result = deck_tower(t)
        assert not all(s.surjective for s in result.steps)
        assert run("tower", "deck", manifest) == {
            "orders": result.orders,
            "steps": [{"hom": list(s.hom), "surjective": s.surjective}
                      for s in result.steps]}
        assert run("tower", "good-pairs", manifest)["pairs"] == [
            {"level": r.level, "verdict": r.verdict}
            for r in kernel_good_pairs(t)]
        for v in t.base_graph(0).vertices:
            report = limit_fiber_report(t, v)
            assert run("tower", "fibers", manifest, "--vertex", v)["levels"] == [
                {"level": lv.level, "vertex": lv.vertex, "size": lv.size,
                 "onto": lv.onto, "missing": list(lv.missing)}
                for lv in report.levels]

    @pytest.mark.parametrize("name, spec, broken, link, power", SPECS,
                             ids=[s[0] for s in SPECS])
    def test_tower_against_the_oracles(self, name, spec, broken, link, power):
        t = universal_tower(spec)
        degrees = [n.degree for n in spec.normals]
        # a step that squares the generator maps Z/n_{i+1} onto the subgroup
        # of order n_i / gcd(2, n_i) of Z/n_i; a diagonal step (power 1) is
        # onto whatever the group
        images = [n // math.gcd(power, n) for n in degrees]
        identity = GraphMorphism.identity(spec.base)
        for i, step in enumerate(t.base_steps):
            assert step == pc.induced_quotient_map(
                identity, spec.quotients[i + 1], spec.quotients[i])
        for i, (cov, normal) in enumerate(zip(t.coverings, spec.normals)):
            # degree [F : N_i], and regular: the monodromy walked through a
            # checked lift table has a deck group as large as the fiber
            assert cov.degree == normal.degree
            # the sheet rows are taken at the first vertex, which lies
            # over a on T2, with that vertex in sheet 0
            a0 = cov.domain.vertices[0]
            rows = cov._sheets[0]
            assert next(iter(rows)) == cov.map.vmap[a0] and \
                rows[cov.map.vmap[a0]][0] == a0
            p = pi1_data(t.base_graph(i),
                         spec.quotients[i].vertex_rep(spec.basepoint))
            image = walked_monodromy(as_covering(cov.map), t.basepoints[i], p)
            assert image.canonical_key() == normal.canonical_key()
            assert conjugate_stabilizer_deck_order(image) == cov.degree
        result = deck_tower(t)
        assert result.orders == degrees
        for i, step in enumerate(result.steps):
            # a homomorphism onto a subgroup of order images[i], so each
            # image has deg(i+1) / images[i] preimages
            assert step.surjective == (images[i] == degrees[i])
            assert len(set(step.hom)) == images[i]
            assert all(step.hom.count(a) == degrees[i + 1] // images[i]
                       for a in step.hom)
        assert [r.verdict for r in kernel_good_pairs(t)] == \
            ["regular_good"] * len(degrees)
        if name.startswith("T2"):
            # the triviality rows against the check over every pair of
            # levels; a top level of degree 8 has 2^9 index-2 rows, so the
            # same over B2 and theta would cost about half a second more
            rows = all_pairs_triviality_oracle(t, 2).rows
            assert pi1_triviality_check(t, 2).rows == \
                [row for row in rows if row.level == 0]
            assert pi1_triviality_check(t, 2, all_levels=True).rows == rows
        # a thread over every base vertex meets fibers of size deg(i), each
        # covering images[i - 1] points of the one below
        for v in t.base_graph(0).vertices:
            report = limit_fiber_report(t, v)
            assert report.sizes == degrees and report.dead_end_at is None
            for lv in report.levels[1:]:
                below = lv.level - 1
                assert len(lv.missing) == degrees[below] - images[below]
                assert lv.onto == (not lv.missing)
        with pytest.raises(CompatibilityError) as err:
            universal_tower(broken)
        assert err.value.levels == (link, link + 1)
        upper, lower = broken.normals[link + 1], broken.normals[link]
        w = err.value.witness
        if power == 1:
            assert upper.act(0, w) == 0
            assert lower.act(0, substitute(w, identity_images(upper.rank))) != 0
        else:
            # x^e lies in the index-n subgroup of the upper level, and its
            # image x^(2e) outside the lower level's
            e = sum(sign for _k, sign in w.letters)
            assert e % upper.degree == 0 and power * e % lower.degree != 0
