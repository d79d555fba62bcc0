"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every comparison is exact; there are no tolerances anywhere.
"""

import functools
import io
import contextlib
import random

import procover as pc
from procover import (
    LiftObstruction,
    PermRep,
    action_deck_indices,
    compose,
    cover_from_subgroup,
    deck_group,
    image_subgroup,
    is_regular,
    kernel_good_pairs,
    lift,
    low_index_reps,
    pi1_data,
    pi1_triviality_check,
    quotient_by_deck_subgroup,
    quotient_by_group,
    rep_equivalent,
    subgroup_leq,
    universal_tower,
    validate_tower,
)
from helpers import (
    action_deck_isomorphism,
    b2_covers,
    b2_homology_spec,
    brute_force_canonical_keys,
    cycle_with_loop,
    cycle_with_parallel,
    cyclic_family,
    cyclic_rep,
    deck_action,
    deck_elements,
    deck_subgroups,
    factorial_spec,
    is_normal_deck_subgroup,
    rank2_reps,
    rotation_action,
    s3_regular_rep,
    theta_graph,
    wrap_morphism,
)

EXPECTED_F2_COUNTS = {1: 1, 2: 3, 3: 13, 4: 71}


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print("criterion %d (%s): FAIL" % (number, label))
                raise
            print("criterion %d (%s): PASS" % (number, label))
        return run
    return decorate


@criterion(1, "subgroup/cover round trip over the two-loop bouquet")
def test_criterion_1():
    # enumeration vs the brute-force tuple oracle, in count and in content
    by_degree = {}
    for rep in rank2_reps():
        by_degree.setdefault(rep.degree, set()).add(rep.canonical_key())
    counts = {n: len(keys) for n, keys in by_degree.items()}
    assert counts == EXPECTED_F2_COUNTS
    for n in range(1, 5):
        assert by_degree[n] == brute_force_canonical_keys(2, n)
    # monodromy of the built cover recovers every subgroup exactly
    p = pi1_data(pc.bouquet_graph(2), "v0")
    for h, base, cov in b2_covers():
        assert rep_equivalent(image_subgroup(cov, base, p), h)


@criterion(2, "lift existence coincides with subgroup containment")
def test_criterion_2():
    rng = random.Random(2024)
    bases = [pc.bouquet_graph(1), pc.bouquet_graph(2), pc.bouquet_graph(3),
             pc.cycle_graph(3), theta_graph(), cycle_with_loop(),
             cycle_with_parallel()]
    pool = []
    for base in bases:
        p = pi1_data(base, "v0")
        assert len(base.vertices) <= 3 and p.rank <= 3
        reps = low_index_reps(p.rank, 4)
        covers = []
        for h in reps:
            if len(covers) >= 40:
                break
            covers.append(cover_from_subgroup(base, "v0", h))
        pool.append((p, covers))
    trials = 0
    agreements = 0
    while trials < 500:
        p, covers = pool[rng.randrange(len(pool))]
        up, up_base, up_cov = covers[rng.randrange(len(covers))]
        down, down_base, down_cov = covers[rng.randrange(len(covers))]
        contained = subgroup_leq(image_subgroup(up_cov, up_base, p),
                                 image_subgroup(down_cov, down_base, p))
        try:
            h = lift(up_cov.map, down_cov, up_base, down_base)
            lifted = True
            assert compose(down_cov.map, h) == up_cov.map
        except LiftObstruction as obs:
            lifted = False
            assert obs.witness
        assert lifted == contained
        trials += 1
        agreements += 1
    assert agreements == trials >= 500


@criterion(3, "regularity: deck order, normality, fiber transitivity agree")
def test_criterion_3():
    seen = 0
    for _h, _base, cov in b2_covers():
        report = is_regular(cov)  # raises if the three verdicts disagree
        assert report.regular == (report.deck_order == report.degree)
        assert report.regular == report.image_normal == report.fiber_transitive
        deck = deck_group(cov)
        for h in deck_elements(deck)[1:]:
            assert all(h.vmap[v] != v for v in cov.domain.vertices)
            assert all(h.dmap[d] != d for d in cov.domain.darts)
        seen += 1
    for cov in cyclic_family():
        report = is_regular(cov)
        assert report.regular and report.deck_order == report.degree
        deck = deck_group(cov)
        for h in deck_elements(deck)[1:]:
            assert all(h.vmap[v] != v for v in cov.domain.vertices)
        seen += 1
    assert seen == len(b2_covers()) + 8


@criterion(4, "orbit maps of free actions are regular coverings")
def test_criterion_4():
    actions = []
    for m in range(2, 9):
        actions.append(rotation_action(2 * m, 2))
    for base, rep in ((pc.bouquet_graph(2), pc.translation_kernel_rep(2, 2)),
                      (pc.bouquet_graph(3), pc.translation_kernel_rep(3, 2)),
                      (pc.bouquet_graph(2), s3_regular_rep())):
        _, _, cov = cover_from_subgroup(base, "v0", rep)
        deck = deck_group(cov)
        actions.append(deck_action(deck, range(deck.order)))
    for act in actions:
        assert len(act.elements) <= 8
        assert len(act.graph.vertices) <= 16
        assert act.free_violation() is None
        qg, cov = quotient_by_group(act)
        assert cov.degree == len(act.elements)
        report = is_regular(cov)
        assert report.regular
        mapping = action_deck_isomorphism(act, deck_group(cov))
        assert sorted(mapping.values()) == list(range(len(act.elements)))
        assert action_deck_indices(act, cov) == mapping


@criterion(5, "intermediate covers factor through every deck subgroup")
def test_criterion_5():
    # cyclic tower cover: degree eight over the triangle
    _, _, cov = cover_from_subgroup(pc.cycle_graph(3), "v0", cyclic_rep(8))
    assert len(cov.domain.vertices) == 24
    deck = deck_group(cov)
    assert deck.order == 8
    subgroups = deck_subgroups(deck)
    assert sorted(len(s) for s in subgroups) == [1, 2, 4, 8]
    for sub in subgroups:
        qg, h_map, f_h = quotient_by_deck_subgroup(deck, sub)
        assert h_map.degree == len(sub)
        assert f_h.degree * h_map.degree == cov.degree
        assert compose(f_h.map, h_map.map) == cov.map
        assert is_regular(f_h).regular  # abelian deck group
    # nonabelian deck: one intermediate cover must come out irregular
    _, _, s3cov = cover_from_subgroup(pc.bouquet_graph(2), "v0", s3_regular_rep())
    s3deck = deck_group(s3cov)
    assert s3deck.order == 6
    nonnormal = [s for s in deck_subgroups(s3deck)
                 if not is_normal_deck_subgroup(s3deck, s)]
    assert nonnormal
    found_irregular = False
    for sub in nonnormal:
        qg, h_map, f_h = quotient_by_deck_subgroup(s3deck, sub)
        assert compose(f_h.map, h_map.map) == s3cov.map
        if not is_regular(f_h).regular:
            found_irregular = True
    assert found_irregular


@criterion(6, "universal towers: validity, good pairs, images, triviality")
def test_criterion_6():
    fact_spec = factorial_spec()
    fact = universal_tower(fact_spec)
    homology_spec = b2_homology_spec()
    homology = universal_tower(homology_spec)
    for spec, tower in ((fact_spec, fact), (homology_spec, homology)):
        assert validate_tower(tower).ok
        for record in kernel_good_pairs(tower):
            assert record.verdict == "regular_good"
        for i, cov in enumerate(tower.coverings):
            assert is_regular(cov).regular
            p = pi1_data(tower.base_graph(i), cov.map.vmap[tower.basepoints[i]])
            back = image_subgroup(cov, tower.basepoints[i], p)
            assert rep_equivalent(back, spec.normals[i])
    # factorial chain: C3, C6, C18, C72 and trivial to index three at depth 3
    assert [len(fact.cover_graph(i).vertices) for i in range(4)] == [3, 6, 18, 72]
    fact_report = pi1_triviality_check(fact, 3)
    assert fact_report.depth == 3 and fact_report.trivial
    assert all(row.satisfied_at is not None and row.satisfied_at <= 3
               for row in fact_report.rows if row.level == 0)
    # the doubling tower is trivial to index two but not to index three
    from helpers import pro2_tower
    doubling = pro2_tower(4)
    assert pi1_triviality_check(doubling, 2).trivial
    three_report = pi1_triviality_check(doubling, 3)
    assert not three_report.trivial
    index_three_rows = [r for r in three_report.rows if r.index == 3]
    assert index_three_rows
    assert all(r.satisfied_at is None for r in index_three_rows)


@criterion(7, "Euler multiplicativity and the subgroup rank law")
def test_criterion_7():
    suites = []
    for _h, _base, cov in b2_covers():
        suites.append(cov)
    suites.extend(cyclic_family())
    for spec in (factorial_spec(), b2_homology_spec()):
        suites.extend(universal_tower(spec).coverings)
    _, _, s3cov = cover_from_subgroup(pc.bouquet_graph(2), "v0", s3_regular_rep())
    suites.append(s3cov)
    for cov in suites:
        dom, cod = cov.domain, cov.codomain
        dom_rank = dom.edge_count() - len(dom.vertices) + 1
        cod_rank = cod.edge_count() - len(cod.vertices) + 1
        assert dom_rank - 1 == cov.degree * (cod_rank - 1)
    # bouquet bases: Schreier generator count equals 1 + n(r-1) and matches
    # the cover's count of non-tree edges
    for rank in (2, 3):
        bouquet = pc.bouquet_graph(rank)
        for h in low_index_reps(rank, 3):
            expected = 1 + h.degree * (rank - 1)
            assert len(h.schreier_generators()) == expected
            cover, base, _cov = cover_from_subgroup(bouquet, "v0", h)
            cover_rank = cover.edge_count() - len(cover.vertices) + 1
            assert cover_rank == expected


@criterion(8, "command-line conformance and exit-code discipline")
def test_criterion_8(tmp_path=None):
    import os
    import tempfile
    from procover import formats
    from procover.cli import main

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        return buf.getvalue(), code

    here = os.path.join(os.path.dirname(__file__), "golden")

    def golden(name):
        with open(os.path.join(here, name), encoding="utf-8") as fh:
            return fh.read()

    with tempfile.TemporaryDirectory() as tmp:
        cover_path = os.path.join(tmp, "c6_to_c3.json")
        formats.save_morphism(cover_path, wrap_morphism(6, 3))
        _, _, deg3 = cover_from_subgroup(
            pc.bouquet_graph(2), "v0", PermRep(2, 3, [(1, 0, 2), (0, 2, 1)]))
        deg3_path = os.path.join(tmp, "deg3_b2.json")
        formats.save_morphism(deg3_path, deg3.map)
        malformed = os.path.join(tmp, "malformed.json")
        with open(malformed, "w") as fh:
            fh.write('{"format": "alien/9"}')

        out, code = run(["check-cover", cover_path])
        assert code == 0 and out == golden("check_cover_c6_to_c3.txt")
        out, code = run(["regular", deg3_path])
        assert code == 1 and out == golden("regular_deg3_b2.txt")
        out, code = run(["low-index", "--rank", "2", "--max-degree", "3",
                         "--normal"])
        assert code == 0 and out == golden("low_index_rank2_deg3_normal.txt")
        # malformed input exits 2, never 1; negative verdicts exit 1, never 2
        _, code = run(["validate", malformed])
        assert code == 2
        _, code = run(["regular", deg3_path])
        assert code == 1
