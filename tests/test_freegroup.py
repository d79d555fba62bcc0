import builtins
import functools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from procover import (
    FreeWord,
    GeneratorImages,
    PermRep,
    ResourceLimitError,
    is_normal,
    low_index_reps,
    pushforward_leq,
    rep_equivalent,
    subgroup_count,
    subgroup_leq,
    substitute,
    translation_kernel_rep,
)
from procover import freegroup
from procover.freegroup import DEFAULT_MAX_WORK
from procover.freegroup import (
    NotTransitiveError,
    _automorphisms,
    _forced_map,
    _normalizer_generators,
    normalizer_points,
)
from helpers import (
    all_points_is_normal,
    brute_force_canonical_keys,
    canonical_key_equivalent,
    cyclic_rep,
    dihedral_natural_rep,
    dihedral_regular_rep,
    injective_normalizer_points,
    normal_tables_oracle,
    per_point_normalizer_points,
    recursive_canonical_tables,
    recursive_subgroup_count,
    refusal_oracle,
    relabelled,
    schreier_is_normal,
    schreier_pushforward_leq,
    schreier_subgroup_leq,
    trivial_rep,
    unsieved_normalizer_generators,
    validating_permrep,
)

X = FreeWord.generator(0)
Y = FreeWord.generator(1)

letters = st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1])),
                   max_size=12)


class TestWords:
    def test_cancellation(self):
        assert X * X.inverse() == FreeWord()
        assert not (X * X.inverse())

    def test_inverse_of_product(self):
        assert (X * Y).inverse() == Y.inverse() * X.inverse()

    def test_reduce_inner(self):
        w = FreeWord([(0, 1), (1, 1), (1, -1), (0, 1)])
        assert w == X * X

    def test_str(self):
        assert str(X * Y.inverse()) == "x0 x1^-1"
        assert str(FreeWord()) == "1"

    @given(letters, letters, letters)
    def test_associative(self, a, b, c):
        u, v, w = FreeWord(a), FreeWord(b), FreeWord(c)
        assert (u * v) * w == u * (v * w)

    @given(letters)
    def test_involutive_inverse(self, a):
        u = FreeWord(a)
        assert u.inverse().inverse() == u
        assert u * u.inverse() == FreeWord()

    @given(letters)
    def test_result_is_reduced(self, a):
        w = FreeWord(a)
        assert all(w.letters[i] != (w.letters[i + 1][0], -w.letters[i + 1][1])
                   for i in range(len(w.letters) - 1))


class TestAction:
    def test_swap(self):
        r = PermRep(1, 2, [(1, 0)])
        assert r.act(0, X) == 1
        assert r.act(0, X * X) == 0

    def test_empty_word(self):
        r = PermRep(2, 3, [(1, 0, 2), (0, 2, 1)])
        assert r.act(0, FreeWord()) == 0

    def test_two_generators(self):
        r = PermRep(2, 3, [(1, 0, 2), (0, 2, 1)])
        assert r.act(0, X * Y) == 2

    @given(letters, letters)
    def test_right_action(self, a, b):
        r = PermRep(3, 4, [(1, 0, 2, 3), (0, 2, 3, 1), (3, 1, 2, 0)])
        u, v = FreeWord(a), FreeWord(b)
        assert r.act(0, u * v) == r.act(r.act(0, u), v)

    def test_bounds(self):
        r = PermRep(1, 2, [(1, 0)])
        with pytest.raises(ValueError):
            r.act(5, X)
        with pytest.raises(ValueError):
            r.act(0, Y)

    def test_not_transitive_rejected(self):
        from procover.freegroup import NotTransitiveError
        with pytest.raises(NotTransitiveError) as err:
            PermRep(1, 4, [(1, 0, 3, 2)])
        assert err.value.orbits == ((0, 1), (2, 3))
        assert err.value.verdict == "not transitive"
        assert err.value.details() == {
            "error": "action is not transitive: 2 orbits",
            "orbits": [[0, 1], [2, 3]], "witness": ["0 1", "2 3"]}

    @pytest.mark.parametrize("row", [(1.0, 0.0), (True, False), ("1", "0"),
                                     (1, 0.0), (1, False)])
    def test_row_entries_must_be_ints(self, row):
        with pytest.raises(ValueError) as err:
            PermRep(1, 2, [row])
        assert type(err.value) is ValueError
        assert str(err.value) == "%r is not a permutation of 0..1" % (row,)


class TestSchreier:
    def test_whole_group(self):
        gens = trivial_rep(2).schreier_generators()
        assert set(gens) == {X, Y}

    def test_index_two_of_z(self):
        gens = PermRep(1, 2, [(1, 0)]).schreier_generators()
        assert list(gens) == [X * X]

    def test_index_two_of_f2(self):
        r = PermRep(2, 2, [(1, 0), (0, 1)])
        assert set(r.schreier_generators()) == {Y, X * X, X * Y * X.inverse()}

    def test_count_matches_rank_formula(self):
        for rep in low_index_reps(2, 4):
            gens = rep.schreier_generators()
            assert len(gens) == 1 + rep.degree * (2 - 1)
            assert len(set(gens)) == len(gens)

    def test_membership_soundness(self):
        rng = random.Random(5)
        reps = [translation_kernel_rep(2, 2), PermRep(2, 3, [(1, 0, 2), (0, 2, 1)]),
                cyclic_rep(4)]
        for rep in reps:
            gens = rep.schreier_generators()
            for _ in range(50):
                w = FreeWord()
                while len(w) <= 20:
                    g = rng.choice(gens)
                    w = w * (g if rng.random() < 0.5 else g.inverse())
                    if rng.random() < 0.3:
                        break
                assert rep.act(0, w) == 0


class TestContainment:
    def test_reflexive(self):
        r = PermRep(2, 3, [(1, 0, 2), (0, 2, 1)])
        assert subgroup_leq(r, r)

    def test_cyclic_divisibility(self):
        assert subgroup_leq(cyclic_rep(4), cyclic_rep(2))
        assert not subgroup_leq(cyclic_rep(2), cyclic_rep(4))

    def test_mod2_kernel_in_even_x(self):
        even_x = PermRep(2, 2, [(1, 0), (0, 1)])
        assert subgroup_leq(translation_kernel_rep(2, 2), even_x)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            subgroup_leq(cyclic_rep(2), trivial_rep(2))

    def test_partial_order_on_small_lattice(self):
        reps = low_index_reps(2, 3)
        leq = [[subgroup_leq(a, b) for b in reps] for a in reps]
        n = len(reps)
        for i in range(n):
            assert leq[i][i]
            for j in range(n):
                if leq[i][j] and leq[j][i]:
                    assert rep_equivalent(reps[i], reps[j])
                for k in range(n):
                    if leq[i][j] and leq[j][k]:
                        assert leq[i][k]


class TestNormality:
    def test_index_two_always_normal(self):
        for rep in low_index_reps(2, 2):
            if rep.degree == 2:
                assert is_normal(rep)

    def test_z3_kernel(self):
        assert is_normal(PermRep(2, 3, [(1, 2, 0), (0, 1, 2)]))

    def test_nonnormal_degree_three(self):
        assert not is_normal(PermRep(2, 3, [(1, 0, 2), (0, 2, 1)]))

    def test_normal_iff_all_rebasings_equivalent(self):
        for rep in low_index_reps(2, 3):
            rebased_all_equal = all(
                rep_equivalent(rep.rebased(p), rep) for p in range(rep.degree))
            assert rebased_all_equal == is_normal(rep)
            assert is_normal(rep) == schreier_is_normal(rep)

    def test_normalizer_points_are_the_equal_stabilizers(self):
        for rep in low_index_reps(2, 4):
            want = tuple(c for c in range(rep.degree)
                         if rep_equivalent(rep.rebased(c), rep))
            assert normalizer_points(rep) == want


class TestEquivalence:
    def test_relabelled(self):
        a = PermRep(2, 3, [(1, 0, 2), (0, 2, 1)])
        # swap the labels 1 and 2
        b = PermRep(2, 3, [(2, 1, 0), (0, 2, 1)])
        assert rep_equivalent(a, b)

    def test_different_subgroups(self):
        a = PermRep(2, 2, [(1, 0), (0, 1)])
        b = PermRep(2, 2, [(0, 1), (1, 0)])
        assert not rep_equivalent(a, b)

    def test_equivalence_is_subgroup_equality(self):
        a = PermRep(2, 3, [(1, 0, 2), (0, 2, 1)])
        b = a.rebased(1)
        assert not rep_equivalent(a, b)
        assert subgroup_leq(a, a.canonical())

    @pytest.mark.parametrize("point", [-1, -3, 3, 4])
    def test_rebasing_at_no_point_is_refused(self, point):
        """``rebased`` builds its relabelled action unchecked, so a point
        outside 0..degree-1 is refused before any label is made."""
        with pytest.raises(ValueError, match="out of range"):
            PermRep(2, 3, [(1, 0, 2), (0, 2, 1)]).rebased(point)


class TestLowIndex:
    def test_rank_two_counts(self):
        reps = low_index_reps(2, 4)
        counts = {}
        for rep in reps:
            counts[rep.degree] = counts.get(rep.degree, 0) + 1
        assert counts == {1: 1, 2: 3, 3: 13, 4: 71}

    def test_matches_oracle_in_content(self):
        for rank in (0, 1, 2):
            for degree in (1, 2, 3, 4):
                ours = {rep.canonical_key()
                        for rep in low_index_reps(rank, degree)
                        if rep.degree == degree}
                assert ours == brute_force_canonical_keys(rank, degree)

    def test_matches_oracle_rank_three(self):
        ours = {rep.canonical_key() for rep in low_index_reps(3, 3)
                if rep.degree == 3}
        assert len(ours) == subgroup_count(3, 3) == 97
        assert ours == brute_force_canonical_keys(3, 3)

    def test_everything_canonical_and_deduped(self):
        reps = low_index_reps(2, 4)
        keys = [rep.canonical_key() for rep in reps]
        assert len(set(keys)) == len(keys)
        for rep in reps:
            assert rep.canonical() == rep

    def test_normal_filter(self):
        reps = low_index_reps(2, 3, normal_only=True)
        counts = {}
        for rep in reps:
            counts[rep.degree] = counts.get(rep.degree, 0) + 1
        assert counts == {1: 1, 2: 3, 3: 4}

    def test_deterministic(self):
        assert low_index_reps(2, 3) == low_index_reps(2, 3)

    def test_counts_match_closed_form(self):
        got = {n: sum(1 for r in low_index_reps(2, 4) if r.degree == n)
               for n in range(1, 5)}
        assert got == {n: subgroup_count(2, n) for n in range(1, 5)}

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            low_index_reps(3, 8)
        # explicit budget raise is honoured
        assert low_index_reps(2, 2, max_work=10)

    def test_counts_match_the_recursion(self):
        assert all(subgroup_count(r, n) == recursive_subgroup_count(r, n)
                   for r in range(6) for n in range(1, 12))

    def test_guard_refuses_exactly_above_the_total(self):
        for rank in range(4):
            for max_degree in range(1, 7):
                total = sum(subgroup_count(rank, n)
                            for n in range(1, max_degree + 1))
                with pytest.raises(ResourceLimitError):
                    low_index_reps(rank, max_degree, max_work=total - 1)
                if total <= 100:
                    assert len(low_index_reps(rank, max_degree, max_work=total)) \
                        == total

    def test_guard_stops_at_the_first_degree_over_the_bound(self):
        with pytest.raises(ResourceLimitError) as err:
            low_index_reps(2, 1200)
        assert "at least 35134660 subgroups (those of degree <= 10)" \
            in str(err.value)

    @pytest.mark.parametrize("rank", list(range(1, 71)) + [10 ** 5])
    def test_refusal_matches_the_summing_oracle(self, rank):
        for max_degree in (1, 2, 3, 6):
            for max_work in (-1, 0, 1, 2, 1000, 2 ** 62, DEFAULT_MAX_WORK):
                want = refusal_oracle(rank, max_degree, max_work)
                if want is None:
                    # accepted: enumerate only when that is cheap
                    if max_work <= 1000 and rank <= 70:
                        low_index_reps(rank, max_degree, max_work=max_work)
                    continue
                with pytest.raises(ResourceLimitError) as err:
                    low_index_reps(rank, max_degree, max_work=max_work)
                assert str(err.value) == want

    def test_huge_rank_is_refused_before_any_count(self):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as err:
            low_index_reps(10 ** 9, 3)
        assert time.perf_counter() - start < 0.1
        assert "at least 2^1000000000 subgroups (those of degree <= 2)" \
            in str(err.value)

    def test_guard_message_at_a_count_too_long_to_print(self):
        # 1 + (2^20000 - 1) subgroups of index <= 2: more digits than
        # Python prints, so the refusal must not print the count in decimal
        with pytest.raises(ResourceLimitError) as err:
            low_index_reps(20000, 3)
        assert "at least 2^20000 subgroups (those of degree <= 2)" \
            in str(err.value)

    def test_refusal_at_a_rank_too_long_to_print(self):
        with pytest.raises(ResourceLimitError) as err:
            low_index_reps(10 ** 4400, 3)
        assert str(err.value).startswith(
            "enumeration of rank 2^14616, degree <= 3 would visit at least "
            "2^2^14616 subgroups (those of degree <= 2), above the work "
            "bound 5000000;")

    def test_refusal_at_a_max_degree_too_long_to_print(self):
        with pytest.raises(ResourceLimitError) as err:
            low_index_reps(2, 10 ** 4400)
        assert str(err.value).startswith(
            "enumeration of rank 2, degree <= 2^14616 would visit at least "
            "35134660 subgroups (those of degree <= 10)")

    def test_refusal_at_a_negative_bound_too_long_to_print(self):
        with pytest.raises(ResourceLimitError) as err:
            low_index_reps(2, 9, max_work=-10 ** 4400)
        assert "(those of degree <= 1), above the work bound -2^14616;" \
            in str(err.value)

    def test_refusal_keeps_every_printable_bound_in_decimal(self):
        # argparse passes any int Python prints; its bytes stay decimal
        for max_work in (2 ** 64, 10 ** 40, -(10 ** 4299)):
            with pytest.raises(ResourceLimitError) as err:
                low_index_reps(3, 10 ** 4299, max_work=max_work)
            assert str(err.value) == refusal_oracle(3, 10 ** 4299, max_work)

    def test_rank_zero(self):
        reps = low_index_reps(0, 3)
        assert len(reps) == 1 and reps[0].degree == 1


class TestSearchAgainstRecursiveOracle:
    """The iterative search, pruned or not, against the recursive generator
    it replaced: identical tables in identical order."""

    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_all_subgroups(self, rank):
        want = [t for d in range(1, 6) for t in recursive_canonical_tables(rank, d)]
        assert [rep.perms for rep in low_index_reps(rank, 5)] == want

    @pytest.mark.parametrize("rank, max_degree",
                             [(0, 5), (1, 5), (2, 5), (3, 5), (4, 3), (5, 3), (10, 2)])
    def test_normal_only(self, rank, max_degree):
        want = [t for d in range(1, max_degree + 1)
                for t in normal_tables_oracle(rank, d)]
        reps = low_index_reps(rank, max_degree, normal_only=True)
        assert [rep.perms for rep in reps] == want
        assert all(is_normal(rep) for rep in reps)

    def test_every_index_two_subgroup_is_normal(self):
        assert len(low_index_reps(10, 2, normal_only=True)) == 2 ** 10

    @pytest.mark.parametrize("rank, degree", [(2, 4), (2, 5), (3, 3), (3, 4), (4, 3)])
    def test_semiregular_prefilter_is_exact(self, rank, degree):
        want = tuple(t for t in recursive_canonical_tables(rank, degree)
                     if is_normal(PermRep(rank, degree, t)))
        assert normal_tables_oracle(rank, degree) == want


def construction(build, *args):
    """What a constructor makes of its arguments: the table it stores, or
    the type, message and orbits of the error it raises."""
    try:
        rep = build(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "orbits", None)
    return rep._moves, rep.perms


@st.composite
def perm_lists(draw):
    """A degree and a list of tables for it, each of rank ``rank`` or off
    by one; rows are permutations of 0..degree-1 or, now and then, rows of
    the wrong length, with a repeated point or with a point out of range.
    Random tables are often not transitive."""
    rank, degree = draw(st.integers(0, 3)), draw(st.integers(1, 5))

    def row():
        kind = draw(st.sampled_from(["perm"] * 6 + ["short", "long", "repeat",
                                                      "range"]))
        p = list(draw(st.permutations(range(degree))))
        if kind == "short":
            p = p[:-1]
        elif kind == "long":
            p.append(degree)
        elif kind == "repeat" and degree > 1:
            p[0] = p[1]
        elif kind == "range":
            p[-1] = draw(st.sampled_from([-1, degree, degree + 3]))
        return p

    tables = []
    for _ in range(draw(st.integers(1, 6))):
        n = rank + draw(st.sampled_from([0] * 8 + [-1, 1]))
        tables.append([row() for _ in range(max(n, 0))])
    return rank, degree, tables


class TestConstructorAgainstOracle:
    """The constructor against the one it replaced, which sorted every row
    of every table: same tables, same errors; and the enumeration's
    trusted build against that oracle."""

    @pytest.mark.parametrize("rank, max_degree",
                             [(1, 5), (2, 5), (3, 5), (5, 3)])
    def test_every_enumerated_table(self, rank, max_degree):
        for rep in low_index_reps(rank, max_degree):
            assert vars(rep) == vars(validating_permrep(rank, rep.degree,
                                                        rep.perms))

    def test_the_oracles_value_answers_every_query(self):
        """The oracle's value carries every attribute the constructor
        sets, so the queries that fill a cache on first use run on it."""
        rep = validating_permrep(1, 3, [(1, 2, 0)])
        assert vars(rep) == vars(PermRep(1, 3, [(1, 2, 0)]))
        assert normalizer_points(rep) == (0, 1, 2)
        assert len(rep.schreier_generators()) == 1
        assert rep.canonical_key() == (1, 3, ((1, 2, 0),))

    @settings(max_examples=300, deadline=None)
    @given(perm_lists())
    def test_valid_and_invalid_tables(self, case):
        rank, degree, tables = case
        for perms in tables:
            want = construction(validating_permrep, rank, degree, perms)
            assert construction(PermRep, rank, degree, perms) == want
            try:
                oracle = validating_permrep(rank, degree, perms)
            except (TypeError, ValueError):
                continue
            # on the rows the oracle proved, the trusted build is its value
            assert vars(PermRep._of_moves(rank, degree, oracle._moves)) == \
                vars(oracle)

    def test_errors_match(self):
        for args in [(1, 4, [(1, 0, 3, 2)]), (2, 3, [(0, 1, 2)]),
                     (1, 3, [(0, 0, 1)]), (1, 3, [(0, 1)]), (-1, 1, []),
                     (1, 0, [()]), (1, 2, [([0], [1])]), (1, 2, [5])]:
            assert construction(PermRep, *args) == \
                construction(validating_permrep, *args)
        _, _, orbits = construction(PermRep, 2, 5, [(1, 0, 2, 4, 3)] * 2)
        assert orbits == ((0, 1), (2,), (3, 4))

    def test_each_distinct_row_is_sorted_once(
            self, monkeypatch, constructed_values_equal_the_checked_ones):
        """At most once, and in fact never: the search fills each row with
        its inverse, so the enumeration neither checks nor inverts a row
        by sorting it.  The guard, which checks by sorting, is turned off."""
        monkeypatch.setattr(PermRep, "_of_moves", classmethod(
            constructed_values_equal_the_checked_ones.unguarded_of_moves))
        checked = []

        def counting_sorted(iterable, **kwargs):
            checked.append(tuple(iterable))
            return builtins.sorted(iterable, **kwargs)

        monkeypatch.setattr(freegroup, "sorted", counting_sorted, raising=False)
        reps = low_index_reps(5, 3)
        assert len(reps) == sum(subgroup_count(5, n) for n in (1, 2, 3))
        assert checked == []

    @pytest.mark.parametrize("rank, max_degree, normal_only",
                             [(1, 5, False), (2, 4, False), (3, 3, False),
                              (2, 4, True)])
    def test_tables_of_one_degree_share_their_rows(self, rank, max_degree,
                                                   normal_only):
        """The rows of the enumerated tables are interned per degree: equal
        rows are one tuple, so the tables of degree n hold at most n! row
        objects, one per permutation."""
        reps = low_index_reps(rank, max_degree, normal_only)
        for degree in range(1, max_degree + 1):
            rows = [r for rep in reps if rep.degree == degree
                    for r in rep._moves]
            assert len({id(r) for r in rows}) == len(set(rows)) \
                <= math.factorial(degree)

    def test_memo_does_not_outlive_the_enumeration(self):
        """An enumeration leaves the public constructor's checks as they
        are: rows it has built are still refused at another degree, and a
        table it never yields is still refused as intransitive."""
        low_index_reps(1, 3)  # builds the row (1, 2, 0) of degree 3
        with pytest.raises(ValueError) as err:
            PermRep(1, 4, [(1, 2, 0)])
        assert type(err.value) is ValueError
        assert str(err.value) == "(1, 2, 0) is not a permutation of 0..3"
        with pytest.raises(NotTransitiveError):
            PermRep(1, 3, [(0, 1, 2)])


class TestSubstitution:
    def test_identity(self):
        images = GeneratorImages(2, 2, (X, Y))
        assert substitute(X * Y, images) == X * Y

    def test_expansion(self):
        images = GeneratorImages(2, 2, (Y * X, Y))
        assert substitute(X * Y.inverse(), images) == Y * X * Y.inverse()

    def test_inverse_letters(self):
        images = GeneratorImages(1, 1, (X * X,))
        assert substitute(X.inverse(), images) == X.inverse() * X.inverse()

    @given(letters, letters)
    def test_homomorphic(self, a, b):
        images = GeneratorImages(3, 2, (X * Y, Y.inverse(), FreeWord()))
        u, v = FreeWord(a), FreeWord(b)
        assert substitute(u * v, images) == \
            substitute(u, images) * substitute(v, images)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            substitute(Y, GeneratorImages(1, 1, (X,)))


class TestPushforward:
    def test_identity_images_agree_with_leq(self):
        images = GeneratorImages(2, 2, (X, Y))
        reps = low_index_reps(2, 3)
        for a in reps[:6]:
            for b in reps[:6]:
                assert pushforward_leq(a, images, b) == subgroup_leq(a, b)

    def test_cyclic(self):
        images = GeneratorImages(1, 1, (X,))
        assert pushforward_leq(cyclic_rep(6), images, cyclic_rep(3))
        assert not pushforward_leq(cyclic_rep(3), images, cyclic_rep(6))

    def test_collapse_second_generator(self):
        images = GeneratorImages(2, 2, (X, FreeWord()))
        even_x = PermRep(2, 2, [(1, 0), (0, 1)])
        assert pushforward_leq(translation_kernel_rep(2, 2), images, even_x)


class TestKernelReps:
    def test_rank1_p2_is_swap(self):
        assert translation_kernel_rep(1, 2) == PermRep(1, 2, [(1, 0)])

    def test_rank2_p2(self):
        rep = translation_kernel_rep(2, 2)
        assert rep.degree == 4
        assert is_normal(rep)

    def test_rank2_p3(self):
        rep = translation_kernel_rep(2, 3)
        assert rep.degree == 9
        assert is_normal(rep)

    def test_modulus_four(self):
        rep = translation_kernel_rep(2, 4)
        assert rep.degree == 16
        assert is_normal(rep)
        assert subgroup_leq(rep, translation_kernel_rep(2, 2))

    def test_guard(self):
        with pytest.raises(ResourceLimitError) as err:
            translation_kernel_rep(2, 4, max_work=10)
        assert str(err.value) == "degree 16 exceeds the work bound 10"

    def test_guard_at_a_degree_too_long_to_print(self):
        # 10^4400 has more digits than Python prints in decimal
        with pytest.raises(ResourceLimitError) as err:
            translation_kernel_rep(2, 10 ** 2200)
        assert str(err.value) == ("degree 2^14616 exceeds the work bound %d"
                                  % DEFAULT_MAX_WORK)

    def test_guard_at_a_bound_too_long_to_print(self):
        with pytest.raises(ResourceLimitError) as err:
            translation_kernel_rep(2, 10 ** 2200, max_work=10 ** 4300)
        assert str(err.value) == \
            "degree 2^14616 exceeds the work bound 2^14284"


# every subgroup of rank 1 and index <= 6, rank 2 and index <= 4, rank 3
# and index <= 3
LATTICE_SIZES = {1: 6, 2: 4, 3: 3}


@functools.lru_cache(maxsize=None)
def lattice(rank):
    return tuple(low_index_reps(rank, LATTICE_SIZES[rank]))


@st.composite
def pushforward_cases(draw):
    """A source action (relabelled, so not always canonical), generator
    images and a target action, ranks 1-3 on both sides."""
    src_rank, tgt_rank = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    src = draw(st.sampled_from(lattice(src_rank)))
    src = relabelled(src, draw(st.integers(0, src.degree - 1)),
                     random.Random(draw(st.integers(0, 2 ** 16))))
    tgt = draw(st.sampled_from(lattice(tgt_rank)))
    letter = st.tuples(st.integers(0, tgt_rank - 1), st.sampled_from([1, -1]))
    words = tuple(FreeWord(draw(st.lists(letter, max_size=6)))
                  for _ in range(src_rank))
    return src, GeneratorImages(src_rank, tgt_rank, words), tgt


class TestForcedMapAgainstOracles:
    """Containment, equality, image containment and normalizers, all read
    off the one forced-map test, against the deciders it replaced."""

    @pytest.mark.parametrize("rank", sorted(LATTICE_SIZES))
    def test_every_ordered_pair(self, rank):
        reps = lattice(rank)
        for a in reps:
            for b in reps:
                assert subgroup_leq(a, b) == schreier_subgroup_leq(a, b)
                assert rep_equivalent(a, b) == canonical_key_equivalent(a, b)

    @pytest.mark.parametrize("rank", sorted(LATTICE_SIZES))
    def test_relabelled_conjugates(self, rank):
        rng = random.Random(rank)
        reps = lattice(rank)
        for a in reps:
            for c in range(a.degree):
                q = relabelled(a, c, rng)
                assert rep_equivalent(q, a.rebased(c))
                b = rng.choice(reps)
                for x, y in ((a, q), (q, a), (q, b), (b, q)):
                    assert subgroup_leq(x, y) == schreier_subgroup_leq(x, y)
                    assert rep_equivalent(x, y) == canonical_key_equivalent(x, y)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(pushforward_cases())
    def test_pushforward(self, case):
        assert pushforward_leq(*case) == schreier_pushforward_leq(*case)

    @pytest.mark.parametrize("rank, max_degree",
                             [(1, 8), (2, 6), (3, 4), (4, 3), (5, 3)])
    def test_is_normal_matches_the_all_points_oracle(self, rank, max_degree):
        for rep in low_index_reps(rank, max_degree):
            assert is_normal(rep) == all_points_is_normal(rep)

    def test_is_normal_on_translation_kernels(self):
        for rank, modulus in ((1, 7), (2, 2), (2, 5), (3, 3), (4, 2), (2, 12)):
            rep = translation_kernel_rep(rank, modulus)
            assert is_normal(rep) and all_points_is_normal(rep)
            for c in (1, rep.degree - 1):
                conjugate = relabelled(rep, c, random.Random(c))
                assert is_normal(conjugate) and all_points_is_normal(conjugate)

    @pytest.mark.parametrize("rank, max_degree",
                             [(1, 8), (2, 6), (3, 4), (4, 3), (5, 3)])
    def test_normalizer_points_match_the_per_point_oracle(self, rank,
                                                          max_degree):
        for rep in low_index_reps(rank, max_degree):
            want = per_point_normalizer_points(rep)
            assert normalizer_points(rep) == want
            pairs = list(zip(rep._moves, rep._moves))
            found = _automorphisms(rep)
            assert sorted(found) == list(want)
            for c, phi in found.items():
                assert phi == _forced_map(pairs, rep.degree, c)

    def test_normalizer_points_on_translation_kernels(self):
        for rank, modulus in ((1, 7), (2, 2), (2, 5), (3, 3), (2, 12)):
            rep = translation_kernel_rep(rank, modulus)
            assert normalizer_points(rep) == tuple(range(rep.degree))
            for c in (1, rep.degree - 1):
                conjugate = relabelled(rep, c, random.Random(c))
                assert normalizer_points(conjugate) == \
                    per_point_normalizer_points(conjugate)

    @staticmethod
    def sieve_cases():
        """Seeded random transitive actions of ranks 2 and 3 up to degree
        48, every rank-2 table up to degree 4, and the regular families
        (translation kernels, dihedral regular and natural actions), each
        also with its points shuffled."""
        rng = random.Random(48)
        reps = list(low_index_reps(2, 4))
        while len(reps) < 160:
            rank, n = rng.choice((2, 2, 3)), rng.randint(2, 48)
            perms = [rng.sample(range(n), n) for _ in range(rank)]
            try:
                reps.append(PermRep(rank, n, perms))
            except ValueError:
                continue
        families = [translation_kernel_rep(2, m) for m in (2, 3, 4, 6)]
        families += [translation_kernel_rep(3, 2), translation_kernel_rep(1, 12)]
        families += [dihedral_regular_rep(k) for k in (3, 4, 12, 24)]
        families += [dihedral_natural_rep(m) for m in (6, 8, 13, 30, 48)]
        for rep in families:
            reps += [rep, relabelled(rep, 0, rng),
                     relabelled(rep, rng.randrange(rep.degree), rng)]
        return reps

    def test_sieved_search_matches_the_oracles(self):
        """The cycle sieve keeps the generators, their order and the
        orbit of the search without it, so every point set and every
        automorphism is that of the per-point oracles."""
        orders = set()
        for rep in self.sieve_cases():
            gens, orbit = _normalizer_generators(rep)
            assert (gens, orbit) == unsieved_normalizer_generators(rep)
            want = per_point_normalizer_points(rep)
            assert normalizer_points(rep) == want
            assert injective_normalizer_points(rep) == want
            pairs = list(zip(rep._moves, rep._moves))
            found = _automorphisms(rep)
            assert sorted(found) == list(want)
            for c, phi in found.items():
                assert phi == _forced_map(pairs, rep.degree, c)
            orders.add(len(want) == rep.degree)
        assert orders == {True, False}

    def test_automorphisms_are_free_closed_and_commute_with_the_moves(self):
        """The facts ``deck_group`` takes from the forced map without a
        check: every automorphism commutes with every move x_k^{+-1}, none
        but the identity fixes a point, they are closed under composition
        (keyed by their images of 0), and their number divides the
        degree."""
        for rep in self.sieve_cases():
            n = rep.degree
            moves = [rep.move((k, s)) for k in range(rep.rank) for s in (1, -1)]
            group = _automorphisms(rep)
            for c, phi in group.items():
                assert phi[0] == c and sorted(phi) == list(range(n))
                for m in moves:
                    assert [phi[m[a]] for a in range(n)] == \
                        [m[phi[a]] for a in range(n)]
                if c:
                    assert all(phi[a] != a for a in range(n))
                for psi in group.values():
                    composite = [phi[psi[a]] for a in range(n)]
                    assert group[composite[0]] == composite
            assert n % len(group) == 0

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_sieve_skips_the_corners_of_the_dihedral_action(self, monkeypatch,
                                                           shuffle):
        """On the 48 corners only the opposite corner has the cycle type of
        corner 0 (a 48-cycle under the rotation, fixed by the reflection),
        so one forced map is run where the search without the sieve ran 46."""
        rep = dihedral_natural_rep(48)
        if shuffle:
            rep = relabelled(rep, 0, random.Random(5))
        forced_map, calls = freegroup._forced_map, []

        def counted(*args):
            calls.append(args[2])
            return forced_map(*args)

        monkeypatch.setattr(freegroup, "_forced_map", counted)
        points = normalizer_points(rep)
        assert len(calls) <= 2
        assert points == per_point_normalizer_points(rep) and len(points) == 2

    def test_forced_map_returns_its_image_list(self):
        rep = translation_kernel_rep(1, 5)
        pairs = list(zip(rep._moves, rep._moves))
        assert _forced_map(pairs, 5, 2) == [2, 3, 4, 0, 1]
        h = PermRep(2, 3, [(1, 0, 2), (0, 2, 1)])
        pairs = list(zip(h._moves, h._moves))
        assert _forced_map(pairs, 3, 1) is None
        assert _forced_map(pairs, 3, 0) == [0, 1, 2]

    def test_normalizer_points_of_every_rank_two_table(self):
        rng = random.Random(2)
        for rep in low_index_reps(2, 5):
            want = injective_normalizer_points(rep)
            assert normalizer_points(rep) == want
            fresh = relabelled(rep, 0, rng)
            assert is_normal(fresh) == (len(want) == rep.degree)

    def test_rank_zero(self):
        t = trivial_rep(0)
        assert subgroup_leq(t, t) and rep_equivalent(t, t) and is_normal(t)
        assert normalizer_points(t) == (0,)
        for rank in sorted(LATTICE_SIZES):
            for k in lattice(rank)[:10]:
                into = GeneratorImages(0, rank, ())
                onto = GeneratorImages(rank, 0, (FreeWord(),) * rank)
                assert pushforward_leq(t, into, k) is True
                assert pushforward_leq(k, onto, t) is True
                assert schreier_pushforward_leq(t, into, k)
                assert schreier_pushforward_leq(k, onto, t)
