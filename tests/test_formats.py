import contextlib
import io
import json
import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import procover as pc
from procover import cli, formats
from procover.formats import FormatError
from helpers import (
    b2_homology_spec,
    entrywise_graph_from_obj,
    pro2_tower,
    rotation_action,
    s3_regular_rep,
    theta_graph,
    wrap_morphism,
)


class TestGraphFormat:
    def test_round_trip(self):
        for g in (pc.cycle_graph(5), pc.bouquet_graph(3), theta_graph()):
            assert formats.graph_from_obj(formats.graph_to_obj(g)) == g

    def test_cover_graph_round_trip(self):
        cover, _, _ = pc.cover_from_subgroup(
            pc.bouquet_graph(2), "v0", pc.translation_kernel_rep(2, 2))
        assert formats.graph_from_obj(formats.graph_to_obj(cover)) == cover

    def test_version_check(self):
        with pytest.raises(FormatError):
            formats.graph_from_obj({"format": "nope", "vertices": [], "edges": []})

    def test_dangling_edge_loads_for_validation(self):
        obj = {"format": formats.GRAPH_FORMAT, "vertices": ["v0"],
               "edges": [{"id": "e0", "src": "v0", "dst": "ghost"}]}
        g = formats.graph_from_obj(obj)
        assert pc.validate_graph(g)

    def test_dangling_edge_stops_every_other_reader(self, tmp_path):
        obj = {"format": formats.GRAPH_FORMAT, "vertices": ["v0"],
               "edges": [{"id": "e0", "src": "ghost", "dst": "v0"}]}
        path = str(tmp_path / "g.json")
        formats.save_json(path, obj)
        with pytest.raises(FormatError, match="edge 'e0' ends at unknown "
                                              "vertex 'ghost'"):
            formats.load_graph(path)
        morphism = {"format": formats.MORPHISM_FORMAT, "domain": obj,
                    "codomain": obj, "vertex_map": {"v0": "v0"},
                    "edge_map": {"e0": {"edge": "e0", "flip": False}}}
        with pytest.raises(FormatError, match="ends at unknown vertex"):
            formats.morphism_from_obj(morphism)

    @pytest.mark.parametrize("vertices, edges, name", [
        # each check alone
        (["v0", "v1"], [["e0", "v0", "v1"], ["e0", "v1", "v0"]], None),
        (["v0", "v0"], [["e0", "v0", "v0"]], None),
        (["v0", "e0+"], [["e0", "v0", "v0"]], None),
        # a bad entry, or a bad name, after a repeated edge id wins
        (["v0"], [["e0", "v0", "v0"], ["e0", "v0", "v0"], ["e1", 3, "v0"]], None),
        (["v0"], [["e0", "v0", "v0"], ["e0", "v0", "v0"], "junk"], None),
        (["v0"], [["e0", "v0", "v0"], ["e0", "v0", "v0"]], 7),
        # the first repeated id, then repeated vertices, then the overlap
        (["v0", "v0", "a+"], [["b", "v0", "v0"], ["a", "v0", "v0"],
                              ["a", "v0", "v0"], ["b", "v0", "v0"]], None),
        (["v0", "v0", "a+"], [["a", "v0", "v0"]], None),
        (["b-", "v0", "a+"], [["a", "v0", "v0"], ["b", "v0", "ghost"]], "G"),
        # sound, dangling and empty documents
        (["v1", "v0"], [["e1", "v0", "v1"], ["e0", "v1", "v1"]], "G"),
        (["v0"], [["e0", "v0", "ghost"]], None),
        ([], [], None),
    ])
    def test_one_loop_reads_as_the_entrywise_oracle(self, vertices, edges,
                                                    name):
        """The one-loop reader, with ``from_edges``' own checks, gives the
        graph of the entrywise reader through the validating constructor,
        or its error with the same message, on documents that break each
        check of ``FiniteGraph`` and several at once."""
        obj = {"format": formats.GRAPH_FORMAT, "vertices": vertices,
               "edges": [e if isinstance(e, str)
                         else dict(zip(("id", "src", "dst"), e)) for e in edges]}
        if name is not None:
            obj["name"] = name

        def read(reader):
            try:
                g = reader(obj)
            except FormatError as exc:
                return "error", str(exc)
            return "value", g, g.name, g.vertices, g._star

        assert read(formats.graph_from_obj) == read(entrywise_graph_from_obj)

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "g.json")
        formats.save_graph(path, pc.cycle_graph(4))
        assert formats.load_graph(path) == pc.cycle_graph(4)


class TestMorphismFormat:
    def test_round_trip_embedded(self):
        f = wrap_morphism(6, 3)
        assert formats.morphism_from_obj(formats.morphism_to_obj(f)) == f

    def test_round_trip_with_context(self):
        f = wrap_morphism(6, 3)
        obj = formats.morphism_to_obj(f, embed_graphs=False)
        back = formats.morphism_from_obj(obj, domain=f.domain, codomain=f.codomain)
        assert back == f

    def test_missing_graphs(self):
        f = wrap_morphism(6, 3)
        obj = formats.morphism_to_obj(f, embed_graphs=False)
        with pytest.raises(FormatError):
            formats.morphism_from_obj(obj)

    def test_flip_entries(self):
        c3 = pc.cycle_graph(3)
        # the reflection fixing v0 reverses every edge
        vmap = {"v0": "v0", "v1": "v2", "v2": "v1"}
        dmap = {"e0+": "e2-", "e0-": "e2+", "e1+": "e1-",
                "e1-": "e1+", "e2+": "e0-", "e2-": "e0+"}
        f = pc.GraphMorphism(c3, c3, vmap, dmap)
        obj = formats.morphism_to_obj(f)
        assert obj["edge_map"]["e0"] == {"edge": "e2", "flip": True}
        assert obj["edge_map"]["e1"] == {"edge": "e1", "flip": True}
        assert formats.morphism_from_obj(obj) == f

    def test_broken_map_rejected(self):
        f = wrap_morphism(6, 3)
        obj = formats.morphism_to_obj(f)
        obj["vertex_map"]["v0"] = "v1"
        with pytest.raises(FormatError):
            formats.morphism_from_obj(obj)


class TestCongruenceFormat:
    def test_round_trip(self):
        c6 = pc.cycle_graph(6)
        r = pc.kernel_congruence(wrap_morphism(6, 3))
        obj = formats.congruence_to_obj(r)
        assert formats.congruence_from_obj(obj, c6) == r

    def test_singletons_implied(self):
        c3 = pc.cycle_graph(3)
        obj = {"format": formats.CONGRUENCE_FORMAT,
               "vertex_classes": [], "edge_classes": []}
        assert formats.congruence_from_obj(obj, c3) == pc.Congruence.diagonal(c3)

    def test_mirror_classes_reconstructed(self):
        b2 = pc.bouquet_graph(2)
        obj = {"format": formats.CONGRUENCE_FORMAT, "vertex_classes": [],
               "edge_classes": [[{"edge": "e0", "flip": False},
                                 {"edge": "e1", "flip": False}]]}
        r = formats.congruence_from_obj(obj, b2)
        assert r.dart_rep("e0+") == r.dart_rep("e1+")
        assert r.dart_rep("e0-") == r.dart_rep("e1-")
        assert r.dart_rep("e0+") != r.dart_rep("e1-")


class TestRepAndImagesFormat:
    def test_rep_round_trip(self):
        rep = s3_regular_rep()
        assert formats.rep_from_obj(formats.rep_to_obj(rep)) == rep

    def test_rep_validation(self):
        with pytest.raises(FormatError):
            formats.rep_from_obj({"format": formats.REP_FORMAT, "rank": 1,
                                  "degree": 2, "perms": [[0, 0]]})


    def test_declared_degree_costs_nothing_to_reject(self):
        # a row shorter than the declared degree is rejected before anything
        # degree-sized is built; keep the degree at 10**6, since code that
        # builds first really allocates it
        doc = {"format": formats.REP_FORMAT, "rank": 1, "degree": 10 ** 6,
               "perms": [[0]]}
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="not a permutation of 0..999999"):
                formats.rep_from_obj(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

class TestActionFormat:
    def test_round_trip(self):
        act = rotation_action(6, 2)
        obj = formats.action_to_obj(act)
        back = formats.action_from_obj(obj, pc.cycle_graph(6))
        assert back.elements == act.elements
        assert back.morphisms == act.morphisms

class TestEdgeTables:
    """A graph's edge table and its two indexes are graph facts, derived on
    first read and kept: the document readers and writers read them off
    the graphs, so no graph builds one twice however many documents,
    readers or writers read it."""

    @staticmethod
    def counted_tables(monkeypatch) -> list:
        """Record (table, graph) for each edge table, edge index and dart
        reference table a graph derives, passing it through."""
        built = []
        for name in ("_edges", "_edge_index", "_dart_refs"):
            table = vars(pc.FiniteGraph)[name]

            def counted(g, name=name, derive=table.func):
                built.append((name, g))
                return derive(g)

            monkeypatch.setattr(table, "func", counted)
        return built

    @staticmethod
    def assert_once_each(built):
        counts = {}
        for name, g in built:
            counts[name, id(g)] = counts.get((name, id(g)), 0) + 1
        assert built and max(counts.values()) == 1

    def test_each_graph_builds_each_table_once(self, monkeypatch, tmp_path):
        built = self.counted_tables(monkeypatch)
        for order in (2, 4, 8):
            act = rotation_action(8, 8 // order)
            for _ in range(2):
                back = formats.action_from_obj(formats.action_to_obj(act), act.graph)
                assert back.morphisms == act.morphisms
        # a morphism document holds two graphs, embedded or given
        for f in (wrap_morphism(6, 3), wrap_morphism(12, 4)):
            for embed in (True, False, True):
                obj = formats.morphism_to_obj(f, embed_graphs=embed)
                graphs = {} if embed else {"domain": f.domain,
                                           "codomain": f.codomain}
                assert formats.morphism_from_obj(obj, **graphs) == f
        r = pc.kernel_congruence(wrap_morphism(6, 3))
        base = r.base
        for _ in range(2):
            assert formats.congruence_from_obj(formats.congruence_to_obj(r), base) == r
        self.assert_once_each(built)
        # a quotient command reads its graph and congruence, and writes
        # the quotient graph and the projection in the report and to files
        formats.save_graph(str(tmp_path / "g.json"), base)
        formats.save_congruence(str(tmp_path / "r.json"), r)
        del built[:]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--json", "quotient", str(tmp_path / "g.json"),
                             str(tmp_path / "r.json"),
                             "--out-graph", str(tmp_path / "q.json"),
                             "--out-morphism", str(tmp_path / "p.json")]) == 0
        assert sorted(name for name, _g in built) == [
            "_dart_refs", "_edge_index", "_edges", "_edges"]
        self.assert_once_each(built)


class TestTowerFormat:
    def test_save_and_load(self, tmp_path):
        t = pro2_tower(2)
        manifest = formats.save_tower(str(tmp_path), t)
        back = formats.load_tower(manifest)
        assert back.top == t.top
        assert [c.map for c in back.coverings] == [c.map for c in t.coverings]
        assert list(back.cover_steps) == list(t.cover_steps)
        assert list(back.base_steps) == list(t.base_steps)
        assert back.basepoints == t.basepoints

    def test_universal_spec_files(self, tmp_path):
        spec = b2_homology_spec()
        formats.save_graph(str(tmp_path / "base.json"), spec.base)
        for i, q in enumerate(spec.quotients):
            formats.save_congruence(str(tmp_path / ("q%d.json" % i)), q)
        for i, n in enumerate(spec.normals):
            formats.save_rep(str(tmp_path / ("n%d.json" % i)), n)
        formats.save_json(str(tmp_path / "spec.json"), {
            "format": formats.UNIVERSAL_FORMAT,
            "base": "base.json",
            "basepoint": "v0",
            "quotients": ["q%d.json" % i for i in range(3)],
            "normals": ["n%d.json" % i for i in range(3)],
        })
        loaded = formats.load_universal_spec(str(tmp_path / "spec.json"))
        t = pc.universal_tower(loaded)
        assert [c.degree for c in t.coverings] == [1, 4, 16]


class TestDeterminism:
    def test_dump_is_stable_through_round_trip(self):
        g = pc.cycle_graph(4)
        obj = formats.graph_to_obj(g)
        text = formats.dump_json(obj)
        back = formats.graph_from_obj(obj)
        assert formats.dump_json(formats.graph_to_obj(back)) == text


def json_dumps_oracle(obj) -> str:
    """Oracle for ``formats.dump_json``: the ``json`` call it replaced."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def outcome(dump, obj):
    """The text ``dump`` writes for ``obj``, or the type and message of
    what it raises."""
    try:
        return dump(obj)
    except Exception as exc:
        return type(exc), str(exc)


# quotes, backslashes, control characters, non-ASCII text and lone
# surrogates, mixed with code points of every category
TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\ud800'
                               '\udfff\U0001f600\xe9v0e+-')
               | st.characters(exclude_categories=()), max_size=8)
INTS = st.integers() | st.integers(-2 ** 200, 2 ** 200)
WORDS = st.booleans() | st.none()
FLOATS = st.floats()  # nan and the infinities included


def documents(scalars, keys):
    """Nested dicts, lists and tuples over ``scalars``, keyed by ``keys``."""
    return st.recursive(
        scalars,
        lambda children: (st.lists(children, max_size=4)
                          | st.lists(children, max_size=4).map(tuple)
                          | st.dictionaries(keys, children, max_size=4)),
        max_leaves=24)


GRAMMAR = documents(TEXT | INTS | WORDS, TEXT)
ANYTHING = documents(TEXT | INTS | WORDS | FLOATS,
                     TEXT | INTS | WORDS | FLOATS)


class TestDumpJson:
    @settings(max_examples=200)
    @given(GRAMMAR)
    def test_grammar_is_written_without_json(self, obj):
        want = json_dumps_oracle(obj)
        if isinstance(obj, (dict, list, tuple)):
            assert formats._emit(obj, "\n") + "\n" == want
        assert formats.dump_json(obj) == want

    @settings(max_examples=200)
    @given(ANYTHING)
    def test_matches_json_dumps_on_anything(self, obj):
        assert outcome(formats.dump_json, obj) == outcome(json_dumps_oracle, obj)

    @pytest.mark.parametrize("obj", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], 0, -1, 2 ** 100,
        True, None, "x", 1.5, float("nan"), float("-inf"), [1.0, "a"],
        {1: "a", 2: "b"}, {None: 0, True: 1}, {"a": [{"b": 0.5}]},
        {"a": 1, 2: 3}, {"a": {"b": 1, None: 2}}, {"x": object()},
        [set()], {"n": 10 ** 5000}])
    def test_edge_cases_match_json_dumps(self, obj):
        assert outcome(formats.dump_json, obj) == outcome(json_dumps_oracle, obj)

    def test_mixed_keys_raise_json_type_error(self):
        with pytest.raises(TypeError, match="not supported between instances"):
            formats.dump_json({"a": 1, 2: 3})

    def test_subclasses_are_written_by_json(self):
        class Key(str):
            pass

        class Count(int):
            def __repr__(self):
                return "Count"

        class Rows(list):
            pass

        for obj in ({Key("b"): 1, "a": 2}, [Count(3)], {"r": Rows([1, 2])},
                    Rows(["a"]), ["\u00e9", Key("k")]):
            assert formats.dump_json(obj) == json_dumps_oracle(obj)

    def test_cycles_and_deep_nesting_raise_as_json_does(self):
        cyclic = []
        cyclic.append(cyclic)
        deep = []
        for _ in range(100000):
            deep = [deep]
        for obj in (cyclic, {"a": cyclic}, deep):
            got = outcome(formats.dump_json, obj)
            assert got == outcome(json_dumps_oracle, obj)
            assert issubclass(got[0], (ValueError, RecursionError))

    def test_golden_reports_are_written_as_json_writes_them(self):
        golden = sorted(pathlib.Path(__file__).parent.glob("golden/*.json"))
        assert golden
        for path in golden:
            text = path.read_text(encoding="utf-8")
            obj = json.loads(text)
            assert formats.dump_json(obj) == json_dumps_oracle(obj) == text
