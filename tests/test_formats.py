import tracemalloc

import pytest

import procover as pc
from procover import formats
from procover.formats import FormatError
from helpers import (
    b2_homology_spec,
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

    def test_edge_tables_are_built_once_per_document(self, monkeypatch):
        calls = []
        edge_table = formats._edge_table

        def counted(g):
            calls.append(g)
            return edge_table(g)

        monkeypatch.setattr(formats, "_edge_table", counted)
        for order in (2, 4, 8):
            act = rotation_action(8, 8 // order)
            del calls[:]
            obj = formats.action_to_obj(act)
            assert len(calls) == 1
            del calls[:]
            back = formats.action_from_obj(obj, act.graph)
            assert len(calls) == 1
            assert back.morphisms == act.morphisms


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
