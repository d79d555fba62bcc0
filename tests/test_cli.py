import io
import contextlib
import json
import os
import subprocess
import sys

import pytest

import procover as pc
from procover import cli, covering, formats, freegroup
from procover.cli import format_report, main
from helpers import (
    action_deck_isomorphism,
    b2_homology_spec,
    cyclic_rep,
    dihedral_natural_rep,
    dihedral_regular_rep,
    free_actions,
    non_refining_spec,
    parse_report,
    path_graph,
    pro2_tower,
    record_constructions,
    record_spanning_trees,
    rejected_action_documents,
    rotation_action,
    theta_graph,
    three_vertex_base,
    two_cycles,
    wrap_morphism,
    zigzag_tower,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

C3_IDENTITY = formats.morphism_to_obj(
    pc.GraphMorphism.identity(pc.cycle_graph(3)))
ONE_LEVEL = [{"gamma": "c3.json", "delta": "c3.json", "f": "id.json"}]


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return buf.getvalue(), code


def golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture
def data(tmp_path):
    """The standing example files: a regular double cover and an irregular
    degree-three cover."""
    paths = {}
    paths["c6_to_c3"] = str(tmp_path / "c6_to_c3.json")
    formats.save_morphism(paths["c6_to_c3"], wrap_morphism(6, 3))
    _, _, cov = pc.cover_from_subgroup(
        pc.bouquet_graph(2), "v0", pc.PermRep(2, 3, [(1, 0, 2), (0, 2, 1)]))
    paths["deg3_b2"] = str(tmp_path / "deg3_b2.json")
    formats.save_morphism(paths["deg3_b2"], cov.map)
    paths["c6"] = str(tmp_path / "c6.json")
    formats.save_graph(paths["c6"], pc.cycle_graph(6))
    paths["malformed"] = str(tmp_path / "malformed.json")
    with open(paths["malformed"], "w") as fh:
        fh.write('{"format": "alien/9"}')
    return paths


class TestGolden:
    def test_check_cover(self, data):
        out, code = run_cli(["check-cover", data["c6_to_c3"]])
        assert code == 0
        assert out == golden("check_cover_c6_to_c3.txt")

    def test_regular_negative(self, data):
        out, code = run_cli(["regular", data["deg3_b2"]])
        assert code == 1
        assert out == golden("regular_deg3_b2.txt")

    def test_low_index_normal(self):
        out, code = run_cli(["low-index", "--rank", "2", "--max-degree", "3",
                             "--normal"])
        assert code == 0
        assert out == golden("low_index_rank2_deg3_normal.txt")

    @pytest.mark.parametrize("name, base, rep", [
        ("regular_d6_b2", pc.bouquet_graph(2), dihedral_regular_rep(6)),
        ("dihedral12_theta", theta_graph(), dihedral_natural_rep(12))],
        ids=["regular-12", "order-2-of-12"])
    def test_deck(self, tmp_path, name, base, rep):
        """The deck report of a regular cover of degree 12, whose fiber is
        listed in the string order of its names (``v0@10`` before
        ``v0@2``), and of a degree-12 cover with deck order 2; each printed
        vertex map is the vertex map of the element built and validated
        as a morphism."""
        path = str(tmp_path / "cover.json")
        formats.save_morphism(path, pc.cover_from_subgroup(base, "v0", rep)[2].map)
        for mode, argv in (("txt", ["deck", path]),
                           ("json", ["--json", "deck", path])):
            out, code = run_cli(argv)
            assert code == 0 and out == golden("deck_%s.%s" % (name, mode))
        deck = pc.deck_group(pc.as_covering(formats.load_morphism(path)))
        assert 1 < deck.order <= rep.degree
        printed = [e["vertex_map"] for e in json.loads(out)["details"]["elements"]]
        assert printed == [dict(deck.element(i).vmap) for i in range(deck.order)]

    def test_cover_from_rep_off_the_basepoint(self, tmp_path):
        """``cover-from-rep`` at the basepoint b of a three-vertex base,
        where the cover's least vertex a@0 lies over a, and the deck report
        of the morphism it writes."""
        graph, rep = str(tmp_path / "t2.json"), str(tmp_path / "rep.json")
        formats.save_graph(graph, three_vertex_base())
        formats.save_rep(rep, dihedral_natural_rep(12))
        argv = ["cover-from-rep", graph, rep, "--base", "b"]
        for mode, flags in (("txt", []), ("json", ["--json"])):
            out, code = run_cli(flags + argv)
            assert code == 0 and out == golden("cover_from_rep_dihedral12_t2.%s"
                                               % mode)
        assert run_cli(argv + ["--out", str(tmp_path / "cover")])[1] == 0
        out, code = run_cli(["--json", "deck", str(tmp_path / "cover.morphism.json")])
        assert code == 0 and out == golden("deck_dihedral12_t2.json")


class TestExitCodes:
    def test_malformed_input_is_2(self, data):
        out, code = run_cli(["validate", data["malformed"]])
        assert code == 2
        assert "verdict: error" in out

    def test_missing_file_is_2(self):
        _, code = run_cli(["check-cover", "/nonexistent/file.json"])
        assert code == 2

    def test_deeply_nested_document_is_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        out, code = run_cli(["validate", str(path)])
        assert code == 2
        assert "verdict: error" in out
        assert "Traceback" not in capsys.readouterr().err

    def test_negative_verdicts_are_1_not_2(self, data):
        _, code = run_cli(["regular", data["deg3_b2"]])
        assert code == 1

    def test_resource_guard_is_3(self):
        out, code = run_cli(["low-index", "--rank", "3", "--max-degree", "8"])
        assert code == 3
        assert "verdict: refused" in out

    def test_refused_count_too_long_to_print_is_3(self):
        out, code = run_cli(["low-index", "--rank", "20000", "--max-degree", "3"])
        assert code == 3
        assert "verdict: refused" in out and "at least 2^20000" in out

    def test_lift_obstruction_is_1(self, data, tmp_path):
        ident = str(tmp_path / "id_c3.json")
        formats.save_morphism(ident, pc.GraphMorphism.identity(pc.cycle_graph(3)))
        out, code = run_cli(["lift", "--map", ident, "--cover", data["c6_to_c3"],
                             "--source-base", "v0", "--cover-base", "v0"])
        assert code == 1
        assert "witness" in out

    def test_nontransitive_rep_reports_orbits(self, tmp_path):
        rep = str(tmp_path / "split.json")
        formats.save_json(rep, {"format": formats.REP_FORMAT, "rank": 1,
                                "degree": 4, "perms": [[1, 0, 3, 2]]})
        c3 = str(tmp_path / "c3.json")
        formats.save_graph(c3, pc.cycle_graph(3))
        out, code = run_cli(["cover-from-rep", c3, rep])
        assert code == 1
        assert "not transitive" in out
        assert "orbits: [[0, 1], [2, 3]]" in out

    @pytest.mark.parametrize("kind, doc", [
        ("graph", {"format": formats.GRAPH_FORMAT, "vertices": ["v0", 3],
                   "edges": []}),
        ("rep", {"format": formats.REP_FORMAT, "rank": 1, "degree": True,
                 "perms": [[0]]}),
        ("rep", {"format": formats.REP_FORMAT, "rank": 1, "degree": 2,
                 "perms": [[True, False]]}),
        ("rep", {"format": formats.REP_FORMAT, "rank": 1, "degree": 2,
                 "perms": [1]}),
        ("action", {"format": formats.ACTION_FORMAT, "elements": [[1]],
                    "maps": {}}),
        ("congruence", {"format": formats.CONGRUENCE_FORMAT,
                        "vertex_classes": [[1, 2]], "edge_classes": []}),
        ("congruence", {"format": formats.CONGRUENCE_FORMAT,
                        "vertex_classes": [], "edge_classes": [1]}),
        ("congruence", {"format": formats.CONGRUENCE_FORMAT,
                        "vertex_classes": [], "edge_classes": [[1]]}),
        ("morphism", dict(C3_IDENTITY,
                          vertex_map={"v0": ["v0"], "v1": "v1", "v2": "v2"})),
        ("tower", {"format": formats.TOWER_FORMAT, "levels": ONE_LEVEL,
                   "phi": [], "psi": [], "basepoints": 5}),
        ("tower", {"format": formats.TOWER_FORMAT, "levels": ONE_LEVEL,
                   "phi": [], "psi": [], "basepoints": [["v0"]]}),
        ("tower", {"format": formats.TOWER_FORMAT, "levels": ONE_LEVEL,
                   "phi": [5], "psi": []}),
        ("tower", {"format": formats.TOWER_FORMAT, "levels": ONE_LEVEL,
                   "phi": [], "psi": [5]}),
        ("universal", {"format": formats.UNIVERSAL_FORMAT, "base": "c3.json",
                       "basepoint": "v0", "quotients": [5], "normals": []}),
        ("universal", {"format": formats.UNIVERSAL_FORMAT, "base": "c3.json",
                       "basepoint": "v0", "quotients": [], "normals": [5]}),
        ("rep", {"format": formats.REP_FORMAT, "rank": 0, "degree": 2,
                 "perms": []}),
        ("rep", {"format": formats.REP_FORMAT, "rank": 0, "degree": 10 ** 6,
                 "perms": []}),
        ("congruence", {"format": formats.CONGRUENCE_FORMAT,
                        "vertex_classes": [["v0", "w9"]], "edge_classes": []}),
        ("good-pair", {"format": formats.CONGRUENCE_FORMAT,
                       "vertex_classes": [["w9"]], "edge_classes": []}),
        ("action", {"format": formats.ACTION_FORMAT, "elements": [],
                    "maps": {}}),
        ("tower", {"format": formats.TOWER_FORMAT, "levels": ONE_LEVEL,
                   "phi": ["id.json"], "psi": []}),
        ("tower", {"format": formats.TOWER_FORMAT, "levels": ONE_LEVEL,
                   "phi": [], "psi": ["id.json"]}),
        ("graph", {"format": formats.GRAPH_FORMAT, "vertices": ["v0"],
                   "edges": [], "name": ["x", {"y": 1}]}),
    ])
    def test_mistyped_document_is_2(self, tmp_path, capsys, kind, doc):
        path = str(tmp_path / "doc.json")
        formats.save_json(path, doc)
        c3 = str(tmp_path / "c3.json")
        formats.save_graph(c3, pc.cycle_graph(3))
        formats.save_json(str(tmp_path / "id.json"), C3_IDENTITY)
        argv = {"graph": ["validate", path],
                "rep": ["cover-from-rep", c3, path],
                "action": ["orbit-quotient", c3, path],
                "congruence": ["quotient", c3, path],
                "good-pair": ["good-pair", str(tmp_path / "id.json"),
                                    path, path],
                "morphism": ["check-cover", path],
                "tower": ["tower", "deck", path],
                "universal": ["tower", "universal", path]}[kind]
        out, code = run_cli(argv)
        assert code == 2
        assert "verdict: error" in out
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["quotient", "graph", "congruence"], ["image-subgroup", "morphism"],
        ["regular", "morphism"], ["deck", "morphism"],
        ["deck-quotient", "morphism", "--elements", "0"],
        ["lift", "--map", "morphism", "--cover", "morphism",
         "--source-base", "v0", "--cover-base", "v0"],
        ["good-pair", "morphism", "congruence", "congruence"],
        ["check-cover", "morphism"], ["orbit-quotient", "graph", "action"],
        ["tower", "universal", "spec"],
        ["tower", "fibers", "manifest", "--vertex", "v0"],
        ["tower", "good-pairs", "manifest"],
        ["tower", "pi1-trivial", "manifest", "--max-index", "2"],
        ["tower", "validate", "manifest"], ["tower", "deck", "manifest"],
        ["pi1", "graph"], ["cover-from-rep", "graph", "rep"]],
        ids=lambda argv: " ".join(argv[:2]))
    def test_dangling_incidence_is_2(self, tmp_path, capsys, command):
        """A graph whose edge ends at an undeclared vertex stops at the
        loader wherever it is read: alone, embedded in a morphism, under
        an action, as a tower level or as a universal spec's base."""
        def path(name):
            return str(tmp_path / (name + ".json"))

        damaged = {"format": formats.GRAPH_FORMAT, "vertices": ["v0"],
                   "edges": [{"id": "e0", "src": "v0", "dst": "ghost"}]}
        maps = {"vertex_map": {"v0": "v0"},
                "edge_map": {"e0": {"edge": "e0", "flip": False}}}
        formats.save_json(path("graph"), damaged)
        formats.save_json(path("congruence"), {
            "format": formats.CONGRUENCE_FORMAT, "vertex_classes": [],
            "edge_classes": []})
        formats.save_json(path("morphism"), dict(
            maps, format=formats.MORPHISM_FORMAT, domain=damaged,
            codomain=damaged))
        formats.save_json(path("map"), dict(maps, format=formats.MORPHISM_FORMAT))
        formats.save_json(path("action"), {
            "format": formats.ACTION_FORMAT, "elements": ["id"],
            "maps": {"id": maps}})
        formats.save_json(path("spec"), {
            "format": formats.UNIVERSAL_FORMAT, "base": "graph.json",
            "basepoint": "v0", "quotients": [], "normals": []})
        formats.save_json(path("manifest"), {
            "format": formats.TOWER_FORMAT, "phi": [], "psi": [],
            "levels": [{"gamma": "graph.json", "delta": "graph.json",
                        "f": "map.json"}]})
        formats.save_rep(path("rep"), pc.PermRep(1, 1, [(0,)]))
        names = {"graph", "congruence", "morphism", "action", "spec",
                 "manifest", "rep"}
        out, code = run_cli([path(x) if x in names else x for x in command])
        assert code == 2
        assert "verdict: error" in out
        assert "edge 'e0' ends at unknown vertex 'ghost'" in out
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("name, witness", [
        ("no identity", ["r"]), ("non-bijective idempotent", ["f", "e1+"])])
    def test_action_rejection_has_witness(self, tmp_path, name, witness):
        graph, morphisms = rejected_action_documents()[name]
        g, action = str(tmp_path / "g.json"), str(tmp_path / "action.json")
        formats.save_graph(g, graph)
        formats.save_json(action, {
            "format": formats.ACTION_FORMAT, "elements": sorted(morphisms),
            "maps": {e: formats.morphism_to_obj(m, embed_graphs=False)
                     for e, m in morphisms.items()}})
        out, code = run_cli(["--json", "orbit-quotient", g, action])
        assert code == 1
        assert json.loads(out)["details"]["witness"] == witness

    @pytest.mark.parametrize("command", [["deck"],
                                         ["deck-quotient", "--elements", "0"]])
    def test_disconnected_base_is_2(self, tmp_path, capsys, command):
        c3 = pc.cycle_graph(3)
        f = pc.GraphMorphism(c3, two_cycles(3),
                             {"v%d" % i: "a%d" % i for i in range(3)},
                             {d: "ea" + d[1:] for d in c3.darts})
        path = str(tmp_path / "c3_into_2c3.json")
        formats.save_morphism(path, f)
        out, code = run_cli(command[:1] + [path] + command[1:])
        assert code == 2
        assert "verdict: error" in out
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("elements", [["--elements", ","], ["--elements="]])
    def test_empty_deck_selection_is_2(self, tmp_path, capsys, elements):
        path = str(tmp_path / "c6_to_c3.json")
        formats.save_morphism(path, wrap_morphism(6, 3))
        out, code = run_cli(["deck-quotient", path] + elements)
        assert code == 2
        assert "verdict: error" in out and "no deck element index given" in out
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("elements,message", [
        (",", "no deck element index given"), ("x", "invalid literal"),
        ("0,x", "invalid literal")])
    def test_bad_deck_selection_is_2_before_the_deck_group(
            self, tmp_path, monkeypatch, elements, message):
        path = str(tmp_path / "c6_to_c3.json")
        formats.save_morphism(path, wrap_morphism(6, 3))

        def no_deck_group(cov):
            raise AssertionError("deck_group ran before the selection was parsed")

        monkeypatch.setattr(cli, "deck_group", no_deck_group)
        out, code = run_cli(["deck-quotient", path, "--elements", elements])
        assert code == 2
        assert "verdict: error" in out and message in out

    @pytest.mark.parametrize("command", [
        ["pi1", "graph"], ["cover-from-rep", "graph", "rep"],
        ["image-subgroup", "morphism"], ["deck", "morphism"],
        ["regular", "morphism"], ["deck-quotient", "morphism", "--elements", "0"],
        ["check-cover", "morphism"]])
    def test_empty_graph_is_2(self, tmp_path, capsys, command):
        empty = pc.FiniteGraph([], [], {}, {})
        paths = {"graph": str(tmp_path / "empty.json"),
                 "morphism": str(tmp_path / "empty_id.json"),
                 "rep": str(tmp_path / "rep.json")}
        formats.save_graph(paths["graph"], empty)
        formats.save_morphism(paths["morphism"], pc.GraphMorphism.identity(empty))
        formats.save_rep(paths["rep"], pc.PermRep(0, 1, []))
        out, code = run_cli([paths.get(x, x) for x in command])
        assert code == 2
        assert "verdict: error" in out and "no vertices" in out
        assert "Traceback" not in capsys.readouterr().err

    def test_empty_graph_is_not_connected(self, tmp_path):
        path = str(tmp_path / "empty.json")
        formats.save_graph(path, pc.FiniteGraph([], [], {}, {}))
        out, code = run_cli(["--json", "validate", path])
        assert code == 0
        assert json.loads(out)["details"]["connected"] is False

    @pytest.mark.parametrize("elements", ["0,99", "-1", "4"])
    def test_deck_index_out_of_range_is_2(self, tmp_path, capsys, elements):
        f = str(tmp_path / "c12.json")
        formats.save_morphism(f, wrap_morphism(12, 3))
        out, code = run_cli(["deck-quotient", f, "--elements", elements])
        assert code == 2
        assert "verdict: error" in out and "outside 0..3" in out
        assert "Traceback" not in capsys.readouterr().err

    def test_deep_low_index_search_is_0(self, capsys):
        out, code = run_cli(["--json", "low-index", "--rank", "600",
                             "--max-degree", "1"])
        assert code == 0
        details = json.loads(out)["details"]
        assert details["total"] == 1 and len(details["reps"]) == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("error", [
        RuntimeError("internal check failed"), RecursionError("too deep"),
        KeyError("v9"), TypeError("bad operand"), ZeroDivisionError("x"),
        AssertionError("invariant")], ids=lambda e: type(e).__name__)
    def test_unexpected_exception_is_4(self, data, capsys, monkeypatch, error):
        def broken(graph):
            raise error

        monkeypatch.setattr(cli, "validate_graph", broken)
        out, code = run_cli(["--json", "validate", data["c6"]])
        assert code == 4
        report = json.loads(out)
        assert report["verdict"] == "internal error"
        assert report["details"]["error"] == "%s: %s" % (
            type(error).__name__, error)
        assert report["details"]["raised_at"].startswith("test_cli.py:")
        assert "Traceback" not in capsys.readouterr().err

    def test_not_a_covering_is_1(self, tmp_path):
        p2, c3 = path_graph(2), pc.cycle_graph(3)
        f = pc.GraphMorphism(p2, c3, {"v0": "v0", "v1": "v1"},
                             {"e0+": "e0+", "e0-": "e0-"})
        path = str(tmp_path / "notcover.json")
        formats.save_morphism(path, f)
        out, code = run_cli(["check-cover", path])
        assert code == 1
        assert "not a covering" in out


def negative_case_argv(name, tmp_path):
    """Write the input files of one exit-1 verdict that the CLI reaches by
    exception; returns the command line."""
    def path(filename):
        return str(tmp_path / filename)

    c3 = pc.cycle_graph(3)
    formats.save_graph(path("c3.json"), c3)
    if name == "check-cover":
        p2 = path_graph(2)
        formats.save_morphism(path("f.json"), pc.GraphMorphism(
            p2, c3, {"v0": "v0", "v1": "v1"}, {"e0+": "e0+", "e0-": "e0-"}))
        return ["check-cover", path("f.json")]
    if name == "lift":
        formats.save_morphism(path("id.json"), pc.GraphMorphism.identity(c3))
        formats.save_morphism(path("cover.json"), wrap_morphism(6, 3))
        return ["lift", "--map", path("id.json"), "--cover", path("cover.json"),
                "--source-base", "v0", "--cover-base", "v0"]
    if name == "tower-universal":
        formats.save_congruence(path("diag.json"), pc.Congruence.diagonal(c3))
        formats.save_rep(path("n0.json"), cyclic_rep(2))
        formats.save_rep(path("n1.json"), cyclic_rep(3))
        formats.save_json(path("spec.json"), {
            "format": formats.UNIVERSAL_FORMAT, "base": "c3.json",
            "basepoint": "v0", "quotients": ["diag.json", "diag.json"],
            "normals": ["n0.json", "n1.json"]})
        return ["tower", "universal", path("spec.json")]
    if name == "quotient":
        formats.save_json(path("r.json"), {
            "format": formats.CONGRUENCE_FORMAT, "vertex_classes": [],
            "edge_classes": [[{"edge": "e0", "flip": False},
                              {"edge": "e1", "flip": False}]]})
        return ["quotient", path("c3.json"), path("r.json")]
    if name == "cover-from-rep":
        formats.save_json(path("rep.json"), {
            "format": formats.REP_FORMAT, "rank": 1, "degree": 4,
            "perms": [[1, 0, 3, 2]]})
        return ["cover-from-rep", path("c3.json"), path("rep.json")]
    if name.startswith("orbit-quotient"):
        if name == "orbit-quotient-not-free":
            graph = pc.cycle_graph(6)
            refl = pc.GraphMorphism(
                graph, graph, {"v%d" % i: "v%d" % (-i % 6) for i in range(6)},
                {"e%d%s" % (i, s): "e%d%s" % ((5 - i) % 6, "-" if s == "+" else "+")
                 for i in range(6) for s in "+-"})
            morphisms = {"id": pc.GraphMorphism.identity(graph), "r": refl}
        else:
            graph, morphisms = rejected_action_documents()["no identity"]
        formats.save_graph(path("g.json"), graph)
        formats.save_json(path("action.json"), {
            "format": formats.ACTION_FORMAT, "elements": sorted(morphisms),
            "maps": {e: formats.morphism_to_obj(m, embed_graphs=False)
                     for e, m in morphisms.items()}})
        return ["orbit-quotient", path("g.json"), path("action.json")]
    if name == "tower-deck":
        _, _, cov = pc.cover_from_subgroup(
            pc.bouquet_graph(2), "v0", pc.PermRep(2, 3, [(1, 0, 2), (0, 2, 1)]))
        return ["tower", "deck",
                formats.save_tower(path("tower"), pc.Tower([cov], [], []))]
    raise KeyError(name)


NEGATIVE_CASES = ["check-cover", "lift", "tower-universal", "quotient",
                  "cover-from-rep", "orbit-quotient", "orbit-quotient-not-free",
                  "tower-deck"]


class TestNegativeVerdictReports:
    """Each exit-1 verdict reached by exception prints exactly the report
    recorded in ``tests/golden/negative_*``: verdict, every details key in
    order, witness, in text and in ``--json`` mode."""

    @pytest.mark.parametrize("mode", ["txt", "json"])
    @pytest.mark.parametrize("name", NEGATIVE_CASES)
    def test_report_is_pinned(self, tmp_path, name, mode):
        argv = negative_case_argv(name, tmp_path)
        out, code = run_cli((["--json"] if mode == "json" else []) + argv)
        assert code == 1
        assert out == golden("negative_%s.%s" % (name, mode))


# where a command that returns its own exit-1 verdict keeps the evidence
EXIT_1_EVIDENCE = {
    "validate": ["violations"],
    "tower validate": ["violations"],
    "regular": ["deck_order", "image_normal", "fiber_transitive"],
    "good-pair": ["witness"],
    "tower pi1-trivial": ["witness"],
    "tower good-pairs": ["pairs"],
}


def evidence_case_argv(command, tmp_path):
    """Write the files for one command of ``EXIT_1_EVIDENCE`` that make it
    return its negative verdict; returns the command line."""
    def path(filename):
        return str(tmp_path / filename)

    if command == "validate":
        formats.save_json(path("bad.json"), {
            "format": formats.GRAPH_FORMAT, "vertices": ["v0"],
            "edges": [{"id": "e0", "src": "v0", "dst": "ghost"}]})
        return ["validate", path("bad.json")]
    if command == "regular":
        _, _, cov = pc.cover_from_subgroup(
            pc.bouquet_graph(2), "v0", pc.PermRep(2, 3, [(1, 0, 2), (0, 2, 1)]))
        formats.save_morphism(path("deg3_b2.json"), cov.map)
        return ["regular", path("deg3_b2.json")]
    if command == "good-pair":
        b2 = pc.bouquet_graph(2)
        formats.save_morphism(path("id_b2.json"), pc.GraphMorphism.identity(b2))
        formats.save_congruence(path("diag.json"), pc.Congruence.diagonal(b2))
        formats.save_congruence(path("merged.json"), pc.Congruence(
            b2, dart_classes=[["e0+", "e1+"], ["e0-", "e1-"]]))
        return ["good-pair", path("id_b2.json"), path("diag.json"),
                path("merged.json")]
    if command == "tower pi1-trivial":
        manifest = formats.save_tower(path("pro2"), pro2_tower(3))
        return ["tower", "pi1-trivial", manifest, "--max-index", "3"]
    return command.split() + [formats.save_tower(path("zigzag"), zigzag_tower())]


class TestExitOneEvidence:
    @pytest.mark.parametrize("command", sorted(EXIT_1_EVIDENCE))
    def test_evidence_keys_are_filled(self, tmp_path, command):
        out, code = run_cli(["--json"] + evidence_case_argv(command, tmp_path))
        assert code == 1
        details = json.loads(out)["details"]
        for key in EXIT_1_EVIDENCE[command]:
            assert details.get(key) not in (None, [], {}, "")


class TestOneParser:
    def test_commands_in_one_process_match_fresh_processes(
            self, data, monkeypatch):
        commands = [
            ["--json", "--seed", "7", "validate", data["c6"]],
            ["validate", data["c6"]],
            ["regular", data["deg3_b2"]],
            ["--json", "low-index", "--rank", "2", "--max-degree", "3",
             "--normal"],
            ["check-cover", data["c6_to_c3"]],
            ["--max-work", "5", "low-index", "--rank", "3", "--max-degree",
             "3"],
            ["--json", "pi1", data["c6"], "--base", "v2"],
            ["validate", data["malformed"]],
        ]
        src = os.path.dirname(os.path.dirname(pc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for k, argv in enumerate(commands):
            out, code = run_cli(argv)
            if k == 0:
                # the parser is built once per process, by the first call
                monkeypatch.setattr(cli, "build_parser", None)
            fresh = subprocess.run([sys.executable, "-m", "procover"] + argv,
                                   capture_output=True, text=True, env=env)
            assert (out, code) == (fresh.stdout, fresh.returncode)


class TestJson:
    def test_byte_identical_runs(self, data):
        out1, _ = run_cli(["--json", "--seed", "3", "check-cover", data["c6_to_c3"]])
        out2, _ = run_cli(["--json", "--seed", "3", "check-cover", data["c6_to_c3"]])
        assert out1 == out2

    def test_report_round_trip(self, data):
        out, _ = run_cli(["--json", "regular", data["deg3_b2"]])
        report = parse_report(out)
        assert report.verdict == "not regular"
        again = format_report(report, json_mode=True)
        assert parse_report(again).details == report.details

    def test_seed_recorded(self, data):
        out, _ = run_cli(["--json", "--seed", "42", "check-cover", data["c6_to_c3"]])
        assert json.loads(out)["seed"] == 42

    def test_same_verdict_both_modes(self, data):
        text, _ = run_cli(["regular", data["deg3_b2"]])
        struct, _ = run_cli(["--json", "regular", data["deg3_b2"]])
        assert text.splitlines()[0] == "verdict: not regular"
        assert json.loads(struct)["verdict"] == "not regular"


class TestCommands:
    def test_validate(self, data):
        out, code = run_cli(["validate", data["c6"]])
        assert code == 0 and "verdict: valid" in out

    def test_validate_invalid_graph(self, tmp_path):
        path = str(tmp_path / "bad.json")
        formats.save_json(path, {
            "format": formats.GRAPH_FORMAT, "vertices": ["v0"],
            "edges": [{"id": "e0", "src": "v0", "dst": "ghost"}]})
        out, code = run_cli(["validate", path])
        assert code == 1 and "dangling-incidence" in out

    def test_quotient(self, data, tmp_path):
        cong = str(tmp_path / "antipodal.json")
        formats.save_congruence(cong, pc.kernel_congruence(wrap_morphism(6, 3)))
        out_graph = str(tmp_path / "q.json")
        out, code = run_cli(["quotient", data["c6"], cong,
                             "--out-graph", out_graph])
        assert code == 0
        assert formats.load_graph(out_graph).edge_count() == 3

    def test_quotient_derives_no_star_on_its_graph(
            self, data, tmp_path, monkeypatch,
            constructed_values_equal_the_checked_ones):
        """``quotient`` reads the loaded graph's tables and its edge table,
        and never walks it: no star is derived."""
        cong = str(tmp_path / "antipodal.json")
        formats.save_congruence(cong, pc.kernel_congruence(wrap_morphism(6, 3)))
        record_constructions(monkeypatch, constructed_values_equal_the_checked_ones)
        loaded, quotient = [], cli.quotient

        def recorded(g, r):
            loaded.append(g)
            return quotient(g, r)

        monkeypatch.setattr(cli, "quotient", recorded)
        out, code = run_cli(["--json", "quotient", data["c6"], cong])
        assert code == 0 and json.loads(out)["details"]["edges"] == 3
        assert len(loaded) == 1 and "_star" not in vars(loaded[0])

    def test_pi1(self, data):
        out, code = run_cli(["pi1", data["c6"]])
        assert code == 0 and "rank: 1" in out

    def test_cover_from_rep_and_image_subgroup(self, tmp_path):
        b2 = str(tmp_path / "b2.json")
        formats.save_graph(b2, pc.bouquet_graph(2))
        rep = str(tmp_path / "rep.json")
        formats.save_rep(rep, pc.translation_kernel_rep(2, 2))
        prefix = str(tmp_path / "cover")
        out, code = run_cli(["cover-from-rep", b2, rep, "--out", prefix])
        assert code == 0 and "degree: 4" in out
        out, code = run_cli(["image-subgroup", prefix + ".morphism.json"])
        assert code == 0 and "normal: true" in out

    @pytest.mark.parametrize("rep", [pc.translation_kernel_rep(2, 4),
                                     pc.translation_kernel_rep(2, 6),
                                     dihedral_natural_rep(48)],
                             ids=["16", "36", "48"])
    def test_cover_from_rep_reads_what_the_transport_gives(self, tmp_path,
                                                           monkeypatch, rep):
        """``cover-from-rep`` prints the same report when the cover keeps the
        lift table of the voltage construction as when it reads the table
        off the stars, over the bouquet and over theta at its least vertex
        and at ``--base v1`` (whose cover's least vertex lies off the
        basepoint)."""
        rep_path = str(tmp_path / "rep.json")
        formats.save_rep(rep_path, rep)
        runs = []
        for name, base in (("b2", pc.bouquet_graph(2)), ("theta", theta_graph())):
            path = str(tmp_path / (name + ".json"))
            formats.save_graph(path, base)
            runs.append(["--json", "cover-from-rep", path, rep_path])
        runs.append(runs[-1] + ["--base", "v1"])
        carried = [run_cli(argv) for argv in runs]
        build = cli.cover_from_subgroup

        def carrying_nothing(*args, **kwargs):
            cover, a, cov = build(*args, **kwargs)
            return cover, a, pc.Covering(cov.map)

        monkeypatch.setattr(cli, "cover_from_subgroup", carrying_nothing)
        assert carried == [run_cli(argv) for argv in runs]
        assert [code for _out, code in carried] == [0, 0, 0]

    def test_cover_from_rep_builds_pi1_data_once_per_basepoint(
            self, tmp_path, monkeypatch):
        """``cover-from-rep`` builds ``pi1_data`` at ``--base`` once, with
        one spanning tree, and ``cover_from_subgroup`` and
        ``image_subgroup`` read the kept one.  At ``--base b`` of the
        three-vertex base the cover's least vertex a@0 lies over a, and
        no tree is built there: the deck order is read off the image at
        the basepoint."""
        graph, rep = str(tmp_path / "t2.json"), str(tmp_path / "rep.json")
        formats.save_graph(graph, three_vertex_base())
        formats.save_rep(rep, pc.translation_kernel_rep(2, 2))
        calls = record_spanning_trees(monkeypatch)
        for base in ("a", "b"):
            del calls[:]
            _out, code = run_cli(["cover-from-rep", graph, rep, "--base", base])
            assert code == 0
            assert [b for _g, b in calls] == [base]

    def test_cover_from_rep_transports_once_at_every_base(self, tmp_path,
                                                          monkeypatch):
        """On the 3-cycle with the 4-point cyclic action, ``cover-from-rep``
        makes one sheet transport and builds one spanning tree, at
        ``--base``, whether or not the cover's least vertex v0@0 lies over
        it, and prints the deck order and regularity that ``is_regular``
        reads off the first vertex."""
        graph, rep = str(tmp_path / "c3.json"), str(tmp_path / "rep.json")
        formats.save_graph(graph, pc.cycle_graph(3))
        formats.save_rep(rep, cyclic_rep(4))
        trees = record_spanning_trees(monkeypatch)
        sheet_rows, transported = covering._sheet_rows, []

        def recorded(c, a, p):
            transported.append((a, p.basepoint))
            return sheet_rows(c, a, p)

        monkeypatch.setattr(covering, "_sheet_rows", recorded)
        for base, at in (("v0", "v0@0"), ("v1", "v1@0")):
            del trees[:], transported[:]
            out, code = run_cli(["--json", "cover-from-rep", graph, rep,
                                 "--base", base])
            assert code == 0
            assert [(g.name, b) for g, b in trees] == [("C3", base)]
            assert transported == [(at, base)]
            details = json.loads(out)["details"]
            cov = pc.as_covering(formats.morphism_from_obj(details["morphism"]))
            want = pc.is_regular(cov)
            assert (details["deck_order"], details["regular"]) == \
                (want.deck_order, want.regular) == (4, True)

    def test_deck(self, data):
        out, code = run_cli(["deck", data["c6_to_c3"]])
        assert code == 0 and "order: 2" in out

    @pytest.mark.parametrize("argv, coverings, searches", [
        (["deck"], 1, 1), (["regular"], 1, 1), (["image-subgroup"], 1, 0),
        (["image-subgroup", "--basepoint", "v0@3"], 1, 0),
        (["deck-quotient", "--elements", "0,1"], 2, 2)],
        ids=["deck", "regular", "image-subgroup", "image-subgroup-v0@3",
             "deck-quotient"])
    def test_a_loaded_cover_is_transported_once(self, tmp_path, monkeypatch,
                                                argv, coverings, searches):
        """A command on a loaded cover transports each covering it reads
        once and searches the normalizer at most once per covering, on the
        monodromy that transport gave (``image-subgroup`` decides
        normality with no search).  ``deck`` reads the order from
        ``is_regular`` and the group from ``deck_group``, one transport and
        one search between them; ``deck-quotient`` also reads the
        regularity of its lower map, a second covering."""
        path = str(tmp_path / "cover.json")
        formats.save_morphism(path, pc.cover_from_subgroup(
            pc.bouquet_graph(2), "v0", pc.translation_kernel_rep(2, 2))[2].map)
        sheet_rows, search = covering._sheet_rows, freegroup._normalizer_generators
        transported, searched = [], []

        def recorded(c, a, p):
            transported.append(c)
            return sheet_rows(c, a, p)

        def counted(rep):
            searched.append(rep)
            return search(rep)

        monkeypatch.setattr(covering, "_sheet_rows", recorded)
        monkeypatch.setattr(freegroup, "_normalizer_generators", counted)
        _out, code = run_cli(argv[:1] + [path] + argv[1:])
        assert code == 0
        assert len(set(map(id, transported))) == len(transported) == coverings
        kept = {id(c._sheets[1]) for c in transported if "_sheets" in vars(c)}
        assert len({id(rep) for rep in searched} & kept) == len(searched) == searches

    @pytest.mark.parametrize("budget, expected", [(49, 3), (50, 0)])
    def test_low_index_charges_its_index_rows(self, budget, expected):
        """At rank 0 the enumeration finds one subgroup whatever the
        degree, and the report prints one ``index n`` row per degree: 50
        rows are refused one below that budget, in the units of ``deck``,
        and answered at it.  At rank 1 the enumeration refuses first, in
        its own words."""
        argv = ["--max-work", str(budget), "low-index", "--rank", "0",
                "--max-degree", "50"]
        out, code = run_cli(argv)
        assert code == expected
        if expected == 3:
            assert out == (
                "verdict: refused\nerror: the low-index report has 50 index "
                "rows (one per degree), above the work bound 49; raise "
                "--max-work to proceed\n")
        else:
            assert "index 50: 0" in out and "total: 1" in out
        argv[argv.index("0")] = "1"
        out, code = run_cli(argv)
        assert code == expected
        assert ("at least 50 subgroups (those of degree <= 50)" in out) == \
            (expected == 3)

    @pytest.mark.parametrize("budget, expected", [(11, 3), (12, 0)])
    def test_deck_charges_its_vertex_map_entries(self, data, monkeypatch,
                                                 budget, expected):
        """Two elements of a six-vertex cover print 12 vertex-map entries:
        refused one below that, and answered at it.  Either way no element
        is built: the printed maps are read off the sheet rows, and they
        are the elements' vertex maps.  The refusal charges the order that
        ``is_regular`` gives and builds no deck group."""
        element, build = pc.DeckGroup.element, cli.deck_group
        deck = pc.deck_group(pc.as_covering(
            formats.load_morphism(data["c6_to_c3"])))
        want = [dict(element(deck, i).vmap) for i in range(deck.order)]

        def counted(deck, i):
            built.append(i)
            return element(deck, i)

        def deck_group(cov):
            decks.append(cov)
            return build(cov)

        built, decks = [], []
        monkeypatch.setattr(pc.DeckGroup, "element", counted)
        monkeypatch.setattr(cli, "deck_group", deck_group)
        out, code = run_cli(["--json", "--max-work", str(budget), "deck",
                             data["c6_to_c3"]])
        assert code == expected
        assert built == []
        details = json.loads(out)["details"]
        if expected == 3:
            assert decks == []
            error = ("the deck report has 12 vertex-map entries (2 elements "
                     "of 6 vertices), above the work bound 11; raise "
                     "--max-work to proceed")
            assert json.loads(out) == {
                "details": {"error": error}, "format": "procover-report/1",
                "verdict": "refused", "warnings": []}
            assert run_cli(["--max-work", str(budget), "deck",
                            data["c6_to_c3"]]) == (
                "verdict: refused\nerror: %s\n" % error, 3)
        else:
            assert len(decks) == 1
            assert [e["vertex_map"] for e in details["elements"]] == want

    def test_deck_quotient_of_a_non_subgroup_builds_no_element(
            self, tmp_path, monkeypatch):
        f = str(tmp_path / "c12.json")
        formats.save_morphism(f, wrap_morphism(12, 3))

        def no_element(deck, i):
            raise AssertionError("deck element %d was built" % i)

        monkeypatch.setattr(pc.DeckGroup, "element", no_element)
        out, code = run_cli(["--json", "deck-quotient", f, "--elements", "0,1"])
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "negative"
        assert report["details"]["witness"] == ["0", "1"]
        out, code = run_cli(["--json", "deck-quotient", f, "--elements", "0,2"])
        assert code == 0 and json.loads(out)["details"]["subgroup_order"] == 2

    def test_orbit_quotient(self, tmp_path, data):
        action = str(tmp_path / "action.json")
        formats.save_json(action, formats.action_to_obj(rotation_action(6, 3)))
        out, code = run_cli(["orbit-quotient", data["c6"], action])
        assert code == 0
        assert "regular: true" in out

    @pytest.mark.parametrize("name", sorted(free_actions()))
    def test_orbit_quotient_builds_no_deck_group(self, tmp_path, monkeypatch,
                                                 name):
        act = free_actions()[name]
        g, action = str(tmp_path / "g.json"), str(tmp_path / "action.json")
        formats.save_graph(g, act.graph)
        formats.save_json(action, formats.action_to_obj(act))
        loaded = formats.load_action(action, act.graph)
        qg, cov = pc.quotient_by_group(loaded)
        want = {"group_order": len(act.elements), "degree": len(act.elements),
                "vertices": len(qg.vertices), "edges": qg.edge_count(),
                "regular": True,
                "deck_isomorphism": action_deck_isomorphism(
                    loaded, pc.deck_group(cov))}

        def no_deck_group(c):
            raise AssertionError("orbit-quotient built a deck group")

        monkeypatch.setattr(cli, "deck_group", no_deck_group)
        out, code = run_cli(["--json", "orbit-quotient", g, action])
        assert code == 0
        report = parse_report(out)
        assert report.verdict == "orbit-quotient"
        assert report.details == want

    def test_deck_quotient(self, tmp_path):
        f = str(tmp_path / "c12.json")
        formats.save_morphism(f, wrap_morphism(12, 3))
        out, code = run_cli(["deck-quotient", f, "--elements", "0,2"])
        assert code == 0
        assert "subgroup_order: 2" in out
        _, code = run_cli(["deck-quotient", f, "--elements", "1"])
        assert code == 1

    def test_good_pair(self, tmp_path):
        b2 = pc.bouquet_graph(2)
        f = str(tmp_path / "id_b2.json")
        formats.save_morphism(f, pc.GraphMorphism.identity(b2))
        diag = str(tmp_path / "diag.json")
        formats.save_congruence(diag, pc.Congruence.diagonal(b2))
        merged = str(tmp_path / "merged.json")
        formats.save_congruence(merged, pc.Congruence(
            b2, dart_classes=[["e0+", "e1+"], ["e0-", "e1-"]]))
        out, code = run_cli(["good-pair", f, diag, diag])
        assert code == 0 and "regular_good" in out
        out, code = run_cli(["good-pair", f, diag, merged])
        assert code == 1 and "verdict: half" in out


class TestTowerCommands:
    @pytest.fixture
    def manifest(self, tmp_path):
        return formats.save_tower(str(tmp_path), pro2_tower(3))

    def test_validate(self, manifest):
        out, code = run_cli(["tower", "validate", manifest])
        assert code == 0 and "verdict: valid" in out

    def test_good_pairs(self, manifest):
        out, code = run_cli(["tower", "good-pairs", manifest])
        assert code == 0 and "regular_good" in out

    @pytest.mark.parametrize("top", ["9", "4", "-1"])
    def test_good_pairs_missing_level_is_2(self, manifest, top):
        out, code = run_cli(["tower", "good-pairs", manifest, "--top", top])
        assert code == 2
        assert "verdict: error" in out and "no level" in out

    def test_deck(self, manifest):
        out, code = run_cli(["tower", "deck", manifest])
        assert code == 0 and "orders: [1, 2, 4, 8]" in out

    def test_pi1_trivial(self, manifest):
        out, code = run_cli(["tower", "pi1-trivial", manifest,
                             "--max-index", "2"])
        assert code == 0 and "trivial to index 2" in out
        out, code = run_cli(["tower", "pi1-trivial", manifest,
                             "--max-index", "3"])
        assert code == 1 and "not trivial to index 3" in out

    def test_pi1_trivial_all_levels(self, manifest):
        out, code = run_cli(["--json", "tower", "pi1-trivial", manifest,
                             "--max-index", "2"])
        default = json.loads(out)
        assert code == 0
        assert {row["level"] for row in default["details"]["pairs"]} == {0}
        out, code = run_cli(["--json", "tower", "pi1-trivial", manifest,
                             "--max-index", "2", "--all-levels"])
        full = json.loads(out)
        assert code == 0 and full["verdict"] == default["verdict"]
        rows = full["details"]["pairs"]
        assert [row["level"] for row in rows] == [0, 0, 1, 1, 2, 2, 3, 3]
        assert [row for row in rows if row["level"] == 0] == \
            default["details"]["pairs"]

    def test_deck_irregular_level_has_witness(self, tmp_path):
        _, _, cov = pc.cover_from_subgroup(
            pc.bouquet_graph(2), "v0", pc.PermRep(2, 3, [(1, 0, 2), (0, 2, 1)]))
        manifest = formats.save_tower(str(tmp_path), pc.Tower([cov], [], []))
        out, code = run_cli(["--json", "tower", "deck", manifest])
        report = json.loads(out)
        assert code == 1
        assert report["details"]["error"] == "level 0 is not a regular covering"
        assert report["details"]["witness"] == ["0"]

    def test_disconnected_level_has_witness(self, tmp_path):
        both = two_cycles(3)
        f = pc.GraphMorphism(both, pc.cycle_graph(3),
                             {v: "v" + v[1:] for v in both.vertices},
                             {d: "e" + d[2:] for d in both.darts})
        manifest = formats.save_tower(
            str(tmp_path), pc.Tower([pc.as_covering(f)], [], [], basepoints=["a0"]))
        for command in (["deck"], ["pi1-trivial", "--max-index", "2"]):
            out, code = run_cli(["--json", "tower", command[0], manifest]
                                + command[1:])
            report = json.loads(out)
            assert code == 1
            assert report["details"]["error"] == "level 0 is not connected"
            assert report["details"]["witness"] == ["0"]

    def test_pi1_trivial_without_basepoints_is_2(self, tmp_path, capsys):
        t = pro2_tower(1)
        manifest = formats.save_tower(
            str(tmp_path), pc.Tower(t.coverings, t.cover_steps, t.base_steps))
        out, code = run_cli(["--json", "tower", "pi1-trivial", manifest,
                             "--max-index", "2"])
        report = json.loads(out)
        assert code == 2
        assert report["verdict"] == "error"
        assert report["details"]["error"] == "this operation needs a basepoint thread"
        assert "Traceback" not in capsys.readouterr().err

    @staticmethod
    def universal_spec(tmp_path, base, basepoint, normals, quotients=None):
        """Write a universal-tower spec over ``base`` with the given
        quotients, by default one diagonal quotient; returns its path."""
        if quotients is None:
            quotients = [pc.Congruence.diagonal(base)]
        formats.save_graph(str(tmp_path / "base.json"), base)
        for i, r in enumerate(quotients):
            formats.save_congruence(str(tmp_path / ("q%d.json" % i)), r)
        for i, rep in enumerate(normals):
            formats.save_rep(str(tmp_path / ("n%d.json" % i)), rep)
        path = str(tmp_path / "spec.json")
        formats.save_json(path, {
            "format": formats.UNIVERSAL_FORMAT, "base": "base.json",
            "basepoint": basepoint,
            "quotients": ["q%d.json" % i for i in range(len(quotients))],
            "normals": ["n%d.json" % i for i in range(len(normals))]})
        return path

    @pytest.mark.parametrize("case, error", [
        ("disconnected base", "base graph is not connected"),
        ("unknown basepoint", "unknown basepoint 'zz'"),
        ("list lengths", "need the same positive number of quotients and subgroups"),
        ("rank mismatch", "subgroup 0 has rank 2 but level 0 needs rank 1"),
    ])
    def test_universal_input_error_is_2(self, tmp_path, capsys, case, error):
        c3, trivial2 = pc.cycle_graph(3), pc.PermRep(2, 1, [(0,), (0,)])
        base, basepoint, normals = {
            "disconnected base": (two_cycles(1), "a0", [trivial2]),
            "unknown basepoint": (c3, "zz", [cyclic_rep(2)]),
            "list lengths": (c3, "v0", [cyclic_rep(2), cyclic_rep(4)]),
            "rank mismatch": (c3, "v0", [trivial2]),
        }[case]
        spec = self.universal_spec(tmp_path, base, basepoint, normals)
        out, code = run_cli(["--json", "tower", "universal", spec])
        report = json.loads(out)
        assert code == 2
        assert report["verdict"] == "error"
        assert report["details"]["error"] == error
        assert "Traceback" not in capsys.readouterr().err

    def test_universal_nonnormal_subgroup_has_witness(self, tmp_path):
        spec = self.universal_spec(
            tmp_path, pc.bouquet_graph(2), "v0",
            [pc.PermRep(2, 3, [(1, 0, 2), (0, 2, 1)])])
        out, code = run_cli(["--json", "tower", "universal", spec])
        report = json.loads(out)
        assert code == 1
        assert report["details"]["error"] == "subgroup 0 is not normal"
        assert report["details"]["witness"] == ["0"]

    @pytest.mark.parametrize("case, error, witness", [
        ("vertex class", "quotient 1 does not refine quotient 0 "
         "(vertex class 'v0' splits)", ["v0", "v3"]),
        ("dart class", "quotient 1 does not refine quotient 0 "
         "(dart class 'e0+' splits)", ["e0+", "e1+"]),
    ])
    def test_universal_non_refining_chain_has_witness(self, tmp_path, case,
                                                     error, witness):
        spec = non_refining_spec(case)
        path = self.universal_spec(tmp_path, spec.base, spec.basepoint,
                                   spec.normals, spec.quotients)
        out, code = run_cli(["--json", "tower", "universal", path])
        report = json.loads(out)
        assert code == 1
        assert report["verdict"] == "negative"
        assert report["details"]["error"] == error
        assert report["details"]["witness"] == witness

    def test_fibers(self, manifest):
        out, code = run_cli(["tower", "fibers", manifest, "--vertex", "v0"])
        assert code == 0 and "sizes: [1, 2, 4, 8]" in out

    def test_universal(self, tmp_path):
        spec = b2_homology_spec()
        formats.save_graph(str(tmp_path / "base.json"), spec.base)
        for i in range(3):
            formats.save_congruence(str(tmp_path / ("q%d.json" % i)),
                                    spec.quotients[i])
            formats.save_rep(str(tmp_path / ("n%d.json" % i)), spec.normals[i])
        spec_path = str(tmp_path / "spec.json")
        formats.save_json(spec_path, {
            "format": formats.UNIVERSAL_FORMAT, "base": "base.json",
            "basepoint": "v0",
            "quotients": ["q%d.json" % i for i in range(3)],
            "normals": ["n%d.json" % i for i in range(3)]})
        outdir = str(tmp_path / "tower")
        out, code = run_cli(["tower", "universal", spec_path, "--out", outdir])
        assert code == 0 and "degrees: [1, 4, 16]" in out
        _, code = run_cli(["tower", "validate", os.path.join(outdir, "tower.json")])
        assert code == 0
