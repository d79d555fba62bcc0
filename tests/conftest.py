import json
import os
import sys
from types import SimpleNamespace

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))
# The oracles in helpers.py assert; rewriting keeps those checks under
# ``python -O``, which strips plain assert statements.
pytest.register_assert_rewrite("helpers")

# Every property test draws the same examples on every run, so the suite's
# verdict depends on the code alone.  Example budgets stay as each test
# sets them; ``--hypothesis-profile default`` brings back random draws.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# modules whose every written document and report is checked against json
CLI_TEST_MODULES = {"test_cli", "test_cli_fuzz"}


@pytest.fixture(scope="module", autouse=True)
def documents_written_as_json_writes_them(request):
    """In the CLI test modules, every text ``formats.dump_json`` writes (the
    documents the tests set up, the ``--out`` files and the ``--json``
    reports of the commands) must equal ``json.dumps(obj, indent=2,
    sort_keys=True) + "\\n"``.  Mismatches are collected and asserted when
    the module ends, so a command under test never sees the check."""
    if request.module.__name__ not in CLI_TEST_MODULES:
        yield
        return
    from procover import formats
    dump_json, written, mismatches = formats.dump_json, [], []

    def checked(obj):
        text = dump_json(obj)
        written.append(len(text))
        if text != json.dumps(obj, indent=2, sort_keys=True) + "\n":
            mismatches.append(text[:300])
        return text

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "dump_json", checked)
        yield
    assert written
    assert mismatches == []


@pytest.fixture(scope="module", autouse=True)
def constructed_values_equal_the_checked_ones():
    """Every graph, map, congruence and coset action the library builds
    unchecked must be what the checking constructors give.  A
    ``FiniteGraph._of_tables`` result must
    pass the public ``FiniteGraph(...)`` on the same tables and equal it in
    the key, the star (with its key order), the name and the vertex tuple,
    and a component partition it carries must be the one a fresh walk
    finds.  A ``GraphMorphism._of_maps`` result must pass the public
    ``GraphMorphism(...)`` on the same maps and equal it; a ``Covering``
    built anywhere but in ``as_covering`` must pass ``as_covering`` on its
    map, and a lift table it is given, its one trusted input besides the
    map, must equal ``as_covering``'s, with its key order.
    ``Covering.__init__`` is wrapped and tells ``as_covering``'s own
    construction by its caller's code.  A
    ``Congruence._of_partition`` result must pass the public
    ``Congruence(...)`` on the same classes and equal it in the classes
    and both representative maps.  A ``PermRep._of_moves`` result must
    pass the public ``PermRep(...)`` on the forward rows and equal it in
    every attribute (``vars``), so the two also set the same caches.
    Mismatches are collected and asserted when the module ends; the
    fixture's value holds the list, so a test can plant one and take it
    back, and the unwrapped constructors, for a test that counts what
    construction checks."""
    from procover import covering, freegroup, graphs
    morphism, init = graphs.GraphMorphism, covering.Covering.__init__
    of_maps, as_covering = morphism._of_maps.__func__, covering.as_covering
    of_tables = graphs.FiniteGraph._of_tables.__func__
    of_partition = graphs.Congruence._of_partition.__func__
    of_moves = freegroup.PermRep._of_moves.__func__
    mismatches = []

    def checked_of_tables(cls, vertices, darts, src, inv, name=None,
                          connected=False):
        g = of_tables(cls, vertices, darts, src, inv, name, connected)
        try:
            want = graphs.FiniteGraph(vertices, darts, src, inv, name=name)
        except graphs.GraphError as exc:
            mismatches.append("%r: %s" % (g, exc))
            return g
        if (g._key != want._key or g._star != want._star
                or list(g._star) != list(want._star) or g.name != want.name
                or g.vertices != want.vertices
                or (g._components is not None
                    and g._components != graphs._component_partition(g))):
            mismatches.append(repr(g))
        return g

    def checked_of_maps(cls, domain, codomain, vmap, dmap):
        m = of_maps(cls, domain, codomain, vmap, dmap)
        try:
            if morphism(domain, codomain, vmap, dmap) != m:
                mismatches.append(repr(m))
        except graphs.GraphError as exc:
            mismatches.append("%r: %s" % (m, exc))
        return m

    def checked_init(self, map, lifts=None):
        init(self, map, lifts)
        if sys._getframe(1).f_code is as_covering.__code__:
            return
        try:
            want = as_covering(map).lifts
        except covering.NotACoveringError as exc:
            mismatches.append("%r: %s" % (self, exc))
            return
        if lifts is not None and (lifts != want or list(lifts) != list(want)):
            mismatches.append(repr(self))

    def checked_of_partition(cls, base, vertex_classes, dart_classes):
        vertex_classes = tuple(map(tuple, vertex_classes))
        dart_classes = tuple(map(tuple, dart_classes))
        r = of_partition(cls, base, vertex_classes, dart_classes)
        try:
            want = graphs.Congruence(base, vertex_classes, dart_classes)
        except graphs.CongruenceError as exc:
            mismatches.append("%r: %s" % (vertex_classes + dart_classes, exc))
            return r
        if (r.vertex_classes, r.dart_classes, r._vrep, r._drep) != (
                want.vertex_classes, want.dart_classes, want._vrep, want._drep):
            mismatches.append(repr(vertex_classes + dart_classes))
        return r

    def checked_of_moves(cls, rank, degree, moves):
        rep = of_moves(cls, rank, degree, moves)
        try:
            if vars(freegroup.PermRep(rank, degree, moves[::2])) != vars(rep):
                mismatches.append(repr(moves))
        except ValueError as exc:
            mismatches.append("%r: %s" % (moves, exc))
        return rep

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs.FiniteGraph, "_of_tables",
                      classmethod(checked_of_tables))
        patch.setattr(morphism, "_of_maps", classmethod(checked_of_maps))
        patch.setattr(covering.Covering, "__init__", checked_init)
        patch.setattr(graphs.Congruence, "_of_partition",
                      classmethod(checked_of_partition))
        patch.setattr(freegroup.PermRep, "_of_moves", classmethod(checked_of_moves))
        yield SimpleNamespace(mismatches=mismatches, unguarded_of_maps=of_maps,
                              unguarded_init=init, unguarded_of_tables=of_tables,
                              unguarded_of_partition=of_partition,
                              unguarded_of_moves=of_moves)
    assert mismatches == []
