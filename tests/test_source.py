"""Checks on the library's source text."""

import ast
import functools
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "procover"


@functools.lru_cache(maxsize=None)
def library_trees() -> tuple:
    """(file name, parsed tree) for every library module, parsed once."""
    return tuple((path.name, ast.parse(path.read_text(encoding="utf-8"),
                                       filename=str(path)))
                 for path in sorted(PACKAGE.glob("*.py")))


def readme_words() -> set:
    """Every identifier inside a backtick code span of ``README.md``
    (fenced blocks are not code spans)."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    return {word for span in re.findall(r"`([^`]+)`", text)
            for word in re.findall(r"[A-Za-z_]\w*", span)}


def test_no_assert_in_library():
    """Invariants raise named errors: ``assert`` is stripped under ``python -O``."""
    found = ["%s:%d" % (name, node.lineno) for name, tree in library_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_top_level_name_is_used():
    """Every top-level function and class of the library, and every method
    of a top-level class other than a dunder, is used by the library itself
    or named in ``README.md``.

    Used means referenced as an identifier in a library module other than
    ``__init__.py``: a top-level name as a name, an attribute or an
    imported name; a method as an attribute, the only way code reaches a
    method.  Definitions, docstrings and comments do not count, and
    neither do tests or benchmarks.  Named means the name occurs in a
    backtick code span of ``README.md``.
    """
    names, attributes = set(), set()
    for name, tree in library_trees():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
    documented = readme_words()
    unused = []
    for name, tree in library_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
                    node.name in names or node.name in attributes
                    or node.name in documented):
                unused.append("%s:%s" % (name, node.name))
            if isinstance(node, ast.ClassDef):
                unused += ["%s:%s.%s" % (name, node.name, item.name)
                           for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("__")
                           and item.name not in attributes
                           and item.name not in documented]
    assert unused == []


def test_every_import_is_used():
    """Every name a library module other than ``__init__.py`` imports is
    referenced as a name in that module.  ``from __future__`` imports bind
    no name and are skipped.

    An import left behind by a deleted caller reads as a dependency that
    is not there.
    """
    unused = []
    for name, tree in library_trees():
        if name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s:%s" % (name, bound)
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   for bound in [(alias.asname or alias.name).split(".")[0]]
                   if bound not in used]
    assert unused == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether the class is decorated with ``dataclass`` or ``dataclass(...)``."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def imported_modules(tree: ast.Module) -> set:
    """The names a library module binds to modules: those an ``import``
    statement binds, and those a package-relative ``from . import x``
    binds (a relative import with no module names submodules)."""
    return {(alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.module is None)
            for alias in node.names}


def field_reads(tree: ast.Module) -> set:
    """The attribute names a library module loads as values.

    A load does not count when it is called (``names.sort()``), when it is
    made through ``args``, the command line's parsed arguments
    (``args.top``), or when it is made through a module (``os.path``): none
    of these reads a field of a library object.
    """
    modules = imported_modules(tree) | {"args"}
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in called
            and not (isinstance(node.value, ast.Name)
                     and node.value.id in modules)}


def test_every_instance_field_is_read():
    """Every ``self.<name> = ...`` in a top-level class, and every field of
    a top-level dataclass, is read as an attribute by a library module
    other than ``__init__.py``, or named in a ``README.md`` code span.
    Reads are counted by :func:`field_reads`.

    State that nothing reads costs memory on every instance and hides what
    the object is for.
    """
    read = set().union(*(field_reads(tree) for name, tree in library_trees()
                         if name != "__init__.py"))
    documented = readme_words()
    unread = []
    for name, tree in library_trees():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            fields = set()
            if _is_dataclass(cls):
                fields |= {item.target.id for item in cls.body
                           if isinstance(item, ast.AnnAssign)
                           and isinstance(item.target, ast.Name)}
            fields |= {node.attr for node in ast.walk(cls)
                       if isinstance(node, ast.Attribute)
                       and isinstance(node.ctx, ast.Store)
                       and isinstance(node.value, ast.Name)
                       and node.value.id == "self"}
            unread += ["%s:%s.%s" % (name, cls.name, f) for f in sorted(fields)
                       if f not in read and f not in documented]
    assert unread == []


def test_tower_action_and_congruence_errors_carry_a_witness():
    """Every ``raise TowerError/ActionError/CongruenceError(...)`` in the
    library passes ``witness=``, so the exit-1 report always has one."""
    classes = {"TowerError", "ActionError", "CongruenceError"}
    raised, missing = 0, []
    for name, tree in library_trees():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            func = node.exc.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called not in classes:
                continue
            raised += 1
            if "witness" not in {k.arg for k in node.exc.keywords}:
                missing.append("%s:%d" % (name, node.lineno))
    assert raised > 20
    assert missing == []


def test_deck_group_layout_is_read_in_covering_only():
    """``DeckGroup.vrows``, ``drows`` and ``automorphisms`` (the sheet rows
    and the fiber automorphisms) are read by ``covering.py`` alone; other
    modules ask a ``DeckGroup`` method, so the layout can change in one
    place."""
    layout = {"vrows", "drows", "automorphisms"}
    found = {name: sorted(node.lineno for node in ast.walk(tree)
                          if isinstance(node, ast.Attribute)
                          and node.attr in layout)
             for name, tree in library_trees()}
    assert found.pop("covering.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_json_indent_only_in_the_dump_json_fallback():
    """No library module passes ``indent=`` to ``json.dumps`` or
    ``json.dump``, except the fallback in an ``except`` clause of
    ``formats.dump_json``, which writes values outside the document grammar.

    With ``indent`` set, ``json`` runs its pure-Python encoder, about twice
    the cost of ``dump_json``'s own emitter; an output path that calls it
    directly brings that cost back.
    """
    calls = {name: [node for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("dump", "dumps")
                    and "indent" in {k.arg for k in node.keywords}]
             for name, tree in library_trees()}
    trees = dict(library_trees())
    dump_json = next(node for node in trees["formats.py"].body
                     if isinstance(node, ast.FunctionDef)
                     and node.name == "dump_json")
    fallback = {id(node) for handler in ast.walk(dump_json)
                if isinstance(handler, ast.ExceptHandler)
                for node in ast.walk(handler)}
    found = ["%s:%d" % (name, node.lineno) for name, nodes in calls.items()
             for node in nodes if id(node) not in fallback]
    assert found == []
    assert len([node for node in calls["formats.py"] if id(node) in fallback]) == 1


def validating_sites(cls_name: str, called: set) -> dict:
    """{module: sorted names of the innermost functions} around each call
    of a name in ``called`` (a call ``f(...)`` or ``x.f(...)``) and each
    ``cls(...)`` inside the top-level class ``cls_name``."""
    found = {}
    for name, tree in library_trees():
        in_class = {id(node) for cls in tree.body
                    if isinstance(cls, ast.ClassDef) and cls.name == cls_name
                    for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = getattr(node.func, "id", getattr(node.func, "attr", None))
            if func in called or (func == "cls" and id(node) in in_class):
                found.setdefault(name, []).append(max(
                    (f.lineno, f.name) for f in ast.walk(tree)
                    if isinstance(f, ast.FunctionDef)
                    and f.lineno <= node.lineno <= f.end_lineno)[1])
    return {name: sorted(sites) for name, sites in found.items()}


def test_graph_maps_are_validated_only_where_documents_enter():
    """Every validating ``GraphMorphism`` construction in the library (a
    ``GraphMorphism(...)`` call, or ``cls(...)`` inside the class) is in
    ``formats.py``, in the two document readers.  A map the library derives
    from its own values is built by ``GraphMorphism._of_maps``, with the
    proof where it is built.

    Graphs follow the same rule.  The library makes no ``FiniteGraph(...)``
    call.  ``from_edges`` makes the constructor's checks in its own loop
    and is called only by the graph document reader and the public
    builders ``cycle_graph`` and ``bouquet_graph``, from their arguments.
    ``FiniteGraph._of_tables`` builds the graph ``from_edges`` has checked
    and every graph the library derives, in the voltage construction and
    in ``quotient``, with the proof where it is built.

    A validation on a derived map or graph checks what its construction
    proved.
    """
    assert validating_sites("GraphMorphism", {"GraphMorphism"}) == {
        "formats.py": ["action_from_obj", "morphism_from_obj"]}
    assert validating_sites("FiniteGraph", {"FiniteGraph", "from_edges"}) == {
        "formats.py": ["graph_from_obj"],
        "graphs.py": ["bouquet_graph", "cycle_graph"]}
    assert validating_sites("", {"_of_tables"}) == {
        "covering.py": ["cover_from_subgroup"],
        "graphs.py": ["from_edges", "quotient"]}


def test_coset_actions_are_validated_only_where_documents_enter():
    """Coset actions follow the rule of graphs and maps.  The one
    validating ``PermRep`` construction in the library is in the action
    document reader.  Every action the library derives is built by
    ``PermRep._of_moves``: the low-index search, relabelling, the
    translation actions and the monodromy of the sheet transport, with
    the proof where it is built."""
    assert validating_sites("PermRep", {"PermRep"}) == {
        "formats.py": ["rep_from_obj"]}
    assert validating_sites("", {"_of_moves"}) == {
        "covering.py": ["_sheet_rows"],
        "freegroup.py": ["low_index_reps", "rebased", "translation_kernel_rep"]}


def test_every_trusted_constructor_is_guarded(
        constructed_values_equal_the_checked_ones):
    """Every trusted constructor, a classmethod of a top-level library
    class that builds an instance with ``cls.__new__(cls)`` past the checks
    of ``__init__``, is wrapped by the autouse guard of
    ``tests/conftest.py``, which compares what it builds with the checking
    constructor's value; a new one that the guard misses fails here."""
    found = {(name, cls.name, f.name) for name, tree in library_trees()
             for cls in tree.body if isinstance(cls, ast.ClassDef)
             for f in cls.body if isinstance(f, ast.FunctionDef)
             and any(getattr(d, "id", None) == "classmethod"
                     for d in f.decorator_list)
             and any(isinstance(n, ast.Call)
                     and isinstance(n.func, ast.Attribute)
                     and n.func.attr == "__new__"
                     and getattr(n.func.value, "id", None) == "cls"
                     for n in ast.walk(f))}
    assert found == {("freegroup.py", "PermRep", "_of_moves"),
                     ("graphs.py", "Congruence", "_of_partition"),
                     ("graphs.py", "FiniteGraph", "_of_tables"),
                     ("graphs.py", "GraphMorphism", "_of_maps")}
    conftest = pathlib.Path(__file__).with_name("conftest.py")
    for module, cls, method in sorted(found):
        built = getattr(getattr(importlib.import_module(
            "procover." + module[:-3]), cls), method)
        assert pathlib.Path(built.__func__.__code__.co_filename) == conftest, \
            (module, cls, method)


def test_covering_builds_a_permrep_only_in_the_sheet_transport():
    """``covering.py`` builds a ``PermRep`` (by ``PermRep._of_moves``) only
    inside ``_sheet_rows``, the one derivation of sheet coordinates; every
    covering keeps that function's own result.

    A second derivation, such as relabelling the given action into the
    fiber order, would need a proof that it agrees with the transport.
    """
    tree = dict(library_trees())["covering.py"]

    def permrep_calls(node):
        return {n.lineno for n in ast.walk(node) if isinstance(n, ast.Call)
                and getattr(n.func, "id", getattr(n.func, "attr", None))
                in ("PermRep", "_of_moves")}

    transport = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef)
                     and node.name == "_sheet_rows")
    assert permrep_calls(transport)
    assert permrep_calls(tree) == permrep_calls(transport)


def test_a_covering_is_built_from_its_map():
    """Every ``Covering(...)`` call in the library passes the map, and only
    ``as_covering`` and ``cover_from_subgroup``, which build the lift table
    anyway, pass that too.  Fibers, degrees and sheet coordinates are read
    off the map on first read, so no construction site computes them, and
    no library code but the class stores a covering's lift table, fibers,
    component degrees or sheets (``degree`` is a ``PermRep`` field too)."""
    calls = {}
    for name, tree in library_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "Covering"):
                site = max((f.lineno, f.name) for f in ast.walk(tree)
                           if isinstance(f, ast.FunctionDef)
                           and f.lineno <= node.lineno <= f.end_lineno)[1]
                calls[site] = len(node.args) + len(node.keywords)
    assert calls == {"as_covering": 2, "cover_from_subgroup": 2,
                     "_orbit_quotient": 1, "quotient_by_deck_subgroup": 1}
    covering_class = next(node for node in dict(library_trees())["covering.py"].body
                          if isinstance(node, ast.ClassDef)
                          and node.name == "Covering")
    inside = {id(node) for node in ast.walk(covering_class)}
    fields = {"lifts", "vertex_fibers", "component_degrees", "_sheets"}
    stored = ["%s:%d" % (name, node.lineno) for name, tree in library_trees()
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in fields
              and isinstance(node.ctx, ast.Store) and id(node) not in inside]
    assert stored == []


def test_values_store_attributes_only_while_constructed():
    """Library code stores an attribute only while it constructs a value:
    in ``__init__`` or in an ``_of_*`` constructor.  A store is
    ``x.name = ...`` (also augmented), an item store into an attribute
    (``x.name[k] = ...``) or into ``vars(x)``, or a ``setattr`` call.  A
    fact derived later is a ``cached_property``, which keeps its value in
    the instance dict on first read, so no method fills a cache by hand:
    a graph's stars too.

    The one exception is the kept fundamental-group mapping:
    ``pi1_data`` stores the coordinates it builds at a basepoint as an
    item of ``FiniteGraph._pi1``, one per basepoint asked."""
    found = []
    for name, tree in library_trees():
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stored = node.attr
            elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, (ast.Attribute, ast.Call))):
                stored = ast.unparse(node.value) + "[]"
            elif isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) in (
                    "setattr", "__setattr__"):
                stored = "setattr"
            else:
                continue
            site = max(((f.lineno, f.name) for f in functions
                        if f.lineno <= node.lineno <= f.end_lineno),
                       default=(0, "<module>"))[1]
            if site != "__init__" and not site.startswith("_of_"):
                found.append("%s:%s:%s" % (name, site, stored))
    assert found == ["graphs.py:pi1_data:g._pi1[]"]


def test_lift_reads_the_kept_spanning_tree():
    """``lift`` checks the lifting criterion on the spanning tree that
    ``pi1_data`` keeps for its source, with no search of its own: it calls
    ``pi1_data`` and has no ``while`` loop, and ``covering.py`` has no
    ``deque``."""
    tree = dict(library_trees())["covering.py"]
    lift = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "lift")
    called = {getattr(n.func, "id", getattr(n.func, "attr", None))
              for n in ast.walk(lift) if isinstance(n, ast.Call)}
    assert "pi1_data" in called
    assert not any(isinstance(n, ast.While) for n in ast.walk(lift))
    names = ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
             | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
             | {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)})
    assert "deque" not in names
