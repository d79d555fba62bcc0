"""Versioned JSON file formats for graphs, maps, subgroups, and towers.

Every document carries a top-level ``"format"`` tag.  Graphs are stored as
vertex lists plus undirected edges; an edge ``E`` from ``src`` to ``dst``
stands for the dart pair ``E+`` / ``E-``.  Maps and congruences refer to
darts as an edge id plus a ``flip`` flag.  Emission is canonical (sorted
keys, sorted members), so equal values serialize byte-identically.

Documents and reports use the layout of ``json.dumps(obj, indent=2,
sort_keys=True)``.  :func:`dump_json` writes it with its own emitter, which
equals ``json.dumps`` byte for byte: with ``indent`` set, ``json`` runs its
pure-Python encoder, at about twice the cost.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii as _encode_str

from .graphs import (
    Congruence,
    FiniteGraph,
    GraphError,
    GraphMorphism,
)
from .freegroup import NotTransitiveError, PermRep
from .covering import GroupAction, as_covering
from .towers import Tower, TowerError, UniversalSpec

GRAPH_FORMAT = "procover-graph/1"
MORPHISM_FORMAT = "procover-morphism/1"
CONGRUENCE_FORMAT = "procover-congruence/1"
REP_FORMAT = "procover-rep/1"
ACTION_FORMAT = "procover-action/1"
TOWER_FORMAT = "procover-tower/1"
UNIVERSAL_FORMAT = "procover-universal/1"
REPORT_FORMAT = "procover-report/1"


class FormatError(ValueError):
    """Malformed or wrongly versioned input document."""


def dump_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, written by
    :func:`_emit` when ``obj`` is a dict, list or tuple of the document
    grammar."""
    try:
        text = _emit(obj, "\n")
    except (TypeError, ValueError, RecursionError):
        # outside the grammar (a float, a non-str key, a subclass, a cycle,
        # nesting too deep, an int too long to print): json's own text, or
        # json's own error
        text = json.dumps(obj, indent=2, sort_keys=True)
    return text + "\n"


_int_repr = int.__repr__


def _emit(obj, nl: str) -> str:
    """The ``indent=2``, sorted-keys JSON text of a dict, list or tuple whose
    line breaks are ``nl`` (a newline and the current indent).  Only
    ``str``-keyed dicts, lists, tuples, ``str``, ``int``, ``bool`` and
    ``None`` of exactly those types are written; anything else raises.
    The type dispatch is inline: a call per scalar costs most of the gain
    over ``json.dumps``."""
    kind = type(obj)
    inner = nl + "  "
    items = []
    if kind is dict:
        if not obj:
            return "{}"
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError("not a document key")
            value = obj[key]
            kind = type(value)
            if kind is str:
                text = _encode_str(value)
            elif kind is int:
                text = _int_repr(value)
            elif kind is dict or kind is list or kind is tuple:
                text = _emit(value, inner)
            elif kind is bool:
                text = "true" if value else "false"
            elif value is None:
                text = "null"
            else:
                raise TypeError("not a document value")
            items.append(_encode_str(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        for value in obj:
            kind = type(value)
            if kind is str:
                items.append(_encode_str(value))
            elif kind is int:
                items.append(_int_repr(value))
            elif kind is dict or kind is list or kind is tuple:
                items.append(_emit(value, inner))
            elif kind is bool:
                items.append("true" if value else "false")
            elif value is None:
                items.append("null")
            else:
                raise TypeError("not a document value")
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    raise TypeError("not a document")


def save_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(obj))


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nested deeper than the decoder can follow
        raise FormatError("cannot read %s: %s" % (path, exc)) from exc


def _expect(obj, fmt: str):
    if not isinstance(obj, dict):
        raise FormatError("expected an object with format %r" % fmt)
    if obj.get("format") != fmt:
        raise FormatError("expected format %r, found %r"
                          % (fmt, obj.get("format")))


def _get(obj, key, kind):
    if not isinstance(obj, dict):
        raise FormatError("expected an object with key %r" % key)
    if key not in obj:
        raise FormatError("missing key %r" % key)
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise FormatError("key %r has the wrong type" % key)
    return value


def _str_list(obj, key):
    value = _get(obj, key, list)
    if not all(isinstance(x, str) for x in value):
        raise FormatError("key %r must hold a list of strings" % key)
    return value


# -- graphs -----------------------------------------------------------------

def graph_to_obj(g: FiniteGraph) -> dict:
    obj = {
        "format": GRAPH_FORMAT,
        "vertices": list(g.vertices),
        "edges": [{"id": eid, "src": g.src[pos], "dst": g.src[neg]}
                  for eid, pos, neg in g._edges],
    }
    if g.name is not None:
        obj["name"] = g.name
    return obj


def graph_from_obj(obj) -> FiniteGraph:
    """The graph of a document as it stands: a dangling incidence, the one
    violation a document of edges can carry, is kept for
    :func:`~procover.graphs.validate_graph` to report.  Every other reader
    goes through :func:`_sound_graph`."""
    _expect(obj, GRAPH_FORMAT)
    vertices = _str_list(obj, "vertices")
    edges = []
    for entry in _get(obj, "edges", list):
        if not isinstance(entry, dict):
            raise FormatError("edge entries must be objects")
        eid, src, dst = entry.get("id"), entry.get("src"), entry.get("dst")
        if not (isinstance(eid, str) and isinstance(src, str)
                and isinstance(dst, str)):
            # word the error for the first bad key
            eid, src, dst = (_get(entry, "id", str), _get(entry, "src", str),
                             _get(entry, "dst", str))
        edges.append((eid, src, dst))
    name = None
    if obj.get("name") is not None:
        name = _get(obj, "name", str)
    try:
        return FiniteGraph.from_edges(vertices, edges, name=name)
    except GraphError as exc:
        raise FormatError("bad graph document: %s" % exc) from exc


def _sound_graph(obj) -> FiniteGraph:
    """The graph of a document, rejected with FormatError when an edge ends
    at an undeclared vertex: the library's constructors trust their input,
    so a dangling incidence must stop here."""
    g = graph_from_obj(obj)
    if not g._vertex_set.issuperset(g.src.values()):
        # every dart of a document is the E+ or E- of its edge E
        d = next(d for d in g.darts if g.src[d] not in g._vertex_set)
        raise FormatError("bad graph document: edge %r ends at unknown "
                          "vertex %r" % (d[:-1], g.src[d]))
    return g


def load_graph(path: str) -> FiniteGraph:
    return _sound_graph(load_json(path))


def save_graph(path: str, g: FiniteGraph) -> None:
    save_json(path, graph_to_obj(g))


# -- morphisms ---------------------------------------------------------------

def _maps_to_obj(f: GraphMorphism) -> dict:
    """The map entries of ``f``, read through the edge tables of its
    graphs."""
    edge_map, refs = {}, f.codomain._dart_refs
    for eid, pos, _neg in f.domain._edges:
        e = f.dmap[pos]
        target, tpos, _tneg = refs[e]
        edge_map[eid] = {"edge": target, "flip": e != tpos}
    return {"vertex_map": dict(f.vmap), "edge_map": edge_map}


def _maps_from_obj(obj, domain: FiniteGraph, codomain: FiniteGraph):
    """The vertex and dart maps of a map document between these graphs,
    read through their edge tables."""
    vmap = _get(obj, "vertex_map", dict)
    if not all(isinstance(v, str) for v in vmap.values()):
        raise FormatError("vertex_map values must be vertex ids")
    edge_entries = _get(obj, "edge_map", dict)
    dmap, index = {}, codomain._edge_index
    for eid, pos, neg in domain._edges:
        if eid not in edge_entries:
            raise FormatError("edge_map is missing edge %r" % eid)
        entry = edge_entries[eid]
        if isinstance(entry, dict):
            target, flip = entry.get("edge"), entry.get("flip")
        else:
            target = flip = None
        if not (isinstance(target, str) and isinstance(flip, bool)):
            # word the error for the first bad key
            target, flip = _get(entry, "edge", str), _get(entry, "flip", bool)
        if target not in index:
            raise FormatError("edge_map sends %r to unknown edge %r" % (eid, target))
        _target, tpos, tneg = index[target]
        dmap[pos], dmap[neg] = ((tneg, tpos) if flip else (tpos, tneg))
    return vmap, dmap


def morphism_to_obj(f: GraphMorphism, embed_graphs: bool = True) -> dict:
    obj = {"format": MORPHISM_FORMAT}
    obj.update(_maps_to_obj(f))
    if embed_graphs:
        obj["domain"] = graph_to_obj(f.domain)
        obj["codomain"] = graph_to_obj(f.codomain)
    return obj


def morphism_from_obj(obj, domain: FiniteGraph | None = None,
                      codomain: FiniteGraph | None = None) -> GraphMorphism:
    _expect(obj, MORPHISM_FORMAT)
    if domain is None:
        if "domain" not in obj:
            raise FormatError("morphism document has no domain graph")
        domain = _sound_graph(obj["domain"])
    if codomain is None:
        if "codomain" not in obj:
            raise FormatError("morphism document has no codomain graph")
        codomain = _sound_graph(obj["codomain"])
    vmap, dmap = _maps_from_obj(obj, domain, codomain)
    try:
        return GraphMorphism(domain, codomain, vmap, dmap)
    except GraphError as exc:
        raise FormatError("document is not a graph morphism: %s" % exc) from exc


def load_morphism(path: str, domain=None, codomain=None) -> GraphMorphism:
    return morphism_from_obj(load_json(path), domain=domain, codomain=codomain)


def save_morphism(path: str, f: GraphMorphism) -> None:
    save_json(path, morphism_to_obj(f))


# -- congruences --------------------------------------------------------------

def congruence_to_obj(r: Congruence) -> dict:
    refs = r.base._dart_refs
    edge_classes = []
    seen = set()
    for cls in r.dart_classes:
        key = frozenset(cls)
        if key in seen:
            continue
        mirror = frozenset(r.base.inv[d] for d in cls)
        seen.add(key)
        seen.add(mirror)
        entry = sorted(({"edge": refs[d][0], "flip": d != refs[d][1]} for d in cls),
                       key=lambda e: (e["edge"], e["flip"]))
        edge_classes.append(entry)
    return {
        "format": CONGRUENCE_FORMAT,
        "vertex_classes": [list(c) for c in r.vertex_classes],
        "edge_classes": edge_classes,
    }


def congruence_from_obj(obj, base: FiniteGraph) -> Congruence:
    _expect(obj, CONGRUENCE_FORMAT)
    edges = base._edge_index
    dart_classes = set()
    vertex_classes = _get(obj, "vertex_classes", list)
    if not all(isinstance(c, list) and all(isinstance(v, str) for v in c)
               for c in vertex_classes):
        raise FormatError("vertex_classes must be lists of vertex ids")
    unknown = [v for c in vertex_classes for v in c if v not in base._vertex_set]
    if unknown:
        raise FormatError("unknown vertex %r in a class" % unknown[0])
    for cls in _get(obj, "edge_classes", list):
        if not isinstance(cls, list):
            raise FormatError("edge_classes must be lists of edge entries")
        darts = []
        for entry in cls:
            eid = _get(entry, "edge", str)
            flip = _get(entry, "flip", bool)
            if eid not in edges:
                raise FormatError("unknown edge %r in a class" % eid)
            _eid, pos, neg = edges[eid]
            darts.append(neg if flip else pos)
        dart_classes.add(frozenset(darts))
        dart_classes.add(frozenset(base.inv[d] for d in darts))
    return Congruence(base, vertex_classes,
                      [sorted(c) for c in sorted(dart_classes, key=sorted)])


def load_congruence(path: str, base: FiniteGraph) -> Congruence:
    return congruence_from_obj(load_json(path), base)


def save_congruence(path: str, r: Congruence) -> None:
    save_json(path, congruence_to_obj(r))


# -- subgroups and homomorphisms ----------------------------------------------

def rep_to_obj(rep: PermRep) -> dict:
    return {
        "format": REP_FORMAT,
        "rank": rep.rank,
        "degree": rep.degree,
        "perms": [list(p) for p in rep.perms],
    }


def rep_from_obj(obj) -> PermRep:
    _expect(obj, REP_FORMAT)
    perms = _get(obj, "perms", list)
    if not all(isinstance(p, list) and all(type(x) is int for x in p)
               for p in perms):
        raise FormatError("perms must be lists of integers")
    try:
        rank, degree = _get(obj, "rank", int), _get(obj, "degree", int)
        if rank == 0 and degree > 1:
            # no content backs the degree, and the trivial group is
            # transitive on one point only
            raise ValueError("rank 0 needs degree 1, got %d" % degree)
        return PermRep(rank, degree, perms)
    except NotTransitiveError:
        # a semantic verdict, not a format problem: callers report the orbits
        raise
    except ValueError as exc:
        raise FormatError("bad subgroup document: %s" % exc) from exc


def load_rep(path: str) -> PermRep:
    return rep_from_obj(load_json(path))


def save_rep(path: str, rep: PermRep) -> None:
    save_json(path, rep_to_obj(rep))


# -- group actions -------------------------------------------------------------

def action_to_obj(act: GroupAction) -> dict:
    return {
        "format": ACTION_FORMAT,
        "elements": [str(g) for g in act.elements],
        "maps": {str(g): _maps_to_obj(act.morphisms[g])
                 for g in act.elements},
    }


def action_from_obj(obj, graph: FiniteGraph) -> GroupAction:
    _expect(obj, ACTION_FORMAT)
    names = _str_list(obj, "elements")
    if not names:
        raise FormatError("action has no elements")
    maps = _get(obj, "maps", dict)
    if set(names) != set(maps):
        raise FormatError("elements and maps disagree")
    morphisms = {}
    for g in names:
        vmap, dmap = _maps_from_obj(maps[g], graph, graph)
        try:
            morphisms[g] = GraphMorphism(graph, graph, vmap, dmap)
        except GraphError as exc:
            raise FormatError("element %r is not a graph map: %s" % (g, exc)) from exc
    return GroupAction(graph, morphisms)


def load_action(path: str, graph: FiniteGraph) -> GroupAction:
    return action_from_obj(load_json(path), graph)


# -- towers ---------------------------------------------------------------------

def _resolve(manifest_path: str, rel: str) -> str:
    """A path named inside a manifest, taken relative to the manifest."""
    if os.path.isabs(rel):
        return rel
    return os.path.join(os.path.dirname(os.path.abspath(manifest_path)), rel)


def load_tower_pieces(path: str):
    """Load a tower manifest into bare morphisms (no covering checks).

    Returns (level maps, cover steps, base steps, basepoints or None);
    paths inside the manifest are taken relative to the manifest.
    """
    obj = load_json(path)
    _expect(obj, TOWER_FORMAT)
    levels = _get(obj, "levels", list)
    if not levels:
        raise FormatError("tower manifest has no levels")
    gammas, deltas, fs = [], [], []
    for entry in levels:
        gamma = load_graph(_resolve(path, _get(entry, "gamma", str)))
        delta = load_graph(_resolve(path, _get(entry, "delta", str)))
        gammas.append(gamma)
        deltas.append(delta)
        fs.append(load_morphism(_resolve(path, _get(entry, "f", str)),
                                domain=gamma, codomain=delta))
    phi_paths, psi_paths = _str_list(obj, "phi"), _str_list(obj, "psi")
    if len(phi_paths) != len(fs) - 1 or len(psi_paths) != len(fs) - 1:
        raise FormatError("expected %d bonding maps per side" % (len(fs) - 1))
    phis = [load_morphism(_resolve(path, p), domain=gammas[i + 1], codomain=gammas[i])
            for i, p in enumerate(phi_paths)]
    psis = [load_morphism(_resolve(path, p), domain=deltas[i + 1], codomain=deltas[i])
            for i, p in enumerate(psi_paths)]
    basepoints = None
    if obj.get("basepoints") is not None:
        basepoints = _str_list(obj, "basepoints")
    return fs, phis, psis, basepoints


def load_tower(path: str) -> Tower:
    """Load a manifest as a verified Tower (levels must be coverings)."""
    fs, phis, psis, basepoints = load_tower_pieces(path)
    coverings = [as_covering(f) for f in fs]
    try:
        return Tower(coverings, phis, psis, basepoints=basepoints)
    except TowerError as exc:
        raise FormatError("manifest does not assemble into a tower: %s" % exc) from exc


def save_tower(dirpath: str, t: Tower) -> str:
    """Write every component of a tower plus its manifest; returns the
    manifest path."""
    os.makedirs(dirpath, exist_ok=True)
    manifest = {"format": TOWER_FORMAT, "levels": [], "phi": [], "psi": []}
    for i, cov in enumerate(t.coverings):
        names = {"gamma": "tower_gamma%d.json" % i,
                 "delta": "tower_delta%d.json" % i,
                 "f": "tower_f%d.json" % i}
        save_graph(os.path.join(dirpath, names["gamma"]), cov.domain)
        save_graph(os.path.join(dirpath, names["delta"]), cov.codomain)
        save_morphism(os.path.join(dirpath, names["f"]), cov.map)
        manifest["levels"].append(names)
    for i in range(t.top):
        phi_name = "tower_phi%d.json" % i
        psi_name = "tower_psi%d.json" % i
        save_morphism(os.path.join(dirpath, phi_name), t.cover_steps[i])
        save_morphism(os.path.join(dirpath, psi_name), t.base_steps[i])
        manifest["phi"].append(phi_name)
        manifest["psi"].append(psi_name)
    if t.basepoints is not None:
        manifest["basepoints"] = list(t.basepoints)
    manifest_path = os.path.join(dirpath, "tower.json")
    save_json(manifest_path, manifest)
    return manifest_path


def load_universal_spec(path: str) -> UniversalSpec:
    obj = load_json(path)
    _expect(obj, UNIVERSAL_FORMAT)
    base = load_graph(_resolve(path, _get(obj, "base", str)))
    quotients = [load_congruence(_resolve(path, p), base)
                 for p in _str_list(obj, "quotients")]
    normals = [load_rep(_resolve(path, p)) for p in _str_list(obj, "normals")]
    return UniversalSpec(base=base, basepoint=_get(obj, "basepoint", str),
                         quotients=quotients, normals=normals)
