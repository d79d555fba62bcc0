"""Command-line front end.

Exit codes: 0 for a positive verdict, 1 for a well-formed negative verdict
(always with its evidence), 2 for input or format errors, 3 for a refused
resource request, 4 for an internal error (any other exception, reported
without a traceback).  A handler returns its own exit-1 verdicts; an exit 1
by exception comes only from the :class:`~procover.graphs.VerdictError`
family, whose ``verdict`` and ``details()`` are the report.  ``--json``
switches the report to a single structured object; text and structured
output carry the same verdict and witnesses, and identical inputs plus seed
produce byte-identical structured output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import dataclass, field
from functools import lru_cache

from . import formats
from .formats import FormatError, REPORT_FORMAT
from .graphs import (
    GraphError,
    VerdictError,
    is_connected,
    pi1_data,
    quotient,
    validate_graph,
)
from .freegroup import (
    DEFAULT_MAX_WORK,
    ResourceLimitError,
    is_normal,
    low_index_reps,
    normalizer_points,
)
from .covering import (
    action_deck_indices,
    as_covering,
    cover_from_subgroup,
    deck_group,
    image_subgroup,
    is_regular,
    lift,
    quotient_by_deck_subgroup,
    quotient_by_group,
)
from .towers import (
    classify_pair,
    deck_tower,
    kernel_good_pairs,
    limit_fiber_report,
    pi1_triviality_check,
    universal_tower,
    validate_tower_pieces,
)


@dataclass
class Report:
    """What a command found: a verdict, structured details, warnings."""

    verdict: str
    details: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)


def report_to_obj(r: Report, seed=None) -> dict:
    obj = {"format": REPORT_FORMAT, "verdict": r.verdict,
           "details": r.details, "warnings": r.warnings}
    if seed is not None:
        obj["seed"] = seed
    return obj


def _text_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)) or value is None:
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)) and all(isinstance(x, str) for x in value):
        return " ".join(value)
    return json.dumps(value, sort_keys=True)


def format_report(r: Report, json_mode: bool, seed=None) -> str:
    if json_mode:
        return formats.dump_json(report_to_obj(r, seed=seed)).rstrip("\n")
    lines = ["verdict: %s" % r.verdict]
    for key, value in r.details.items():
        lines.append("%s: %s" % (key, _text_value(value)))
    if r.warnings:
        lines.append("warnings:")
        for w in r.warnings:
            lines.append("- %s" % _text_value(w))
    return "\n".join(lines)


def _default_basepoint(graph, given):
    if given is None:
        if not graph.vertices:
            raise GraphError("the graph has no vertices: no default vertex")
        return graph.vertices[0]
    if given not in graph._vertex_set:
        raise GraphError("unknown vertex %r" % (given,))
    return given


# -- handlers (each returns (Report, exit code)) ------------------------------


def cmd_validate(args):
    # read as it stands, so that a dangling incidence is reported, not refused
    g = formats.graph_from_obj(formats.load_json(args.graph))
    violations = validate_graph(g)
    details = {"vertices": len(g.vertices), "darts": len(g.darts),
               "violations": violations}
    if violations:
        return Report("invalid", details), 1
    details["connected"] = is_connected(g)
    return Report("valid", details), 0


def cmd_quotient(args):
    g = formats.load_graph(args.graph)
    r = formats.load_congruence(args.congruence, g)
    qg, proj = quotient(g, r)
    details = {
        "vertices": len(qg.vertices),
        "edges": qg.edge_count(),
        "graph": formats.graph_to_obj(qg),
        "projection": formats.morphism_to_obj(proj, embed_graphs=False),
    }
    if args.out_graph:
        formats.save_graph(args.out_graph, qg)
    if args.out_morphism:
        formats.save_morphism(args.out_morphism, proj)
    return Report("quotient", details), 0


def cmd_check_cover(args):
    f = formats.load_morphism(args.morphism)
    if not f.codomain.vertices:
        raise GraphError("the base graph has no vertices: no degree")
    cov = as_covering(f)
    details = {"degree": cov.degree}
    if cov.degree is None:
        details["component_degrees"] = [list(x) for x in cov.component_degrees]
    if f.domain.name:
        details["domain"] = f.domain.name
    if f.codomain.name:
        details["codomain"] = f.codomain.name
    return Report("covering", details), 0


def cmd_pi1(args):
    g = formats.load_graph(args.graph)
    base = _default_basepoint(g, args.base)
    p = pi1_data(g, base)
    details = {
        "basepoint": base,
        "rank": p.rank,
        "basis_darts": list(p.basis_darts),
        "tree_edges": len(p.tree_darts) // 2,
    }
    return Report("pi1", details), 0


def cmd_cover_from_rep(args):
    g = formats.load_graph(args.graph)
    rep = formats.load_rep(args.rep)
    base = _default_basepoint(g, args.base)
    p = pi1_data(g, base)
    cover, basepoint, cov = cover_from_subgroup(g, base, rep)
    image = image_subgroup(cov, basepoint, p)
    # the deck order [N(H) : H] is read off the image at the basepoint, the
    # one transport, not off the cover's first vertex as is_regular reads
    # it.  The monodromy at another fiber point, in the coordinates of
    # another basepoint or basis, is phi(H) for an isomorphism phi of free
    # groups (conjugation by a path, composed with a change of basis), and
    # phi sends N(H) onto N(phi(H)), so the index does not change.
    deck_order = len(normalizer_points(image))
    details = {
        "basepoint": basepoint,
        "vertices": len(cover.vertices),
        "edges": cover.edge_count(),
        "rank": cover.edge_count() - len(cover.vertices) + 1,
        "degree": cov.degree,
        "regular": deck_order == cov.degree,
        "deck_order": deck_order,
        "image_rep": formats.rep_to_obj(image),
    }
    if args.out:
        formats.save_graph(args.out + ".graph.json", cover)
        formats.save_morphism(args.out + ".morphism.json", cov.map)
        details["written"] = [args.out + ".graph.json", args.out + ".morphism.json"]
    else:
        details["morphism"] = formats.morphism_to_obj(cov.map)
    return Report("cover", details), 0


def cmd_image_subgroup(args):
    f = formats.load_morphism(args.morphism)
    cov = as_covering(f)
    a = _default_basepoint(f.domain, args.basepoint)
    p = pi1_data(f.codomain, f.vmap[a])
    rep = image_subgroup(cov, a, p)
    details = {
        "basepoint": a,
        "degree": rep.degree,
        "normal": is_normal(rep),
        "image_rep": formats.rep_to_obj(rep),
    }
    return Report("image-subgroup", details), 0


def cmd_lift(args):
    g = formats.load_morphism(args.map)
    f = formats.load_morphism(args.cover, codomain=g.codomain)
    cov = as_covering(f)
    h = lift(g, cov, args.source_base, args.cover_base)
    details = {"morphism": formats.morphism_to_obj(h, embed_graphs=False)}
    if args.out:
        formats.save_morphism(args.out, h)
        details["written"] = [args.out]
    return Report("lift", details), 0


def cmd_deck(args):
    f = formats.load_morphism(args.morphism)
    cov = as_covering(f)
    # the report prints one vertex-map entry per element and cover vertex,
    # each read off the sheet rows; the order is charged before the deck
    # group is built, and no element is built
    order = is_regular(cov).deck_order
    charge = order * len(cov.domain.vertices)
    if charge > args.max_work:
        raise ResourceLimitError(
            "the deck report has %d vertex-map entries (%d elements of %d "
            "vertices), above the work bound %d; raise --max-work to proceed"
            % (charge, order, len(cov.domain.vertices), args.max_work))
    deck = deck_group(cov)
    details = {
        "order": deck.order,
        "degree": cov.degree,
        "elements": [{"index": i, "vertex_map": deck.vertex_map(i)}
                     for i in range(deck.order)],
    }
    return Report("deck", details), 0


def cmd_regular(args):
    f = formats.load_morphism(args.morphism)
    cov = as_covering(f)
    verdict = is_regular(cov)
    details = {
        "degree": verdict.degree,
        "deck_order": verdict.deck_order,
        # H is normal, and the deck group is transitive on every fiber,
        # exactly when the cover is regular (Galois correspondence)
        "image_normal": verdict.regular,
        "fiber_transitive": verdict.regular,
    }
    if verdict.regular:
        return Report("regular", details), 0
    return Report("not regular", details), 1


def cmd_orbit_quotient(args):
    g = formats.load_graph(args.graph)
    act = formats.load_action(args.action, g)
    qg, cov = quotient_by_group(act)
    # the orbit map of a free action is regular, with the group as deck group
    details = {
        "group_order": len(act.elements),
        "degree": cov.degree,
        "vertices": len(qg.vertices),
        "edges": qg.edge_count(),
        "regular": True,
        "deck_isomorphism": {str(k): v for k, v
                             in action_deck_indices(act, cov).items()},
    }
    if args.out:
        formats.save_graph(args.out + ".graph.json", qg)
        formats.save_morphism(args.out + ".morphism.json", cov.map)
        details["written"] = [args.out + ".graph.json", args.out + ".morphism.json"]
    return Report("orbit-quotient", details), 0


def cmd_deck_quotient(args):
    f = formats.load_morphism(args.morphism)
    cov = as_covering(f)
    # parsed before the deck group is built; the range check needs its order
    indices = [int(x) for x in args.elements.split(",") if x != ""]
    if not indices:
        raise ValueError("no deck element index given")
    deck = deck_group(cov)
    qg, h_map, f_h = quotient_by_deck_subgroup(deck, indices)
    details = {
        "subgroup_order": h_map.degree,
        "intermediate_degree": f_h.degree,
        "intermediate_vertices": len(qg.vertices),
        "intermediate_regular": is_regular(f_h).regular,
    }
    if args.out:
        formats.save_morphism(args.out + ".upper.json", h_map.map)
        formats.save_morphism(args.out + ".lower.json", f_h.map)
        details["written"] = [args.out + ".upper.json", args.out + ".lower.json"]
    return Report("deck-quotient", details), 0


def cmd_good_pair(args):
    f = formats.load_morphism(args.morphism)
    r = formats.load_congruence(args.cover_congruence, f.domain)
    s = formats.load_congruence(args.base_congruence, f.codomain)
    record = classify_pair(f, r, s)
    details = {"cover_classes": len(r.dart_classes),
               "base_classes": len(s.dart_classes)}
    if record.witness is not None:
        details["witness"] = list(record.witness)
    ok = record.verdict in ("good", "regular_good")
    return Report(record.verdict, details), (0 if ok else 1)


def cmd_low_index(args):
    reps = low_index_reps(args.rank, args.max_degree,
                          normal_only=args.normal, max_work=args.max_work)
    # the report has one row per degree, charged before any is built; at
    # rank >= 1 every degree has a subgroup, so the enumeration has refused
    if args.max_degree > args.max_work:
        raise ResourceLimitError(
            "the low-index report has %d index rows (one per degree), above "
            "the work bound %d; raise --max-work to proceed"
            % (args.max_degree, args.max_work))
    counts: dict[int, int] = {}
    for rep in reps:
        counts[rep.degree] = counts.get(rep.degree, 0) + 1
    details = {
        "rank": args.rank,
        "max_degree": args.max_degree,
        "normal_only": args.normal,
        "total": len(reps),
    }
    for n in range(1, args.max_degree + 1):
        details["index %d" % n] = counts.get(n, 0)
    details["reps"] = [formats.rep_to_obj(rep) for rep in reps]
    return Report("enumerated", details), 0


def cmd_tower_validate(args):
    fs, phis, psis, _ = formats.load_tower_pieces(args.manifest)
    report = validate_tower_pieces(fs, phis, psis)
    details = {"levels": len(fs), "violations": report.violations}
    if report.ok:
        return Report("valid", details, warnings=report.warnings), 0
    return Report("invalid", details, warnings=report.warnings), 1


def cmd_tower_good_pairs(args):
    t = formats.load_tower(args.manifest)
    top = t.top if args.top is None else args.top
    records = kernel_good_pairs(t, top)
    rows = []
    for rec in records:
        row = {"level": rec.level, "verdict": rec.verdict}
        if rec.witness is not None:
            row["witness"] = list(rec.witness)
        rows.append(row)
    details = {"top": top, "pairs": rows}
    ok = all(rec.verdict in ("good", "regular_good") for rec in records)
    return Report("good-pairs" if ok else "bad-pairs", details), (0 if ok else 1)


def cmd_tower_deck(args):
    t = formats.load_tower(args.manifest)
    result = deck_tower(t)
    details = {
        "orders": result.orders,
        "steps": [{"hom": list(s.hom), "surjective": s.surjective}
                  for s in result.steps],
    }
    return Report("deck-tower", details), 0


def cmd_tower_universal(args):
    spec = formats.load_universal_spec(args.spec)
    t = universal_tower(spec)
    details = {
        "levels": t.top + 1,
        "degrees": [c.degree for c in t.coverings],
        "basepoints": list(t.basepoints),
    }
    if args.out:
        manifest = formats.save_tower(args.out, t)
        details["written"] = [manifest]
    return Report("universal-tower", details), 0


def cmd_tower_pi1_trivial(args):
    t = formats.load_tower(args.manifest)
    report = pi1_triviality_check(t, args.max_index, max_work=args.max_work,
                                  all_levels=args.all_levels)
    rows = []
    for row in report.rows:
        rows.append({"level": row.level, "index": row.rep.degree,
                     "perms": [list(p) for p in row.rep.perms],
                     "satisfied_at": row.satisfied_at})
    details = {
        "max_index": report.max_index,
        "depth": report.depth,
        "pairs": rows,
        "note": ("a depth-%d truncation certifies the criterion for the "
                 "base level only; deeper rows are evidence, not a verdict "
                 "about the full limit" % report.depth),
    }
    if report.trivial:
        return Report("trivial to index %d" % report.max_index, details), 0
    witnesses = [r for r in rows if r["level"] == 0 and r["satisfied_at"] is None]
    details["witness"] = witnesses
    return Report("not trivial to index %d" % report.max_index, details), 1


def cmd_tower_fibers(args):
    t = formats.load_tower(args.manifest)
    report = limit_fiber_report(t, args.vertex)
    details = {
        "vertex": report.start,
        "sizes": report.sizes,
        "levels": [{"level": lv.level, "vertex": lv.vertex, "size": lv.size,
                    "onto": lv.onto, "missing": list(lv.missing)}
                   for lv in report.levels],
    }
    warnings = []
    if report.dead_end_at is not None:
        warnings.append("vertex thread dead-ends at level %d" % report.dead_end_at)
    for lv in report.levels:
        if lv.onto is False:
            warnings.append("fiber not covered at level %d: %s"
                            % (lv.level - 1, " ".join(lv.missing)))
    return Report("fibers", details, warnings=warnings), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procover",
        description="Finite coverings of graphs: recognition, construction, "
                    "deck groups, quotients, and towers of covers.")
    parser.add_argument("--json", action="store_true",
                        help="emit one structured report object")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed recorded in structured output")
    parser.add_argument("--max-work", type=int, default=DEFAULT_MAX_WORK,
                        help="resource bound: subgroups a low-index "
                             "enumeration may visit, index rows a low-index "
                             "report may print, entries a deck report may "
                             "print")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check graph invariants")
    p.add_argument("graph")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("quotient", help="quotient a graph by a congruence")
    p.add_argument("graph")
    p.add_argument("congruence")
    p.add_argument("--out-graph")
    p.add_argument("--out-morphism")
    p.set_defaults(handler=cmd_quotient)

    p = sub.add_parser("check-cover", help="verify local bijectivity")
    p.add_argument("morphism")
    p.set_defaults(handler=cmd_check_cover)

    p = sub.add_parser("pi1", help="fundamental-group basis of a graph")
    p.add_argument("graph")
    p.add_argument("--base")
    p.set_defaults(handler=cmd_pi1)

    p = sub.add_parser("cover-from-rep", help="build the cover of a subgroup")
    p.add_argument("graph")
    p.add_argument("rep")
    p.add_argument("--base")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_cover_from_rep)

    p = sub.add_parser("image-subgroup", help="monodromy subgroup of a cover")
    p.add_argument("morphism")
    p.add_argument("--basepoint")
    p.set_defaults(handler=cmd_image_subgroup)

    p = sub.add_parser("lift", help="lift a map through a covering")
    p.add_argument("--map", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--source-base", required=True)
    p.add_argument("--cover-base", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_lift)

    p = sub.add_parser("deck", help="deck transformation group")
    p.add_argument("morphism")
    p.set_defaults(handler=cmd_deck)

    p = sub.add_parser("regular", help="decide whether a cover is regular")
    p.add_argument("morphism")
    p.set_defaults(handler=cmd_regular)

    p = sub.add_parser("orbit-quotient", help="quotient by a free group action")
    p.add_argument("graph")
    p.add_argument("action")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_orbit_quotient)

    p = sub.add_parser("deck-quotient", help="factor through a deck subgroup")
    p.add_argument("morphism")
    p.add_argument("--elements", required=True,
                   help="comma-separated deck element indices")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_deck_quotient)

    p = sub.add_parser("good-pair", help="classify a congruence pair for a map")
    p.add_argument("morphism")
    p.add_argument("cover_congruence")
    p.add_argument("base_congruence")
    p.set_defaults(handler=cmd_good_pair)

    p = sub.add_parser("low-index", help="enumerate subgroups of small index")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--normal", action="store_true")
    p.set_defaults(handler=cmd_low_index)

    tower = sub.add_parser("tower", help="operations on tower manifests")
    tsub = tower.add_subparsers(dest="tower_command", required=True)

    p = tsub.add_parser("validate", help="squares, coverings, surjectivity")
    p.add_argument("manifest")
    p.set_defaults(handler=cmd_tower_validate)

    p = tsub.add_parser("good-pairs", help="classify kernel pairs")
    p.add_argument("manifest")
    p.add_argument("--top", type=int, default=None)
    p.set_defaults(handler=cmd_tower_good_pairs)

    p = tsub.add_parser("deck", help="deck groups and their projections")
    p.add_argument("manifest")
    p.set_defaults(handler=cmd_tower_deck)

    p = tsub.add_parser("universal", help="build the tower of a subgroup chain")
    p.add_argument("spec")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_tower_universal)

    p = tsub.add_parser("pi1-trivial", help="triviality criterion to an index bound")
    p.add_argument("manifest")
    p.add_argument("--max-index", type=int, required=True)
    p.add_argument("--all-levels", action="store_true",
                   help="report the normal subgroups of every level, not "
                        "only the level-0 ones the verdict reads")
    p.set_defaults(handler=cmd_tower_pi1_trivial)

    p = tsub.add_parser("fibers", help="fiber sizes along a vertex thread")
    p.add_argument("manifest")
    p.add_argument("--vertex", required=True)
    p.set_defaults(handler=cmd_tower_fibers)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report, code = args.handler(args)
    except VerdictError as exc:
        report, code = Report(exc.verdict, exc.details()), 1
    except ResourceLimitError as exc:
        report, code = Report("refused", {"error": str(exc)}), 3
    except (FormatError, GraphError, OSError, ValueError) as exc:
        report, code = Report("error", {"error": str(exc)}), 2
    except Exception as exc:  # a bug or an exhausted interpreter, not a verdict
        where = traceback.extract_tb(exc.__traceback__)[-1]
        report, code = Report("internal error", {
            "error": "%s: %s" % (type(exc).__name__, exc),
            "raised_at": "%s:%d in %s" % (os.path.basename(where.filename),
                                          where.lineno, where.name)}), 4
    print(format_report(report, json_mode=args.json, seed=args.seed))
    return code


if __name__ == "__main__":
    sys.exit(main())
