"""Workload ``cli-io``: whole commands and document reads and writes.

Why: this is the only workload where ``formats`` and ``cli`` do most of
the work.  Reports and documents go through ``json`` with ``indent=2``,
which runs the pure-Python encoder, so emission is a large share of a
command.  Deck work is absent.  It also times whole commands, from reading
JSON to writing the report.

Set-up writes, per base (B2, theta) and cover degree (256, 512, 1024): the
cover of a seeded blow-up K of a seeded random transitive action H (so K
lies inside H), its projection, the kernel congruence of the projection
and the projection of the cover of H; plus a universal-tower spec for the
chain of cyclic subgroups of index 1, 4, 16, 64, 256 over C3.  Requests
run ``procover.cli.main([... "--json" ...])`` in process with stdout
captured (``validate``, ``pi1``, ``check-cover``, ``quotient`` by the
kernel congruence, ``lift`` of K's projection through H's cover,
``tower universal --out``, ``tower validate``, ``tower fibers``), and call
``formats`` ``load_*``/``save_*`` directly on the same documents.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import procover as pc
from procover import cli, formats

import inputs
from common import Request

SIZES = ((64, 4), (128, 4), (256, 4))
TOWER_INDICES = (1, 4, 16, 64, 256)


def _command(name, argv, expect) -> Request:
    """A CLI request; ``expect(report)`` checks the parsed report."""
    first: list = []

    def run(span):
        buf = io.StringIO()
        with span("cli." + name), contextlib.redirect_stdout(buf):
            code = cli.main(["--json"] + argv)
        text = buf.getvalue()
        return code, len(text.encode()), hashlib.sha256(text.encode()).hexdigest(), text

    def check(out):
        code, _size, digest, text = out
        if code != 0:
            return "%s exited %d: %s" % (name, code, text[:200])
        if not first:
            first.append(digest)
        elif digest != first[0]:
            return "%s gave a different report on a second run" % name
        return expect(json.loads(text))

    return Request("cli-" + name, run, check,
                   lambda out: {"cli.report_bytes": out[1]})


def _expect(verdict, **details):
    def check(report):
        if report["verdict"] != verdict:
            return "verdict %r, expected %r" % (report["verdict"], verdict)
        for key, want in details.items():
            if report["details"].get(key) != want:
                return "%s = %r, expected %r" % (key, report["details"].get(key), want)
        return None
    return check


def _load(name, loader, path, value) -> Request:
    def run(span):
        with span("formats.load"):
            return loader(path)

    def check(loaded):
        return None if loaded == value else "%s does not reload equal" % path

    size = os.path.getsize(path)
    return Request("load-" + name, run, check,
                   lambda out: {"formats.bytes_read": size})


def _save(name, saver, loader, path, value) -> Request:
    def run(span):
        with span("formats.save"):
            saver(path, value)
        return os.path.getsize(path)

    def check(size):
        return None if loader(path) == value else "%s does not reload equal" % path

    return Request("save-" + name, run, check,
                   lambda size: {"formats.bytes_written": size})


def _cover_set(base_name, n, m, rng, workdir) -> list[Request]:
    base = pc.bouquet_graph(2) if base_name == "B2" else inputs.theta_graph()
    h = inputs.random_transitive_rep(n, rng, trivial_deck=False)
    k = inputs.blow_up(h, m, rng)
    cover, a, cov = pc.cover_from_subgroup(base, "v0", k)
    _, b, cov_h = pc.cover_from_subgroup(base, "v0", h)
    stem = os.path.join(workdir, "%s-%d" % (base_name, k.degree))
    graph, morph = stem + ".graph.json", stem + ".morphism.json"
    under, kernel = stem + ".under.morphism.json", stem + ".kernel.json"
    formats.save_graph(graph, cover)
    formats.save_morphism(morph, cov.map)
    formats.save_morphism(under, cov_h.map)
    formats.save_congruence(kernel, pc.kernel_congruence(cov.map))
    nv, ne = len(cover.vertices), cover.edge_count()
    tag = "%s-%d" % (base_name, k.degree)

    def lift_ok(report):
        err = _expect("lift")(report)
        if err:
            return err
        vmap = report["details"]["morphism"]["vertex_map"]
        if len(vmap) != nv or vmap.get(a) != b:
            return "lift does not cover the source or moves the basepoint"
        return None

    return [
        _command("validate", ["validate", graph],
                 _expect("valid", vertices=nv, darts=2 * ne, connected=True)),
        _command("pi1", ["pi1", graph], _expect("pi1", rank=ne - nv + 1)),
        _command("check-cover", ["check-cover", morph],
                 _expect("covering", degree=k.degree)),
        _command("quotient", ["quotient", graph, kernel],
                 _expect("quotient", vertices=len(base.vertices),
                         edges=base.edge_count())),
        _command("lift", ["lift", "--map", morph, "--cover", under,
                          "--source-base", a, "--cover-base", b], lift_ok),
        _load("graph-" + tag, formats.load_graph, graph, cover),
        _load("morphism-" + tag, formats.load_morphism, morph, cov.map),
        _save("graph-" + tag, formats.save_graph, formats.load_graph,
              stem + ".copy.graph.json", cover),
        _save("morphism-" + tag, formats.save_morphism, formats.load_morphism,
              stem + ".copy.morphism.json", cov.map),
    ]


def _tower_set(workdir) -> list[Request]:
    c3 = pc.cycle_graph(3)
    names = {"base": "c3.graph.json", "quotients": [], "normals": []}
    formats.save_graph(os.path.join(workdir, names["base"]), c3)
    for i, n in enumerate(TOWER_INDICES):
        q, r = "diag%d.json" % i, "cyclic%d.json" % i
        formats.save_congruence(os.path.join(workdir, q), pc.Congruence.diagonal(c3))
        formats.save_rep(os.path.join(workdir, r), inputs.cyclic_rep(n))
        names["quotients"].append(q)
        names["normals"].append(r)
    spec = os.path.join(workdir, "spec.json")
    formats.save_json(spec, {"format": formats.UNIVERSAL_FORMAT, "basepoint": "v0",
                             **names})
    out = os.path.join(workdir, "tower")
    manifest = formats.save_tower(out, pc.universal_tower(formats.load_universal_spec(spec)))
    degrees = list(TOWER_INDICES)
    return [
        _command("tower-universal", ["tower", "universal", spec, "--out", out],
                 _expect("universal-tower", levels=len(degrees), degrees=degrees,
                         written=[manifest])),
        _command("tower-validate", ["tower", "validate", manifest],
                 _expect("valid", levels=len(degrees), violations=[])),
        _command("tower-fibers", ["tower", "fibers", manifest, "--vertex", "v0"],
                 _expect("fibers", sizes=degrees)),
    ]


def build(rng, workdir) -> list[Request]:
    requests = []
    for base_name in ("B2", "theta"):
        for n, m in SIZES:
            requests += _cover_set(base_name, n, m, rng, workdir)
    return requests + _tower_set(workdir)
