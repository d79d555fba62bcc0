"""The exit-code contract under damaged input documents.

Every command line below runs in process on its own valid input files.
The fuzzer then damages one document a command reads (a key deleted, a
value replaced by one of the wrong type or by another value of the same
document, a list entry dropped or doubled) and runs the command again.
Whatever the damage, the command must exit 0, 1, 2 or 3, never 4 (an
internal error), print no traceback, and back every exit 1 with evidence:
a ``witness``, or the keys ``EXIT_1_EVIDENCE`` names for the commands that
return their own negative verdicts.

The draws come from a seeded ``random.Random``, so every run damages the
same documents in the same way.
"""

import argparse
import contextlib
import copy
import io
import json
import os
import random

import pytest

import procover as pc
from procover import cli, formats
from procover.formats import FormatError
from helpers import (
    b2_covers,
    b2_homology_spec,
    entrywise_graph_from_obj,
    entrywise_maps_from_obj,
    pro2_tower,
    rotation_action,
    wrap_morphism,
)
from test_cli import (
    EXIT_1_EVIDENCE,
    NEGATIVE_CASES,
    evidence_case_argv,
    negative_case_argv,
)

# mutated documents per seed; four seeds make about a thousand
BUDGET = 250
SEEDS = [0, 1, 2, 3]

# values of every JSON type, names the documents use and names they do not
JUNK = [None, True, False, 0, 1, -1, 3, 2 ** 40, 1.5, "", "v0", "v1", "e0",
        "e0+", "ghost", "procover-graph/1", [], [0], ["v0"], [[0]], {},
        {"edge": "e0", "flip": False}, {"id": "e0", "src": "v0", "dst": "v0"}]


def positive_case_argv(command, tmp_path):
    """Write the input files of one command that answers 0; returns the
    command line."""
    def path(filename):
        return str(tmp_path / filename)

    c6, b2 = pc.cycle_graph(6), pc.bouquet_graph(2)
    formats.save_graph(path("c6.json"), c6)
    formats.save_graph(path("b2.json"), b2)
    formats.save_morphism(path("c6_to_c3.json"), wrap_morphism(6, 3))
    formats.save_morphism(path("c12_to_c3.json"), wrap_morphism(12, 3))
    if command == "validate":
        return ["validate", path("c6.json")]
    if command == "quotient":
        formats.save_congruence(path("r.json"),
                                pc.kernel_congruence(wrap_morphism(6, 3)))
        return ["quotient", path("c6.json"), path("r.json")]
    if command == "check-cover":
        return ["check-cover", path("c6_to_c3.json")]
    if command == "pi1":
        return ["pi1", path("b2.json")]
    if command == "cover-from-rep":
        formats.save_rep(path("rep.json"), pc.translation_kernel_rep(2, 2))
        return ["cover-from-rep", path("b2.json"), path("rep.json")]
    if command == "image-subgroup":
        return ["image-subgroup", path("c12_to_c3.json")]
    if command == "lift":
        return ["lift", "--map", path("c12_to_c3.json"),
                "--cover", path("c6_to_c3.json"),
                "--source-base", "v0", "--cover-base", "v0"]
    if command == "deck":
        return ["deck", path("c12_to_c3.json")]
    if command == "regular":
        return ["regular", path("c6_to_c3.json")]
    if command == "orbit-quotient":
        formats.save_json(path("action.json"),
                          formats.action_to_obj(rotation_action(6, 3)))
        return ["orbit-quotient", path("c6.json"), path("action.json")]
    if command == "deck-quotient":
        return ["deck-quotient", path("c12_to_c3.json"), "--elements", "0,2"]
    if command == "good-pair":
        formats.save_morphism(path("id_b2.json"), pc.GraphMorphism.identity(b2))
        formats.save_congruence(path("diag.json"), pc.Congruence.diagonal(b2))
        return ["good-pair", path("id_b2.json"), path("diag.json"),
                path("diag.json")]
    if command == "tower universal":
        spec = b2_homology_spec()
        formats.save_graph(path("base.json"), spec.base)
        formats.save_congruence(path("diag.json"), spec.quotients[0])
        for i, rep in enumerate(spec.normals[:2]):
            formats.save_rep(path("n%d.json" % i), rep)
        formats.save_json(path("spec.json"), {
            "format": formats.UNIVERSAL_FORMAT, "base": "base.json",
            "basepoint": spec.basepoint, "quotients": ["diag.json"] * 2,
            "normals": ["n0.json", "n1.json"]})
        return ["tower", "universal", path("spec.json")]
    manifest = formats.save_tower(path("pro2"), pro2_tower(2))
    extra = {"tower pi1-trivial": ["--max-index", "2"],
             "tower fibers": ["--vertex", "v0"]}
    return command.split() + [manifest] + extra.get(command, [])


# every command and tower subcommand but ``low-index``, which reads no document
POSITIVE_CASES = ["validate", "quotient", "check-cover", "pi1", "cover-from-rep",
                  "image-subgroup", "lift", "deck", "regular", "orbit-quotient",
                  "deck-quotient", "good-pair", "tower validate",
                  "tower good-pairs", "tower deck", "tower universal",
                  "tower pi1-trivial", "tower fibers"]


def command_of(argv):
    """The command of a command line, with its ``tower`` subcommand."""
    return " ".join(argv[:2]) if argv[0] == "tower" else argv[0]


def named_files(obj):
    """The ``.json`` names a tower manifest or a universal spec holds."""
    if isinstance(obj, str):
        return [obj] if obj.endswith(".json") else []
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [name for x in obj for name in named_files(x)]
    return []


def documents_read(argv):
    """The documents a command line reads, with their original text: its
    file arguments and the files a manifest or spec among them names."""
    found = {}
    for arg in argv:
        if not os.path.isfile(arg):
            continue
        found[arg] = None
        obj = formats.load_json(arg)
        if isinstance(obj, dict) and obj.get("format") in (
                formats.TOWER_FORMAT, formats.UNIVERSAL_FORMAT):
            for name in named_files(obj):
                found[os.path.join(os.path.dirname(arg), name)] = None
    for doc in found:
        with open(doc, encoding="utf-8") as fh:
            found[doc] = fh.read()
    return found


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """(name, command line, {document: original text}) for every case."""
    out = []
    for kind, make, names in (("positive", positive_case_argv, POSITIVE_CASES),
                              ("negative", negative_case_argv, NEGATIVE_CASES),
                              ("evidence", evidence_case_argv,
                               sorted(EXIT_1_EVIDENCE))):
        for name in names:
            where = tmp_path_factory.mktemp("%s-%s" % (kind, name.replace(" ", "-")))
            argv = make(name, where)
            out.append(("%s %s" % (kind, name), argv, documents_read(argv)))
    return out


def slots(node, into):
    """Every (container, key) pair below ``node``, depth first."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return into
    for key in keys:
        into.append((node, key))
        slots(node[key], into)
    return into


def mutate(obj, rng):
    """Damage a copy of a JSON document in one place; returns the copy and
    what was done."""
    obj = copy.deepcopy(obj)
    places = slots(obj, [])
    if not places or rng.random() < 0.02:
        junk = rng.choice(JUNK)
        return junk, "document replaced by %r" % (junk,)
    container, key = rng.choice(places)
    values = [c[k] for c, k in places]
    op = rng.choice(["delete", "junk", "junk", "swap", "swap", "double"])
    if op == "delete":
        del container[key]
        return obj, "%r deleted" % (key,)
    if op == "junk":
        container[key] = copy.deepcopy(rng.choice(JUNK))
    elif op == "swap":
        container[key] = copy.deepcopy(rng.choice(values))
    elif isinstance(container, list):
        container.insert(key, copy.deepcopy(container[key]))
    else:
        container[key] = [copy.deepcopy(container[key])] * 2
    return obj, "%s at %r: %s" % (op, key, json.dumps(container[key])[:200])


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["--json"] + argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def contract_breach(argv, code, out, err):
    """What the run did against the exit-code contract, or None."""
    if code not in (0, 1, 2, 3):
        return "exit %r: %s" % (code, out[-300:])
    if "Traceback" in err:
        return "traceback on stderr: %s" % err[-300:]
    report = json.loads(out)
    if code == 1:
        details = report["details"]
        keys = EXIT_1_EVIDENCE.get(command_of(argv), [])
        if details.get("witness") is None and not (keys and all(
                details.get(k) not in (None, [], {}, "") for k in keys)):
            return "exit 1 without evidence: %s" % out[-300:]
    return None


def subcommands(parser):
    """{name: parser} of the subcommands of an argparse parser."""
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def test_cases_cover_every_command_and_format(cases):
    reached = {command_of(argv) for _, argv, _ in cases}
    commands = subcommands(cli.build_parser())
    everything = {c for c in commands if c != "tower"} | {
        "tower " + c for c in subcommands(commands["tower"])}
    assert everything - reached == {"low-index"}
    formats_read = {json.loads(text).get("format")
                    for _, _, docs in cases for text in docs.values()}
    assert formats_read == {formats.GRAPH_FORMAT, formats.MORPHISM_FORMAT,
                            formats.CONGRUENCE_FORMAT, formats.REP_FORMAT,
                            formats.ACTION_FORMAT, formats.TOWER_FORMAT,
                            formats.UNIVERSAL_FORMAT}


def test_unmutated_cases_keep_the_contract(cases):
    for name, argv, _ in cases:
        code, out, err = run_in_process(argv)
        want = 0 if name.startswith("positive") else 1
        assert (code, contract_breach(argv, code, out, err)) == (want, None), name


@pytest.mark.parametrize("seed", SEEDS)
def test_damaged_documents_keep_the_contract(cases, seed):
    rng = random.Random(seed)
    breaches, codes = [], set()
    for n in range(BUDGET):
        name, argv, docs = cases[(n + seed) % len(cases)]
        doc = rng.choice(sorted(docs))
        damaged, how = mutate(json.loads(docs[doc]), rng)
        formats.save_json(doc, damaged)
        try:
            code, out, err = run_in_process(argv)
        finally:
            with open(doc, "w", encoding="utf-8") as fh:
                fh.write(docs[doc])
        codes.add(code)
        breach = contract_breach(argv, code, out, err)
        if breach is not None:
            breaches.append("%s, %s, %s: %s" % (
                name, os.path.basename(doc), how, breach))
    assert breaches == []
    assert {0, 1, 2} <= codes


def reading(read, *args):
    """What a reader returns, or the message of the FormatError it raises."""
    try:
        return "value", read(*args)
    except FormatError as exc:
        return "error", str(exc)


def map_context(obj):
    """The domain and codomain graphs of a sound morphism document, as
    ``formats.morphism_from_obj`` passes them."""
    return (formats._sound_graph(obj["domain"]),
            formats._sound_graph(obj["codomain"]))


def assert_readers_agree(obj, context):
    """The one-loop readers and their entrywise oracles agree on a graph or
    morphism document: equal values, or FormatErrors with equal messages.
    A morphism's maps are read against ``context``, taken from the sound
    document the damaged one came from."""
    graphs = [obj]
    if context is not None:
        assert (reading(formats._maps_from_obj, obj, *context)
                == reading(entrywise_maps_from_obj, obj, *context))
        graphs = [obj.get(k) for k in ("domain", "codomain")
                  if isinstance(obj, dict)]
    for doc in graphs:
        got = reading(formats.graph_from_obj, doc)
        want = reading(entrywise_graph_from_obj, doc)
        assert got == want
        if got[0] == "value":
            assert got[1].name == want[1].name


@pytest.fixture(scope="module")
def graph_and_morphism_documents(cases):
    """{text: map context, or None for a graph} of every graph and
    morphism document the cases read, and of the covers of B2 of degree at
    most four."""
    texts = {text for _, _, docs in cases for text in docs.values()}
    texts.update(formats.dump_json(formats.morphism_to_obj(cov.map))
                 for _, _, cov in b2_covers())
    found = {}
    for text in sorted(texts):
        obj = json.loads(text)
        if obj.get("format") == formats.GRAPH_FORMAT:
            found[text] = None
        elif obj.get("format") == formats.MORPHISM_FORMAT:
            found[text] = map_context(obj)
    return found


def test_entry_readers_match_the_entrywise_oracles(graph_and_morphism_documents):
    contexts = graph_and_morphism_documents.values()
    # graph and morphism documents both
    assert None in contexts and any(c is not None for c in contexts)
    for text, context in graph_and_morphism_documents.items():
        assert_readers_agree(json.loads(text), context)


@pytest.mark.parametrize("seed", SEEDS)
def test_damaged_entries_read_as_the_entrywise_oracles_read_them(
        graph_and_morphism_documents, seed):
    rng = random.Random(seed)
    texts = sorted(graph_and_morphism_documents)
    outcomes = set()
    for _ in range(BUDGET):
        text = rng.choice(texts)
        context = graph_and_morphism_documents[text]
        damaged, _how = mutate(json.loads(text), rng)
        assert_readers_agree(damaged, context)
        if context is not None:
            outcomes.add(reading(formats._maps_from_obj, damaged, *context)[0])
    # the damage reaches the maps, and some of it leaves them readable
    assert outcomes == {"value", "error"}
