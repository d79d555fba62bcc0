import json
import os
import sys

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
