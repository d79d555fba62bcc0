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
