import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
# The oracles in helpers.py assert; rewriting keeps those checks under
# ``python -O``, which strips plain assert statements.
pytest.register_assert_rewrite("helpers")
