import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from triquad import octic, theorems, unit_lattice  # noqa: E402


@pytest.fixture(autouse=True, scope="module")
def cold_pair_caches():
    """Clear the per-pair caches after each test module, so that no module
    depends on the pairs an earlier one left warm and the suite passes in
    any order of its directories."""
    yield
    for cache in (unit_lattice.unit_context, theorems.classification_context,
                  octic._validate_pair, octic._radicals, octic._tower_levels):
        cache.cache_clear()
