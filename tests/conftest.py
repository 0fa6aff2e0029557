"""Every test starts from cold searches: `valid` and `consequence` calls with
equal bounds share one search, and the module holds one per `Bounds` value
(validity._shared_search), so a test that counts the work of one call would
otherwise see what an earlier test left in them. Clearing the map is the one
reset, here and inside any test that needs a cold start."""

import pytest

from ptslab import validity


@pytest.fixture(autouse=True)
def _cold_search():
    validity._shared.clear()
