"""Every test starts from a cold search: `valid` and `consequence` calls share
one search (validity._shared_search), so a test that counts the work of one
call would otherwise see what an earlier test left in it."""

import pytest

from ptslab import validity


@pytest.fixture(autouse=True)
def _cold_search():
    validity._shared = None
