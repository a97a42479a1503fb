"""The golden command-line outputs of ``tests/golden/``, byte for byte.

An intended change of an output shows here as a failure: regenerate the
file with ``PYTHONPATH=src python tests/golden/regenerate.py`` and say which
outputs moved and why.
"""

import pytest

from concentra import bounds
from conftest import _restart_pool
from golden import regenerate


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_stdout_matches_golden_file(monkeypatch, tmp_path, workers):
    # the coarse-scan table is rebuilt on the pool of each size
    monkeypatch.setattr(bounds, "_WORKERS", workers)
    _restart_pool()
    bounds._scan_table.cache_clear()
    try:
        assert bounds._pool()._max_workers == workers
        assert regenerate.render(str(tmp_path)) == regenerate.GOLDEN.read_text()
    finally:
        _restart_pool()
        bounds._scan_table.cache_clear()
