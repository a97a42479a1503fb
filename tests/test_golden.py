"""The golden command-line outputs and RunRecords of ``tests/golden/``.

An intended change of an output shows here as a failure: regenerate the
files with ``PYTHONPATH=src python tests/golden/regenerate.py`` and say which
outputs moved and why.
"""

import contextlib
import json

import pytest

from concentra import bounds, cli
from conftest import _restart_pool
from golden import regenerate


@contextlib.contextmanager
def pool_of(workers, monkeypatch):
    """The bounds pool at ``workers`` threads; the coarse-scan table is
    rebuilt on it."""
    monkeypatch.setattr(bounds, "_WORKERS", workers)
    _restart_pool()
    bounds._scan_table.cache_clear()
    try:
        assert bounds._pool()._max_workers == workers
        yield
    finally:
        _restart_pool()
        bounds._scan_table.cache_clear()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_stdout_matches_golden_file(monkeypatch, tmp_path, workers):
    with pool_of(workers, monkeypatch):
        assert regenerate.render(str(tmp_path)) == regenerate.GOLDEN.read_text()


@pytest.fixture
def e_file(tmp_path):
    path = tmp_path / "E.json"
    path.write_text(json.dumps(regenerate.E_WIDE))
    return str(path)


def test_records_are_those_of_the_pinned_configurations(e_file):
    names = sorted(regenerate.record_name(argv, e_file)
                   for argv in regenerate.RECORD_CALLS.values())
    assert sorted(p.name for p in regenerate.RECORDS.iterdir()) == names


@pytest.mark.parametrize("argv", regenerate.RECORD_CALLS.values(),
                         ids=regenerate.RECORD_CALLS.keys())
def test_record_replays(argv, e_file, monkeypatch, capsys):
    path = regenerate.RECORDS / regenerate.record_name(argv, e_file)
    for workers in (1, 2, 3):
        with pool_of(workers, monkeypatch):
            code = cli.main(["replay", str(path)])
        assert code == 0 and json.loads(capsys.readouterr().out)["match"] is True, workers
