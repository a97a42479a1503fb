"""Regenerate the golden command-line outputs of this directory.

    PYTHONPATH=src python tests/golden/regenerate.py

writes ``cli_stdout.txt`` and ``records/``.  ``cli_stdout.txt`` holds, for
each call, its command line, as
``$ concentra ...``, then what it printed.  The calls are ``constants`` and
the 32 ``curve`` calls of the benchmark's ``constants`` workload at seed 0:
B and A at lambda = 1.5, 2, 2.5 and 4, each a sweep over j/64 (four points
j = 6, 14, 22, 30 at lambda = 1.5, every j = 1..32 elsewhere) and one call
at each of the doubles nearest 1/3, 2/7 and 5/11.  Together they reach the
envelope, rational and mode paths of the series, the mode path's
residue-class head included.  ``records/`` holds the RunRecord of each
configuration of ``test_record_hash_pinned`` (``RECORD_CALLS``), named
``<command>-<hash>.json`` as the cache names it.  ``tests/test_golden.py``
compares the stdout byte for byte and replays each record.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from concentra import cli
from concentra.cache import config_hash

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli_stdout.txt"
RECORDS = HERE / "records"
E_WIDE = {"intervals": [[0.30, 0.35], [0.65, 0.70]]}    # the E file of "{E}"
RECORD_CALLS = {
    "constants": ["constants"],
    "curve": ["curve", "--which", "B", "--lam", "2.5", "--points", "5"],
    "search": ["search", "--q", "13", "--p", "2"],
    "search-heuristic": ["search", "--q", "27", "--p", "1"],
    "search-star": ["search", "--q", "5", "--p", "2", "--mode", "star", "--k-sensitivity"],
    "round": ["round", "--q", "499", "--n", "125", "--L", "3", "--p", "3", "--epsilon",
              "0.2", "--trials", "20", "--seed", "1"],
    "concentrate": ["concentrate", "--e-file", "{E}", "--epsilon", "0.05", "--p", "3"],
    "decay": ["decay", "--primes", "3,5,7,11,13,101", "--restarts", "2"],
}


def _calls() -> list:
    calls = [["constants"]]
    for lam in (1.5, 2.0, 2.5, 4.0):
        js = [6, 14, 22, 30] if lam == 1.5 else list(range(1, 33))
        for which in "BA":
            sweep = [repr(js[0] / 64), repr(js[-1] / 64), str(len(js))]
            for t0, t1, n in [sweep] + [[repr(a / m), repr(a / m), "1"]
                                        for a, m in ((1, 3), (2, 7), (5, 11))]:
                calls.append(["curve", "--which", which, "--lam", repr(lam),
                              "--t-min", t0, "--t-max", t1, "--points", n])
    return calls


CALLS = _calls()


def _run(argv, cache_dir) -> str:
    """What ``concentra argv`` prints, run in this process with its record
    written under ``cache_dir``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--cache-dir", cache_dir])
    if code != 0:
        raise RuntimeError(f"concentra {' '.join(argv)} exited {code}")
    return out.getvalue()


def render(cache_dir: str) -> str:
    """Each call's command line and stdout, run in this process with its
    records written under ``cache_dir``."""
    return "".join(f"$ concentra {' '.join(argv)}\n{_run(argv, cache_dir)}"
                   for argv in CALLS)


def record_name(argv, e_file: str) -> str:
    """The file name of the record of ``argv``, ``{E}`` read as ``e_file``."""
    args = cli._build_parser().parse_args([x.replace("{E}", e_file) for x in argv])
    return f"{args.cmd}-{config_hash(args.cmd, cli._inputs_from_args(args))}.json"


def write_records(cache_dir: str) -> None:
    """Run each of ``RECORD_CALLS`` with its records under ``cache_dir`` and
    put the records in ``RECORDS`` in place of the old ones."""
    e_file = str(Path(cache_dir) / "E.json")
    Path(e_file).write_text(json.dumps(E_WIDE))
    names = []
    for argv in RECORD_CALLS.values():
        _run([x.replace("{E}", e_file) for x in argv], cache_dir)
        names.append(record_name(argv, e_file))
    shutil.rmtree(RECORDS, ignore_errors=True)
    RECORDS.mkdir()
    for name in names:
        shutil.copy(Path(cache_dir) / "records" / name, RECORDS / name)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        GOLDEN.write_text(render(d))
    with tempfile.TemporaryDirectory() as d:
        write_records(d)
    sys.stdout.write(f"wrote {GOLDEN} ({len(CALLS)} calls) and "
                     f"{len(RECORD_CALLS)} records in {RECORDS}\n")
