"""Regenerate the golden command-line outputs of this directory.

    PYTHONPATH=src python tests/golden/regenerate.py

writes ``cli_stdout.txt``: for each call its command line, as
``$ concentra ...``, then what it printed.  The calls are ``constants`` and
the 32 ``curve`` calls of the benchmark's ``constants`` workload at seed 0:
B and A at lambda = 1.5, 2, 2.5 and 4, each a sweep over j/64 (four points
j = 6, 14, 22, 30 at lambda = 1.5, every j = 1..32 elsewhere) and one call
at each of the doubles nearest 1/3, 2/7 and 5/11.  Together they reach the
envelope, rational and mode paths of the series, the mode path's
residue-class head included.  ``tests/test_golden.py`` compares the file
byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from concentra import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli_stdout.txt"


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


def render(cache_dir: str) -> str:
    """Each call's command line and stdout, run in this process with its
    records written under ``cache_dir``."""
    parts = []
    for argv in CALLS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + ["--cache-dir", cache_dir])
        if code != 0:
            raise RuntimeError(f"concentra {' '.join(argv)} exited {code}")
        parts.append(f"$ concentra {' '.join(argv)}\n{out.getvalue()}")
    return "".join(parts)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        GOLDEN.write_text(render(d))
    sys.stdout.write(f"wrote {GOLDEN} ({len(CALLS)} calls)\n")
