"""Run records and the append-only results cache.

Every CLI invocation writes a RunRecord (JSON) keyed by a content hash of
(command, canonical inputs, seed); long searches additionally go through an
append-only JSON-lines cache so identical configurations are answered
without recomputation.  Inputs are stored and hashed as given (JSON floats
round-trip); every numeric output is serialized at 15 significant digits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np

from .errors import DomainError

SIG = 15


def to_jsonable(obj):
    """The wire form: dataclasses, tuples and numpy floats become JSON data,
    and every float is normalized to 15 significant digits.

    Spectra serialize as plain integer arrays (the wire format the CLI
    documents).
    """
    from .trigpoly import Spectrum
    if isinstance(obj, Spectrum):
        return [int(h) for h in obj.freqs]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (float, np.floating)):
        return float(f"{obj:.{SIG}g}")
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_hash(command: str, inputs, seed) -> str:
    blob = json.dumps({"command": command, "inputs": inputs, "seed": seed},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def default_cache_dir() -> Path:
    env = os.environ.get("CONCENTRA_CACHE")
    if env:
        return Path(env)
    return Path(".concentra-cache")


class ResultsCache:
    """Append-only JSON-lines store keyed by config hash."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.path = self.root / "searches.jsonl"

    def get(self, key: str):
        if not self.path.exists():
            return None
        hit = None
        with self.path.open() as fh:
            for line in fh:
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(row, dict) and row.get("key") == key:
                    hit = row.get("payload")
        return hit

    def put(self, key: str, payload):
        """Append one line with a single unbuffered write; a partial trailing
        line (a writer killed mid-line) is closed off first."""
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps({"key": key, "payload": to_jsonable(payload)}) + "\n"
        with self.path.open("ab+", buffering=0) as fh:
            if fh.seek(0, os.SEEK_END) > 0:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    line = "\n" + line
            fh.write(line.encode())


def write_record(root: Path, command: str, inputs, outputs, wall_time: float,
                 seed) -> Path:
    root = Path(root)
    rec_dir = root / "records"
    rec_dir.mkdir(parents=True, exist_ok=True)
    h = config_hash(command, inputs, seed)
    record = {
        "command": command,
        "config_hash": h,
        "inputs": inputs,
        "outputs": to_jsonable(outputs),
        "wall_time": wall_time,
        "seed": seed,
    }
    path = rec_dir / f"{command}-{h}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    return path


def read_json(path):
    """Parse a JSON file; an unreadable or malformed file is a DomainError."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise DomainError(f"cannot read JSON from {path}: {e}") from None


def load_record(path) -> dict:
    rec = read_json(path)
    if not (isinstance(rec, dict)
            and {"command", "config_hash", "inputs", "outputs"} <= rec.keys()):
        raise DomainError(f"{path} is not a RunRecord")
    return rec
