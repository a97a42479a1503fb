"""Run records, which are also the search cache.

Every CLI invocation writes a RunRecord (JSON) named by a content hash of
its command and inputs, and sealed by ``outputs_digest``, a hash of that
config hash and the outputs.  The seed is one of the inputs exactly where
the command reads it.  A search is answered from the record of its own
configuration, so an identical search is served without recomputation.
Inputs are stored and hashed as given (JSON floats round-trip); every
numeric output is serialized at ``SIG`` = 15 significant digits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
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


def _compact(data) -> str:
    """JSON data as one line with sorted keys."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    return _compact(to_jsonable(obj))


def config_hash(command: str, inputs) -> str:
    blob = _compact({"command": command, "inputs": inputs})
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _seal(key: str, outputs) -> str:
    """The digest of ``outputs``, already in wire form, under the config hash
    ``key``: ``to_jsonable`` leaves its own output as it is."""
    return hashlib.sha256((key + _compact(outputs)).encode()).hexdigest()


def default_cache_dir() -> Path:
    env = os.environ.get("CONCENTRA_CACHE")
    if env:
        return Path(env)
    return Path(".concentra-cache")


class ResultsCache:
    """The records directory: one RunRecord per configuration, named
    ``<command>-<key>.json`` by its config hash ``key``."""

    def __init__(self, root: Path):
        self.dir = Path(root) / "records"

    def get(self, command: str, key: str):
        """``(outputs, sealed)`` of the record under ``key``: ``sealed`` if its
        ``outputs_digest`` seals these outputs under ``key``.  None if there
        is no readable RunRecord there, or if its own command and inputs do
        not hash to ``key`` (a renamed file or edited inputs)."""
        try:
            rec = load_record(self.dir / f"{command}-{key}.json")
            if config_hash(rec["command"], rec["inputs"]) == key:
                return rec["outputs"], rec.get("outputs_digest") == _seal(key, rec["outputs"])
        except DomainError:
            pass
        return None

    def put(self, command: str, key: str, record: dict) -> Path:
        """Write ``record`` under ``key``, replacing the file there.  Keys
        keep their order, so a served search prints as it did when run."""
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.dir / f"{command}-{key}.json"
        path.write_text(json.dumps(record, indent=2))
        return path


def write_record(root: Path, command: str, inputs, outputs, wall_time: float) -> Path:
    """Build the RunRecord of one run, its ``outputs`` in wire form, and
    store it in the cache at ``root``."""
    key = config_hash(command, inputs)
    record = {"command": command, "config_hash": key, "inputs": inputs,
              "outputs": outputs, "outputs_digest": _seal(key, outputs), "wall_time": wall_time}
    return ResultsCache(root).put(command, key, record)


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
