"""Storage substrate: JSONL log files and the binary artifact container.

The paper's pipeline is an offline batch job over months of query and click
logs.  This package provides the on-disk format the reproduction uses for
those logs and for the mined synonym rows, and the one it publishes
compiled dictionaries in:

* :mod:`repro.storage.jsonl` — newline-delimited JSON for portable dumps of
  dataclass records (search tuples, click tuples, synonym rows);
* :mod:`repro.storage.artifact` — the single-file binary artifact container
  (manifest + named blocks + content hash, atomic publication) that the
  serving layer compiles dictionaries into.
"""

from repro.storage.jsonl import read_jsonl, write_jsonl
from repro.storage.artifact import (
    ArtifactError,
    ArtifactManifest,
    read_artifact,
    read_manifest,
    write_artifact,
)

__all__ = [
    "read_jsonl",
    "write_jsonl",
    "ArtifactError",
    "ArtifactManifest",
    "read_artifact",
    "read_manifest",
    "write_artifact",
]
