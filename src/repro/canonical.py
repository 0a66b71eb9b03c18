"""One canonical JSON serializer for every stable-bytes surface.

Several subsystems need "the same object always serializes to the same
bytes": cache keys and machine digests (:mod:`repro.service.keys`),
history lines and bench payload files (:mod:`repro.obs.history`),
on-disk cache envelopes (:mod:`repro.service.cache`) and the
scheduling server's response bodies (:mod:`repro.server`).  They all used to spell the same
``json.dumps(..., sort_keys=True)`` incantation locally; this module is
the single definition, so "canonical" means exactly one thing:

- keys sorted lexicographically at every level;
- compact separators (``","``/``":"``) unless an ``indent`` is asked
  for (pretty output stays canonical: sorted keys, deterministic
  floats);
- ``allow_nan=False`` — NaN/Infinity are not JSON and would make the
  bytes unparsable to strict readers;
- no trailing whitespace surprises: :func:`canonical_dump` always ends
  the file with exactly one newline.

Anything accepted by ``json.dumps`` can be serialized; callers are
responsible for reducing their objects to plain dict/list/scalar form
first (see ``repro.service.keys`` for the reduction idioms).
"""

from __future__ import annotations

import json
from typing import IO, Optional, Union


def canonical_dumps(obj, indent: Optional[int] = None) -> str:
    """Deterministic JSON text for ``obj`` (sorted keys, no NaN)."""
    return json.dumps(
        obj,
        sort_keys=True,
        indent=indent,
        separators=(",", ": ") if indent is not None else (",", ":"),
        allow_nan=False,
    )


def canonical_bytes(obj, indent: Optional[int] = None) -> bytes:
    """UTF-8 canonical encoding (what digests and HTTP bodies use)."""
    return canonical_dumps(obj, indent=indent).encode("utf-8")


def canonical_dump(
    obj, destination: Union[str, IO[str]], indent: Optional[int] = 2
) -> None:
    """Write canonical JSON (+ trailing newline) to a path or handle."""
    text = canonical_dumps(obj, indent=indent) + "\n"
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            handle.write(text)
    else:
        destination.write(text)


def canonical_digest(obj) -> str:
    """SHA-256 hex digest of the canonical encoding."""
    # Imported here: hashlib maps OpenSSL (about 3.6 MB of RSS), which
    # importing this module's many readers should not pay for.
    import hashlib

    return hashlib.sha256(canonical_bytes(obj)).hexdigest()
