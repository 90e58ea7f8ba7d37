"""The repository's single canonical JSON encoding.

Three byte-exact artifact families grew their own copies of the same
encoder — the golden trajectory fixtures (``tools/regen_goldens.py``), the
versioned sweep archives (:mod:`repro.dist.archive`) and the fuzz corpus
(:mod:`repro.fuzz.corpus`) — and the sweep service's content-addressed
result cache (:mod:`repro.svc`) keys every cell on the same bytes.  Four
consumers of one encoding is past the point where "they happen to agree"
is acceptable: this module is the one definition, and
``tests/svc/test_canonical.py`` pins that every call site produces
identical bytes for identical payloads.

The canonical form is deliberately boring and fully deterministic:

* keys sorted, separators ``(",", ":")`` (no whitespace), ASCII-only
  escapes — so equal payloads serialise to equal bytes on every platform
  and Python version;
* floats serialised by ``repr`` (CPython's ``json``), which round-trips
  IEEE-754 doubles exactly — string equality of two canonical documents is
  bit-for-bit equality of every float in them;
* non-finite floats tagged as the strings ``"__nan__"`` / ``"__inf__"`` /
  ``"__-inf__"`` (strict JSON has no Infinity/NaN), restored exactly by
  :func:`restore`;
* no timestamps, hostnames or other environment leaks — those are the
  producers' responsibility, enforced by their byte-identity tests.

:func:`canonical_json` encodes through one module-level
:class:`json.JSONEncoder` with exactly these settings, so each call runs
CPython's C encoder once.  Only a payload holding a non-finite float
(which that encoder refuses, ``allow_nan=False``) takes the
:func:`sanitize` walk and is encoded again.  The bytes are those of
``json.dumps(sanitize(payload), sort_keys=True, separators=(",", ":"),
ensure_ascii=True, allow_nan=False)``; ``tests/svc/test_canonical.py``
checks that formula against every committed artifact and every registry
cell.
"""

from __future__ import annotations

import hashlib
import json
import math

#: blake2b digest size (bytes) used by :func:`canonical_digest`; 32 bytes
#: (256 bits) matches the golden fixtures' pre-existing event-log digests
DIGEST_SIZE = 32

#: the encoder of :func:`canonical_json`, built once (``json.dumps`` builds
#: one per call when given settings); it keeps no state between calls
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            ensure_ascii=True, allow_nan=False)


def sanitize(value):
    """Replace non-finite floats with tagged strings, recursively.

    JSON has no Infinity/NaN; the tags keep the canonical form strictly
    JSON-compliant while remaining an exact, unambiguous encoding (e.g.
    the ``inf`` final limit of an uncontrolled run).  Tuples become lists,
    matching what a JSON round-trip would produce.
    """
    if isinstance(value, float):
        if value != value:  # NaN
            return "__nan__"
        if value == math.inf:
            return "__inf__"
        if value == -math.inf:
            return "__-inf__"
        return value
    if isinstance(value, dict):
        return {key: sanitize(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(entry) for entry in value]
    return value


def restore(value):
    """Inverse of :func:`sanitize`: turn the tag strings back into floats."""
    if isinstance(value, dict):
        return {key: restore(entry) for key, entry in value.items()}
    if isinstance(value, list):
        return [restore(entry) for entry in value]
    if value == "__nan__":
        return math.nan
    if value == "__inf__":
        return math.inf
    if value == "__-inf__":
        return -math.inf
    return value


def canonical_json(payload) -> str:
    """Serialise ``payload`` into the repository's canonical JSON form.

    Equal payloads produce equal strings; unequal floats produce unequal
    strings (``repr`` round-trips doubles exactly).  This is the byte
    representation compared by the golden tests, written to the fuzz
    corpus, and hashed into the sweep service's cache keys.
    """
    try:
        return _ENCODER.encode(payload)
    except ValueError:
        # a non-finite float, which strict JSON cannot hold: encode the tags
        return _ENCODER.encode(sanitize(payload))


def canonical_digest(payload) -> str:
    """Blake2b-256 hex digest of the canonical serialisation of ``payload``."""
    return hashlib.blake2b(canonical_json(payload).encode("utf-8"),
                           digest_size=DIGEST_SIZE).hexdigest()
