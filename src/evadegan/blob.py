"""Versioned binary blobs: the on-disk form of trained models and networks.

Layout: 8-byte magic, 4-byte little-endian header length, a UTF-8 JSON
header (format version, array names/shapes, arbitrary metadata), then the
named float64 arrays concatenated in header order, little-endian.
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"EVGBLOB1"
FORMAT_VERSION = 1


def save_blob(path, arrays: dict, meta: dict | None = None) -> None:
    """Write named float64 arrays plus a JSON metadata header."""
    header = {
        "format_version": FORMAT_VERSION,
        "arrays": [{"name": k, "shape": list(np.asarray(v).shape)} for k, v in arrays.items()],
        "meta": meta or {},
    }
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        for value in arrays.values():
            fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())
