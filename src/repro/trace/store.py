"""Persistent on-disk trace store: one binary container per fingerprint.

Captured traces are deterministic given their key, so a trace keyed by
:meth:`~repro.trace.capture.TraceKey.fingerprint` never goes stale —
sweeps and repeated figure regeneration skip every capture they have
already performed, across process invocations.  Layout::

    ~/.cache/repro/traces-v<TRACE_SCHEMA>/<fingerprint>.trace

:class:`TraceStore` is one kind of :class:`~repro.blobstore.BlobStore`,
next to the result store under the same root, and shares its failure
discipline: writes are atomic, and a container that fails to parse,
fails its checksum, or carries the wrong fingerprint is a
:class:`~repro.blobstore.Defect` — **quarantined** into ``corrupt/``
with a ``.reason`` sidecar, evidence for ``python -m repro doctor``,
never a silent recompute-over.  This module owns only the container
codec.

Container format (all integers little-endian)::

    magic      8 bytes   b"REPROTRC"
    headerlen  4 bytes   length of the JSON header
    header     JSON      schema, fingerprint, label, meta, fill
                         ranges, and per-stream column manifests
    payload    raw bytes the column arrays, concatenated in
                         manifest order
    digest     32 bytes  SHA-256 over everything above

The header carries each column's byte length, so a reader can slice
the payload without trusting anything but the (checksummed) header.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys

from repro.blobstore import BlobStore, Defect, atomic_write
from repro.trace.capture import CapturedTrace
from repro.trace.codec import COLUMNS, TRACE_SCHEMA, EncodedStream

__all__ = ["TraceFormatError", "TraceStore", "serialize", "deserialize"]

_MAGIC = b"REPROTRC"
_HEADER_LEN = struct.Struct("<I")
_DIGEST_BYTES = 32


class TraceFormatError(Defect):
    """A trace container that cannot be trusted (torn, renamed, alien)."""


def _stream_manifest(name: str, stream: EncodedStream) -> dict:
    return {
        "name": name,
        "uops": len(stream),
        "columns": [
            {"name": column_name,
             "nbytes": len(column) * column.itemsize}
            for (column_name, _), column in zip(COLUMNS, stream.columns())
        ],
    }


def serialize(captured: CapturedTrace) -> bytes:
    """The binary container for one captured trace."""
    sections = [("warm", captured.warm)]
    sections += [(f"stream{i}", stream)
                 for i, stream in enumerate(captured.streams)]
    header = {
        "schema": TRACE_SCHEMA,
        "fingerprint": captured.fingerprint,
        "label": captured.label,
        "byteorder": sys.byteorder,
        "meta": captured.meta,
        "fill_ranges": [[base, nbytes]
                        for base, nbytes in captured.fill_ranges],
        "sections": [_stream_manifest(name, stream)
                     for name, stream in sections],
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    parts = [_MAGIC, _HEADER_LEN.pack(len(header_bytes)), header_bytes]
    for _, stream in sections:
        parts.extend(column.tobytes() for column in stream.columns())
    body = b"".join(parts)
    return body + hashlib.sha256(body).digest()


def _decode_section(manifest: dict, payload: bytes, offset: int
                    ) -> tuple[EncodedStream, int]:
    columns: dict[str, bytes] = {}
    expected = [name for name, _ in COLUMNS]
    declared = [entry["name"] for entry in manifest["columns"]]
    if declared != expected:
        raise TraceFormatError(
            f"section {manifest.get('name')!r} declares columns "
            f"{declared}, expected {expected}")
    for entry in manifest["columns"]:
        nbytes = entry["nbytes"]
        chunk = payload[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise TraceFormatError(
                f"truncated payload in section {manifest.get('name')!r}")
        columns[entry["name"]] = chunk
        offset += nbytes
    try:
        stream = EncodedStream.from_columns(columns)
    except ValueError as exc:
        raise TraceFormatError(f"undecodable column bytes: {exc}") from exc
    if len(stream) != manifest["uops"]:
        raise TraceFormatError(
            f"section {manifest.get('name')!r} decodes to {len(stream)} "
            f"uops, header says {manifest['uops']}")
    return stream, offset


def deserialize(data: bytes) -> CapturedTrace:
    """Parse a container; raises :class:`TraceFormatError` on any defect."""
    if len(data) < len(_MAGIC) + _HEADER_LEN.size + _DIGEST_BYTES:
        raise TraceFormatError("container shorter than its fixed framing")
    if data[:len(_MAGIC)] != _MAGIC:
        raise TraceFormatError("bad magic (not a trace container)")
    body, digest = data[:-_DIGEST_BYTES], data[-_DIGEST_BYTES:]
    if hashlib.sha256(body).digest() != digest:
        raise TraceFormatError("checksum mismatch (torn or tampered write)")
    header_len, = _HEADER_LEN.unpack_from(body, len(_MAGIC))
    header_start = len(_MAGIC) + _HEADER_LEN.size
    header_bytes = body[header_start:header_start + header_len]
    if len(header_bytes) != header_len:
        raise TraceFormatError("truncated header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"unparsable header: {exc}") from exc
    if header.get("schema") != TRACE_SCHEMA:
        raise TraceFormatError(
            f"schema {header.get('schema')!r} inside the "
            f"v{TRACE_SCHEMA} store")
    if header.get("byteorder") != sys.byteorder:
        raise TraceFormatError(
            f"container written on a {header.get('byteorder')!r}-endian "
            f"host, this host is {sys.byteorder!r}-endian")
    payload = body[header_start + header_len:]
    try:
        sections = header["sections"]
        fill_ranges = tuple((int(base), int(nbytes))
                            for base, nbytes in header["fill_ranges"])
        fingerprint = header["fingerprint"]
        label = header["label"]
        meta = header.get("meta", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"malformed header fields: {exc}") from exc
    if not sections or sections[0].get("name") != "warm":
        raise TraceFormatError("first section must be the warm stream")
    offset = 0
    streams: list[EncodedStream] = []
    try:
        for manifest in sections:
            stream, offset = _decode_section(manifest, payload, offset)
            streams.append(stream)
    except (KeyError, TypeError) as exc:
        raise TraceFormatError(f"malformed section manifest: {exc}") from exc
    if offset != len(payload):
        raise TraceFormatError(
            f"{len(payload) - offset} trailing payload byte(s)")
    return CapturedTrace(
        fingerprint=fingerprint,
        label=label,
        fill_ranges=fill_ranges,
        warm=streams[0],
        streams=tuple(streams[1:]),
        meta=meta,
    )


class TraceStore(BlobStore):
    """A directory of fingerprint-keyed trace containers."""

    name = "traces"
    schema = TRACE_SCHEMA
    suffix = ".trace"

    def decode(self, data: bytes, fingerprint: str) -> CapturedTrace:
        """The trace a container holds; raises :class:`TraceFormatError`."""
        captured = deserialize(data)
        if captured.fingerprint != fingerprint:
            raise TraceFormatError(
                f"fingerprint field {captured.fingerprint!r} does not "
                "match the filename (renamed or copied container)")
        return captured

    def get(self, fingerprint: str) -> CapturedTrace | None:
        """The stored trace, or None on a miss.

        A defective container is also a miss, but it is quarantined
        first so the evidence survives recomputation.
        """
        return self._load(fingerprint)

    def put(self, captured: CapturedTrace) -> None:
        """Persist a captured trace atomically under its fingerprint."""
        atomic_write(self.path_for(captured.fingerprint), serialize(captured))

    def entries(self) -> list[dict]:
        """Header metadata for every stored trace, filename-sorted."""
        listing = []
        for path in self._blobs():
            captured, _defect = self._decode_file(path, path.stem)
            if captured is None:
                continue  # vanished or defective; doctor reports those
            listing.append({
                "fingerprint": captured.fingerprint,
                "label": captured.label,
                "uops": captured.total_uops(),
                "bytes": path.stat().st_size,
                "meta": captured.meta,
            })
        return listing
