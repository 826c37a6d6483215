"""The RPM2 miss-stream file format.

A captured L1 miss stream (:class:`~repro.cache.hierarchy.MissStream`)
is the unit of reuse across every L2 sweep, so it is persisted in a
compact columnar layout, version 2 of the ``RPMS`` record format::

    offset  0   magic  b"RPM2"
    offset  4   u32    format version (currently 1)
    offset  8   u64    processor_references
    offset 16   u64    n_events
    offset 24   u64    n_flushes
    offset 32   u8  x n_events   codes column (0 = read-in, 1 = write-back)
    (pad to 8-byte alignment)
    u64 x n_events               addresses column (little-endian)
    u64 x n_flushes              flush-offsets column (little-endian)
    8 bytes                      CRC32 footer over everything above

Flushes are not inline: each flush offset is the number of events that
precede that cold-start boundary. Readers accept footer-less RPM2 files
and the legacy ``RPMS`` record format too. Files whose name ends in
``.gz`` are gzip-compressed.
"""

from __future__ import annotations

import gzip
import hashlib
import struct
import sys
from array import array
from pathlib import Path
from typing import List, Tuple

from repro.errors import TraceFormatError
from repro.storage.framing import crc32_footer, verify_crc32_footer

#: Sentinel in a miss stream's event list marking a cold-start flush.
FLUSH_MARKER: Tuple[int, int] = (-1, -1)

Events = List[Tuple[int, int]]

_MAGIC = b"RPM2"
_LEGACY_MAGIC = b"RPMS"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQQ")
_LEGACY_HEADER = struct.Struct("<4sQQ")
_LEGACY_RECORD = struct.Struct("<bQ")


def _pad8(n: int) -> int:
    """``n`` rounded up to the next multiple of 8."""
    return (n + 7) & ~7


def _u64_bytes(values: array) -> bytes:
    """Little-endian bytes of a native u64 column."""
    if sys.byteorder != "little":  # pragma: no cover - big-endian only
        values = array("Q", values)
        values.byteswap()
    return values.tobytes()


def _u64_array(data: bytes) -> array:
    """A native u64 column from little-endian bytes."""
    values = array("Q")
    values.frombytes(data)
    if sys.byteorder != "little":  # pragma: no cover - big-endian only
        values.byteswap()
    return values


def _columns(events: Events) -> Tuple[bytes, bytes, bytes, int]:
    """Codes, address and flush-offset column bytes, and the flush count."""
    codes = array("B")
    addresses = array("Q")
    flushes = array("Q")
    for code, address in events:
        if code < 0:
            flushes.append(len(codes))
        else:
            codes.append(code)
            addresses.append(address)
    return (
        codes.tobytes(), _u64_bytes(addresses), _u64_bytes(flushes),
        len(flushes),
    )


def content_hash(events: Events, processor_references: int) -> str:
    """SHA-256 (hex) over the reference count and the packed columns."""
    codes, addresses, flushes, _ = _columns(events)
    digest = hashlib.sha256(struct.pack("<Q", processor_references))
    for column in (codes, addresses, flushes):
        digest.update(column)
    return digest.hexdigest()


def encode(events: Events, processor_references: int) -> bytes:
    """The RPM2 bytes of a stream, CRC32 footer included."""
    codes, addresses, flushes, n_flushes = _columns(events)
    header = _HEADER.pack(
        _MAGIC, _VERSION, processor_references, len(codes), n_flushes
    )
    pad = b"\x00" * (_pad8(_HEADER.size + len(codes)) - _HEADER.size - len(codes))
    payload = b"".join((header, codes, pad, addresses, flushes))
    return payload + crc32_footer(payload)


def decode(data: bytes, path) -> Tuple[Events, int]:
    """``(events, processor_references)`` from RPM2 or legacy RPMS bytes.

    Raises:
        TraceFormatError: On an unknown magic, unsupported version, or
            truncated file.
        IntegrityError: When the file carries a CRC32 footer and the
            content does not hash to it (bitrot, tampering).
    """
    if data[:4] == _LEGACY_MAGIC:
        return _decode_legacy(data, path)
    if data[:4] != _MAGIC:
        raise TraceFormatError(f"{path} is not a saved miss stream")
    if len(data) < _HEADER.size:
        raise TraceFormatError(f"truncated miss-stream header in {path}")
    _, version, refs, n_events, n_flushes = _HEADER.unpack_from(data)
    if version != _VERSION:
        raise TraceFormatError(f"unsupported RPM2 version {version} in {path}")
    addr_off = _pad8(_HEADER.size + n_events)
    flush_off = addr_off + 8 * n_events
    total = flush_off + 8 * n_flushes
    if len(data) < total:
        raise TraceFormatError(
            f"truncated miss-stream columns in {path}: "
            f"{len(data)} bytes, need {total}"
        )
    verify_crc32_footer(data, total, context=str(path))
    pairs = list(zip(
        data[_HEADER.size:_HEADER.size + n_events],
        _u64_array(data[addr_off:flush_off]),
    ))
    events: Events = []
    position = 0
    for offset in _u64_array(data[flush_off:total]):
        events += pairs[position:offset]
        events.append(FLUSH_MARKER)
        position = offset
    events += pairs[position:]
    return events, refs


def _decode_legacy(data: bytes, path) -> Tuple[Events, int]:
    """Events of a legacy ``RPMS`` record file (flush markers inline)."""
    if len(data) < _LEGACY_HEADER.size:
        raise TraceFormatError(f"truncated miss-stream header in {path}")
    _, refs, count = _LEGACY_HEADER.unpack_from(data)
    end = _LEGACY_HEADER.size + _LEGACY_RECORD.size * count
    if len(data) < end:
        raise TraceFormatError(f"truncated miss-stream record in {path}")
    events = [
        FLUSH_MARKER if code < 0 else (code, address)
        for code, address in _LEGACY_RECORD.iter_unpack(
            data[_LEGACY_HEADER.size:end]
        )
    ]
    return events, refs


def _opener(path: Path):
    return gzip.open if path.suffix == ".gz" else open


def write(path, events: Events, processor_references: int) -> None:
    """Write a stream as an RPM2 file (gzip if ``path`` ends ``.gz``)."""
    path = Path(path)
    with _opener(path)(path, "wb") as handle:
        handle.write(encode(events, processor_references))


def read(path) -> Tuple[Events, int]:
    """``(events, processor_references)`` of a file written by :func:`write`
    (or a legacy footer-less RPM2 or ``RPMS`` file)."""
    path = Path(path)
    with _opener(path)(path, "rb") as handle:
        data = handle.read()
    return decode(data, path)
