"""Property test: an RPM2 prefix either fails typed or loads exactly.

The zero-silent-data-loss contract for stream artifacts, checked
exhaustively: for *every* possible truncation point of an RPM2 file,
loading the prefix either raises a typed error
(:class:`~repro.errors.TraceFormatError` for structural damage,
:class:`~repro.errors.IntegrityError` for checksum damage) or returns
a stream bit-identical to the original. No prefix may load as a
quietly shorter or different stream.

The one legal "lossy" window is the footer itself: a prefix holding
all the columns but only part of the 8-byte CRC32 footer is
indistinguishable from a legacy footer-less file, so it loads — with
columns provably identical to the original's.
"""

from repro.cache.hierarchy import FLUSH_MARKER, MissStream
from repro.errors import IntegrityError, TraceFormatError
from repro.storage.framing import FOOTER_SIZE


def small_stream() -> MissStream:
    events = [
        (code, 0x1000 + 16 * index)
        for index, code in enumerate([0, 1, 0, 0, 1, 0, 1, 1, 0, 0])
    ]
    return MissStream(events=events + [FLUSH_MARKER], processor_references=40)


def columns(stream: MissStream):
    return stream.events, stream.processor_references


def test_every_prefix_fails_typed_or_loads_identical(tmp_path):
    original = small_stream()
    path = tmp_path / "stream.rpm2"
    original.save(path)
    data = path.read_bytes()
    expected = columns(original)

    loaded_sizes = []
    for size in range(len(data) + 1):
        prefix = tmp_path / "prefix.rpm2"
        prefix.write_bytes(data[:size])
        try:
            stream = MissStream.load(prefix)
        except (TraceFormatError, IntegrityError):
            continue
        # A prefix that loads must be bit-identical to the original —
        # anything else is silent data loss.
        assert columns(stream) == expected, f"prefix of {size} bytes"
        loaded_sizes.append(size)

    # Exactly the legal window loads: the full file, plus the
    # footer-less/partial-footer prefixes that mimic a legacy file.
    total = len(data) - FOOTER_SIZE
    assert loaded_sizes == list(range(total, len(data) + 1))


def test_full_file_round_trips(tmp_path):
    original = small_stream()
    path = tmp_path / "stream.rpm2"
    original.save(path)
    assert columns(MissStream.load(path)) == columns(original)
