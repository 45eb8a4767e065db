"""The wire format: a message is a flat header plus a flat list of buffers.

``header`` is a tuple of rows of ``int`` / ``str`` scalars — ``(order,
dst_box, comp, *dst_lo)`` for a halo region, ``(src_box, dst_box)`` for
a particle batch, ``(box,)`` for a migrated box — and ``buffers`` the
flat sequence of arrays those rows describe.  Nothing nests below a row,
so size and checksum are one loop each, done once: 8 bytes per header
number, the UTF-8 length per header string, ``nbytes`` per buffer.  A
bare ndarray is the one-buffer, empty-header message.

Only this module knows how a message crosses a process boundary
(:func:`encode` / :func:`decode`): every buffer is copied into **one**
block described by a ``(dtype, shape, offset)`` table; the block rides
the queue pipe below :data:`SHM_THRESHOLD` and one shared-memory segment
above it.  Segment names carry the run (parent pid), the sending rank
and a sequence number; decoding unlinks the segment, and
:func:`sweep_segments` removes by prefix what was never decoded.
"""

from __future__ import annotations

import os
import zlib
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CommunicationError

#: encoded blocks at or above this many bytes ride in shared memory
SHM_THRESHOLD = 1 << 16

#: buffer offsets inside a block are multiples of this (keeps views aligned)
_ALIGN = 16

#: where Linux lists POSIX shared memory (elsewhere the sweep finds nothing)
_SHM_DIR = "/dev/shm"


_BAD_HEADER = (
    "a message header is rows of int / str scalars, got {!r} (arrays "
    "belong in buffers)"
)


class Message:
    """One flat header and one flat list of buffers (module docstring).

    Buffers are held by reference (loopback stays zero-copy); ``nbytes``
    is fixed at construction and ``crc`` on first use, so neither the
    accounting nor the integrity check ever re-walks a message.
    """

    __slots__ = ("header", "buffers", "nbytes", "_crc")

    def __init__(self, header: Sequence = (), buffers: Sequence = ()) -> None:
        nbytes = 0
        rows = []
        for row in header:
            if not isinstance(row, (tuple, list)):
                raise CommunicationError(_BAD_HEADER.format(row))
            scalars = []
            for x in row:
                kind = type(x)
                if kind is int:
                    nbytes += 8
                elif kind is str:
                    nbytes += len(x.encode("utf8"))
                elif isinstance(x, np.integer):
                    # index arithmetic on NumPy corners or guards lands
                    # here; both ends hold (and checksum) plain ints
                    x = int(x)
                    nbytes += 8
                else:
                    raise CommunicationError(_BAD_HEADER.format(row))
                scalars.append(x)
            rows.append(tuple(scalars))
        for b in buffers:
            if not isinstance(b, np.ndarray) or b.dtype.hasobject:
                raise CommunicationError(
                    f"message buffers are plain-data ndarrays, got "
                    f"{type(b).__name__}"
                )
            nbytes += b.nbytes
        self.header = tuple(rows)
        self.buffers = tuple(buffers)
        self.nbytes = nbytes
        self._crc: Optional[int] = None

    @property
    def crc(self) -> int:
        """CRC32 over header, buffer layout and buffer bytes (cached)."""
        if self._crc is None:
            layout = [(b.dtype.str, b.shape) for b in self.buffers]
            crc = zlib.crc32(repr((self.header, layout)).encode("utf8"))
            for b in self.buffers:
                crc = zlib.crc32(np.ascontiguousarray(b), crc)
            self._crc = crc
        return self._crc

    def unwrap(self) -> Any:
        """What ``recv`` returns: the array itself for a bare-array message."""
        if not self.header and len(self.buffers) == 1:
            return self.buffers[0]
        return self


def as_message(payload: Any) -> Message:
    """``payload`` as a :class:`Message`; anything but a message or one
    bare ndarray is refused."""
    if isinstance(payload, Message):
        return payload
    if isinstance(payload, np.ndarray):
        return Message((), (payload,))
    raise CommunicationError(
        f"cannot send a {type(payload).__name__}: a payload is a "
        "Message(header, buffers) or one bare ndarray"
    )


def payload_nbytes(payload: Any) -> int:
    """Accounted size of a payload in bytes (the rule of :class:`Message`)."""
    return as_message(payload).nbytes


def payload_checksum(payload: Any) -> int:
    """CRC32 of a payload: carried beside the message and compared at the
    receiver, so a mangled payload never reaches the physics."""
    return as_message(payload).crc


# -- process-boundary layout --------------------------------------------------


def segment_prefix(run_pid: int) -> str:
    """Name prefix of every segment of the SPMD run whose parent is
    ``run_pid``; senders append ``<rank>-<sequence>``."""
    return f"repro-{run_pid}-"


def encode(msg: Message, segment_name: str) -> Tuple:
    """Copy ``msg``'s buffers into one block; returns what rides the pipe:
    ``(header, [(dtype, shape, offset)], inline block or None, segment
    name or None)``.  ``segment_name`` is used only when the block
    reaches :data:`SHM_THRESHOLD`; the segment then belongs to whoever
    decodes the result, so the local resource tracker forgets it.
    """
    table, size = [], 0
    for b in msg.buffers:
        table.append((b.dtype.str, b.shape, size))
        size += -(-b.nbytes // _ALIGN) * _ALIGN
    segment = None
    if size >= SHM_THRESHOLD:
        # imported here: in-process runs never load multiprocessing (0.8 MiB)
        from multiprocessing import resource_tracker, shared_memory
        segment = shared_memory.SharedMemory(
            name=segment_name, create=True, size=size
        )
        block = segment.buf
    else:
        block = bytearray(size)
    for b, (_dtype, _shape, offset) in zip(msg.buffers, table):
        np.ndarray(b.shape, b.dtype, buffer=block, offset=offset)[...] = b
    if segment is None:
        return (msg.header, table, block, None)
    segment.close()
    resource_tracker.unregister(segment._name, "shared_memory")
    return (msg.header, table, None, segment_name)


def decode(encoded: Tuple) -> Message:
    """Rebuild the message: writable arrays viewing one owned block (a
    segment's block is copied out and the segment unlinked: single use)."""
    header, table, block, segment_name = encoded
    if segment_name is not None:
        from multiprocessing import shared_memory
        segment = shared_memory.SharedMemory(name=segment_name)
        try:
            block = bytearray(segment.buf)
        finally:
            segment.close()
            segment.unlink()
    return Message(
        header,
        [
            np.ndarray(shape, np.dtype(dtype), buffer=block, offset=offset)
            for dtype, shape, offset in table
        ],
    )


def sweep_segments(prefix: str) -> None:
    """Unlink every shared-memory segment named ``prefix*``.

    The end-of-run guarantee: once the workers of a run are gone, no
    segment of that run outlives it, whichever side failed to consume it.
    """
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return
    for name in names:
        if name.startswith(prefix):
            try:
                os.unlink(os.path.join(_SHM_DIR, name))
            except FileNotFoundError:
                pass  # its receiver got there first
