"""Binary round transcripts for logging and deterministic replay.

A transcript is a sequence of tagged little-endian records mirroring the
wire messages plus the optimizer-step events, enough to replay a round's
message flow offline or audit server update counts.  Each round reaches
the file in one write.

File layout:
  magic b"SMXT" | u32 version (=1) | records...
  record: u8 tag | u32 payload length | payload

Masks are packed LSB-first within each byte into ceil(M/8) bytes, padded
to 8 bytes (one little-endian 64-bit integer) when M <= 64: a mask's wire
size is ``mask_nbytes``.

There is no end-of-file record: a file cut exactly at a record boundary
reads as a shorter transcript.
"""

from __future__ import annotations

import math
import struct
from typing import BinaryIO, NoReturn

import numpy as np

from .errors import IngestionError

_MAGIC = b"SMXT"
_VERSION = 1

TAG_ROUND_START = 1
TAG_SEQUENCE = 2
TAG_UPLOAD = 3
TAG_SERVER_BATCH = 4
TAG_GRAD_DOWN = 5
TAG_SERVER_STEP = 6
TAG_CLIENT_STEP = 7
TAG_ROUND_END = 8


def mask_nbytes(length: int) -> int:
    """Wire size of a length-bit mask: one 64-bit word while length <= 64,
    else ceil(length / 8) bytes."""
    return 8 if length <= 64 else (length + 7) // 8


def encode_mask(mask: np.ndarray) -> bytes:
    packed = np.packbits(mask.astype(np.uint8), bitorder="little").tobytes()
    return packed.ljust(mask_nbytes(mask.shape[0]), b"\0")


def _f32(array: np.ndarray) -> memoryview:
    return memoryview(np.ascontiguousarray(array, dtype="<f4")).cast("B")


class TranscriptWriter:
    """Writes protocol records to an open binary file.  Each record method
    appends its pieces, float arrays as views, to a list that
    ``write_round`` joins and writes in one call."""

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        self._parts: list[bytes | memoryview] = []
        fh.write(_MAGIC + struct.pack("<I", _VERSION))

    def _record(self, tag: int, *payload) -> None:
        self._parts.append(struct.pack("<BI", tag, sum(map(len, payload))))
        self._parts += payload

    def write_round(self, round_index: int, groups: list[list[int]], masks: np.ndarray,
                    uploads: np.ndarray, labels: np.ndarray, grids: np.ndarray,
                    soft_labels: np.ndarray, passes: list, total_uplink: int) -> None:
        """Write one round's records in protocol order.  ``groups`` lists each
        group's members; ``masks``, ``uploads`` and ``labels`` are the fleet's
        ``(n, M)``, ``(n, batch, M, d)`` and ``(n, batch, classes)`` arrays,
        the uploads as ``mixing.cut`` left them; ``grids`` and ``soft_labels``
        each group's batch as the server received it.  ``passes`` holds each
        server pass's group id and messages (``target``, ``broadcast``,
        ``grad``), in order."""
        members = [cid for group in groups for cid in group]
        self.round_start(round_index)
        for cid in members:
            self.sequence(cid, masks[cid])
            self.upload(cid, masks[cid], uploads[cid], labels[cid])
        for group_id, (tokens, soft_label) in enumerate(zip(grids, soft_labels)):
            self.server_batch(group_id, tokens, soft_label)
        for group_id, downs in passes:
            self.server_step(group_id)
            for down in downs:
                self.gradient_down(down.target, down.broadcast, down.grad)
        for cid in members:
            self.client_step(cid)
        self.round_end(round_index, total_uplink)
        self._fh.write(b"".join(self._parts))
        self._parts.clear()

    def round_start(self, round_index: int) -> None:
        self._record(TAG_ROUND_START, struct.pack("<I", round_index))

    def sequence(self, client_id: int, mask: np.ndarray) -> None:
        self._record(TAG_SEQUENCE, struct.pack("<II", client_id, mask.shape[0]),
                     encode_mask(mask))

    def upload(self, client_id: int, mask: np.ndarray, tokens: np.ndarray,
               label: np.ndarray) -> None:
        batch, rows, dim = tokens.shape
        self._record(TAG_UPLOAD,
                     struct.pack("<IIIII", client_id, batch, rows, dim, label.shape[-1]),
                     encode_mask(mask), _f32(tokens), _f32(label))

    def server_batch(self, group_id: int, tokens: np.ndarray, soft_label: np.ndarray) -> None:
        batch, rows, dim = tokens.shape
        self._record(TAG_SERVER_BATCH,
                     struct.pack("<IIIII", group_id, batch, rows, dim, soft_label.shape[-1]),
                     _f32(tokens), _f32(soft_label))

    def gradient_down(self, target: int, broadcast: bool, grad: np.ndarray) -> None:
        batch, rows, dim = grad.shape
        self._record(TAG_GRAD_DOWN,
                     struct.pack("<IBIII", target, int(broadcast), batch, rows, dim), _f32(grad))

    def server_step(self, group_id: int) -> None:
        self._record(TAG_SERVER_STEP, struct.pack("<i", group_id))

    def client_step(self, client_id: int) -> None:
        self._record(TAG_CLIENT_STEP, struct.pack("<I", client_id))

    def round_end(self, round_index: int, total_uplink: int) -> None:
        self._record(TAG_ROUND_END, struct.pack("<IQ", round_index, total_uplink))


class BinaryReader:
    """Bounds-checked little-endian cursor over ``blob[start:end]``.

    Every read names its field.  A field that overruns ``end`` or does not
    decode raises ``IngestionError`` naming the field and its byte offset.
    """

    def __init__(self, blob, path, start: int = 0, end: int | None = None):
        self.blob = memoryview(blob)
        self.path = path
        self.pos = start
        self.end = len(blob) if end is None else end

    @classmethod
    def from_file(cls, path) -> "BinaryReader":
        with open(path, "rb") as fh:
            return cls(fh.read(), path)

    def fail(self, problem: str, at: int | None = None) -> NoReturn:
        raise IngestionError(f"{self.path}: {problem} at byte {self.pos if at is None else at}")

    def take(self, nbytes: int, field: str) -> memoryview:
        left = self.end - self.pos
        if nbytes > left:
            self.fail(f"{field} needs {nbytes} bytes, {left} left")
        self.pos += nbytes
        return self.blob[self.pos - nbytes:self.pos]

    def unpack(self, fmt: str, field: str) -> tuple:
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt), field))

    def f32(self, shape: tuple, field: str) -> np.ndarray:
        at = self.pos
        raw = self.take(4 * math.prod(shape), field)
        try:
            return np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        except ValueError:
            self.fail(f"{field} cannot take shape {tuple(shape)}", at)

    def mask(self, length: int, field: str) -> np.ndarray:
        bits = np.frombuffer(self.take(mask_nbytes(length), field), dtype=np.uint8)
        return np.unpackbits(bits, bitorder="little")[:length]

    def done(self, field: str) -> None:
        if self.pos != self.end:
            self.fail(f"{self.end - self.pos} trailing bytes after {field}")


def read_transcript(path) -> list[dict]:
    """Decode a transcript into a list of structured records."""
    reader = BinaryReader.from_file(path)
    if reader.take(4, "magic") != _MAGIC:
        reader.fail("not a transcript (bad magic)", 0)
    (version,) = reader.unpack("I", "version")
    if version != _VERSION:
        reader.fail(f"unsupported transcript version {version}", 4)
    records: list[dict] = []
    while reader.pos < reader.end:
        at = reader.pos
        tag, length = reader.unpack("BI", "record header")
        reader.take(length, f"tag-{tag} record payload")
        payload = BinaryReader(reader.blob, path, reader.pos - length, reader.pos)
        records.append(_decode(tag, payload, at))
        payload.done(f"the tag-{tag} record")
    return records


def _decode(tag: int, r: BinaryReader, at: int) -> dict:
    if tag == TAG_ROUND_START:
        return {"type": "round_start", "round": r.unpack("I", "round")[0]}
    if tag == TAG_SEQUENCE:
        client_id, length = r.unpack("II", "sequence header")
        return {"type": "sequence", "client_id": client_id, "mask": r.mask(length, "mask")}
    if tag == TAG_UPLOAD:
        client_id, batch, rows, dim, classes = r.unpack("IIIII", "upload header")
        return {"type": "upload", "client_id": client_id, "mask": r.mask(rows, "mask"),
                "tokens": r.f32((batch, rows, dim), "tokens"),
                "label": r.f32((batch, classes), "label")}
    if tag == TAG_SERVER_BATCH:
        group_id, batch, rows, dim, classes = r.unpack("IIIII", "server batch header")
        return {"type": "server_batch", "group_id": group_id,
                "tokens": r.f32((batch, rows, dim), "tokens"),
                "soft_label": r.f32((batch, classes), "soft label")}
    if tag == TAG_GRAD_DOWN:
        target, broadcast, batch, rows, dim = r.unpack("IBIII", "gradient header")
        return {"type": "gradient_down", "target": target, "broadcast": bool(broadcast),
                "grad": r.f32((batch, rows, dim), "gradient")}
    if tag == TAG_SERVER_STEP:
        return {"type": "server_step", "group_id": r.unpack("i", "group_id")[0]}
    if tag == TAG_CLIENT_STEP:
        return {"type": "client_step", "client_id": r.unpack("I", "client_id")[0]}
    if tag == TAG_ROUND_END:
        round_index, total = r.unpack("IQ", "round end")
        return {"type": "round_end", "round": round_index, "total_uplink": total}
    r.fail(f"unknown record tag {tag}", at)
