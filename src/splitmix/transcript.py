"""Binary round transcripts for logging and deterministic replay.

A transcript is a sequence of tagged little-endian records mirroring the
wire messages plus the optimizer-step events, enough to replay a round's
message flow offline or audit server update counts.

File layout:
  magic b"SMXT" | u32 version (=1) | records...
  record: u8 tag | u32 payload length | payload

Masks are packed LSB-first within each byte into ceil(M/8) bytes, padded
to 8 bytes (one little-endian 64-bit integer) when M <= 64, matching the
payload meter's accounting.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

import numpy as np

from .errors import IngestionError
from .protocol import GradientDown, SequenceAssignment, ServerBatch, UploadCutSmashed

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


def _mask_nbytes(length: int) -> int:
    return 8 if length <= 64 else (length + 7) // 8


def encode_mask(mask: np.ndarray) -> bytes:
    packed = np.packbits(mask.astype(np.uint8), bitorder="little").tobytes()
    return packed.ljust(_mask_nbytes(mask.shape[0]), b"\0")


def decode_mask(blob: bytes, length: int) -> np.ndarray:
    nbytes = _mask_nbytes(length)
    if len(blob) < nbytes:
        raise IngestionError(f"a {length}-bit mask needs {nbytes} bytes, got {len(blob)}")
    bits = np.frombuffer(blob, dtype=np.uint8, count=nbytes)
    return np.unpackbits(bits, bitorder="little")[:length]


def _f32(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype="<f4").tobytes()


class TranscriptWriter:
    """Streams protocol records to an open binary file."""

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))

    def _record(self, tag: int, payload: bytes) -> None:
        self._fh.write(struct.pack("<BI", tag, len(payload)))
        self._fh.write(payload)

    def round_start(self, round_index: int) -> None:
        self._record(TAG_ROUND_START, struct.pack("<I", round_index))

    def sequence(self, msg: SequenceAssignment) -> None:
        payload = struct.pack("<II", msg.client_id, msg.mask.shape[0]) + encode_mask(msg.mask)
        self._record(TAG_SEQUENCE, payload)

    def upload(self, msg: UploadCutSmashed) -> None:
        batch, rows, dim = msg.cut.tokens.shape
        classes = msg.label.shape[-1]
        payload = (struct.pack("<IIIII", msg.client_id, batch, rows, dim, classes)
                   + encode_mask(msg.cut.mask) + _f32(msg.cut.tokens) + _f32(msg.label))
        self._record(TAG_UPLOAD, payload)

    def server_batch(self, msg: ServerBatch) -> None:
        batch, rows, dim = msg.cutmix.tokens.shape
        classes = msg.cutmix.soft_label.shape[-1]
        payload = (struct.pack("<IIIII", msg.group_id, batch, rows, dim, classes)
                   + _f32(msg.cutmix.tokens) + _f32(msg.cutmix.soft_label))
        self._record(TAG_SERVER_BATCH, payload)

    def gradient_down(self, msg: GradientDown) -> None:
        batch, rows, dim = msg.grad.shape
        payload = (struct.pack("<IBIII", msg.target, int(msg.broadcast), batch, rows, dim)
                   + _f32(msg.grad))
        self._record(TAG_GRAD_DOWN, payload)

    def server_step(self, group_id: int) -> None:
        self._record(TAG_SERVER_STEP, struct.pack("<i", group_id))

    def client_step(self, client_id: int) -> None:
        self._record(TAG_CLIENT_STEP, struct.pack("<I", client_id))

    def round_end(self, round_index: int, total_uplink: int) -> None:
        self._record(TAG_ROUND_END, struct.pack("<IQ", round_index, total_uplink))


def read_transcript(path) -> list[dict]:
    """Decode a transcript into a list of structured records."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise IngestionError(f"{path}: not a transcript (bad magic)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != _VERSION:
        raise IngestionError(f"{path}: unsupported transcript version {version}")
    offset = 8
    records: list[dict] = []
    while offset < len(blob):
        tag, length = struct.unpack_from("<BI", blob, offset)
        offset += 5
        payload = blob[offset:offset + length]
        if len(payload) != length:
            raise IngestionError(f"{path}: truncated record at byte {offset}")
        offset += length
        records.append(_decode(tag, payload, path))
    return records


def _decode(tag: int, payload: bytes, path) -> dict:
    if tag == TAG_ROUND_START:
        (round_index,) = struct.unpack("<I", payload)
        return {"type": "round_start", "round": round_index}
    if tag == TAG_SEQUENCE:
        client_id, length = struct.unpack_from("<II", payload)
        mask = decode_mask(payload[8:], length)
        return {"type": "sequence", "client_id": client_id, "mask": mask}
    if tag == TAG_UPLOAD:
        client_id, batch, rows, dim, classes = struct.unpack_from("<IIIII", payload)
        pos = 20
        mask_end = pos + _mask_nbytes(rows)
        mask = decode_mask(payload[pos:mask_end], rows)
        pos = mask_end
        tokens = np.frombuffer(payload, dtype="<f4", count=batch * rows * dim,
                               offset=pos).reshape(batch, rows, dim).copy()
        pos += 4 * batch * rows * dim
        label = np.frombuffer(payload, dtype="<f4", count=batch * classes,
                              offset=pos).reshape(batch, classes).copy()
        return {"type": "upload", "client_id": client_id, "mask": mask,
                "tokens": tokens, "label": label}
    if tag == TAG_SERVER_BATCH:
        group_id, batch, rows, dim, classes = struct.unpack_from("<IIIII", payload)
        pos = 20
        tokens = np.frombuffer(payload, dtype="<f4", count=batch * rows * dim,
                               offset=pos).reshape(batch, rows, dim).copy()
        pos += 4 * batch * rows * dim
        soft = np.frombuffer(payload, dtype="<f4", count=batch * classes,
                             offset=pos).reshape(batch, classes).copy()
        return {"type": "server_batch", "group_id": group_id, "tokens": tokens,
                "soft_label": soft}
    if tag == TAG_GRAD_DOWN:
        target, broadcast, batch, rows, dim = struct.unpack_from("<IBIII", payload)
        grad = np.frombuffer(payload, dtype="<f4", count=batch * rows * dim,
                             offset=17).reshape(batch, rows, dim).copy()
        return {"type": "gradient_down", "target": target,
                "broadcast": bool(broadcast), "grad": grad}
    if tag == TAG_SERVER_STEP:
        (group_id,) = struct.unpack("<i", payload)
        return {"type": "server_step", "group_id": group_id}
    if tag == TAG_CLIENT_STEP:
        (client_id,) = struct.unpack("<I", payload)
        return {"type": "client_step", "client_id": client_id}
    if tag == TAG_ROUND_END:
        round_index, total = struct.unpack("<IQ", payload)
        return {"type": "round_end", "round": round_index, "total_uplink": total}
    raise IngestionError(f"{path}: unknown record tag {tag}")
