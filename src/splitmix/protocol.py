"""Client / mixer / server round protocol.

One training round runs, in order: group formation, sequence (mask)
generation, client forward + cut, upload with payload metering, mixing,
server forward/backward with one optimizer step per pass (one pass per
group, or per member under ktimes), gradient download (unicast or
broadcast) with one message per client, client backward + step, optional
federated averaging of the client segments.

The n clients are one stacked fleet: a round runs one client forward over
all of them, one backward, one optimizer step and, when averaging is on,
one FedAvg over the fleet axis.  Each client's rows compute exactly what
its own forward, backward and step would.

The client and server computation graphs are deliberately severed at the
upload boundary: the server consumes plain arrays and returns the gradient
of its loss with respect to the mixed activations.  A client's graph ends
at its smashed data, before activation noise and the cut, and the fleet's
step is ``backward(smashed, received_gradients)``: each client's received
gradient seeds its row as is, its own rows under unicast, the whole
mixed-grid gradient under broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ProtocolError
from .mixing import (CutMixBatch, CutSmashed, CutoutMasker, add_gaussian_noise,
                     add_label_noise, cut, cutmix_assemble, generate_mask_set,
                     sample_mixing_counts, shuffle_tokens, unshuffle_grid)
from .model import ClientSegment, ModelConfig, ServerSegment, client_forward, server_forward
from .optim import AdamW
from .rng import RngHub
from .tensor import Tensor, backward, cross_entropy

HEADER_BYTES = 16
FLOAT_BYTES = 4


# ---------------------------------------------------------------------------
# Messages and payload accounting
# ---------------------------------------------------------------------------

@dataclass
class SequenceAssignment:
    client_id: int
    mask: np.ndarray


@dataclass
class UploadCutSmashed:
    client_id: int
    cut: CutSmashed
    label: np.ndarray  # (batch, classes) probability rows


@dataclass
class ServerBatch:
    group_id: int
    cutmix: CutMixBatch


@dataclass
class GradientDown:
    target: int  # client id (unicast / per-member broadcast copy)
    grad: np.ndarray  # (batch, M, d)
    rows: int  # token rows actually transmitted
    broadcast: bool = False


def mask_nbytes(length: int) -> int:
    """Wire size of a length-bit mask: one 64-bit word while length <= 64,
    else ceil(length / 8) bytes."""
    return 8 if length <= 64 else (length + 7) // 8


def activation_bytes(msg: UploadCutSmashed) -> int:
    """Transmitted activation payload: a_i * d * 4 * batch (0 if nothing sent)."""
    kept = int(msg.cut.mask.sum())
    if kept == 0:
        return 0
    batch, _, dim = msg.cut.tokens.shape
    return kept * dim * FLOAT_BYTES * batch


def payload_meter(msg) -> int:
    """Size in bytes of one message on the wire.

    Uploads count only transmitted rows plus the label rows and a fixed
    header; a client with a zero allocation transmits nothing at all.
    Gradients count the rows they carry plus the header.  A mask's size is
    ``mask_nbytes``.
    """
    if isinstance(msg, UploadCutSmashed):
        act = activation_bytes(msg)
        if act == 0:
            return 0
        batch = msg.cut.tokens.shape[0]
        classes = msg.label.shape[-1]
        return act + HEADER_BYTES + classes * FLOAT_BYTES * batch
    if isinstance(msg, GradientDown):
        batch, _, dim = msg.grad.shape
        return msg.rows * dim * FLOAT_BYTES * batch + HEADER_BYTES
    raise ContractError(f"unmeterable message type {type(msg).__name__}")


def validate_upload(msg: UploadCutSmashed) -> None:
    """Enforce that untransmitted rows are exactly zero before metering."""
    off = msg.cut.mask == 0
    if off.any() and np.any(msg.cut.tokens[:, off, :]):
        raise ProtocolError(
            f"client {msg.client_id} uploaded nonzero data at a masked-out position")


# ---------------------------------------------------------------------------
# Groups and gradient routing
# ---------------------------------------------------------------------------

@dataclass
class MixGroup:
    group_id: int
    members: list[int]
    allocation: np.ndarray | None = None
    mask_set: np.ndarray | None = None


def form_groups(clients, k: int, rng: np.random.Generator) -> list[list[int]]:
    """Random disjoint groups of size k covering all clients.

    Remainder rule: a single leftover client forms a plain-SL singleton;
    r >= 2 leftovers form one r-way group.
    """
    ids = list(clients)
    if not ids:
        raise ContractError("cannot form groups from an empty client set")
    if k <= 0:
        raise ContractError(f"group size must be positive, got {k}")
    order = [ids[i] for i in rng.permutation(len(ids))]
    whole = (len(order) // k) * k
    groups = [order[i:i + k] for i in range(0, whole, k)]
    if whole < len(order):
        groups.append(order[whole:])
    return groups


def route_gradients(group: MixGroup, grad_wrt_cutmix: np.ndarray,
                    mode: str) -> list[GradientDown]:
    """Unicast sends each member only its own mask's rows; broadcast sends all."""
    if mode == "unicast":
        downs = []
        for member, mask in zip(group.members, group.mask_set):
            masked = grad_wrt_cutmix * mask[:, None].astype(np.float32)
            downs.append(GradientDown(target=member, grad=masked, rows=int(mask.sum())))
        return downs
    if mode == "broadcast":
        rows = grad_wrt_cutmix.shape[-2]
        return [GradientDown(target=member, grad=grad_wrt_cutmix, rows=rows, broadcast=True)
                for member in group.members]
    raise ContractError(f"unknown gradient mode {mode!r}")


def fedavg_client_segments(fleet: ClientSegment) -> None:
    """Set every client's parameters, in place, to the fleet's elementwise
    mean, accumulated in float64 over the clients in order."""
    if not len(fleet):
        raise ContractError("fedavg over an empty fleet")
    w = 1.0 / len(fleet)
    for tensor in fleet.parameters().values():
        tensor.values[...] = (w * tensor.values.astype(np.float64)).sum(axis=0)


# ---------------------------------------------------------------------------
# Round execution
# ---------------------------------------------------------------------------

@dataclass
class ClientFleet:
    """All n clients: client i is row i of ``segment`` and has id i.  One
    AdamW steps the stacked parameters; every client steps every round with
    the same learning rate, and the update is elementwise, so this is each
    client's own step."""

    segment: ClientSegment
    optimizer: AdamW
    maskers: list[CutoutMasker] | None = None  # per-client token cutout, k=1 baseline


@dataclass
class ServerState:
    segment: ServerSegment
    optimizer: AdamW


@dataclass
class RoundOptions:
    k_way: int = 1
    alpha: float = math.inf
    gradient_mode: str = "unicast"
    shuffle: bool = False
    ktimes: bool = False
    noise_x: float = 0.0
    noise_y: float = 0.0
    apply_fedavg: bool = False


@dataclass
class RoundMetrics:
    round_index: int
    client_uplink_bytes: dict[int, int]
    total_uplink_bytes: int
    total_activation_bytes: int
    server_updates: int
    train_loss: float
    eval_accuracy: float | None = None


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _full_mask(tokens: int) -> np.ndarray:
    return np.ones(tokens, dtype=np.uint8)


def run_round(fleet: ClientFleet, server: ServerState,
              batches: dict[int, tuple[np.ndarray, np.ndarray]],
              model_config: ModelConfig, options: RoundOptions, hub: RngHub,
              round_index: int, transcript=None) -> RoundMetrics:
    """Execute one synchronous training round and return its metrics.

    ``batches`` maps each client id to its ``(images, labels)`` batch.
    """
    tokens = model_config.tokens
    num_classes = model_config.num_classes
    ids = range(len(fleet.segment))
    batch_sizes = {cid: batches[cid][0].shape[0] for cid in ids}
    if len(set(batch_sizes.values())) > 1:
        raise ContractError(f"clients hold unequal batch sizes: {batch_sizes}")

    if transcript is not None:
        transcript.round_start(round_index)

    member_lists = form_groups(ids, options.k_way, hub.groups(round_index))
    groups = [MixGroup(gid, members) for gid, members in enumerate(member_lists)]

    activation_total = 0
    uplink = {cid: 0 for cid in ids}
    losses: list[float] = []

    # --- clients: one forward for the fleet; the graph ends at the smashed data
    smashed = client_forward(fleet.segment, np.stack([batches[cid][0] for cid in ids]),
                             model_config)

    # --- mixer: sequence generation; clients: cut, upload ----------------
    uploads: dict[int, UploadCutSmashed] = {}
    for group in groups:
        k_here = len(group.members)
        if k_here == 1 and fleet.maskers is not None:
            mask_set = fleet.maskers[group.members[0]].next_mask()[None, :]
            allocation = np.array([int(mask_set[0].sum())], dtype=np.int64)
        elif k_here == 1:
            mask_set = _full_mask(tokens)[None, :]
            allocation = np.array([tokens], dtype=np.int64)
        else:
            allocation = sample_mixing_counts(
                k_here, options.alpha, tokens, hub.allocations(round_index, group.group_id))
            mask_set = generate_mask_set(
                allocation, tokens, hub.masks(round_index, group.group_id))
        group.allocation = allocation
        group.mask_set = mask_set

        for member, mask in zip(group.members, mask_set):
            assignment = SequenceAssignment(client_id=member, mask=mask)
            if transcript is not None:
                transcript.sequence(assignment)
            values = smashed.values[member]
            if options.noise_x > 0:
                values = add_gaussian_noise(values, options.noise_x,
                                            hub.noise(round_index, member, 0))
            label_rows = one_hot(batches[member][1], num_classes)
            if options.noise_y > 0:
                label_rows = add_label_noise(label_rows, options.noise_y,
                                             hub.noise(round_index, member, 1))
            upload = UploadCutSmashed(
                client_id=member,
                cut=cut(values, mask, member),
                label=label_rows)
            validate_upload(upload)
            uploads[member] = upload
            activation_total += activation_bytes(upload)
            uplink[member] = payload_meter(upload)
            if transcript is not None:
                transcript.upload(upload)

    # --- mixer: assemble (and optionally shuffle) each group's batch -----
    assembled: dict[int, tuple[CutMixBatch, np.ndarray | None]] = {}
    for group in groups:
        parts = [uploads[m].cut for m in group.members]
        labels = [uploads[m].label for m in group.members]
        if len(parts) == 1:
            mixed = CutMixBatch(tokens=parts[0].tokens, soft_label=labels[0])
        else:
            mixed = cutmix_assemble(parts, labels, group.allocation, tokens)
        perms = None
        if options.shuffle:
            mixed, perms = shuffle_tokens(mixed, hub.shuffles(round_index, group.group_id))
        assembled[group.group_id] = (mixed, perms)
        batch_msg = ServerBatch(group_id=group.group_id, cutmix=mixed)
        if transcript is not None:
            transcript.server_batch(batch_msg)

    # --- server: forward, loss, backward, step; route gradients ----------
    deliveries: dict[int, GradientDown] = {}

    def server_pass(mixed: CutMixBatch) -> tuple[float, np.ndarray]:
        inputs = Tensor(mixed.tokens, requires_grad=True)
        logits = server_forward(server.segment, inputs, model_config)
        loss = cross_entropy(logits, Tensor(mixed.soft_label))
        backward(loss)
        return float(loss.values), inputs.grad

    for group in groups:
        mixed, perms = assembled[group.group_id]
        # Each pass runs the server once, steps it once, and routes its
        # gradient to the pass's members.  ktimes makes one pass per member,
        # over that member's row of the group, so the server updates n times
        # per round and each member receives one gradient.
        passes = ([MixGroup(group.group_id, [m], mask_set=group.mask_set[i:i + 1])
                   for i, m in enumerate(group.members)] if options.ktimes else [group])
        for pass_group in passes:
            loss_value, grad_in = server_pass(mixed)
            server.optimizer.step()
            server.optimizer.zero_grads()
            if transcript is not None:
                transcript.server_step(group.group_id)
            if perms is not None:
                grad_in = unshuffle_grid(grad_in, perms)
            for down in route_gradients(pass_group, grad_in, options.gradient_mode):
                deliveries[down.target] = down
                if transcript is not None:
                    transcript.gradient_down(down)
            losses.append(loss_value)

    # --- clients: seed each row of the smashed data with its gradient ----
    backward(smashed, np.stack([deliveries[cid].grad for cid in ids]))
    fleet.optimizer.step()
    fleet.optimizer.zero_grads()
    if transcript is not None:
        for cid in deliveries:
            transcript.client_step(cid)

    if options.apply_fedavg:
        fedavg_client_segments(fleet.segment)

    total_uplink = int(sum(uplink.values()))
    metrics = RoundMetrics(
        round_index=round_index,
        client_uplink_bytes=uplink,
        total_uplink_bytes=total_uplink,
        total_activation_bytes=activation_total,
        server_updates=len(losses),  # one step per server pass
        train_loss=float(np.mean(losses)) if losses else float("nan"))
    if transcript is not None:
        transcript.round_end(round_index, total_uplink)
    return metrics
