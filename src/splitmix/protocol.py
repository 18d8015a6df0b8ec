"""Client / mixer / server round protocol.

One training round runs, in order: group formation, sequence (mask)
generation, client forward + cut, upload with payload metering, mixing,
server forward/backward with one optimizer step per pass (one pass per
group, or per member under ktimes), gradient download (unicast or
broadcast) with one message per client, client backward + step, optional
federated averaging of the client segments.

The n clients are one stacked fleet, and the round works on fleet arrays:
one client forward, one ``(n, M)`` mask array, one cut, one mix into all
groups' grids, one shuffle, one ``(n, B, M, d)`` seed array for routing,
one backward, one optimizer step and, with averaging, one FedAvg.  Each
row computes exactly what its own client or group would.  Only the server
passes go group by group.

The client and server computation graphs are deliberately severed at the
upload boundary: the server consumes plain arrays and returns the gradient
of its loss with respect to the mixed activations.  A client's graph ends
at its smashed data, before activation noise and the cut, and the fleet's
step is ``backward(smashed, seeds)``: each client's received gradient
seeds its row as is, its own rows under unicast, the whole mixed-grid
gradient under broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ProtocolError
from .mixing import (add_gaussian_noise, add_label_noise, cut,
                     cutmix_assemble, generate_mask_set, keep_count,
                     sample_mixing_counts, shuffle_tokens, unshuffle_grid)
from .model import ClientSegment, ModelConfig, ServerSegment, client_forward, server_forward
from .optim import AdamW
from .rng import RngHub
from .tensor import Tensor, backward, cross_entropy

HEADER_BYTES = 16
FLOAT_BYTES = 4


# ---------------------------------------------------------------------------
# Payload accounting
# ---------------------------------------------------------------------------

@dataclass
class GradientDown:
    target: int  # client id
    grad: np.ndarray  # (batch, M, d): the target's row of the round's seeds
    rows: int  # token rows actually transmitted
    broadcast: bool = False


def upload_bytes(rows, batch: int, dim: int, classes: int) -> np.ndarray:
    """Wire size of an upload of ``rows`` token rows per sample: the rows,
    the batch's label rows and a fixed header.  A client with a zero
    allocation transmits nothing at all.  ``rows`` may be an array of
    per-client counts."""
    rows = np.asarray(rows, dtype=np.int64)
    return np.where(rows > 0, (rows * dim + classes) * batch * FLOAT_BYTES + HEADER_BYTES, 0)


def payload_meter(msg: GradientDown) -> int:
    """Size in bytes of a gradient message: the rows it carries plus the header."""
    batch, _, dim = msg.grad.shape
    return msg.rows * dim * FLOAT_BYTES * batch + HEADER_BYTES


def validate_upload(tokens: np.ndarray, masks: np.ndarray) -> None:
    """Enforce that untransmitted rows are exactly zero before metering.

    Row i of the ``(n, batch, M, d)`` uploads is client i's, cut by row i of
    the ``(n, M)`` masks; the first client that leaks is named.
    """
    sent = np.any(tokens != 0, axis=(1, 3))
    leaks = (sent & (masks == 0)).any(axis=1)
    if leaks.any():
        raise ProtocolError(
            f"client {int(np.argmax(leaks))} uploaded nonzero data at a masked-out position")


# ---------------------------------------------------------------------------
# Groups and gradient routing
# ---------------------------------------------------------------------------

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


def route_gradients(members: list[int], masks: np.ndarray, grad_wrt_cutmix: np.ndarray,
                    mode: str, seeds: np.ndarray) -> list[GradientDown]:
    """One message per member, its ``grad`` a view of the member's row of
    the fleet's ``(n, batch, M, d)`` ``seeds``: under unicast only the rows
    of its own mask (``masks`` holds the members' in order), else all rows."""
    if mode == "unicast":
        for member, mask in zip(members, masks):
            np.multiply(grad_wrt_cutmix, mask[:, None].astype(np.float32), out=seeds[member])
        return [GradientDown(target=member, grad=seeds[member], rows=rows)
                for member, rows in zip(members, masks.sum(axis=1).tolist())]
    if mode == "broadcast":
        seeds[members] = grad_wrt_cutmix
        rows = grad_wrt_cutmix.shape[-2]
        return [GradientDown(target=member, grad=seeds[member], rows=rows, broadcast=True)
                for member in members]
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
    keep_ratio: float = 1.0  # token cutout of a singleton group, the k=1 baseline
    apply_fedavg: bool = False


@dataclass
class RoundMetrics:
    round_index: int
    client_uplink_bytes: list[int]  # client i's at index i
    total_uplink_bytes: int
    total_activation_bytes: int
    server_updates: int
    train_loss: float
    eval_accuracy: float | None = None


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Probability rows, ``(..., num_classes)``, for integer labels of any shape."""
    return np.eye(num_classes, dtype=np.float32)[np.asarray(labels, dtype=np.int64)]


def run_round(fleet: ClientFleet, server: ServerState, images: np.ndarray,
              labels: np.ndarray, model_config: ModelConfig, options: RoundOptions,
              hub: RngHub, round_index: int, transcript=None) -> RoundMetrics:
    """Execute one synchronous training round and return its metrics.

    ``images`` is ``(n, batch, C, H, W)`` and ``labels`` is ``(n, batch)``:
    row i is client i's batch.
    """
    n, tokens = len(fleet.segment), model_config.tokens
    if images.shape[0] != n or np.shape(labels) != images.shape[:2]:
        raise ContractError(f"a fleet of {n} needs (n, batch, ...) images and (n, batch) "
                            f"labels, got {images.shape} and {np.shape(labels)}")
    groups = form_groups(range(n), options.k_way, hub.groups(round_index))

    # --- clients: one forward for the fleet; the graph ends at the smashed data
    smashed = client_forward(fleet.segment, images, model_config)

    # --- mixer: sequence generation, one mask per client, group by group.
    # A singleton under cutout keeps the first block of a two-block mask
    # set, drawn from the same (round, group) counter a mixing group uses.
    masks = np.ones((n, tokens), dtype=np.uint8)
    keep = keep_count(options.keep_ratio, tokens)
    for gid, members in enumerate(groups):
        if len(members) > 1:
            allocation = sample_mixing_counts(
                len(members), options.alpha, tokens, hub.allocations(round_index, gid))
        elif keep < tokens:
            allocation = [keep, tokens - keep]
        else:
            continue
        mask_set = generate_mask_set(allocation, tokens, hub.masks(round_index, gid))
        masks[members] = mask_set[:len(members)]

    # --- clients: noise, cut and upload, metered from the mask sums -------
    values = smashed.values
    label_rows = one_hot(labels, model_config.num_classes)
    if options.noise_x > 0:
        values = np.stack([add_gaussian_noise(v, options.noise_x, hub.noise(round_index, cid, 0))
                           for cid, v in enumerate(values)])
    if options.noise_y > 0:
        label_rows = np.stack([add_label_noise(y, options.noise_y, hub.noise(round_index, cid, 1))
                               for cid, y in enumerate(label_rows)])
    uploads = cut(values, masks[:, None])
    validate_upload(uploads, masks)
    kept = masks.sum(axis=1)
    batch, dim = uploads.shape[1], uploads.shape[-1]
    uplink = upload_bytes(kept, batch, dim, model_config.num_classes).tolist()

    def server_pass(grid: np.ndarray, soft_label: np.ndarray) -> tuple[float, np.ndarray]:
        inputs = Tensor(grid, requires_grad=True)
        logits = server_forward(server.segment, inputs, model_config)
        loss = cross_entropy(logits, Tensor(soft_label))
        backward(loss)
        return float(loss.values), inputs.grad

    # --- mixer: every group's grid and soft label at once, then shuffled
    grids, soft_labels = cutmix_assemble(uploads, masks, label_rows, groups)
    if options.shuffle:
        grids, perms = shuffle_tokens(
            grids, [hub.shuffles(round_index, gid) for gid in range(len(groups))])

    # --- per group: server forward, loss, backward, step and routing
    seeds = np.empty_like(uploads)
    losses: list[float] = []
    passes: list[tuple[int, list[GradientDown]]] = []  # (group id, messages) per pass
    for gid, members in enumerate(groups):
        # One server step per pass.  ktimes makes one pass per member, routed
        # under its mask: n server steps a round, one gradient per member.
        for pass_members in ([[m] for m in members] if options.ktimes else [members]):
            loss_value, grad_in = server_pass(grids[gid], soft_labels[gid])
            server.optimizer.step()
            server.optimizer.zero_grads()
            if options.shuffle:
                grad_in = unshuffle_grid(grad_in, perms[gid])
            passes.append((gid, route_gradients(pass_members, masks[pass_members], grad_in,
                                                options.gradient_mode, seeds)))
            losses.append(loss_value)

    # --- clients: each row of the smashed data is seeded with its gradient
    backward(smashed, seeds)
    fleet.optimizer.step()
    fleet.optimizer.zero_grads()

    if options.apply_fedavg:
        fedavg_client_segments(fleet.segment)

    metrics = RoundMetrics(
        round_index=round_index, client_uplink_bytes=uplink, total_uplink_bytes=sum(uplink),
        total_activation_bytes=int(kept.sum()) * dim * FLOAT_BYTES * batch,
        server_updates=len(losses), train_loss=float(np.mean(losses)))  # a step per pass
    if transcript is not None:
        transcript.write_round(round_index, groups, masks, uploads, label_rows, grids,
                               soft_labels, passes, metrics.total_uplink_bytes)
    return metrics
