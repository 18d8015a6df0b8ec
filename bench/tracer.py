"""Spans recorded around calls into splitmix's modules, from outside them.

A `Tracer` replaces a function or method with a wrapper at each place it is
looked up (``protocol.client_forward``, ``AdamW.step``, ...), records one span
(name, start, end, parent) per call in memory, and puts every original back
on exit.  Nothing under ``src/`` changes, and the program computes exactly
what it computes without the wrappers.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# The tensor ops with per-op metrics.  Every other op that `model` or
# `privacy` imports is wrapped too and counts towards
# `tensor.ops_per_server_pass`.
REPORTED_OPS = ("matmul", "add", "reshape", "transpose", "layer_norm", "gelu", "softmax")

MIXING_FUNCS = ("sample_mixing_counts", "generate_mask_set", "cutmix_assemble",
                "shuffle_tokens", "unshuffle_grid")
TRANSCRIPT_METHODS = ("round_start", "sequence", "upload", "server_batch",
                      "gradient_down", "server_step", "client_step", "round_end")


class UnclassifiedCall(RuntimeError):
    """A wrapped call came from a place the benchmark cannot name."""


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        """Record a span per call of ``owner.attr``.

        ``name`` is a span name, or a function of the call's positional
        arguments that returns one.  ``on_result`` sees each return value.
        """
        original = inspect.getattr_static(owner, attr)
        func = getattr(owner, attr) if inspect.ismodule(owner) else original
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_of = name if callable(name) else None

        def wrapper(*args, **kwargs):
            span_name = name_of(args) if name_of else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def named(self, name: str) -> list[tuple[str, float, float, int]]:
        return [s for s in self.spans if s[0] == name]


def _caller():
    """The code object and module name of the wrapped call's caller.

    Frames: 0 is this function, 1 the role function, 2 the wrapper, 3 the
    caller.
    """
    frame = sys._getframe(3)
    return frame.f_code.co_name, frame.f_globals.get("__name__")


def _adamw_role(args) -> str:
    # Decoders step in privacy's `run_attack`; the server and the clients
    # step in protocol's `run_round`, told apart by their parameters.
    func, module = _caller()
    params = args[0].params
    if (func, module) == ("run_attack", "splitmix.privacy"):
        return "optim.AdamW.step.decoder"
    if (func, module) == ("run_round", "splitmix.protocol"):
        if "class_token" in params:
            return "optim.AdamW.step.server"
        if "patch_weight" in params:
            return "optim.AdamW.step.client"
    raise UnclassifiedCall(f"AdamW.step from {module}.{func}")


def _protocol_backward_role(args) -> str:
    # The server pass runs in protocol's nested `server_pass`; client
    # backward runs in `run_round` itself.
    func, module = _caller()
    if module == "splitmix.protocol" and func == "server_pass":
        return "tensor.backward.server"
    if module == "splitmix.protocol" and func == "run_round":
        return "tensor.backward.client"
    raise UnclassifiedCall(f"protocol.backward from {module}.{func}")


def tensor_ops(module) -> list[str]:
    """Every function ``module`` imports from splitmix.tensor, except backward."""
    return sorted(name for name, obj in vars(module).items()
                  if inspect.isfunction(obj) and obj.__module__ == "splitmix.tensor"
                  and name != "backward")


def install_probes(tracer: Tracer, sm, on_round, on_downs, on_attack) -> None:
    """The three wrappers the end-to-end metrics need; both runs install them.

    ``sm`` is a namespace holding the imported splitmix modules.  Each
    ``on_*`` callback sees the wrapped call's return value.
    """
    tracer.wrap(sm.runner, "run_round", "protocol.run_round", on_round)
    tracer.wrap(sm.protocol, "route_gradients", "protocol.route_gradients", on_downs)
    tracer.wrap(sm.runner, "run_attack", "privacy.run_attack", on_attack)


def install_layers(tracer: Tracer, sm) -> None:
    """Wrap every other layer boundary the per-layer metrics need."""
    w = tracer.wrap
    w(sm.runner, "make_synthetic", "data.make_synthetic")
    w(sm.runner, "partition", "data.partition")
    w(sm.runner, "init_parameters", "model.init_parameters")
    w(sm.runner.TrainingSystem, "batches_for", "runner.batches_for")
    w(sm.runner, "evaluate", "runner.evaluate")
    for owner in (sm.protocol, sm.runner):
        w(owner, "client_forward", "model.client_forward")
        w(owner, "server_forward", "model.server_forward")
        w(owner, "fedavg_client_segments", "protocol.fedavg_client_segments")
    w(sm.protocol, "backward", _protocol_backward_role)
    w(sm.protocol, "validate_upload", "protocol.validate_upload")
    for func in MIXING_FUNCS:
        w(sm.protocol, func, f"mixing.{func}")
    for func in ("sample_mixing_counts", "generate_mask_set"):
        w(sm.privacy, func, f"mixing.{func}")
    for owner in (sm.model, sm.privacy):
        for op in tensor_ops(owner):
            w(owner, op, f"tensor.op.{op}")
    w(sm.optim.AdamW, "step", _adamw_role)
    w(sm.rng, "stream_generator", "rng.stream_generator")
    w(sm.privacy, "stream_generator", "rng.stream_generator")
    w(sm.privacy, "backward", "tensor.backward.decoder")
    w(sm.privacy, "build_representation",
      lambda args: f"privacy.build_representation.{args[0]}")
    for method in TRANSCRIPT_METHODS:
        w(sm.transcript.TranscriptWriter, method, "transcript.write")


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and self seconds.

    Self time is a span's duration minus the durations of its child spans;
    children of one span run one after another, so they never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for (name, start, end, parent), children in zip(spans, child_time):
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - children
    return dict(totals)


def ops_per_server_pass(spans) -> float:
    """Tensor-op calls made from `model` inside one `server_forward`, on average."""
    passes = {i for i, s in enumerate(spans) if s[0] == "model.server_forward"}
    if not passes:
        return 0.0
    ops = sum(1 for s in spans if s[3] in passes and s[0].startswith("tensor.op."))
    return ops / len(passes)


def uncovered(spans, start: float, end: float) -> float:
    """Seconds of [start, end] that no root span covers."""
    covered = sum(min(e, end) - max(s, start) for _, s, e, parent in spans
                  if parent < 0 and e > start and s < end)
    return (end - start) - covered
