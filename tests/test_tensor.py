"""Engine contracts: forward values, backward gradients, graph semantics."""

import math
import sys
import threading
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitmix.errors import ContractError, DimensionError
from splitmix.optim import AdamW
from splitmix.tensor import (Tensor, add, attention, backward, concat, cross_entropy, embed,
                             expand_batch, gelu, layer_norm, linear, mse, no_grad, reshape,
                             slice_rows)

import composite
from composite import matmul, mean, mul, scale, softmax, transpose
from oracles import (_ref_attention, central_difference, ref_cross_entropy, ref_gelu,
                     ref_layer_norm, ref_softmax)


def rand(shape, seed=0, scale_=1.0):
    return (np.random.default_rng(seed).normal(0, scale_, size=shape)).astype(np.float32)


class TestForwardValues:
    def test_matmul_identity(self):
        eye = Tensor(np.eye(2, dtype=np.float32))
        other = Tensor(np.array([[5, 6], [7, 8]], dtype=np.float32))
        assert np.array_equal(matmul(eye, other).values, other.values)

    def test_matmul_scalar_case(self):
        out = matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        assert out.values == pytest.approx(6.0)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_softmax_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.values, [0.5, 0.5])

    def test_softmax_empty_axis(self):
        with pytest.raises(DimensionError):
            softmax(Tensor(np.zeros((3, 0))))

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((4, 10), dtype=np.float32))
        labels = np.zeros((4, 10), dtype=np.float32)
        labels[np.arange(4), [0, 3, 7, 9]] = 1.0
        out = cross_entropy(logits, Tensor(labels))
        assert float(out.values) == pytest.approx(math.log(10), abs=1e-5)

    def test_cross_entropy_linear_in_labels(self):
        logits = rand((2, 10), seed=1)
        e3 = np.zeros((2, 10), dtype=np.float32)
        e3[:, 3] = 1.0
        e7 = np.zeros((2, 10), dtype=np.float32)
        e7[:, 7] = 1.0
        mixed = 0.625 * e3 + 0.375 * e7
        lhs = float(cross_entropy(Tensor(logits), Tensor(mixed)).values)
        rhs = (0.625 * float(cross_entropy(Tensor(logits), Tensor(e3)).values)
               + 0.375 * float(cross_entropy(Tensor(logits), Tensor(e7)).values))
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_add_rejects_incompatible(self):
        # No broadcasting, not even of a trailing-dimension operand.
        for other in ((3, 2), (3,), (1, 3)):
            with pytest.raises(DimensionError):
                add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(other)))


class TestBackward:
    def test_requires_scalar_loss(self):
        w = Tensor(rand((3,)), requires_grad=True)
        with pytest.raises(ContractError):
            backward(add(w, w))

    def test_sum_gives_ones(self):
        # A seed of ones is the gradient of the root's sum.
        w = Tensor(rand((3, 4)), requires_grad=True)
        backward(reshape(w, (12,)), np.ones(12, dtype=np.float32))
        assert np.array_equal(w.grad, np.ones((3, 4), dtype=np.float32))

    def test_half_square_norm_gives_w(self):
        w = Tensor(rand((5,), seed=3), requires_grad=True)
        backward(mul(w, w), np.full(5, 0.5, dtype=np.float32))
        assert np.allclose(w.grad, w.values, atol=1e-6)

    def test_accumulation_across_backward_calls(self):
        w = Tensor(rand((2, 2)), requires_grad=True)
        loss = mean(w)
        backward(loss)
        first = w.grad.copy()
        backward(loss)
        assert np.allclose(w.grad, 2 * first)
        AdamW({"w": w}).zero_grads()
        assert w.grad is None

    def test_grads_stored_on_leaves_only(self):
        w = Tensor(rand((3, 4)), requires_grad=True)
        x = Tensor(rand((2, 3), seed=1))
        hidden = matmul(x, w)
        act = gelu(hidden)
        loss = mean(act)
        backward(loss)
        assert hidden.grad is None and act.grad is None and loss.grad is None
        assert x.grad is None
        first = w.grad.copy()
        backward(loss)
        assert np.array_equal(w.grad, first + first)
        assert hidden.grad is None and act.grad is None

    def test_seeded_client_graph_matches_finite_differences(self):
        # The fleet's client step: per-client patch embedding plus positional
        # table, seeded with an upstream gradient at the (n, batch, M, d) output.
        rng = np.random.default_rng(13)
        x64 = rng.normal(0, 1, size=(2, 2, 3, 5))
        params64 = {"w": rng.normal(0, 0.5, size=(2, 4, 5)),
                    "b": rng.normal(0, 0.1, size=(2, 4)),
                    "pos": rng.normal(0, 0.1, size=(2, 3, 4))}
        upstream = rng.normal(0, 1, size=(2, 2, 3, 4))

        def ref_loss():
            out = (np.einsum("nbmp,ndp->nbmd", x64, params64["w"])
                   + params64["b"][:, None, None] + params64["pos"][:, None])
            return (out * upstream).sum()

        expected = central_difference(ref_loss, params64, h=1e-3)
        tensors = {k: Tensor(v.astype(np.float32), requires_grad=True)
                   for k, v in params64.items()}
        smashed = embed(x64.astype(np.float32), tensors["w"], tensors["b"], tensors["pos"])
        backward(smashed, upstream.astype(np.float32))
        for name, tensor in tensors.items():
            assert np.allclose(tensor.grad, expected[name], rtol=1e-2, atol=1e-4), name

    def test_seed_of_the_wrong_shape_rejected(self):
        w = Tensor(rand((3, 4)), requires_grad=True)
        for seed in (np.ones((4, 3), np.float32), np.ones(12, np.float32),
                     np.ones((), np.float32)):
            with pytest.raises(DimensionError):
                backward(scale(w, 2.0), seed)
        with pytest.raises(DimensionError):
            backward(mean(w), np.ones(1, np.float32))
        assert w.grad is None

    def test_root_without_grad_is_a_no_op(self):
        x = Tensor(rand((3, 4)))
        y = gelu(x)
        backward(y, np.ones((3, 4), np.float32))
        backward(mean(y))
        assert x.grad is None and y.grad is None

    def test_two_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x64 = rng.normal(0, 1, size=(4, 6))
        w1_ = rng.normal(0, 0.5, size=(5, 6))
        b1_ = rng.normal(0, 0.1, size=(5,))
        w2_ = rng.normal(0, 0.5, size=(3, 5))
        b2_ = rng.normal(0, 0.1, size=(3,))
        labels = np.zeros((4, 3))
        labels[np.arange(4), [0, 2, 1, 2]] = 1.0
        params64 = {"w1": w1_, "b1": b1_, "w2": w2_, "b2": b2_}

        def ref_loss():
            h = ref_gelu(x64 @ params64["w1"].T + params64["b1"])
            logits = h @ params64["w2"].T + params64["b2"]
            return ref_cross_entropy(logits, labels)

        expected = central_difference(ref_loss, params64, h=1e-3)

        tensors = {k: Tensor(v.astype(np.float32), requires_grad=True)
                   for k, v in params64.items()}
        h = gelu(add(matmul(Tensor(x64.astype(np.float32)), transpose(tensors["w1"], (1, 0))),
                     expand_batch(tensors["b1"], 4)))
        logits = add(matmul(h, transpose(tensors["w2"], (1, 0))), expand_batch(tensors["b2"], 4))
        backward(cross_entropy(logits, Tensor(labels.astype(np.float32))))
        for name, tensor in tensors.items():
            assert np.allclose(tensor.grad, expected[name], rtol=1e-2, atol=1e-4), name


# A small shape, plus the attack decoder's two layers at its batch of 64.
@pytest.mark.parametrize("lead, in_dim, out_dim",
                         [((5,), 6, 4), ((2, 5), 6, 4), ((64,), 512, 256), ((64,), 256, 768)],
                         ids=["lead0", "lead1", "decoder-512-256", "decoder-256-768"])
def test_linear_matches_composite_bit_for_bit(lead, in_dim, out_dim):
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=lead + (in_dim,)).astype(np.float32)
    w0 = rng.normal(size=(out_dim, in_dim)).astype(np.float32)
    b0 = rng.normal(size=(out_dim,)).astype(np.float32)
    upstream = rng.normal(size=lead + (out_dim,)).astype(np.float32)
    rows = int(np.prod(lead))

    def run(fused):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
        if fused:
            y = linear(x, w, b)
        else:
            y = add(matmul(reshape(x, (rows, in_dim)), transpose(w, (1, 0))),
                    expand_batch(b, rows))
            y = reshape(y, lead + (out_dim,))
        backward(y, upstream)
        return y.values, x.grad, w.grad, b.grad

    for name, got, want in zip(("values", "x.grad", "w.grad", "b.grad"), run(True), run(False)):
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


# Batch 1, widths that are not multiples of 8, and the attack decoder's
# output layer at its batch of 64.
@pytest.mark.parametrize("batch, in_dim, out_dim",
                         [(1, 6, 5), (7, 9, 13), (64, 256, 768)],
                         ids=["batch1", "odd-widths", "decoder-256-768"])
def test_mse_matches_composite_bit_for_bit(batch, in_dim, out_dim):
    rng = np.random.default_rng(batch)
    x0 = rng.normal(size=(batch, in_dim)).astype(np.float32)
    w0 = rng.normal(0, 0.3, size=(out_dim, in_dim)).astype(np.float32)
    b0 = rng.normal(0, 0.1, size=(out_dim,)).astype(np.float32)
    target = rng.uniform(size=(batch, out_dim)).astype(np.float32)

    def run(loss_of):
        # The decoder's step: a linear layer of leaves, then the loss.
        w, b = Tensor(w0.copy(), requires_grad=True), Tensor(b0.copy(), requires_grad=True)
        loss = loss_of(linear(Tensor(x0), w, b), target)
        backward(loss)
        return loss.values, w.grad, b.grad

    for name, got, want in zip(("loss", "w.grad", "b.grad"), run(mse), run(composite.mse)):
        assert got.dtype == want.dtype == np.float32, name
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


def test_mse_rejects_mismatched_and_empty_inputs():
    with pytest.raises(DimensionError):
        mse(Tensor(np.zeros((2, 3), np.float32)), np.zeros((3,), np.float32))
    with pytest.raises(DimensionError):
        mse(Tensor(np.zeros((0, 3), np.float32)), np.zeros((0, 3), np.float32))


ATTENTION_PARAMS = ("q_weight", "q_bias", "k_weight", "k_bias", "v_weight", "v_bias")


def _param(rng, *shape):
    return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)


def _attention_node(rng, queries=None):
    params = [_param(rng, 8, 8) if name.endswith("weight") else _param(rng, 8)
              for name in ATTENTION_PARAMS]
    return attention(Tensor(rng.normal(size=(2, 5, 8))), *params, 2, queries=queries)


def _embed_node(rng, n):
    patches = rng.normal(size=(n, 3, 4, 6)).astype(np.float32)
    return embed(patches, _param(rng, n, 5, 6), _param(rng, n, 5), _param(rng, n, 4, 5))


FUSED_NODES = {
    "linear-2d": lambda rng: linear(Tensor(rng.normal(size=(5, 6))), _param(rng, 4, 6),
                                    _param(rng, 4)),
    "linear-3d": lambda rng: linear(Tensor(rng.normal(size=(2, 5, 6))), _param(rng, 4, 6),
                                    _param(rng, 4)),
    "attention": lambda rng: _attention_node(rng),
    "attention-q1": lambda rng: _attention_node(rng, queries=1),
    "embed-n1": lambda rng: _embed_node(rng, 1),
    "embed-n3": lambda rng: _embed_node(rng, 3),
}


@pytest.mark.parametrize("name", sorted(FUSED_NODES))
def test_fused_node_returns_parameter_gradients_in_their_layout(name):
    # backward copies each leaf gradient; a C-contiguous one makes that a memcpy.
    rng = np.random.default_rng(2)
    out = FUSED_NODES[name](rng)
    grads = out._backward(rng.normal(size=out.shape).astype(np.float32))
    params = [(p, g) for p, g in zip(out._parents, grads) if p.requires_grad]
    for parent, grad in params:
        assert grad.shape == parent.shape
        assert grad.flags.c_contiguous


def _attention_inputs(batch, rows=5, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, rows, dim))
    params = {name: rng.normal(0, 0.4, size=(dim, dim) if name.endswith("weight") else (dim,))
              for name in ATTENTION_PARAMS}
    return x, params


def _assert_attention_matches_composite(batch, queries=None):
    x0, params = _attention_inputs(batch, rows=17, dim=32, seed=batch)
    upstream = np.random.default_rng(99).normal(size=(batch, queries or 17, 32))
    upstream = upstream.astype(np.float32)
    gain0 = np.linspace(0.5, 1.5, 32, dtype=np.float32)

    def run(op):
        # Behind a layer_norm, as in a block, so the input is an inner node
        # whose gradient is the sum of the q, k and v paths.
        x = Tensor(x0.astype(np.float32), requires_grad=True)
        gain = Tensor(gain0.copy(), requires_grad=True)
        bias = Tensor(np.zeros(32, np.float32), requires_grad=True)
        ps = [Tensor(params[n].astype(np.float32), requires_grad=True) for n in ATTENTION_PARAMS]
        y = op(layer_norm(x, gain, bias), *ps, 2, queries=queries)
        backward(y, upstream)
        return [y.values, x.grad] + [p.grad for p in ps]

    names = ("values", "x.grad") + ATTENTION_PARAMS
    for name, got, want in zip(names, run(attention), run(composite.attention)):
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("batch", [1, 4, 16])
def test_attention_matches_composite_bit_for_bit(batch):
    _assert_attention_matches_composite(batch)


@pytest.mark.parametrize("queries", [1, 3])
@pytest.mark.parametrize("batch", [1, 4, 16])
def test_attention_query_rows_match_composite_bit_for_bit(batch, queries):
    _assert_attention_matches_composite(batch, queries)


def test_gelu_matches_textbook_expressions_bit_for_bit():
    # Normal values plus zeros, subnormals, huge values and infinities.
    rng = np.random.default_rng(8)
    edges = [0.0, -0.0, 1e-40, -1e-40, 1e-38, -1e-38, 1e30, -1e30, 50.0, -50.0,
             np.inf, -np.inf]
    x0 = np.concatenate([rng.normal(0, 3, size=(16 * 17 * 128)), edges]).astype(np.float32)
    upstream = rng.normal(size=x0.shape).astype(np.float32)

    def run(op):
        x = Tensor(x0, requires_grad=True)
        y = op(x)
        backward(y, upstream)
        return y.values, x.grad

    with np.errstate(over="ignore", invalid="ignore"):
        for name, got, want in zip(("values", "grad"), run(gelu), run(composite.gelu)):
            assert np.array_equal(got, want, equal_nan=True), name


def _assert_attention_matches_finite_differences(queries=None):
    # Each query row attends over all rows, so the reference is the
    # all-rows attention restricted to the query rows.
    x64, params = _attention_inputs(2, rows=3, dim=4, seed=5)
    params["out_weight"], params["out_bias"] = np.eye(4), np.zeros(4)
    q_rows = 3 if queries is None else queries
    weights = np.random.default_rng(6).normal(size=(2, q_rows, 4))
    arrays = {"x": x64, **{n: params[n] for n in ATTENTION_PARAMS}}

    def ref_loss():
        p = {**params, **arrays}
        return (_ref_attention(arrays["x"], p, "", heads=2)[:, :q_rows] * weights).sum()

    expected = central_difference(ref_loss, arrays, h=1e-3)
    tensors = {n: Tensor(a.astype(np.float32), requires_grad=True) for n, a in arrays.items()}
    y = attention(tensors["x"], *(tensors[n] for n in ATTENTION_PARAMS), 2, queries=queries)
    assert np.allclose(y.values, _ref_attention(x64, params, "", heads=2)[:, :q_rows], atol=1e-5)
    backward(y, weights.astype(np.float32))
    for name, tensor in tensors.items():
        assert np.allclose(tensor.grad, expected[name], rtol=1e-2, atol=1e-4), name


def test_attention_matches_finite_differences():
    _assert_attention_matches_finite_differences()


@pytest.mark.parametrize("queries", [1, 2])
def test_attention_query_rows_match_finite_differences(queries):
    _assert_attention_matches_finite_differences(queries)


@pytest.mark.parametrize("queries", [1, 3, 5])
def test_attention_query_rows_match_float64_reference(queries):
    x64, params = _attention_inputs(4, rows=5, dim=8, seed=queries)
    params["out_weight"], params["out_bias"] = np.eye(8), np.zeros(8)
    ps = [Tensor(params[n].astype(np.float32)) for n in ATTENTION_PARAMS]
    y = attention(Tensor(x64.astype(np.float32)), *ps, 2, queries=queries)
    assert y.shape == (4, queries, 8)
    assert np.allclose(y.values, _ref_attention(x64, params, "", heads=2)[:, :queries], atol=1e-5)


def test_attention_rejects_query_counts_outside_its_rows():
    x0, params = _attention_inputs(1)
    ps = [Tensor(params[n].astype(np.float32)) for n in ATTENTION_PARAMS]
    for queries in (0, x0.shape[1] + 1):
        with pytest.raises(DimensionError):
            attention(Tensor(x0.astype(np.float32)), *ps, 2, queries=queries)


def test_attention_rejects_mismatched_shapes():
    _, params = _attention_inputs(1)
    ps = [Tensor(params[n].astype(np.float32)) for n in ATTENTION_PARAMS]
    with pytest.raises(DimensionError):
        attention(Tensor(np.zeros((5, 8), np.float32)), *ps, 2)
    with pytest.raises(DimensionError):
        attention(Tensor(np.zeros((1, 5, 8), np.float32)), *ps, 3)
    with pytest.raises(DimensionError):
        attention(Tensor(np.zeros((1, 5, 6), np.float32)), *ps, 2)


class TestNoGrad:
    def test_forward_records_nothing_and_computes_the_same_values(self):
        w = Tensor(rand((4, 3)), requires_grad=True)
        b = Tensor(rand((4,), seed=1), requires_grad=True)
        x = Tensor(rand((2, 3), seed=2))
        with no_grad():
            y = mean(gelu(linear(x, w, b)))
        assert not y.requires_grad and y._parents == () and y._backward is None
        backward(y)
        assert w.grad is None and b.grad is None
        assert np.array_equal(y.values, mean(gelu(linear(x, w, b))).values)

    def test_recording_resumes_after_the_block_and_after_an_exception(self):
        w = Tensor(rand((3,)), requires_grad=True)
        with pytest.raises(DimensionError):
            with no_grad():
                add(w, Tensor(np.zeros(2, np.float32)))
        assert scale(w, 2.0).requires_grad
        with no_grad():
            with no_grad():
                pass
            assert not scale(w, 2.0).requires_grad
        backward(mean(scale(w, 2.0)))
        assert np.allclose(w.grad, 2.0 / 3.0)

    def test_a_block_on_one_thread_leaves_another_recording(self):
        entered, leave = threading.Event(), threading.Event()

        def hold_block_open():
            with no_grad():
                entered.set()
                leave.wait(10)

        holder = threading.Thread(target=hold_block_open)
        holder.start()
        try:
            assert entered.wait(10)
            w = Tensor(rand((4, 3)), requires_grad=True)
            b = Tensor(rand((4,), seed=1), requires_grad=True)
            backward(mean(gelu(linear(Tensor(rand((2, 3), seed=2)), w, b))))
        finally:
            leave.set()
            holder.join(10)
        assert not holder.is_alive()
        assert w.grad is not None and b.grad is not None and np.any(w.grad != 0)

    def test_threads_switching_often_keep_their_own_graphs(self):
        # More threads than cores, each alternating no_grad forwards with
        # recorded ones: a shared flag would drop some recorded graphs.
        x = rand((2, 3), seed=2)

        def train():
            w = Tensor(rand((4, 3)), requires_grad=True)
            b = Tensor(rand((4,), seed=1), requires_grad=True)
            for _ in range(40):
                with no_grad():
                    linear(x, w, b)
                backward(mean(gelu(linear(Tensor(x), w, b))))
            return w.grad

        expected = train()
        results = [None] * 4

        def run(i):
            results[i] = train()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for grad in results:
            assert np.array_equal(grad, expected)


def test_embed_rejects_mismatched_shapes():
    def leaf(*shape):
        return Tensor(np.zeros(shape, np.float32), requires_grad=True)

    patches = np.zeros((2, 3, 4, 5), np.float32)
    good = dict(weight=leaf(2, 6, 5), bias=leaf(2, 6), pos=leaf(2, 4, 6))
    assert embed(patches, **good).shape == (2, 3, 4, 6)
    for key, bad in (("weight", leaf(6, 5)), ("weight", leaf(1, 6, 5)), ("weight", leaf(2, 6, 4)),
                     ("bias", leaf(6)), ("bias", leaf(2, 5)), ("pos", leaf(4, 6)),
                     ("pos", leaf(2, 3, 6))):
        with pytest.raises(DimensionError):
            embed(patches, **{**good, key: bad})
    with pytest.raises(DimensionError):
        embed(patches[0], **good)


def test_linear_rejects_mismatched_shapes():
    w = Tensor(np.zeros((4, 6), np.float32))
    with pytest.raises(DimensionError):
        linear(Tensor(np.zeros((2, 5), np.float32)), w, Tensor(np.zeros(4, np.float32)))
    with pytest.raises(DimensionError):
        linear(Tensor(np.zeros((2, 6), np.float32)), w, Tensor(np.zeros(6, np.float32)))


LN_GAIN = np.linspace(0.5, 1.5, 4, dtype=np.float32)
LN_BIAS = np.linspace(-0.2, 0.2, 4, dtype=np.float32)
MSE_TARGET = np.linspace(-1.0, 1.0, 12, dtype=np.float32).reshape(3, 4)

OPS = {
    "gelu": (lambda t: gelu(t), (3, 4)),
    "softmax": (lambda t: softmax(t), (3, 4)),
    "layer_norm": (lambda t: layer_norm(t, Tensor(LN_GAIN), Tensor(LN_BIAS)), (3, 4)),
    "transpose": (lambda t: transpose(t, (1, 0)), (3, 4)),
    "reshape": (lambda t: reshape(t, (4, 3)), (3, 4)),
    "slice_rows": (lambda t: slice_rows(t, 1, 3), (4, 5)),
    "mean": (lambda t: mean(t), (3, 4)),
    "mse": (lambda t: mse(t, MSE_TARGET), (3, 4)),
    "expand_batch": (lambda t: expand_batch(t, 3), (1, 4)),
}

REF_OPS = {
    "gelu": lambda x: ref_gelu(x),
    "softmax": lambda x: ref_softmax(x),
    "layer_norm": lambda x: ref_layer_norm(x, LN_GAIN, LN_BIAS),
    "transpose": lambda x: np.swapaxes(x, -1, -2),
    "reshape": lambda x: x.reshape(4, 3),
    "slice_rows": lambda x: x[..., 1:3, :],
    "mean": lambda x: np.asarray(x.mean()),
    "mse": lambda x: np.asarray(((x - MSE_TARGET) ** 2).mean()),
    "expand_batch": lambda x: np.broadcast_to(x, (3,) + x.shape),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradient_matches_finite_differences(name):
    op, shape = OPS[name]
    ref = REF_OPS[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x64 = rng.normal(0, 0.8, size=shape)
    weights = rng.normal(0, 1, size=ref(x64).shape)
    arrays = {"x": x64}

    def ref_loss():
        return (ref(arrays["x"]) * weights).sum()

    expected = central_difference(ref_loss, arrays, h=1e-3)["x"]
    t = Tensor(x64.astype(np.float32), requires_grad=True)
    backward(op(t), np.asarray(weights, dtype=np.float32))
    assert np.allclose(t.grad, expected, rtol=1e-2, atol=1e-4)


def test_binary_op_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    cases = {
        "matmul": (lambda a, b: matmul(a, b), lambda a, b: a @ b, (3, 4), (4, 2)),
        "add_bias": (lambda a, b: add(a, expand_batch(b, 3)), lambda a, b: a + b, (3, 4), (4,)),
        "mul": (lambda a, b: mul(a, b), lambda a, b: a * b, (3, 4), (3, 4)),
        "concat": (lambda a, b: concat([a, b], axis=0), lambda a, b: np.concatenate([a, b]),
                   (2, 3), (4, 3)),
    }
    for name, (op, ref, sa, sb) in cases.items():
        a64 = rng.normal(0, 0.8, size=sa)
        b64 = rng.normal(0, 0.8, size=sb)
        weights = rng.normal(0, 1, size=ref(a64, b64).shape)
        arrays = {"a": a64, "b": b64}

        def ref_loss():
            return (ref(arrays["a"], arrays["b"]) * weights).sum()

        expected = central_difference(ref_loss, arrays, h=1e-3)
        ta = Tensor(a64.astype(np.float32), requires_grad=True)
        tb = Tensor(b64.astype(np.float32), requires_grad=True)
        backward(op(ta, tb), weights.astype(np.float32))
        assert np.allclose(ta.grad, expected["a"], rtol=1e-2, atol=1e-4), name
        assert np.allclose(tb.grad, expected["b"], rtol=1e-2, atol=1e-4), name


def test_matmul_sum_gradient_closed_form():
    # d/dA sum(A @ B) = ones @ B^T
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)).astype(np.float32), requires_grad=True)
    backward(matmul(a, b), np.ones((3, 2), dtype=np.float32))
    closed = np.ones((3, 2), dtype=np.float32) @ b.values.T
    assert np.allclose(a.grad, closed, rtol=1e-5, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_softmax_rows_are_distributions(rows, cols, seed):
    x = Tensor(np.random.default_rng(seed).normal(0, 3, size=(rows, cols)).astype(np.float32))
    out = softmax(x).values
    assert (out >= 0).all()
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(3, 16), st.integers(0, 2 ** 31 - 1))
def test_layer_norm_row_statistics(rows, cols, seed):
    raw = np.random.default_rng(seed).normal(1.5, 2.0, size=(rows, cols))
    # The eps inside the sqrt biases variance by eps/var; keep rows away
    # from the degenerate near-constant case the tolerance is not about.
    assume(raw.var(axis=-1).min() > 0.25)
    affine = Tensor(np.ones(cols, np.float32)), Tensor(np.zeros(cols, np.float32))
    out = layer_norm(Tensor(raw.astype(np.float32)), *affine).values.astype(np.float64)
    assert np.abs(out.mean(axis=-1)).max() < 1e-5
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4
