"""Split ViT contracts: shapes, init, equivariances, gradients."""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from splitmix import model
from splitmix.data import make_synthetic
from splitmix.errors import ContractError, DimensionError
from splitmix.model import (PROFILES, ClientSegment, ModelConfig, client_forward,
                            init_parameters, server_forward)
from splitmix.runner import _forward_accuracy
from splitmix.tensor import Tensor, backward, cross_entropy, reshape

import composite
from oracles import (central_difference, named_values, ref_client_forward,
                     ref_cross_entropy, ref_server_forward)

TINY = ModelConfig(image_size=8, patch_size=4, channels=1, embed_dim=8,
                   depth=1, heads=2, mlp_ratio=2.0, num_classes=3)


def test_config_requires_exact_division():
    with pytest.raises(ContractError):
        ModelConfig(image_size=32, patch_size=7)


def test_zero_image_yields_positional_embedding():
    client, _ = init_parameters(TINY, seed=0)
    client.pos_embed.values = np.arange(TINY.tokens * TINY.embed_dim,
                                        dtype=np.float32).reshape(1, TINY.tokens, -1)
    images = np.zeros((1, 2, 1, 8, 8), dtype=np.float32)
    tokens = client_forward(client, images, TINY).values
    for b in range(2):
        assert np.array_equal(tokens[0, b], client.pos_embed.values[0])


def test_client_output_shape():
    cfg = ModelConfig(image_size=32, patch_size=8, channels=3, embed_dim=8,
                      depth=1, heads=2)
    client, _ = init_parameters(cfg, seed=1)
    tokens = client_forward(client, np.zeros((1, 2, 3, 32, 32), dtype=np.float32), cfg)
    assert tokens.shape == (1, 2, 16, 8)


def test_single_patch_weight_slice_reproduces_pixels():
    # Weight row j reads pixel j of the patch, so with an identity-like
    # slice the embedding equals the raw pixels plus the position row.
    cfg = ModelConfig(image_size=4, patch_size=4, channels=1, embed_dim=8,
                      depth=1, heads=2)
    client, _ = init_parameters(cfg, seed=0)
    client.patch_weight.values = np.zeros((1, 8, 16), dtype=np.float32)
    client.patch_weight.values[0, :, :8] = np.eye(8, dtype=np.float32)
    client.patch_bias.values = np.zeros((1, 8), dtype=np.float32)
    client.pos_embed.values = np.full((1, 1, 8), 0.25, dtype=np.float32)
    image = np.arange(16, dtype=np.float32).reshape(1, 1, 1, 4, 4) / 16.0
    tokens = client_forward(client, image, cfg).values
    expected = image.reshape(-1)[:8] + 0.25
    assert np.allclose(tokens[0, 0, 0], expected, atol=1e-6)


def test_client_forward_shape_validation():
    client, _ = init_parameters(TINY, seed=0)
    for shape in ((1, 2, 3, 8, 8), (2, 1, 8, 8), (2, 2, 1, 8, 8)):
        with pytest.raises(DimensionError):
            client_forward(client, np.zeros(shape, dtype=np.float32), TINY)


def test_server_logit_shape():
    cfg = ModelConfig(image_size=32, patch_size=8, channels=3, embed_dim=16,
                      depth=2, heads=2, num_classes=10)
    _, server = init_parameters(cfg, seed=2)
    tokens = Tensor(np.random.default_rng(0).normal(size=(2, 16, 16)).astype(np.float32))
    assert server_forward(server, tokens, cfg).shape == (2, 10)


def test_server_rejects_wrong_embed_dim():
    _, server = init_parameters(TINY, seed=0)
    with pytest.raises(DimensionError):
        server_forward(server, Tensor(np.zeros((1, TINY.tokens, 5), dtype=np.float32)), TINY)


def test_permutation_invariance_without_positions():
    cfg = ModelConfig(image_size=16, patch_size=4, channels=3, embed_dim=16,
                      depth=1, heads=2, num_classes=10)
    client, server = init_parameters(cfg, seed=3)
    client.pos_embed.values = np.zeros_like(client.pos_embed.values)
    images = np.random.default_rng(1).uniform(size=(1, 2, 3, 16, 16)).astype(np.float32)
    tokens = client_forward(client, images, cfg).values[0]
    logits = server_forward(server, Tensor(tokens), cfg).values
    perm = np.random.default_rng(2).permutation(cfg.tokens)
    logits_perm = server_forward(server, Tensor(tokens[:, perm, :]), cfg).values
    assert np.allclose(logits, logits_perm, atol=1e-5)


def test_depth_zero_ignores_tokens():
    cfg = ModelConfig(image_size=8, patch_size=4, channels=1, embed_dim=8,
                      depth=0, heads=2, num_classes=4)
    _, server = init_parameters(cfg, seed=4)
    rng = np.random.default_rng(0)
    a = server_forward(server, Tensor(rng.normal(size=(2, 4, 8)).astype(np.float32)), cfg).values
    b = server_forward(server, Tensor(rng.normal(size=(2, 4, 8)).astype(np.float32)), cfg).values
    assert np.array_equal(a, b)


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a_client, a_server = init_parameters(TINY, seed=9)
        b_client, b_server = init_parameters(TINY, seed=9)
        for key, tensor in a_client.parameters().items():
            assert np.array_equal(tensor.values, b_client.parameters()[key].values)
        for key, tensor in a_server.parameters().items():
            assert np.array_equal(tensor.values, b_server.parameters()[key].values)

    def test_different_seeds_differ(self):
        a_client, _ = init_parameters(TINY, seed=1)
        b_client, _ = init_parameters(TINY, seed=2)
        assert not np.array_equal(a_client.patch_weight.values, b_client.patch_weight.values)

    def test_all_finite(self):
        client, server = init_parameters(TINY, seed=5)
        for tensor in {**client.parameters(), **server.parameters()}.values():
            assert np.isfinite(tensor.values).all()


def test_end_to_end_gradients_match_finite_differences():
    # Tiny split model: M=4, d_m=8, depth=1, heads=2.
    client, server = init_parameters(TINY, seed=11)
    rng = np.random.default_rng(3)
    images = rng.uniform(size=(3, 1, 8, 8)).astype(np.float32)
    labels = np.zeros((3, 3), dtype=np.float32)
    labels[np.arange(3), [0, 2, 1]] = 1.0

    params64 = {**named_values(client, "c."), **named_values(server, "s.")}

    def ref_loss():
        cp = {k[2:]: v for k, v in params64.items() if k.startswith("c.")}
        sp = {k[2:]: v for k, v in params64.items() if k.startswith("s.")}
        tokens = ref_client_forward(cp, images.astype(np.float64), TINY.patch_size)
        logits = ref_server_forward(sp, tokens, TINY.depth, TINY.heads)
        return ref_cross_entropy(logits, labels.astype(np.float64))

    expected = central_difference(ref_loss, params64, h=1e-3)

    tokens = reshape(client_forward(client, images[None], TINY), (3, TINY.tokens, TINY.embed_dim))
    logits = server_forward(server, tokens, TINY)
    backward(cross_entropy(logits, Tensor(labels)))
    for key, tensor in client.parameters().items():
        assert np.allclose(tensor.grad, expected[f"c.{key}"], rtol=2e-2, atol=1e-4), key
    for key, tensor in server.parameters().items():
        assert np.allclose(tensor.grad, expected[f"s.{key}"], rtol=2e-2, atol=1e-4), key


@pytest.mark.parametrize("n", [1, 3, 64])
def test_fleet_forward_matches_per_client_composite_bit_for_bit(n):
    # Each row of the fleet's one embed node against that client's own
    # linear + add graph, in value and in all three parameter gradients.
    cfg = PROFILES["desk"]
    d, p, m = cfg.embed_dim, cfg.patch_pixels, cfg.tokens
    rng = np.random.default_rng(n)
    params = {"patch_weight": rng.normal(0, 0.2, size=(n, d, p)),
              "patch_bias": rng.normal(0, 0.1, size=(n, d)),
              "pos_embed": rng.normal(0, 0.1, size=(n, m, d))}
    params = {k: v.astype(np.float32) for k, v in params.items()}
    images = rng.uniform(size=(n, 4, cfg.channels, cfg.image_size, cfg.image_size))
    images = images.astype(np.float32)
    upstream = rng.normal(size=(n, 4, m, d)).astype(np.float32)

    fleet = ClientSegment(*(Tensor(v, requires_grad=True) for v in params.values()))
    smashed = client_forward(fleet, images, cfg)
    backward(smashed, upstream)
    for i in range(n):
        own = [Tensor(v[i], requires_grad=True) for v in params.values()]
        tokens = composite.client_forward(*own, images[i], cfg)
        backward(tokens, upstream[i])
        assert smashed.values[i].tobytes() == tokens.values.tobytes(), i
        for name, fleet_param, param in zip(params, fleet.parameters().values(), own):
            assert fleet_param.grad[i].tobytes() == param.grad.tobytes(), (i, name)


def test_server_pass_matches_composite_attention_bit_for_bit(monkeypatch):
    # The whole server pass, loss and every gradient, against the same pass
    # with attention run as the chain of small ops it replaced.
    cfg = PROFILES["desk"]
    rng = np.random.default_rng(4)
    tokens0 = rng.normal(size=(4, cfg.tokens, cfg.embed_dim)).astype(np.float32)
    labels = np.eye(cfg.num_classes, dtype=np.float32)[[0, 3, 3, 7]]

    def run():
        _, server = init_parameters(cfg, seed=2)
        tokens = Tensor(tokens0, requires_grad=True)
        loss = cross_entropy(server_forward(server, tokens, cfg), Tensor(labels))
        backward(loss)
        return {"loss": loss.values, "tokens": tokens.grad,
                **{k: t.grad for k, t in server.parameters().items()}}

    fused = run()
    monkeypatch.setattr(model, "attention", composite.attention)
    chain = run()
    for key in fused:
        assert np.array_equal(fused[key], chain[key]), key


def _random_server(cfg, seed):
    # Init weights are too small for attention to mix rows; spread them out.
    _, server = init_parameters(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for t in server.parameters().values():
        t.values = (t.values + rng.normal(0, 0.3, size=t.shape)).astype(np.float32)
    return server


def _server_pass(forward, server, tokens0, labels, cfg):
    for t in server.parameters().values():
        t.grad = None
    tokens = Tensor(tokens0, requires_grad=True)
    logits = forward(server, tokens, cfg)
    loss = cross_entropy(logits, Tensor(labels))
    backward(loss)
    return {"logits": logits.values, "loss": loss.values, "tokens": tokens.grad,
            **{k: t.grad for k, t in server.parameters().items()}}


@pytest.mark.parametrize("depth,batch", [(2, 1), (2, 4), (2, 16), (3, 4)])
def test_class_row_pass_matches_all_rows_pass(depth, batch):
    # The last block computes only the class row; the all-rows pass computes
    # every row and slices the class row out.  Same in real arithmetic.
    cfg = replace(PROFILES["desk"], depth=depth)
    server = _random_server(cfg, seed=batch)
    rng = np.random.default_rng(depth * 100 + batch)
    tokens0 = rng.normal(size=(batch, cfg.tokens, cfg.embed_dim)).astype(np.float32)
    labels = np.eye(cfg.num_classes, dtype=np.float32)[rng.integers(0, 10, size=batch)]
    got = _server_pass(server_forward, server, tokens0, labels, cfg)
    want = _server_pass(composite.server_forward, server, tokens0, labels, cfg)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].shape == want[key].shape, key
        assert np.allclose(got[key], want[key], rtol=1e-4, atol=1e-6), key


def test_depth_zero_server_reads_the_class_row():
    cfg = replace(PROFILES["desk"], depth=0)
    server = _random_server(cfg, seed=0)
    rng = np.random.default_rng(0)
    logits = [server_forward(server, Tensor(rng.normal(size=(3, cfg.tokens, cfg.embed_dim))
                                            .astype(np.float32)), cfg).values for _ in range(2)]
    cls = server.class_token.values
    normed = (cls - cls.mean()) / np.sqrt(cls.var() + 1e-5) * server.norm_gain.values
    expected = (normed + server.norm_bias.values) @ server.head_weight.values.T
    expected = np.repeat(expected + server.head_bias.values, 3, axis=0)
    assert np.array_equal(logits[0], logits[1])
    assert np.allclose(logits[0], expected, atol=1e-5)


def test_evaluation_builds_no_graph():
    # With a graph, two 256-image chunks of it are alive at once (68 MB).
    cfg = PROFILES["desk"]
    client, server = init_parameters(cfg, seed=0)
    data = make_synthetic(512, cfg.num_classes, cfg.image_size, seed=0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _forward_accuracy(client, SimpleNamespace(segment=server), data, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


def test_client_forward_is_affine_in_image():
    client, _ = init_parameters(TINY, seed=6)
    client.pos_embed.values = np.random.default_rng(0).normal(
        0, 0.1, size=client.pos_embed.values.shape).astype(np.float32)
    x = np.random.default_rng(1).uniform(size=(2, 1, 8, 8)).astype(np.float32)
    alpha = 0.3

    def f(img):
        return client_forward(client, img[None].astype(np.float32), TINY).values

    lhs = f(alpha * x) + f((1 - alpha) * x) - f(np.zeros_like(x))
    assert np.allclose(lhs, f(x), atol=1e-4)


def test_server_forward_finite_for_bounded_tokens():
    _, server = init_parameters(TINY, seed=7)
    tokens = np.random.default_rng(2).uniform(-10, 10,
                                              size=(2, TINY.tokens, TINY.embed_dim))
    out = server_forward(server, Tensor(tokens.astype(np.float32)), TINY)
    assert np.isfinite(out.values).all()

