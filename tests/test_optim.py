"""AdamW's flat update against a per-array reference, and its contracts."""

import numpy as np
import pytest

from splitmix.errors import ContractError
from splitmix.model import PROFILES, init_parameters, server_forward
from splitmix.optim import _PIECE, AdamW
from splitmix.tensor import Tensor, backward, cross_entropy

from oracles import RefAdamW


def test_flat_adamw_matches_per_array_reference():
    config = PROFILES["desk"]
    _, server = init_parameters(config, seed=3)
    params = server.parameters()
    opt = AdamW(params, lr=1e-3)
    ref = RefAdamW({k: p.values for k, p in params.items()}, lr=1e-3)
    rng = np.random.default_rng(0)
    for step in range(6):
        tokens = rng.normal(size=(4, config.tokens, config.embed_dim)).astype(np.float32)
        labels = np.eye(config.num_classes, dtype=np.float32)[rng.integers(0, 10, size=4)]
        backward(cross_entropy(server_forward(server, Tensor(tokens), config), Tensor(labels)))
        ref.step({k: p.grad for k, p in params.items()})
        opt.step()
        opt.zero_grads()
        opt.lr = ref.lr = 1e-3 * (0.5 + 0.1 * step)
        for name, p in params.items():
            assert np.array_equal(p.values, ref.values[name]), (step, name)


def test_fleet_step_equals_per_client_steps_bit_for_bit():
    # One AdamW over stacked (n, ...) leaves against n optimizers, one per
    # client, over that client's rows; lr and weight decay vary by step.
    n, rng = 5, np.random.default_rng(1)
    shapes = {"patch_weight": (8, 12), "patch_bias": (8,), "pos_embed": (4, 8)}
    fleet = {k: Tensor(rng.normal(0, 0.1, size=(n,) + s).astype(np.float32), requires_grad=True)
             for k, s in shapes.items()}
    own = [{k: Tensor(t.values[i].copy(), requires_grad=True) for k, t in fleet.items()}
           for i in range(n)]
    fleet_opt = AdamW(fleet, lr=1e-3, weight_decay=0.05)
    own_opts = [AdamW(params, lr=1e-3, weight_decay=0.05) for params in own]
    for step in range(5):
        for name, tensor in fleet.items():
            tensor.grad = rng.normal(0, 10.0 ** -step, size=tensor.shape).astype(np.float32)
            for i in range(n):
                own[i][name].grad = tensor.grad[i].copy()
        for opt in [fleet_opt] + own_opts:
            opt.lr = 1e-3 * (1.0 - 0.15 * step)
            opt.step()
            opt.zero_grads()
        for i in range(n):
            for name, tensor in fleet.items():
                assert tensor.values[i].tobytes() == own[i][name].values.tobytes(), (step, i)


def test_pieced_step_matches_per_array_reference():
    # 4 * _PIECE floats, so four pieces of _PIECE: "big" spans two
    # boundaries and "straddle", small, lies across the third; the others
    # fit inside one piece.
    rng = np.random.default_rng(2)
    big = (2 * _PIECE // 256 + 8, 256)
    shapes = {"head": (100,), "big": big, "fill": (_PIECE - 2188,), "straddle": (7, 11),
              "tail": (_PIECE - 37,)}
    assert sum(np.prod(s) for s in shapes.values()) == 4 * _PIECE
    params = {k: Tensor(rng.normal(0, 0.1, size=s).astype(np.float32), requires_grad=True)
              for k, s in shapes.items()}
    opt = AdamW(params, lr=1e-3, weight_decay=0.05)
    ref = RefAdamW({k: p.values for k, p in params.items()}, lr=1e-3, weight_decay=0.05)
    for step in range(5):
        for p in params.values():
            p.grad = rng.normal(0, 10.0 ** -step, size=p.shape).astype(np.float32)
        opt.lr = ref.lr = 1e-3 * (1.0 - 0.15 * step)
        ref.step({k: p.grad for k, p in params.items()})
        opt.step()
        opt.zero_grads()
        for name, p in params.items():
            assert p.values.tobytes() == ref.values[name].tobytes(), (step, name)


def test_non_contiguous_parameter_rejected_by_name():
    ok = Tensor(np.ones(3, np.float32), requires_grad=True)
    strided = Tensor(np.ones((4, 6), np.float32)[:, ::2], requires_grad=True)
    with pytest.raises(ContractError, match="'strided'.*contiguous"):
        AdamW({"ok": ok, "strided": strided})


def test_step_without_gradient_names_the_parameter():
    a = Tensor(np.ones(3, np.float32), requires_grad=True)
    b = Tensor(np.ones(2, np.float32), requires_grad=True)
    a.grad = np.ones(3, np.float32)
    opt = AdamW({"a": a, "b": b})
    with pytest.raises(ContractError, match="'b'"):
        opt.step()
    assert opt.step_count == 0
    assert np.array_equal(a.values, np.ones(3, np.float32))


def test_empty_parameter_dict_rejected():
    with pytest.raises(ContractError):
        AdamW({})
