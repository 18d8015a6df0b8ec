"""AdamW's flat update against a per-array reference, and its contracts."""

import numpy as np
import pytest

from splitmix.errors import ContractError
from splitmix.model import PROFILES, init_parameters, server_forward
from splitmix.optim import AdamW
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
