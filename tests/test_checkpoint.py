import io

import numpy as np
import pytest

from jnrf import training
from jnrf.config import RunConfig, serialize_config
from jnrf.model import JNRF, ModelConfig, encode_document
from jnrf.tensor import Tape
from jnrf.training import (
    AdamState,
    CheckpointError,
    adam_step,
    apply_checkpoint,
    load_checkpoint,
    save_checkpoint,
)

from test_model import build_toy_doc, tiny_table

# the smallest model: every parameter name is present, the file stays small
SMALL = ModelConfig(emb_dim=2, d_model=2, ffn_hidden=2, mixer="fnet", n_blocks=1)
CONFIG_TEXT = serialize_config(RunConfig(emb_dim=2, d_model=2, ffn_hidden=2, n_blocks=1, lr=0.05))


def trained_state(seed=3):
    """A model and Adam state after one step on the toy document."""
    doc, vocab = build_toy_doc()
    model = JNRF(SMALL, seed=seed)
    state = AdamState.for_params(model.params, lr=0.05, beta1=0.8, beta2=0.99, eps=1e-7)
    with Tape() as tape:
        loss, _, _ = model.instance_losses(encode_document(doc), tiny_table(len(vocab), d=2))
    tape.backward(loss)
    adam_step(model.params, state)
    return model, state


def saved_bytes(tmp_path, model, state, name="ckpt.bin"):
    path = tmp_path / name
    save_checkpoint(str(path), model, state, CONFIG_TEXT)
    return path, path.read_bytes()


def test_round_trip(tmp_path):
    model, state = trained_state()
    path, _ = saved_bytes(tmp_path, model, state)
    ckpt = load_checkpoint(str(path))

    fresh = JNRF(SMALL, seed=99)
    apply_checkpoint(fresh, ckpt)
    assert list(ckpt.params) == list(model.params)
    for name, p in model.params.items():
        np.testing.assert_array_equal(fresh.params[name].data, p.data, err_msg=name)
    for j in range(8):
        for side in ("q", "k"):
            assert ckpt.params[f"rel.{j}.{side}.w"].shape == (2, 2)
            assert ckpt.params[f"rel.{j}.{side}.b"].shape == (1, 2)
    assert ckpt.params["alpha"].shape == (8, 3)

    opt = ckpt.optimizer
    assert (opt.step_count, opt.lr, opt.beta1, opt.beta2, opt.eps) == (1, 0.05, 0.8, 0.99, 1e-7)
    for name in model.params:
        np.testing.assert_array_equal(opt.m[name], state.m[name], err_msg=name)
        np.testing.assert_array_equal(opt.v[name], state.v[name], err_msg=name)
    assert any(opt.m[name].any() for name in model.params)
    assert ckpt.config_text == CONFIG_TEXT


def test_without_optimizer_round_trip(tmp_path):
    model, _ = trained_state()
    path, _ = saved_bytes(tmp_path, model, None)
    ckpt = load_checkpoint(str(path))
    assert ckpt.optimizer is None
    for name, p in model.params.items():
        np.testing.assert_array_equal(ckpt.params[name], p.data, err_msg=name)


def test_same_state_saves_byte_identical(tmp_path):
    _, first = saved_bytes(tmp_path, *trained_state(), name="a.bin")
    _, second = saved_bytes(tmp_path, *trained_state(), name="b.bin")
    assert first == second


def test_truncation_at_every_byte_rejected(tmp_path, monkeypatch):
    _, data = saved_bytes(tmp_path, *trained_state())
    # read each prefix from memory: a file written per byte would double the time
    for n in range(len(data)):
        head = io.BytesIO(data[:n])
        monkeypatch.setattr(training, "open", lambda path, mode: head, raising=False)
        with pytest.raises(CheckpointError):
            load_checkpoint("ckpt.bin")


@pytest.mark.parametrize("with_optimizer", [True, False])
def test_trailing_bytes_rejected(tmp_path, with_optimizer):
    model, state = trained_state()
    path, data = saved_bytes(tmp_path, model, state if with_optimizer else None)
    path.write_bytes(data + b"\x00")
    with pytest.raises(CheckpointError, match="unexpected bytes after the last record"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("which", ["m", "v"])
def test_moment_shape_must_match_parameter(tmp_path, which):
    model, state = trained_state()
    getattr(state, which)["rel.3.q.b"] = np.zeros((1, 3))
    path, _ = saved_bytes(tmp_path, model, state)
    with pytest.raises(
        CheckpointError,
        match=rf"^optimizer {which} for parameter 'rel\.3\.q\.b': shape \(1, 3\) != parameter \(1, 2\)$",
    ):
        load_checkpoint(str(path))


@pytest.mark.parametrize("which, occurrence", [("m", 1), ("v", 2)])
def test_moment_names_must_match_parameters(tmp_path, which, occurrence):
    path, data = saved_bytes(tmp_path, *trained_state())
    # records are named params, then m, then v: rename one moment record
    at = -1
    for _ in range(occurrence + 1):
        at = data.index(b"alpha", at + 1)
    path.write_bytes(data[:at] + b"alphX" + data[at + 5:])
    with pytest.raises(CheckpointError, match=rf"^optimizer {which} has no record for parameter 'alpha'$"):
        load_checkpoint(str(path))
