import functools
import io
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jnrf import training
from jnrf.config import RunConfig, serialize_config
from jnrf.corpus import NUM_LABELS
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
        assert ckpt.params[f"rel.{j}.q.w"].shape == ckpt.params[f"rel.{j}.k.w"].shape == (2, 2)
        assert ckpt.params[f"rel.{j}.k.b"].shape == (1, 2)
        assert f"rel.{j}.q.b" not in ckpt.params
    assert ckpt.params["alpha"].shape == (8, 2)

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


def rejected_and_untouched(model, ckpt, message):
    """apply_checkpoint raises CheckpointError matching `message`, and every
    weight keeps its value from before the call."""
    before = {n: p.data.copy() for n, p in model.params.items()}
    assert any(n in ckpt.params and not np.array_equal(ckpt.params[n], a) for n, a in before.items())
    with pytest.raises(CheckpointError, match=message):
        apply_checkpoint(model, ckpt)
    for name, p in model.params.items():
        np.testing.assert_array_equal(p.data, before[name], err_msg=name)


def test_apply_errors_name_the_file(tmp_path):
    path, _ = saved_bytes(tmp_path, *trained_state())
    ckpt = load_checkpoint(str(path))
    assert ckpt.path == str(path)
    where = re.escape(str(path))
    wider = JNRF(ModelConfig(emb_dim=2, d_model=4, ffn_hidden=2, mixer="fnet", n_blocks=1))
    rejected_and_untouched(
        wider, ckpt,
        rf"^{where}: parameter 'in\.2\.w': checkpoint shape \(2, 2\) != model \(2, 4\)$",
    )
    del ckpt.params["alpha"]
    rejected_and_untouched(JNRF(SMALL), ckpt, rf"^{where}: checkpoint is missing parameter 'alpha'$")
    ckpt.params["alpha"] = np.zeros((8, 2))
    ckpt.params["extra"] = np.zeros((1, 1))
    rejected_and_untouched(
        JNRF(SMALL), ckpt, rf"^{where}: checkpoint has unknown parameters \['extra'\]$"
    )


@pytest.mark.parametrize("which", ["m", "v"])
def test_moment_shape_must_match_parameter(tmp_path, which):
    model, state = trained_state()
    getattr(state, which)["rel.3.k.b"] = np.zeros((1, 3))
    path, _ = saved_bytes(tmp_path, model, state)
    with pytest.raises(
        CheckpointError,
        match=rf"^{re.escape(str(path))}: optimizer {which} for parameter 'rel\.3\.k\.b': "
        rf"shape \(1, 3\) != parameter \(1, 2\)$",
    ):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "section, record, value",
    [
        ("parameter", "in.1.w", np.nan),
        ("optimizer m", "alpha", np.inf),
        ("optimizer v", "rel.3.k.b", -np.inf),
    ],
)
def test_non_finite_record_rejected(tmp_path, section, record, value):
    model, state = trained_state()
    if section == "parameter":
        model.params[record].data[0, 1] = value
    else:
        getattr(state, section[-1])[record][0, 1] = value
    path, _ = saved_bytes(tmp_path, model, state)
    with pytest.raises(
        CheckpointError,
        match=rf"^{re.escape(str(path))}: {section} record {re.escape(repr(record))} holds NaN or inf$",
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
    with pytest.raises(
        CheckpointError,
        match=rf"^{re.escape(str(path))}: optimizer {which} has no record for parameter 'alpha'$",
    ):
        load_checkpoint(str(path))


def test_version_1_file_rejected(tmp_path):
    path, data = saved_bytes(tmp_path, *trained_state())
    path.write_bytes(data[:8] + struct.pack("<I", 1) + data[12:])
    with pytest.raises(
        CheckpointError, match=rf"^{re.escape(str(path))}: checkpoint version 1 != supported 2$"
    ):
        load_checkpoint(str(path))


def header_fields(data: bytes) -> tuple[list[int], list[int]]:
    """Offsets of every 4-byte length, count or dimension field of a valid
    checkpoint, and of every byte of its names and config text, found by
    walking its layout independently of the loader."""
    fields, text, at = [], [], 12  # magic and version

    def u32():
        nonlocal at
        fields.append(at)
        at += 4
        return struct.unpack_from("<I", data, at - 4)[0]

    def skip_text():
        nonlocal at
        n = u32()
        text.extend(range(at, at + n))
        at += n

    def records(count):
        nonlocal at
        for _ in range(count):
            skip_text()
            rows, cols = u32(), u32()
            at += 8 * rows * cols

    skip_text()  # config text
    n_params = u32()
    records(n_params)
    has_optim = data[at]
    at += 1 + (8 + 32 if has_optim else 0)
    if has_optim:
        records(2 * n_params)
    assert at == len(data)
    return fields, text


@functools.lru_cache(maxsize=None)
def tiny_checkpoint(tmp_dir) -> bytes:
    return saved_bytes(tmp_dir, *trained_state())[1]


def test_huge_record_dimensions_rejected(tmp_path):
    path, data = saved_bytes(tmp_path, *trained_state())
    buf = bytearray(data)
    struct.pack_into("<II", buf, header_fields(data)[0][3], 2**31, 2**31)  # in.1.w
    path.write_bytes(bytes(buf))
    with pytest.raises(
        CheckpointError,
        match=rf"^{re.escape(str(path))}: truncated checkpoint file: parameter 'in\.1\.w' "
        rf"\(2147483648, 2147483648\) needs {8 * 2**62} bytes, \d+ left$",
    ):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "target, message",
    [
        (b"in.1.w", r"parameter 0 name is not UTF-8 \(invalid start byte at byte 0\)"),
        (CONFIG_TEXT.encode(), r"config text is not UTF-8 \(invalid start byte at byte 0\)"),
    ],
    ids=["parameter name", "config text"],
)
def test_non_utf8_text_rejected(tmp_path, target, message):
    path, data = saved_bytes(tmp_path, *trained_state())
    at = data.index(target)
    path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: {message}$"):
        load_checkpoint(str(path))


def test_duplicate_record_name_rejected(tmp_path):
    path, data = saved_bytes(tmp_path, *trained_state())
    at = data.index(b"in.2.w")  # the third parameter record becomes a second in.1.w
    path.write_bytes(data[:at] + b"in.1.w" + data[at + 6:])
    with pytest.raises(
        CheckpointError, match=rf"^{re.escape(str(path))}: duplicate parameter record 'in\.1\.w'$"
    ):
        load_checkpoint(str(path))


_FIELD_VALUES = st.sampled_from([0, 1, 2, 3, 7, 255, 2**16, 2**31 - 1, 2**31, 2**32 - 1])


@settings(max_examples=300, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 10**6), _FIELD_VALUES | st.integers(0, 2**32 - 1)), max_size=3
    ),
    flips=st.lists(
        st.tuples(st.booleans(), st.integers(0, 10**6), st.integers(1, 255)), max_size=4
    ),
)
def test_corrupted_file_loads_or_raises_checkpoint_error(tmp_path_factory, writes, flips):
    """Overwritten length and dimension fields, and flipped bytes in names,
    in the config text or anywhere: the file loads, or load_checkpoint
    raises CheckpointError naming it."""
    tmp = tmp_path_factory.getbasetemp()
    data = bytearray(tiny_checkpoint(tmp))
    fields, text = header_fields(bytes(data))
    for pick, value in writes:
        struct.pack_into("<I", data, fields[pick % len(fields)], value)
    for in_text, pick, mask in flips:
        data[text[pick % len(text)] if in_text else pick % len(data)] ^= mask
    path = tmp / "fuzzed.bin"
    path.write_bytes(bytes(data))
    try:
        load_checkpoint(str(path))
    except CheckpointError as exc:
        assert str(exc).startswith(f"{path}: ")


# The parameter layout of the default model. A checkpoint stores parameters
# by name and shape, so a file of another layout must not load as this one.
D, F = 64, 128
LAYOUT = [
    ("in.1.w", (D, F)), ("in.1.b", (1, F)), ("in.2.w", (F, D)), ("in.2.b", (1, D)),
    *[
        (f"lm.{b}.{name}", shape)
        for b in range(2)
        for name, shape in [
            ("ln1.g", (1, D)), ("ln1.b", (1, D)), ("ffn.1.w", (D, F)), ("ffn.1.b", (1, F)),
            ("ffn.2.w", (F, D)), ("ffn.2.b", (1, D)), ("ln2.g", (1, D)), ("ln2.b", (1, D)),
        ]
    ],
    ("ner.1.w", (D, F)), ("ner.1.b", (1, F)),
    ("ner.2.w", (F, NUM_LABELS)), ("ner.2.b", (1, NUM_LABELS)),
    ("re.1.w", (D, F)), ("re.1.b", (1, F)), ("re.2.w", (F, D)), ("re.2.b", (1, D)),
    *[
        (f"rel.{j}.{name}", shape)
        for j in range(8)
        for name, shape in [("q.w", (D, D)), ("k.w", (D, D)), ("k.b", (1, D))]
    ],
    ("alpha", (8, 2)),
]


def test_parameter_layout_is_pinned_to_the_checkpoint_version():
    model = JNRF(ModelConfig())
    got = [(name, p.shape) for name, p in model.params.items()]
    assert got == LAYOUT and training._VERSION == 2, (
        "the parameter layout changed: bump training._VERSION, so that files of the "
        "old layout are rejected, and update LAYOUT and the version in this test"
    )
    assert model.params.count() == 143_651


@pytest.mark.parametrize("seed", [0, 7])
def test_initial_weights_follow_the_seeded_draw_order(seed):
    """Each weight matrix draws standard normals / sqrt(fan_in) from one
    generator, in layout order; biases and alpha start at 0 and layer-norm
    gains at 1, drawing nothing."""
    rng = np.random.default_rng(seed)
    model = JNRF(ModelConfig(), seed=seed)
    for name, shape in LAYOUT:
        if name.endswith(".w"):
            want = rng.standard_normal(shape) / np.sqrt(shape[0])
        else:
            want = np.full(shape, 1.0 if name.endswith(".g") else 0.0)
        np.testing.assert_array_equal(model.params[name].data, want, err_msg=name)
