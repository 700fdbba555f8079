import dataclasses
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
from jnrf.training import AdamState, CheckpointError, adam_step, load_checkpoint, save_checkpoint

from test_model import build_toy_doc, tiny_table

# the smallest model: every parameter name is present, the file stays small
RUN = RunConfig(emb_dim=2, d_model=2, ffn_hidden=2, mixer="fnet", n_blocks=1, lr=0.05)
SMALL = ModelConfig.from_run_config(RUN)
CONFIG_TEXT = serialize_config(RUN)


def trained_model(seed=3):
    """A model after one Adam step on the toy document."""
    doc, vocab = build_toy_doc()
    model = JNRF(SMALL, seed=seed)
    state = AdamState.for_params(model.params, lr=0.05)
    with Tape() as tape:
        loss, _, _ = model.instance_losses(encode_document(doc), tiny_table(len(vocab), d=2))
    tape.backward(loss)
    adam_step(model.params, state)
    return model


def saved_bytes(tmp_path, model, name="ckpt.bin"):
    path = tmp_path / name
    save_checkpoint(str(path), model, RUN)
    return path, path.read_bytes()


def write_checkpoint(path, records: dict, text: str = CONFIG_TEXT):
    """A checkpoint file of `text` and the named `records`, laid out as
    `save_checkpoint` lays out its own."""
    blob = text.encode("utf-8")
    with open(path, "wb") as f:
        f.write(training._MAGIC + struct.pack("<II", training._VERSION, len(blob)) + blob)
        f.write(struct.pack("<I", len(records)))
        for name, arr in records.items():
            training._write_record(f, name, arr)


def test_round_trip(tmp_path):
    model = trained_model()
    path, data = saved_bytes(tmp_path, model)
    weights = {name: p.data for name, p in model.params.items()}
    write_checkpoint(tmp_path / "crafted.bin", weights)
    assert (tmp_path / "crafted.bin").read_bytes() == data
    for j in range(8):
        assert weights[f"rel.{j}.q.w"].shape == weights[f"rel.{j}.k.w"].shape == (2, 2)
        assert weights[f"rel.{j}.k.b"].shape == (1, 2)
        assert f"rel.{j}.q.b" not in weights
    assert weights["alpha"].shape == (8, 2)

    cfg, loaded = load_checkpoint(str(path))
    assert cfg == RUN and loaded.config == SMALL
    assert [name for name, _ in loaded.params.items()] == list(weights)
    for name, arr in weights.items():
        np.testing.assert_array_equal(loaded.params[name].data, arr, err_msg=name)


def test_same_state_saves_byte_identical(tmp_path):
    _, first = saved_bytes(tmp_path, trained_model(), name="a.bin")
    _, second = saved_bytes(tmp_path, trained_model(), name="b.bin")
    assert first == second


def test_truncation_at_every_byte_rejected(tmp_path, monkeypatch):
    _, data = saved_bytes(tmp_path, trained_model())
    # read each prefix from memory: a file written per byte would double the time
    for n in range(len(data)):
        head = io.BytesIO(data[:n])
        monkeypatch.setattr(training, "open", lambda path, mode: head, raising=False)
        with pytest.raises(CheckpointError):
            load_checkpoint("ckpt.bin")


def test_trailing_bytes_rejected(tmp_path):
    path, data = saved_bytes(tmp_path, trained_model())
    path.write_bytes(data + b"\x00")
    with pytest.raises(CheckpointError, match="unexpected bytes after the last record"):
        load_checkpoint(str(path))


def test_record_errors_name_the_file(tmp_path):
    """Records that are not the parameters of the model the file's config
    text builds: a wrong shape, a missing one and one besides."""
    path = tmp_path / "crafted.bin"
    where = re.escape(str(path))
    weights = {name: p.data for name, p in trained_model().params.items()}
    cases = [
        ({**weights, "in.2.w": np.zeros((2, 4))},
         rf"parameter 'in\.2\.w': checkpoint shape \(2, 4\) != model \(2, 2\)"),
        ({n: a for n, a in weights.items() if n != "alpha"}, r"checkpoint is missing parameter 'alpha'"),
        ({**weights, "extra": np.zeros((1, 1))}, r"checkpoint has unknown parameters \['extra'\]"),
    ]
    for records, message in cases:
        write_checkpoint(path, records)
        with pytest.raises(CheckpointError, match=rf"^{where}: {message}$"):
            load_checkpoint(str(path))


@pytest.mark.parametrize(
    "cfg, message",
    [
        (dataclasses.replace(RUN, n_blocks=2), "config key 'n_blocks' is 2 in the config, 1 in the model"),
        (RunConfig(), "config key 'emb_dim' is 64 in the config, 2 in the model"),
    ],
    ids=["another-key", "defaults"],
)
def test_save_rejects_config_text_of_another_model(tmp_path, cfg, message):
    path = tmp_path / "ckpt.bin"
    with pytest.raises(CheckpointError, match=rf"^{re.escape(f'{path}: {message}')}$"):
        save_checkpoint(str(path), trained_model(), cfg)
    assert list(tmp_path.iterdir()) == []


def test_a_file_with_the_deleted_head_count_key_names_it(tmp_path):
    """Files of the same layout written while `n_attn_heads` was a key all
    set it, on the line after `window`."""
    path, data = saved_bytes(tmp_path, trained_model())
    old = CONFIG_TEXT.replace("window = 512\n", "window = 512\nn_attn_heads = 1\n").encode()
    new = CONFIG_TEXT.encode()
    assert data[12:16 + len(new)] == struct.pack("<I", len(new)) + new
    path.write_bytes(data[:12] + struct.pack("<I", len(old)) + old + data[16 + len(new):])
    line = CONFIG_TEXT.splitlines().index("window = 512") + 2
    with pytest.raises(
        CheckpointError,
        match=rf"^{re.escape(str(path))}: config text does not parse: line {line}: unknown key 'n_attn_heads'$",
    ):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "record, value", [("in.1.w", np.nan), ("alpha", np.inf), ("rel.3.k.b", -np.inf)]
)
def test_non_finite_record_rejected(tmp_path, record, value):
    model = trained_model()
    model.params[record].data[0, 1] = value
    path, _ = saved_bytes(tmp_path, model)
    with pytest.raises(
        CheckpointError,
        match=rf"^{re.escape(str(path))}: parameter record {re.escape(repr(record))} holds NaN or inf$",
    ):
        load_checkpoint(str(path))


def test_version_2_file_rejected(tmp_path):
    path, data = saved_bytes(tmp_path, trained_model())
    path.write_bytes(data[:8] + struct.pack("<I", 2) + data[12:])
    with pytest.raises(
        CheckpointError, match=rf"^{re.escape(str(path))}: checkpoint version 2 != supported 3$"
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
    records(u32())
    assert at == len(data)
    return fields, text


@functools.lru_cache(maxsize=None)
def tiny_checkpoint(tmp_dir) -> bytes:
    return saved_bytes(tmp_dir, trained_model())[1]


def test_huge_record_dimensions_rejected(tmp_path):
    path, data = saved_bytes(tmp_path, trained_model())
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
        (b"in.1.w", r"parameter 0 name is not UTF-8 \(invalid start byte at line 1, byte 0\)"),
        (CONFIG_TEXT.encode(), r"config text is not UTF-8 \(invalid start byte at line 1, byte 0\)"),
        (b"d_model", rf"config text is not UTF-8 \(invalid start byte at line 2, byte {CONFIG_TEXT.index('d_model')}\)"),
    ],
    ids=["parameter name", "config text", "config text line 2"],
)
def test_non_utf8_text_rejected(tmp_path, target, message):
    path, data = saved_bytes(tmp_path, trained_model())
    at = data.index(target)
    path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: {message}$"):
        load_checkpoint(str(path))


def test_duplicate_record_name_rejected(tmp_path):
    path, data = saved_bytes(tmp_path, trained_model())
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
    assert got == LAYOUT and training._VERSION == 3, (
        "the parameter layout changed: bump training._VERSION, so that files of the "
        "old layout are rejected, and update LAYOUT and the version in this test"
    )
    assert sum(p.data.size for _, p in model.params.items()) == 143_651


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
