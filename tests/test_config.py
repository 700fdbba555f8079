import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from jnrf.config import (
    ConfigError,
    ModelConfig,
    RunConfig,
    decode_utf8,
    load_config,
    parse_config_text,
    read_text,
    serialize_config,
)

# one non-default value per settable key; `granularity` has a single legal
# value, its default, so it has none
NON_DEFAULT = {
    "emb_dim": 32,
    "d_model": 48,
    "ffn_hidden": 96,
    "mixer": "windowed_attention",
    "n_blocks": 3,
    "window": 128,
    "train_pooling": "predicted",
    "seed": 7,
    "epochs": 2,
    "lr": 0.0025,
    "vocab": "data/vocab.txt",
    "embeddings": "data/emb.tsv",
}

MODEL_KEYS = [f.name for f in dataclasses.fields(ModelConfig)]


def test_the_keys_are_the_model_fields_plus_six_run_fields():
    keys = [f.name for f in dataclasses.fields(RunConfig)]
    assert keys == [*MODEL_KEYS, "seed", "granularity", "epochs", "lr", "vocab", "embeddings"]
    assert [k for k in keys if k != "granularity"] == list(NON_DEFAULT)


def test_empty_text_gives_the_defaults():
    assert parse_config_text("# nothing set\n\n") == RunConfig()


@pytest.mark.parametrize("key", list(NON_DEFAULT))
def test_each_key_round_trips(key):
    cfg = RunConfig(**{key: NON_DEFAULT[key]})
    assert getattr(cfg, key) != getattr(RunConfig(), key)
    back = parse_config_text(serialize_config(cfg))
    assert back == cfg
    assert type(getattr(back, key)) is type(NON_DEFAULT[key])


def test_all_keys_round_trip_together(tmp_path):
    cfg = RunConfig(**NON_DEFAULT)
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert load_config(str(path)) == cfg


def test_a_byte_order_mark_is_skipped(tmp_path):
    text = serialize_config(RunConfig(**NON_DEFAULT))
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert load_config(str(marked)) == load_config(str(plain)) == RunConfig(**NON_DEFAULT)


def test_read_text_reads_as_text_mode_does(tmp_path):
    """A byte order mark dropped and every line end read as "\\n"; a
    next-line or line-separator character is not a line end."""
    path = tmp_path / "f.txt"
    path.write_bytes("\ufeffa\r\nb\rc\nd\x85e\u2028f\r".encode("utf-8"))
    with open(path, encoding="utf-8-sig") as f:
        assert read_text(str(path), ConfigError) == f.read() == "a\nb\nc\nd\x85e\u2028f\n"


def test_an_undecodable_byte_names_its_line_and_file_offset():
    """Lines end at "\\r\\n", "\\r" or "\\n", and the offset counts a
    byte order mark."""
    data = b"\xef\xbb\xbfa\r\nb\rc\nd\xff"
    with pytest.raises(ConfigError, match=r"^f is not UTF-8 \(invalid start byte at line 4, byte 11\)$"):
        decode_utf8(data, "f", ConfigError)


def test_a_file_error_names_the_file_and_the_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 2\nepoch = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"^{path}: line 2: unknown key 'epoch'$"):
        load_config(str(path))
    path.write_text("lr = 0.01\nepochs = 0\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"^{path}: line 2: epochs must be >= 1, got 0$") as e:
        load_config(str(path))
    assert e.value.key == "epochs"


def test_comments_and_spacing():
    cfg = parse_config_text("  epochs=4   # four\n# lr = 5\nmixer =  mlp\nvocab = data/v.txt  # words\nembeddings =\n")
    assert (cfg.epochs, cfg.lr, cfg.mixer, cfg.vocab, cfg.embeddings) == (4, 1e-3, "mlp", "data/v.txt", "")


def test_unknown_key_names_its_line():
    with pytest.raises(ConfigError, match=r"^line 2: unknown key 'epoch'$"):
        parse_config_text("lr = 0.01\nepoch = 3\n")


@pytest.mark.parametrize(
    "key",
    ["synth_train", "bench_trials", "corpus_dir", "vocab_path", "embeddings_path",
     "checkpoint_path", "out_dir", "pool", "accumulate_over", "n_attn_heads"],
)
def test_deleted_key_is_unknown(key):
    with pytest.raises(ConfigError, match=rf"^line 3: unknown key '{key}'$"):
        parse_config_text(f"epochs = 1\n\n{key} = 3\n")


@pytest.mark.parametrize(
    "line, value", [("epochs = three", "three"), ("lr = fast", "fast"), ("d_model = 6.0", "6.0")]
)
def test_bad_value_names_its_line(line, value):
    key = line.split()[0]
    with pytest.raises(ConfigError, match=rf"^line 2: bad value '{value}' for key '{key}'$"):
        parse_config_text(f"# header\n{line}\n")


def test_missing_equals_names_its_line():
    with pytest.raises(ConfigError, match=r"^line 1: expected 'key = value'"):
        parse_config_text("epochs 3\n")


def test_parsed_values_are_validated():
    with pytest.raises(ConfigError, match=r"^line 2: epochs must be >= 1, got 0$"):
        parse_config_text("lr = 0.01\nepochs = 0\n")


def test_duplicate_key_names_both_lines():
    with pytest.raises(ConfigError, match=r"^line 2: duplicate key 'epochs' \(first set on line 1\)$") as e:
        parse_config_text("epochs = 3\nepochs = 5\n")
    assert e.value.key == "epochs"
    with pytest.raises(ConfigError, match=r"^line 4: duplicate key 'mixer' \(first set on line 1\)$"):
        parse_config_text("mixer = mlp\n# a comment\nepochs = 2\nmixer = mlp\n")


def test_validation_error_names_the_line_that_set_the_key():
    with pytest.raises(ConfigError, match=r"^line 3: mixer must be "):
        parse_config_text("epochs = 2\n# a comment\nmixer = conv\nlr = 0.01\n")
    with pytest.raises(ConfigError, match=r"^line 2: window must be >= 1, got 0$"):
        parse_config_text("mixer = windowed_attention\nwindow = 0\n")


def test_fields_are_frozen():
    cfg = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.epochs = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        ModelConfig().d_model = 8


def test_from_run_config_projects_the_model_fields():
    cfg = RunConfig(**NON_DEFAULT)
    model_cfg = ModelConfig.from_run_config(cfg)
    assert type(model_cfg) is ModelConfig
    assert dataclasses.asdict(model_cfg) == {k: NON_DEFAULT[k] for k in MODEL_KEYS}


def test_granularity_document_still_parses():
    # the one legal value, as benchmark configs spell it out
    assert parse_config_text("granularity = document\n") == RunConfig()


@pytest.mark.parametrize(
    "values, key",
    [
        ({"emb_dim": 0}, "emb_dim"),
        ({"emb_dim": 7}, "emb_dim"),
        ({"d_model": 0}, "d_model"),
        ({"ffn_hidden": 0}, "ffn_hidden"),
        ({"n_blocks": 0}, "n_blocks"),
        ({"window": 0}, "window"),
        ({"mixer": "windowed_attention", "window": 0}, "window"),
        ({"mixer": "windowed_attention", "d_model": 0}, "d_model"),
        ({"lr": float("-inf")}, "lr"),
        ({"mixer": "conv"}, "mixer"),
        ({"granularity": "sentence"}, "granularity"),
        ({"train_pooling": "none"}, "train_pooling"),
        ({"seed": -1}, "seed"),
        ({"granularity": "word"}, "granularity"),
        ({"granularity": "mixed"}, "granularity"),
        ({"epochs": 0}, "epochs"),
        ({"lr": 0.0}, "lr"),
        ({"lr": -1e-3}, "lr"),
        ({"lr": float("nan")}, "lr"),
        ({"lr": float("inf")}, "lr"),
        ({"vocab": "v\0.txt"}, "vocab"),
        ({"embeddings": "e.tsv\0"}, "embeddings"),
        ({"vocab": "run#1/vocab.txt"}, "vocab"),
        ({"vocab": " v.txt"}, "vocab"),
        ({"embeddings": "e.tsv\t"}, "embeddings"),
        ({"vocab": "a\nb"}, "vocab"),
        ({"embeddings": "a\u2028b"}, "embeddings"),
        ({"vocab": "v\udc80.txt"}, "vocab"),
    ],
)
def test_invalid_values_rejected(values, key):
    with pytest.raises(ConfigError, match=rf"^{key} must be "):
        RunConfig(**values)


# characters that config text reads specially, or that UTF-8 cannot encode
AWKWARD = st.sampled_from(["#", "=", " ", "\t", "\n", "\r", "\x0b", "\x1c", "\x85", "\u2028", "\ufeff", "\0", "\udc80"])
CHOICES = {"mixer": ["fnet", "mlp", "windowed_attention"], "train_pooling": ["gold", "predicted"], "granularity": ["document"]}


def legal_or_path(field):
    """Values the key's own rule accepts; for a path, any short text."""
    if field.name in CHOICES:
        return st.sampled_from(CHOICES[field.name])
    if isinstance(field.default, float):
        return st.floats(min_value=0, exclude_min=True, allow_infinity=False)
    if isinstance(field.default, int):
        return st.integers(1, 2**40).map(lambda n: 2 * n)
    return st.text(st.one_of(st.characters(exclude_categories=()), AWKWARD), max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({f.name: legal_or_path(f) for f in dataclasses.fields(RunConfig)}))
def test_every_config_that_constructs_reads_back_from_its_text(values):
    """Whatever a `RunConfig` accepts, its config text carries: serialized,
    encoded as UTF-8 and parsed, it is the same config."""
    try:
        cfg = RunConfig(**values)
    except ConfigError:
        return
    assert parse_config_text(serialize_config(cfg).encode("utf-8").decode("utf-8")) == cfg


def test_model_config_validates_on_its_own():
    with pytest.raises(ConfigError, match=r"^emb_dim must be "):
        ModelConfig(emb_dim=0)
    with pytest.raises(ConfigError, match=r"^window must be >= 1, got 0$"):
        ModelConfig(mixer="windowed_attention", window=0)
