import ast
import dataclasses
import pathlib

import pytest

import jnrf
from jnrf.config import (
    ConfigError,
    ModelConfig,
    RunConfig,
    load_config,
    parse_config_text,
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
    "n_attn_heads": 4,
    "train_pooling": "predicted",
    "seed": 7,
    "epochs": 2,
    "lr": 0.0025,
}

MODEL_KEYS = [f.name for f in dataclasses.fields(ModelConfig)]


def test_the_keys_are_the_model_fields_plus_four_run_fields():
    keys = [f.name for f in dataclasses.fields(RunConfig)]
    assert keys == [*MODEL_KEYS, "seed", "granularity", "epochs", "lr"]
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


def test_comments_and_spacing():
    cfg = parse_config_text("  epochs=4   # four\n# lr = 5\nmixer =  mlp\n")
    assert (cfg.epochs, cfg.lr, cfg.mixer) == (4, 1e-3, "mlp")


def test_unknown_key_names_its_line():
    with pytest.raises(ConfigError, match=r"^line 2: unknown key 'epoch'$"):
        parse_config_text("lr = 0.01\nepoch = 3\n")


@pytest.mark.parametrize(
    "key",
    ["synth_train", "bench_trials", "corpus_dir", "vocab_path", "embeddings_path",
     "checkpoint_path", "out_dir", "pool", "accumulate_over"],
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


def test_validation_error_names_the_line_that_set_the_key():
    # the last assignment of a key is the one validated
    with pytest.raises(ConfigError, match=r"^line 3: mixer must be "):
        parse_config_text("mixer = mlp\n# a comment\nmixer = conv\nepochs = 2\n")
    with pytest.raises(ConfigError, match=r"^line 2: n_attn_heads must be a divisor of d_model=64,"):
        parse_config_text("mixer = windowed_attention\nn_attn_heads = 5\n")


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
        ({"n_attn_heads": 0}, "n_attn_heads"),
        ({"mixer": "windowed_attention", "n_attn_heads": 0}, "n_attn_heads"),
        ({"mixer": "windowed_attention", "d_model": 6, "n_attn_heads": 4}, "n_attn_heads"),
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
    ],
)
def test_invalid_values_rejected(values, key):
    with pytest.raises(ConfigError, match=rf"^{key} must be "):
        RunConfig(**values)


def test_model_config_validates_on_its_own():
    with pytest.raises(ConfigError, match=r"^emb_dim must be "):
        ModelConfig(emb_dim=0)
    with pytest.raises(ConfigError, match=r"^n_attn_heads must be a divisor of d_model=6"):
        ModelConfig(mixer="windowed_attention", d_model=6, n_attn_heads=4)


def test_heads_need_not_divide_width_for_other_mixers():
    # n_attn_heads is read by windowed attention only
    assert ModelConfig(mixer="fnet", d_model=6, n_attn_heads=4).n_attn_heads == 4


def test_every_key_but_granularity_is_read_outside_config():
    """No configuration key that nothing uses: each RunConfig field is read
    as an attribute in some module of the package other than config.py.
    `granularity` is exempt: it has one legal value and nothing reads it, but
    the benchmark's config text sets `granularity = document`, which must
    keep parsing."""
    read = set()
    for path in pathlib.Path(jnrf.__file__).parent.glob("*.py"):
        if path.name != "config.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    keys = [f.name for f in dataclasses.fields(RunConfig)]
    assert [k for k in keys if k not in read] == ["granularity"]
