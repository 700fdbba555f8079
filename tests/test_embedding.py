import numpy as np
import pytest

from jnrf import embedding
from jnrf.config import ConfigError
from jnrf.embedding import EmbeddingTable, embed, load_table, pe_matrix, random_table
from jnrf.tokenizer import Vocab

from oracles import scalar_positional_encoding


def vocab3():
    return Vocab(["[UNK]", "aa", "bb"])


class TestLoadTable:
    def test_tsv_round_trip(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("[UNK]\t0 0 0\naa\t1 2 3\nbb\t4 5 6\n")
        table = load_table(str(path), vocab3(), d=3)
        assert table.weights.shape == (3, 3)
        np.testing.assert_array_equal(table.weights[1], [1, 2, 3])

    def test_inconsistent_width_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("[UNK]\t0 0 0\naa\t1 2 3 4\nbb\t4 5 6\n")
        with pytest.raises(ConfigError, match="width"):
            load_table(str(path), vocab3(), d=3)

    def test_missing_token_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("[UNK]\t0 0\naa\t1 2\n")
        with pytest.raises(ConfigError, match="missing"):
            load_table(str(path), vocab3(), d=2)

    def test_missing_file_rejected(self, tmp_path):
        path = tmp_path / "nope.tsv"
        with pytest.raises(ConfigError, match=f"{path}: embeddings file does not exist"):
            load_table(str(path), vocab3(), d=4)

    def test_width_other_than_d_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("[UNK]\t0 0 0\naa\t1 2 3\nbb\t4 5 6\n")
        with pytest.raises(ConfigError, match=r"emb\.tsv:1: embedding width 3 != 4"):
            load_table(str(path), vocab3(), d=4)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("[UNK]\t0 0 0\naa\t1 x 3\nbb\t4 5 6\n")
        with pytest.raises(ConfigError, match=r"emb\.tsv:2: .*'x'"):
            load_table(str(path), vocab3(), d=3)

    def test_duplicate_token_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("[UNK]\t0 0\naa\t1 2\nbb\t4 5\naa\t9 9\n")
        with pytest.raises(ConfigError, match=rf"^{path}:4: duplicate embedding for token 'aa'$"):
            load_table(str(path), vocab3(), d=2)

    @pytest.mark.parametrize("path", [None, ""])
    def test_fallback_only_without_a_path(self, path):
        table = load_table(path, vocab3(), d=4, seed=3)
        assert np.array_equal(table.weights, random_table(vocab3(), 4, 3).weights)

    def test_fallback_is_deterministic(self):
        a = load_table(None, vocab3(), d=16, seed=7)
        b = load_table(None, vocab3(), d=16, seed=7)
        assert np.array_equal(a.weights, b.weights)
        c = load_table(None, vocab3(), d=16, seed=8)
        assert not np.array_equal(a.weights, c.weights)


class TestPositionalEncoding:
    def test_position_zero(self):
        vec = pe_matrix(1, 8)[0]
        np.testing.assert_array_equal(vec, [0, 1, 0, 1, 0, 1, 0, 1])

    def test_frozen_values_at_position_one(self):
        vec = pe_matrix(2, 4)[1]
        assert abs(vec[0] - 0.8414709848078965) < 1e-12      # sin(1)
        assert abs(vec[2] - 0.009999833334166664) < 1e-12    # sin(1/100)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            pe_matrix(3, 5)

    def test_norm_is_position_independent(self):
        d = 32
        norms = np.linalg.norm(pe_matrix(5001, d)[[0, 1, 17, 5000]], axis=1)
        np.testing.assert_allclose(norms, np.sqrt(d / 2), rtol=1e-12)

    def test_cache_growth_matches_oracle(self, monkeypatch):
        # an empty cache: the first call fills 512 rows, the second regrows it
        monkeypatch.setattr(embedding, "_PE_CACHE", {})
        d = 10
        assert pe_matrix(3, d).shape == (3, d)
        pe = pe_matrix(5001, d)
        assert pe.shape == (5001, d)
        for pos in (0, 1, 511, 512, 5000):
            assert np.max(np.abs(pe[pos] - scalar_positional_encoding(pos, d))) < 1e-12


class TestEmbed:
    def test_zero_table_gives_pure_positional(self):
        table = EmbeddingTable(np.zeros((4, 6)))
        out = embed([1, 3, 2], table)
        np.testing.assert_allclose(out.data[2], scalar_positional_encoding(2, 6))

    def test_single_token(self):
        table = random_table(vocab3(), d=6, seed=1)
        out = embed([2], table)
        np.testing.assert_allclose(
            out.data[0], table.weights[2] + scalar_positional_encoding(0, 6)
        )

    def test_out_of_range_id(self):
        table = EmbeddingTable(np.zeros((2, 4)))
        with pytest.raises(ConfigError, match="out of range"):
            embed([0, 5], table)

    def test_output_never_requires_grad(self):
        table = random_table(vocab3(), d=6, seed=2)
        out = embed([0, 1, 2], table)
        assert out.requires_grad is False and out.grad is None

    @pytest.mark.parametrize("n", [1, 2, 777, 16384])
    def test_unbounded_length(self, n):
        table = EmbeddingTable(np.zeros((4, 8)))
        out = embed(np.zeros(n, dtype=int), table)
        assert out.shape == (n, 8)
