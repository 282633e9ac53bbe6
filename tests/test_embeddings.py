"""Embedding arithmetic, the hashed fallback embedder, TSV round-trips, and
the one TSV line rule every TSV input shares."""

import json
import math
import os

import numpy as np
import pytest

from adexpand.cli import _read_keyword_list, build_parser
from adexpand.embeddings import (
    EmbeddingSet,
    cosine_similarity,
    fallback_embed,
    fnv1a_64,
    load_embedding_sets,
    load_embeddings,
    normalize,
    save_embeddings,
)
from adexpand.errors import (
    DimensionMismatchError,
    DuplicateKeywordError,
    EmptySetError,
    NonFiniteError,
    ParseError,
    ZeroVectorError,
)
from adexpand.reports import load_label_set


class TestNormalize:
    def test_analytic_3_4(self):
        np.testing.assert_allclose(normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-7)

    def test_identity_on_unit_vector(self):
        np.testing.assert_allclose(normalize([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0], atol=1e-7)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            normalize([0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            normalize([1.0, float("nan")])
        with pytest.raises(NonFiniteError):
            normalize([1.0, float("inf")])

    def test_direction_preserved_random(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            v = rng.normal(size=rng.integers(2, 40))
            unit = normalize(v)
            assert abs(float(np.linalg.norm(unit)) - 1.0) <= 1e-5
            np.testing.assert_allclose(unit, v / np.linalg.norm(v), atol=1e-6)


class TestCosine:
    def test_identical_vectors(self):
        u = normalize([0.3, -0.2, 0.9])
        assert cosine_similarity(u, u) == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal(self):
        u = np.array([1.0, 0.0], dtype=np.float32)
        v = np.array([0.0, 1.0], dtype=np.float32)
        assert cosine_similarity(u, v) == 0.0

    def test_45_degrees(self):
        u = np.array([1.0, 0.0], dtype=np.float32)
        v = normalize([1.0, 1.0])
        assert cosine_similarity(u, v) == pytest.approx(0.70710678, abs=1e-6)

    def test_antipodal(self):
        u = np.array([1.0, 0.0], dtype=np.float32)
        assert cosine_similarity(u, -u) == pytest.approx(-1.0, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine_similarity(np.ones(3, dtype=np.float32), np.ones(4, dtype=np.float32))

    def test_bounds_and_distance_identity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            u = normalize(rng.normal(size=16))
            v = normalize(rng.normal(size=16))
            s = cosine_similarity(u, v)
            assert abs(s) <= 1.0 + 1e-9


def _reference_embed(text: str, dim: int) -> list[float]:
    """Independent pure-Python rebuild of the hashing scheme."""
    padded = "#" + text.strip().lower() + "#"
    buckets = [0] * dim
    for n in (3, 4, 5):
        for start in range(len(padded) - n + 1):
            gram = padded[start : start + n].encode("utf-8")
            h = 0xCBF29CE484222325
            for b in gram:
                h ^= b
                h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            sign = 1 if (h >> 63) == 0 else -1
            buckets[h % dim] += sign
    norm = math.sqrt(sum(x * x for x in buckets))
    return [x / norm for x in buckets]


class TestFallbackEmbed:
    def test_deterministic(self):
        a = fallback_embed("iphone case", 256)
        b = fallback_embed("iphone case", 256)
        assert np.array_equal(a, b)

    def test_matches_reference_implementation(self):
        for text in ("iphone case", "garden hose", "Men's Shoes"):
            np.testing.assert_allclose(
                fallback_embed(text, 128), _reference_embed(text, 128), atol=1e-6
            )

    def test_near_duplicates_closer_than_unrelated(self):
        ref = {t: np.array(_reference_embed(t, 256)) for t in
               ("iphone case", "iphone cases", "garden hose")}
        sim_close = float(ref["iphone case"] @ ref["iphone cases"])
        sim_far = float(ref["iphone case"] @ ref["garden hose"])
        assert sim_close > sim_far
        got_close = cosine_similarity(fallback_embed("iphone case", 256),
                                      fallback_embed("iphone cases", 256))
        got_far = cosine_similarity(fallback_embed("iphone case", 256),
                                    fallback_embed("garden hose", 256))
        assert got_close == pytest.approx(sim_close, abs=1e-6)
        assert got_far == pytest.approx(sim_far, abs=1e-6)
        assert got_close > got_far

    def test_single_character_embeds(self):
        v = fallback_embed("a", 256)
        assert abs(float(np.linalg.norm(v)) - 1.0) <= 1e-5
        # "#a#" yields exactly one 3-gram: a single occupied bucket
        assert int(np.count_nonzero(v)) == 1

    def test_empty_text_rejected(self):
        with pytest.raises(ZeroVectorError):
            fallback_embed("   ", 256)

    def test_small_dim_rejected(self):
        with pytest.raises(DimensionMismatchError, match="at least 16, got 8"):
            fallback_embed("iphone case", 8)

    def test_fnv1a_known_values(self):
        # Standard FNV-1a 64 test vectors.
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C


class TestTsvRoundTrip:
    def _random_set(self, rng, market="US", n=100, dim=16):
        pairs = [(f"kw {i} {rng.integers(0, 1e9)}", rng.normal(size=dim)) for i in range(n)]
        return EmbeddingSet.from_pairs(market, pairs)

    def test_round_trip_within_tolerance(self, tmp_path):
        rng = np.random.default_rng(3)
        original = self._random_set(rng)
        path = str(tmp_path / "emb.tsv")
        save_embeddings(original, path)
        loaded = load_embeddings(path, "US")
        assert len(loaded) == len(original)
        for row, text in enumerate(original.texts):
            np.testing.assert_allclose(
                loaded.matrix[loaded.row_of(text)], original.matrix[row], atol=1e-6
            )

    def test_three_rows_dim_four(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text(
            "# comment line\n"
            "US\talpha\t1 0 0 0\n"
            "US\tbeta\t0 1 0 0\n"
            "US\tgamma\t0 0 1 0\n",
            encoding="utf-8",
        )
        loaded = load_embeddings(str(path), "US")
        assert len(loaded) == 3
        assert loaded.dim == 4

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("US\talpha\t1 0 0 0\nUS\tbeta\t0 1 0\n", encoding="utf-8")
        with pytest.raises(DimensionMismatchError, match=":2"):
            load_embeddings(str(path), "US")

    def test_duplicate_keyword(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("US\talpha\t1 0\nUS\talpha\t0 1\n", encoding="utf-8")
        with pytest.raises(DuplicateKeywordError):
            load_embeddings(str(path), "US")

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("US\talpha\t1 zz\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1"):
            load_embeddings(str(path), "US")

    def test_zero_vector_row_reports_line(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("US\talpha\t1 0\nUS\tbeta\t0 0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2"):
            load_embeddings(str(path), "US")

    # the second file's "1_0" is a float to float() but not to np.loadtxt,
    # so the whole file is parsed record by record
    @pytest.mark.parametrize("ordinary", ["1 2 3", "1_0 2 3"], ids=["bulk", "per-record"])
    def test_overflowing_norm_reports_line(self, tmp_path, ordinary):
        """A norm past the float range would scale the row to zero; a large
        row whose norm is finite loads as normalize() scales it."""
        path = tmp_path / "emb.tsv"
        path.write_text(f"US\talpha\t{ordinary}\nUS\tbig\t1e153 1e153 0\n", encoding="utf-8")
        big = load_embeddings(str(path), "US").matrix[1]
        assert big.tobytes() == normalize([1e153, 1e153, 0]).tobytes()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("US\thuge\t1e200 1e200 0\n")
        with pytest.raises(ParseError, match=":3: vector norm overflows"):
            load_embeddings(str(path), "US")

    def test_unknown_market_is_empty(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("US\talpha\t1 0\n", encoding="utf-8")
        with pytest.raises(EmptySetError):
            load_embeddings(str(path), "UK")

    def test_multi_market_file(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("US\talpha\t1 0\nUK\tbravo\t0 1\n", encoding="utf-8")
        us = load_embeddings(str(path), "US")
        uk = load_embeddings(str(path), "UK")
        assert us.texts == ["alpha"]
        assert uk.texts == ["bravo"]
        # one set per requested market, in the order asked for
        assert list(load_embedding_sets(str(path), ["UK", "US"])) == ["UK", "US"]


def _read_queries(path, request):
    snapshot = os.path.join(request.getfixturevalue("chain_dir"), "snapshot")
    out = path + ".out"
    args = build_parser().parse_args(
        ["match", "--snapshot", snapshot, "--queries", path, "--out", out]
    )
    args.func(args)
    with open(out, encoding="utf-8") as fh:
        return [json.loads(line)["query"] for line in fh]


# Every TSV input goes through read_tsv: (reader, one good record, what the
# reader makes of it). Each reader keeps its own per-field handling.
TSV_INPUTS = {
    "embeddings": (
        lambda path, _: load_embeddings(path, "US").texts,
        "US\talpha \t1 0",
        ["alpha"],
    ),
    "keyword_list": (
        lambda path, _: _read_keyword_list(path),
        "US\t iphone 13 case ",
        [("US", "iphone 13 case")],
    ),
    "queries": (_read_queries, "US\tapple iphone 13 case red", ["apple iphone 13 case red"]),
    "labels": (
        lambda path, _: [(p.origin, p.variant, p.label) for p in load_label_set(path)],
        "running shoes\tmens running shoes\t1",
        [("running shoes", "mens running shoes", 1)],
    ),
}


class TestReadTsv:
    @pytest.mark.parametrize("name", sorted(TSV_INPUTS))
    def test_comment_and_blank_lines_are_skipped(self, name, tmp_path, request):
        reader, line, expected = TSV_INPUTS[name]
        path = tmp_path / "in.tsv"
        path.write_text(f"# comment\n\n   \n  # indented comment\n{line}\n", encoding="utf-8")
        assert sorted(set(reader(str(path), request))) == expected

    @pytest.mark.parametrize("name", sorted(TSV_INPUTS))
    def test_wrong_field_count_names_path_and_line(self, name, tmp_path, request):
        reader, line, _ = TSV_INPUTS[name]
        path = tmp_path / "in.tsv"
        path.write_text(f"# comment\n\n{line}\n{line}\textra\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"{path}:4: expected "):
            reader(str(path), request)
