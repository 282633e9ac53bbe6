"""The offline kernels against the code they replaced, written out here.

Each kernel was rewritten for speed with the promise that no output bit
moves: k-means casts its matrix once and sums with ``bincount``,
``assign_cluster`` reads centroid directions computed once per clustering,
the expansion filters memoise per text, the embeddings file is parsed by
one ``np.loadtxt`` call, ``fallback_embed`` hashes an ASCII text's n-grams
in whole-array passes, ``_best_split`` scores each feature's split
positions as one vector, ``cosine_similarity`` clamps a Python float
instead of calling ``np.clip``, and an expansion variant written as
``save_expansions`` writes it passes one kind test instead of a ``typed``
call per key. Each property below runs the earlier code path as the oracle
and asks for equal results: ``array_equal`` or equal bytes on arrays and
model files, the same exception type and message on failure.
"""

import copy
import math
import os
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adexpand import relevance
from adexpand.clustering import (
    Clustering,
    _means,
    _normalized_rows,
    assign_cluster,
    kmeans,
)
from adexpand.embeddings import (
    EmbeddingSet,
    _normalize_rows,
    cosine_similarity,
    fallback_embed,
    load_embedding_sets,
    normalize,
    read_tsv,
)
from adexpand.errors import (
    DimensionMismatchError,
    DuplicateKeywordError,
    EmptySetError,
    NonFiniteError,
    ParseError,
    ZeroVectorError,
    typed,
)
from adexpand.expansion import (
    FEMININE_TOKENS,
    MASCULINE_TOKENS,
    FilterReason,
    GenderClass,
    _row_from_doc,
    _units_agree,
    _values_by_unit,
    gender_class,
    numeric_tokens,
    tokenize,
)
from adexpand.relevance import _best_split, serialize_model, train_base
from adexpand.rng import SplitMix64


def _outcome(fn, *args):
    """("ok", value) or ("raised", type, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the oracle and the kernel must fail alike
        return ("raised", type(exc), str(exc))


# ---------------------------------------------------------------- k-means


def _old_assign_all(matrix, centroids):
    directions = _normalized_rows(centroids)
    X = matrix.astype(np.float64)
    dists = np.empty((centroids.shape[0], matrix.shape[0]), dtype=np.float64)
    for j in range(centroids.shape[0]):
        dists[j] = 1.0 - X @ directions[j]
    labels = np.argmin(dists, axis=0)
    return labels, dists[labels, np.arange(matrix.shape[0])]


def _old_seed_centroids(matrix, cluster_count, rng):
    n = matrix.shape[0]
    X = matrix.astype(np.float64)
    chosen = [rng.next_index(n)]
    best = np.sum((X - X[chosen[0]]) ** 2, axis=1)
    while len(chosen) < cluster_count:
        total = float(best.sum())
        if total <= 0.0:
            taken = set(chosen)
            idx = next(i for i in range(n) if i not in taken)
        else:
            idx = rng.weighted_index(best)
        chosen.append(idx)
        best = np.minimum(best, np.sum((X - X[idx]) ** 2, axis=1))
    return X[chosen].copy()


def _old_repair_empty_clusters(matrix, centroids, labels):
    counts = np.bincount(labels, minlength=centroids.shape[0])
    for j in np.flatnonzero(counts == 0):
        _, dists = _old_assign_all(matrix, centroids[j : j + 1])
        order = np.argsort(-dists, kind="stable")
        for p in order:
            if counts[labels[p]] > 1:
                counts[labels[p]] -= 1
                labels[p] = j
                counts[j] = 1
                break
    return labels


def _old_means(matrix, labels, cluster_count):
    sums = np.zeros((cluster_count, matrix.shape[1]), dtype=np.float64)
    np.add.at(sums, labels, matrix.astype(np.float64))
    counts = np.bincount(labels, minlength=cluster_count).astype(np.float64)
    counts[counts == 0.0] = 1.0
    return sums / counts[:, None]


def _old_wcss_of(matrix, centroids, labels):
    diffs = matrix.astype(np.float64) - centroids[labels]
    return float(np.sum(diffs * diffs))


def _old_kmeans(embedding_set, cluster_count, seed, max_iter=100, tol=1e-6):
    """kmeans with every helper casting the float32 matrix on each call."""
    n = len(embedding_set)
    matrix = embedding_set.matrix
    rng = SplitMix64(seed)
    centroids = _old_seed_centroids(matrix, cluster_count, rng)
    labels = np.full(n, -1, dtype=np.int64)
    history = []
    for _ in range(max_iter):
        new_labels, _ = _old_assign_all(matrix, centroids)
        new_labels = _old_repair_empty_clusters(matrix, centroids, new_labels)
        unchanged = bool(np.array_equal(new_labels, labels))
        labels = new_labels
        centroids = _old_means(matrix, labels, cluster_count)
        history.append(_old_wcss_of(matrix, centroids, labels))
        if unchanged:
            break
        if len(history) >= 2:
            prev, cur = history[-2], history[-1]
            if prev <= 1e-300 or (prev - cur) / prev < tol:
                break
    final_labels, _ = _old_assign_all(matrix, centroids)
    if np.all(np.bincount(final_labels, minlength=cluster_count) > 0):
        labels = final_labels
    return Clustering(
        market=embedding_set.market,
        cluster_count=cluster_count,
        centroids=centroids,
        labels=labels,
        wcss_history=history,
    )


def _clustering_key(model):
    return (model.market, model.cluster_count, model.centroids.tobytes(),
            model.centroids.shape, model.labels.tolist(), model.wcss_history)


# Components in {-1, 0, 1} or small floats: duplicates, equidistant rows,
# clusters emptied and repaired, and opposite rows averaging to zero.
_tie_row = st.lists(st.integers(-1, 1), min_size=3, max_size=3).filter(any)
_float_row = st.lists(
    st.floats(-4.0, 4.0, allow_nan=False, width=32), min_size=3, max_size=3
).filter(lambda r: np.linalg.norm(r) > 1e-3)


@st.composite
def _kmeans_case(draw):
    rows = draw(st.lists(st.one_of(_tie_row, _float_row), min_size=1, max_size=40))
    emb = EmbeddingSet.from_pairs("US", [(f"k{i}", r) for i, r in enumerate(rows)])
    clusters = draw(st.integers(1, min(len(rows), 6)))
    return emb, clusters, draw(st.integers(0, 2**32)), draw(st.integers(1, 30))


class TestKmeansAgainstPerIterationCast:
    @settings(max_examples=300, deadline=None)
    @given(_kmeans_case())
    def test_same_clustering(self, case):
        emb, clusters, seed, max_iter = case
        with mock.patch("adexpand.clustering.MAX_ITER", max_iter):
            got = _outcome(kmeans, emb, clusters, seed)
        want = _outcome(_old_kmeans, emb, clusters, seed, max_iter)
        if want[0] == "ok":
            assert got[0] == "ok", got
            assert _clustering_key(got[1]) == _clustering_key(want[1])
        else:
            assert got == want


@st.composite
def _means_case(draw):
    n = draw(st.integers(1, 60))
    dim = draw(st.integers(1, 5))
    k = draw(st.integers(1, 8))
    values = draw(st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=64), min_size=n * dim,
        max_size=n * dim,
    ))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return np.array(values, dtype=np.float64).reshape(n, dim), np.array(labels), k


class TestMeansBincountAgainstAddAt:
    @settings(max_examples=200, deadline=None)
    @given(_means_case())
    def test_same_bits(self, case):
        X, labels, k = case
        with np.errstate(all="ignore"):
            got = _means(np.ascontiguousarray(X.T), labels, k)
            want = _old_means(X, labels, k)
        assert got.tobytes() == want.tobytes() or np.array_equal(got, want, equal_nan=True)

    def test_rows_added_in_input_order(self):
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last bit
        X = np.array([[0.1], [0.2], [0.3], [1.0]])
        labels = np.array([0, 0, 0, 1])
        got = _means(X.T.copy(), labels, 2)
        assert got[0, 0] == ((0.1 + 0.2) + 0.3) / 3
        assert np.array_equal(got, _old_means(X, labels, 2))


# ----------------------------------------------------------- assign_cluster


def _old_assign_cluster(centroids, v):
    labels, dists = _old_assign_all(v[None, :], np.asarray(centroids, dtype=np.float64))
    return int(labels[0]), float(dists[0])


@st.composite
def _assign_case(draw):
    k = draw(st.integers(1, 8))
    centroids = draw(st.lists(st.one_of(_tie_row, _float_row), min_size=k, max_size=k))
    v = np.array(draw(st.one_of(_tie_row, _float_row)), dtype=np.float32)
    return np.array(centroids, dtype=draw(st.sampled_from([np.float64, np.float32]))), v


class TestAssignClusterCachedDirections:
    @settings(max_examples=200, deadline=None)
    @given(_assign_case())
    def test_cached_equals_fresh(self, case):
        centroids, v = case
        model = Clustering(market="US", cluster_count=len(centroids), centroids=centroids,
                           labels=np.zeros(0, dtype=np.int64))
        want = _old_assign_cluster(centroids, v)
        assert assign_cluster(model, v) == want
        # the second call reads the cached directions
        assert assign_cluster(model, v) == want

    def test_directions_are_computed_once_and_read_only(self):
        model = Clustering(market="US", cluster_count=2,
                           centroids=np.array([[3.0, 4.0], [0.0, 2.0]]), labels=np.zeros(0, dtype=np.int64))
        assert model.directions is model.directions
        with pytest.raises(ValueError):
            model.directions[0, 0] = 1.0

    def test_zero_centroid_still_raises(self):
        # the directions are computed when the clustering is made, so a
        # centroid with none is refused there, before any assign_cluster call
        with pytest.raises(ZeroVectorError):
            Clustering(market="US", cluster_count=1, centroids=np.zeros((1, 2)),
                       labels=np.zeros(0, dtype=np.int64))

    def test_overflowing_centroid_norm_raises(self):
        # np.linalg.norm overflows to inf, and dividing by it would give a
        # zero direction that draws no keyword
        with pytest.raises(NonFiniteError, match="vector norm overflows"):
            Clustering(market="US", cluster_count=2,
                       centroids=np.array([[1e200, 1e200], [0.0, 1.0]]),
                       labels=np.zeros(0, dtype=np.int64))


# -------------------------------------------------------- expansion filters


def _old_gender_class(text):
    tokens = set(tokenize(text))
    masc = bool(tokens & MASCULINE_TOKENS)
    fem = bool(tokens & FEMININE_TOKENS)
    if masc and not fem:
        return GenderClass.MASCULINE
    if fem and not masc:
        return GenderClass.FEMININE
    return GenderClass.NEUTRAL


def _old_values_by_unit(text):
    units = {}
    for value, unit in numeric_tokens(text):
        units.setdefault(unit, set()).add(value)
    return units


def _old_units_agree(a, b):
    return all(a[unit] == b[unit] for unit in a.keys() & b.keys())


_filter_words = st.sampled_from([
    "men", "mens", "men's", "Women’s", "ladies", "girl", "boys", "unisex", "shoes",
    "iphone", "13", "12", "65w", "4.4mm", "4.40mm", "model65", "1.5l", "2x", "", " ",
    "ʼs", "_7", "٣", "10kg", "10KG",
])
_filter_text = st.lists(_filter_words, max_size=6).map(" ".join) | st.text(max_size=20)


class TestMemoisedFilters:
    @settings(max_examples=500, deadline=None)
    @given(_filter_text, _filter_text)
    def test_same_classes_and_units(self, a, b):
        for _ in range(2):  # the second round is served from the memo
            assert gender_class(a) is _old_gender_class(a)
            assert dict(_values_by_unit(a)) == _old_values_by_unit(a)
            assert _units_agree(_values_by_unit(a), _values_by_unit(b)) == _old_units_agree(
                _old_values_by_unit(a), _old_values_by_unit(b)
            )

    def test_shared_unit_map_cannot_be_changed(self):
        units = _values_by_unit("iphone 13 65w")
        with pytest.raises(TypeError):
            units["w"] = frozenset()
        assert isinstance(units[""], frozenset)
        assert _values_by_unit("iphone 13 65w") is units


# --------------------------------------------------------- embeddings parse


def _old_load_embedding_sets(path, markets):
    """load_embedding_sets parsing each vector field with float() per row."""
    by_market = {}
    dim = None
    seen = set()
    for lineno, (row_market, keyword, values) in read_tsv(path, ("market", "keyword", "vector")):
        keyword = keyword.strip()
        if not keyword:
            raise ParseError(f"{path}:{lineno}: empty keyword")
        key = (row_market, keyword)
        if key in seen:
            raise DuplicateKeywordError(f"{path}:{lineno}: duplicate keyword {keyword!r}")
        seen.add(key)
        try:
            vec = np.array([float(x) for x in values.split()], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad float: {exc}") from exc
        if not np.all(np.isfinite(vec)):
            raise ParseError(f"{path}:{lineno}: non-finite vector entry")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(vec))
        if norm <= 1e-12:
            raise ParseError(f"{path}:{lineno}: zero vector")
        if norm == np.inf:
            raise ParseError(f"{path}:{lineno}: vector norm overflows")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise DimensionMismatchError(f"{path}:{lineno}: dim {vec.size}, expected {dim}")
        if row_market in markets:
            by_market.setdefault(row_market, []).append((keyword, vec))
    sets = {}
    for market in markets:
        pairs = by_market.get(market)
        if not pairs:
            raise EmptySetError(f"{path}: no rows for market {market!r}")
        sets[market] = EmbeddingSet.from_pairs(market, pairs)
    return sets


def _sets_key(sets):
    return [(m, s.dim, s.texts, s.matrix.dtype, s.matrix.tobytes()) for m, s in sets.items()]


_good_value = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.integers(-5, 5).map(str),
    st.floats(-10, 10, allow_nan=False).map(lambda x: f"{x:.9g}"),
)
_odd_value = st.sampled_from([
    "1_000", "nan", "NaN", "inf", "-inf", "1e400", "1e-400", "abc", "0x10", ".5", "5.",
    "+1", "１", "1,5", "0", "-0", "1e-200", "#1", "1e200", "-1.3e154", "1.3e154",
])


@st.composite
def _embeddings_file(draw):
    """Mostly well-formed files, so the bulk path runs often, with the odd
    literal, blank or comment line, zero row or ragged row mixed in."""
    dim = draw(st.integers(1, 4))
    odd = draw(st.integers(0, 3)) == 0
    lines = []
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 19)) if odd else 0
        if kind == 1:
            lines.append(draw(st.sampled_from(["", "   ", "# note", "  # indented", "US\tonly"])))
            continue
        width = dim if kind != 2 else draw(st.integers(0, dim + 1))
        values = draw(st.lists(_odd_value if kind == 3 else _good_value,
                               min_size=width, max_size=width))
        if kind == 4:
            values = ["0"] * dim
        sep = draw(st.sampled_from([" ", "  ", "\x0b"])) if kind == 5 else " "
        market = draw(st.sampled_from(["US", "UK"]))
        keyword = f"kw{i}" if kind != 6 else draw(st.sampled_from(["kw0", " ", "kw1"]))
        lines.append(f"{market}\t{keyword}\t{sep.join(values)}")
    markets = draw(st.sampled_from([["US"], ["UK", "US"], ["FR"]]))
    return "\n".join(lines) + "\n", markets


class TestNormalizeRows:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 70).flatmap(lambda dim: st.lists(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False, width=64), min_size=dim, max_size=dim)
        .filter(lambda r: np.linalg.norm(r) > 1e-6),
        min_size=1, max_size=20,
    )))
    def test_same_bits_as_normalize_per_row(self, rows):
        X = np.array(rows, dtype=np.float64)
        want = np.vstack([normalize(row) for row in X])
        assert _normalize_rows(list(X)).tobytes() == want.tobytes()


class TestBulkEmbeddingsParse:
    @settings(max_examples=300, deadline=None)
    @given(_embeddings_file())
    def test_same_sets_or_same_error(self, case):
        text, markets = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "embeddings.tsv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            got = _outcome(load_embedding_sets, path, markets)
            want = _outcome(_old_load_embedding_sets, path, markets)
        if want[0] == "ok":
            assert got[0] == "ok", got
            assert _sets_key(got[1]) == _sets_key(want[1])
        else:
            assert got == want

    @pytest.mark.parametrize("value, message", [
        ("1 nan", "non-finite vector entry"),
        ("0 0", "zero vector"),
        ("1 x", "bad float"),
        ("1 2 3", "dim 3, expected 2"),
        ("1e200 1", "vector norm overflows"),
    ])
    def test_bulk_failure_reports_the_first_bad_line(self, tmp_path, value, message):
        path = tmp_path / "embeddings.tsv"
        path.write_text(f"US\ta\t1 0\n# note\nUS\tb\t{value}\nUS\ta\t1 0\n", encoding="utf-8")
        with pytest.raises((ParseError, DimensionMismatchError),
                           match=f"{path}:3: {message}"):
            load_embedding_sets(str(path), ["US"])

    def test_underscored_literals_load_as_before(self, tmp_path):
        path = tmp_path / "embeddings.tsv"
        path.write_text("US\ta\t1_000 0\nUS\tb\t0 2\n", encoding="utf-8")
        got = load_embedding_sets(str(path), ["US"])["US"]
        assert got.matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]


# ------------------------------------------------------------ fallback_embed


def _old_fnv1a_64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & ((1 << 64) - 1)
    return h


def _old_fallback_embed(text, dim):
    """fallback_embed hashing every n-gram byte by byte."""
    if dim < 16:
        raise ValueError("dim must be at least 16")
    trimmed = text.strip().lower()
    if not trimmed:
        raise ZeroVectorError("text produces no n-grams")
    padded = "#" + trimmed + "#"
    buckets = np.zeros(dim, dtype=np.int64)
    for n in (3, 4, 5):
        for start in range(len(padded) - n + 1):
            h = _old_fnv1a_64(padded[start : start + n].encode("utf-8"))
            sign = 1 if (h >> 63) == 0 else -1
            buckets[h % dim] += sign
    if not np.any(buckets):
        raise ZeroVectorError("n-gram signs cancelled to a zero vector")
    return normalize(buckets)


def _embed_outcome(fn, text, dim):
    outcome = _outcome(fn, text, dim)
    return (outcome[0], outcome[1].tobytes()) if outcome[0] == "ok" else outcome


# '#' and whitespace; upper case; U+212A KELVIN SIGN, which lower() makes
# the ASCII 'k'; U+0130, which lower() turns into two characters; and
# other non-ASCII letters, which keep the text on the byte loop
_embed_chars = st.sampled_from(list("ab#Z 9\t\n-") + ["K", "İ", "é", "ß", "日"])
_embed_text = st.one_of(
    st.text(_embed_chars, max_size=24),
    st.text(st.characters(codec="ascii"), max_size=24),
    st.text(max_size=12),
    # padded to 3 or 4 characters: no 4- or 5-grams
    st.text(st.characters(codec="ascii", categories=["L", "N", "P"]), min_size=1, max_size=2),
)
_embed_dims = st.sampled_from([16, 17, 64, 100, 256])

# Texts whose n-gram signs cancel at a dim, found by search: fallback_embed
# raises. At dims 64 and 256 no 3-character printable ASCII text and no
# 4-character text over [a-z0-9 -] cancels.
CANCELLING = {16: "7h6j7", 17: "ctc", 100: "u#'"}


class TestFallbackEmbedFold:
    @settings(max_examples=1000, deadline=None)
    @given(_embed_text, _embed_dims)
    def test_same_bytes_or_same_error(self, text, dim):
        assert _embed_outcome(fallback_embed, text, dim) == _embed_outcome(
            _old_fallback_embed, text, dim)

    @pytest.mark.parametrize("text", ["Kelvin", "İstanbul", "a", "ab", "#", " A\t", "K"])
    @pytest.mark.parametrize("dim", [16, 17, 64, 100, 256])
    def test_edge_texts(self, text, dim):
        assert _embed_outcome(fallback_embed, text, dim) == _embed_outcome(
            _old_fallback_embed, text, dim)

    @pytest.mark.parametrize("dim, text", sorted(CANCELLING.items()))
    def test_cancelling_signs_raise(self, dim, text):
        want = _outcome(_old_fallback_embed, text, dim)
        assert want == ("raised", ZeroVectorError, "n-gram signs cancelled to a zero vector")
        assert _outcome(fallback_embed, text, dim) == want


# --------------------------------------------------------- cosine_similarity


def _old_cosine_similarity(u, v):
    return float(np.clip(np.dot(u, v), -1.0, 1.0))


def _bits(x):
    """A float's bytes: the sign of zero and a NaN's bits count."""
    return struct.pack("<d", x)


def _unit(values):
    """A float32 vector over its float32 norm. The vector is first scaled by
    its largest magnitude, so that the norm, taken in float64, is at most 3
    for the 9 entries a case draws and its cast to float32 cannot overflow."""
    u = np.asarray(values, dtype=np.float32)
    u = u / np.abs(u).max()
    return u / np.float32(np.linalg.norm(u.astype(np.float64)))


_NEG_NAN = np.float32(-np.nan)
# entries as embeddings hold them, plus the ones a clamp must pass through:
# signed zeros, NaNs of either sign, infinities and magnitudes past 1
_cosine_entry = st.one_of(
    st.floats(-1.0, 1.0, width=32),
    st.floats(width=32),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan, _NEG_NAN, 7 ** -0.5]),
)


@st.composite
def _cosine_case(draw):
    n = draw(st.integers(1, 9))
    u = np.array(draw(st.lists(_cosine_entry, min_size=n, max_size=n)), dtype=np.float32)
    if draw(st.booleans()) and np.isfinite(u).all() and np.any(u):
        u = _unit(u)  # a unit vector's dot with itself may round past 1
    form = draw(st.sampled_from(["same", "negated", "other"]))
    if form == "other":
        v = np.array(draw(st.lists(_cosine_entry, min_size=n, max_size=n)), dtype=np.float32)
    else:
        v = u.copy() if form == "same" else -u
    return u, v


class TestCosineClamp:
    @settings(max_examples=1000, deadline=None)
    @given(_cosine_case())
    def test_same_float_bits(self, case):
        u, v = case
        with np.errstate(all="ignore"):  # both sides run the same np.dot
            got, want = cosine_similarity(u, v), _old_cosine_similarity(u, v)
        assert type(got) is float
        assert _bits(got) == _bits(want)

    def test_edge_dots_reach_the_clamp(self):
        u = _unit(np.ones(7))
        assert np.dot(u, u) > 1.0 and np.dot(u, -u) < -1.0

    @pytest.mark.parametrize("u, v", [
        (_unit(np.ones(7)), _unit(np.ones(7))),  # the dot rounds to 1.0000001
        (_unit(np.ones(7)), -_unit(np.ones(7))),
        (np.eye(3, dtype=np.float32)[0], np.eye(3, dtype=np.float32)[0]),
        (np.eye(3, dtype=np.float32)[0], -np.eye(3, dtype=np.float32)[0]),
        (np.array([-0.0], dtype=np.float32), np.array([1.0], dtype=np.float32)),
        (np.array([np.nan], dtype=np.float32), np.array([1.0], dtype=np.float32)),
        (np.array([_NEG_NAN], dtype=np.float32), np.array([1.0], dtype=np.float32)),
    ], ids=["past-1", "past-minus-1", "exact-1", "exact-minus-1", "minus-zero", "nan",
            "negative-nan"])
    def test_edge_dots(self, u, v):
        assert _bits(cosine_similarity(u, v)) == _bits(_old_cosine_similarity(u, v))


# --------------------------------------------------------------- _best_split


def _old_best_split(X, y, idx, min_leaf):
    """_best_split scoring one split position at a time."""
    n = idx.size
    y_node = y[idx]
    total = float(y_node.sum())
    total_sq = float((y_node * y_node).sum())
    sse_parent = total_sq - total * total / n
    tie_eps = 1e-9 * max(1.0, abs(sse_parent))
    best = None
    for f in range(X.shape[1]):
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = y_node[order]
        cum = np.cumsum(sy)
        cum_sq = np.cumsum(sy * sy)
        for i in range(min_leaf, n - min_leaf + 1):
            if sv[i - 1] == sv[i]:
                continue
            left_sum = cum[i - 1]
            left_sq = cum_sq[i - 1]
            sse_left = left_sq - left_sum * left_sum / i
            right_sum = total - left_sum
            right_sq = total_sq - left_sq
            sse_right = right_sq - right_sum * right_sum / (n - i)
            gain = sse_parent - sse_left - sse_right
            if gain > 1e-12 and (best is None or gain > best[0] + tie_eps):
                best = (gain, f, float((sv[i - 1] + sv[i]) / 2.0))
    return best


def _split_key(found):
    # the gain as its bits; the old loop held it as a numpy float64
    return None if found is None else (float(found[0]).hex(), found[1], found[2])


@st.composite
def _split_case(draw):
    """Columns of distinct values or of a few values (many duplicates), some
    copies of earlier columns, and targets from a few values nudged by an
    ulp's worth or by amounts around the tie tolerance, so gains tie and
    nearly tie."""
    n = draw(st.integers(2, 40))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.integers(0, 2))
        if columns and kind == 0:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        elif kind == 1:
            columns.append(draw(st.permutations(range(n))))
        else:
            pool = draw(st.sampled_from([[0.0, 1.0], [0.0, 1.0, 2.0], [-1.5, 0.25, 3.0, 7.0]]))
            columns.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    pool = draw(st.sampled_from([[0.0, 1.0], [0.0, 1.0, 2.0], [0.1, 0.3, 0.7], [0.0, 2.0, 5.0]]))
    base = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    nudge = draw(st.lists(st.sampled_from([0.0, 1e-14, 1e-13, 1e-10, 1e-9, 2e-9]),
                          min_size=n, max_size=n))
    y = np.array(base) + np.array(nudge)
    idx = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))), dtype=np.int64)
    m = idx.size
    min_leaf = draw(st.sampled_from([1, max(1, m // 2), draw(st.integers(1, max(1, m)))]))
    return np.array(columns, dtype=np.float64).T.copy(), y, idx, min_leaf


class TestBestSplitReplay:
    @settings(max_examples=1000, deadline=None)
    @given(_split_case())
    def test_same_split(self, case):
        X, y, idx, min_leaf = case
        assert _split_key(_best_split(X, y, idx, min_leaf)) == _split_key(
            _old_best_split(X, y, idx, min_leaf))

    def test_identical_columns_tie_to_the_lower_feature(self):
        col = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
        X = np.stack([col, col, col], axis=1)
        y = np.array([1.0, 1.0, 4.0, 4.0, 9.0, 9.0])
        idx = np.arange(6)
        got = _best_split(X, y, idx, 1)
        assert got is not None and got[1] == 0
        assert _split_key(got) == _split_key(_old_best_split(X, y, idx, 1))

    def test_near_tie_keeps_the_earlier_position(self):
        # the splits at 1.5 and at 3.5 gain 3.0000000000000107 and
        # 3.0000000000000213, within the tie tolerance of each other: the
        # scan keeps the first, where a plain argmax would take the second
        X = np.arange(6, dtype=np.float64)[:, None]
        y = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0 + 1e-14])
        idx = np.arange(6)
        got = _best_split(X, y, idx, 1)
        assert got[1:] == (0, 1.5)
        assert _split_key(got) == _split_key(_old_best_split(X, y, idx, 1))


@st.composite
def _train_case(draw):
    n = draw(st.integers(1, 40))
    features = draw(st.integers(1, 4))
    values = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25, -1.0])
    X = np.array(draw(st.lists(st.lists(values, min_size=features, max_size=features),
                               min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.floats(0.0, 5.0, allow_nan=False), min_size=n, max_size=n)))
    return X, y, draw(st.integers(1, 6)), draw(st.sampled_from([0.1, 0.3, 1.0]))


class TestTrainBaseBytes:
    @settings(max_examples=150, deadline=None)
    @given(_train_case())
    def test_same_model_bytes(self, case):
        X, y, trees, rate = case
        got = serialize_model(train_base(X, y, trees, rate))
        with mock.patch.object(relevance, "_best_split", _old_best_split):
            want = serialize_model(train_base(X, y, trees, rate))
        assert got == want


# ------------------------------------------------------------ expansion rows


def _old_row_from_doc(doc, shared):
    """_row_from_doc reading every key of every variant with typed."""
    accepted = []
    for v in typed(doc, "variants", list):
        keyword = typed(v, "keyword", dict)
        typed(keyword, "market", str)
        typed(keyword, "id", int)
        text = typed(keyword, "text", str)
        similarity = typed(v, "similarity", float)
        if similarity != 1.0 - typed(v, "distance", float):
            raise ValueError(f"'similarity' must be 1 - 'distance', got {similarity!r}")
        if "filtered_reason" in v:
            FilterReason(typed(v, "filtered_reason", str))
        else:
            accepted.append((shared(text, text), similarity))
    origin = typed(doc, "origin", dict)
    market = typed(origin, "market", str)
    typed(origin, "id", int)
    text = typed(origin, "text", str)
    typed(doc, "cluster", int)
    typed(doc, "tau_used", float)
    return shared(market, market), shared(text, text), accepted


def _row_outcome(read, doc):
    # repr tells -0.0 from 0.0 and an int from a float
    return repr(_outcome(read, copy.deepcopy(doc), {}.setdefault))


def _variant_doc(distance, **edits):
    """A record of one variant at ``distance``, its similarity 1 - distance
    unless ``edits`` set it; ``edits`` set or replace the variant's keys."""
    variant = {"keyword": {"market": "US", "text": "garden lights", "id": 3},
               "distance": distance}
    if "similarity" not in edits:
        variant["similarity"] = 1.0 - distance
    variant.update(edits)
    return {"origin": {"market": "US", "text": "led lights", "id": 0}, "cluster": 1,
            "tau_used": 0.5, "variants": [variant]}


# A value of each JSON kind, and of each kind some that a number or a
# FilterReason read gets wrong: a big int, non-finite floats, near-miss
# strings
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.just(2**1100),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e308, math.inf, -math.inf, math.nan]),
    st.sampled_from(["", "US", "x", "GENDER", "NUMERIC", "COLOUR", "gender", "GENDER "]),
    st.sampled_from([[], ["GENDER"], [1.0], {}, {"GENDER": 1},
                     {"market": "US", "text": "x", "id": 1}]),
)
# what each key of a variant holds, and values of that kind
_SAME_KIND = {
    "market": st.sampled_from(["US", "", "UK"]),
    "text": st.sampled_from(["garden lights", "", "x"]),
    "id": st.integers(-3, 2**70),
    "distance": st.floats(allow_nan=True, allow_infinity=True),
    "similarity": st.floats(allow_nan=True, allow_infinity=True),
    "filtered_reason": st.sampled_from([*FilterReason.__members__, "COLOUR", ""]),
}
_VARIANT_KEYS = [(), ("keyword",), ("keyword", "market"), ("keyword", "text"),
                 ("keyword", "id"), ("similarity",), ("distance",), ("filtered_reason",)]


@st.composite
def _expansion_doc(draw):
    """A record of up to four variants as save_expansions writes them, some
    then edited: a key dropped, or set to a value of its own kind or of any
    kind; and sometimes the similarity set back to 1 - the distance."""
    variants = []
    for _ in range(draw(st.integers(0, 4))):
        distance = draw(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                                  st.integers(-2, 2)))
        variant = _variant_doc(distance)["variants"][0]
        variant["keyword"]["id"] = draw(st.integers(0, 9))
        reason = draw(st.sampled_from([None, *FilterReason.__members__]))
        if reason is not None:
            variant["filtered_reason"] = reason
        variants.append(variant)
    for _ in range(draw(st.integers(0, 3)) if variants else 0):
        i = draw(st.integers(0, len(variants) - 1))
        path = draw(st.sampled_from(_VARIANT_KEYS))
        same_kind = _SAME_KIND.get(path[-1], st.nothing()) if path else st.nothing()
        value = copy.deepcopy(draw(st.one_of(same_kind, _JSON_VALUES)))
        if not path:
            variants[i] = value
            continue
        parent = variants[i]
        for key in path[:-1]:
            parent = parent.get(key) if type(parent) is dict else None
        if type(parent) is not dict:
            continue
        if draw(st.booleans()):
            parent[path[-1]] = value
        else:
            parent.pop(path[-1], None)
        v = variants[i]
        if type(v) is dict and draw(st.booleans()):
            try:
                v["similarity"] = 1.0 - v["distance"]
            except (KeyError, OverflowError, TypeError):
                pass
    doc = _variant_doc(0.25)
    doc["variants"] = variants
    return doc


class TestExpansionRowOneKindTest:
    @settings(max_examples=2000, deadline=None)
    @given(_expansion_doc())
    def test_same_row_or_message(self, doc):
        assert _row_outcome(_row_from_doc, doc) == _row_outcome(_old_row_from_doc, doc)

    @pytest.mark.parametrize("doc", [
        _variant_doc(0.25),
        _variant_doc(0.25, filtered_reason="GENDER"),
        _variant_doc(0.25, filtered_reason="NUMERIC"),
        # ints stand for numbers; typed converts them
        _variant_doc(0, similarity=1),
        _variant_doc(1, similarity=0.0),
        _variant_doc(2**1100, similarity=1.0),
        _variant_doc(1.0),
        _variant_doc(1.0, similarity=-0.0),
        _variant_doc(-0.0),
        _variant_doc(math.inf),
        _variant_doc(-math.inf),  # similarity inf is 1 - distance, but not finite
        _variant_doc(math.nan),
        _variant_doc(0.25, similarity=True),
        _variant_doc(None, similarity=0.75),
        _variant_doc(0.25, filtered_reason="COLOUR"),
        _variant_doc(0.25, filtered_reason=None),
        _variant_doc(0.25, filtered_reason=["GENDER"]),
        _variant_doc(0.25, filtered_reason={"GENDER": 1}),
        _variant_doc(0.25, keyword={"market": "US", "text": ["x"], "id": 3}),
        _variant_doc(0.25, keyword={"market": {}, "text": "x", "id": 3}),
        _variant_doc(0.25, keyword={"market": "US", "text": "x", "id": True}),
        _variant_doc(0.25, keyword={"market": "US", "text": "x", "id": 3.0}),
        _variant_doc(0.25, keyword={"market": "US", "text": "x"}),
        _variant_doc(0.25, keyword=["US", "x", 3]),
    ], ids=lambda doc: repr(doc["variants"][0]))
    def test_edge_variants(self, doc):
        assert _row_outcome(_row_from_doc, doc) == _row_outcome(_old_row_from_doc, doc)

    def test_missing_keys(self):
        for key in ["keyword", "similarity", "distance"]:
            doc = _variant_doc(0.25)
            del doc["variants"][0][key]
            assert _row_outcome(_row_from_doc, doc) == _row_outcome(_old_row_from_doc, doc)
        for key in ["market", "text", "id"]:
            doc = _variant_doc(0.25)
            del doc["variants"][0]["keyword"][key]
            assert _row_outcome(_row_from_doc, doc) == _row_outcome(_old_row_from_doc, doc)

    def test_variant_of_another_kind(self):
        for variant in [None, 5, "x", [], ["keyword"]]:
            doc = _variant_doc(0.25)
            doc["variants"] = [variant]
            assert _row_outcome(_row_from_doc, doc) == _row_outcome(_old_row_from_doc, doc)
