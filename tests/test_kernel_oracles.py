"""The offline kernels against the code they replaced, written out here.

Each kernel was rewritten for speed with the promise that no output bit
moves: k-means casts its matrix once and sums with ``bincount``,
``assign_cluster`` reads cached centroid directions, the expansion filters
memoise per text, and the embeddings file is parsed by one ``np.loadtxt``
call. Each property below runs the earlier code path as the oracle and asks
for equal results: ``array_equal`` on arrays, the same exception type and
message on failure.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    load_embedding_sets,
    normalize,
    read_tsv,
)
from adexpand.errors import (
    DimensionMismatchError,
    DuplicateKeywordError,
    EmptySetError,
    ParseError,
    ZeroVectorError,
)
from adexpand.expansion import (
    FEMININE_TOKENS,
    MASCULINE_TOKENS,
    GenderClass,
    _units_agree,
    _values_by_unit,
    gender_class,
    numeric_tokens,
    tokenize,
)
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
        assignments=dict(enumerate(labels.tolist())),
        wcss_history=history,
    )


def _clustering_key(model):
    return (model.market, model.cluster_count, model.centroids.tobytes(),
            model.centroids.shape, model.assignments, model.wcss_history)


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
        got = _outcome(kmeans, emb, clusters, seed, max_iter)
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
                           assignments={})
        want = _old_assign_cluster(centroids, v)
        assert assign_cluster(model, v) == want
        # the second call reads the cached directions
        assert assign_cluster(model, v) == want

    def test_directions_are_computed_once_and_read_only(self):
        model = Clustering(market="US", cluster_count=2,
                           centroids=np.array([[3.0, 4.0], [0.0, 2.0]]), assignments={})
        assert model.directions is model.directions
        with pytest.raises(ValueError):
            model.directions[0, 0] = 1.0

    def test_zero_centroid_still_raises(self):
        model = Clustering(market="US", cluster_count=1, centroids=np.zeros((1, 2)),
                           assignments={})
        with pytest.raises(ZeroVectorError):
            assign_cluster(model, np.array([1.0, 0.0], dtype=np.float32))


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


def _old_load_embedding_sets(path, markets=None):
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
        if float(np.linalg.norm(vec)) <= 1e-12:
            raise ParseError(f"{path}:{lineno}: zero vector")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise DimensionMismatchError(f"{path}:{lineno}: dim {vec.size}, expected {dim}")
        if markets is None or row_market in markets:
            by_market.setdefault(row_market, []).append((keyword, vec))
    sets = {}
    for market in by_market if markets is None else markets:
        pairs = by_market.get(market)
        if not pairs:
            raise EmptySetError(f"{path}: no rows for market {market!r}")
        sets[market] = EmbeddingSet.from_pairs(market, pairs)
    return sets


def _sets_key(sets):
    return [(m, s.dim, s.refs, s.matrix.dtype, s.matrix.tobytes()) for m, s in sets.items()]


_good_value = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.integers(-5, 5).map(str),
    st.floats(-10, 10, allow_nan=False).map(lambda x: f"{x:.9g}"),
)
_odd_value = st.sampled_from([
    "1_000", "nan", "NaN", "inf", "-inf", "1e400", "1e-400", "abc", "0x10", ".5", "5.",
    "+1", "１", "1,5", "0", "-0", "1e-200", "#1",
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
    markets = draw(st.sampled_from([None, ["US"], ["UK", "US"], ["FR"]]))
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
    ])
    def test_bulk_failure_reports_the_first_bad_line(self, tmp_path, value, message):
        path = tmp_path / "embeddings.tsv"
        path.write_text(f"US\ta\t1 0\n# note\nUS\tb\t{value}\nUS\ta\t1 0\n", encoding="utf-8")
        with pytest.raises((ParseError, DimensionMismatchError),
                           match=f"{path}:3: {message}"):
            load_embedding_sets(str(path))

    def test_underscored_literals_load_as_before(self, tmp_path):
        path = tmp_path / "embeddings.tsv"
        path.write_text("US\ta\t1_000 0\nUS\tb\t0 2\n", encoding="utf-8")
        got = load_embedding_sets(str(path))["US"]
        assert got.matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]
