"""The /match answer cache: from its third ask on, a /match is answered with
the bytes the live snapshot gave it, a query asked once takes no room, the
cache is replaced with its snapshot, errors are never kept, and its bytes
never exceed ANSWER_CACHE_BYTES."""

import json
import os
import shutil
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adexpand import service as service_module
from adexpand.matching import match_query, match_record_to_doc
from adexpand.service import (
    ANSWER_CACHE_BYTES,
    ANSWER_CACHE_SEEN,
    MAX_BODY_BYTES,
    MAX_CACHED_ANSWER_BYTES,
    MatchService,
    _ENTRY_OVERHEAD,
    _AnswerCache,
    make_server,
)

from test_refresh_reuse import _apply, _bump_version, _read_queries

# The second content a refresh alternates with the chain's snapshot: new
# residual trees, new cutoffs and one item's price changed.
CONTENT_B = {"model": "alter", "market_thresholds": "alter", "campaigns": "alter"}
QUERIES = [(market, query) for query, market in _read_queries()] + [("AU", "garden lights")]


def _expected(bundle, query, market):
    """The /match body json.dumps writes for ``bundle``."""
    return json.dumps({
        "snapshot_version": bundle.version,
        "matches": [match_record_to_doc(r) for r in match_query(query, market, bundle.snapshot)],
    }).encode("utf-8")


def _post_raw(port, path, body):
    """The status and raw body bytes of one POST."""
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}", data=body)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _match(port, market, query):
    return _post_raw(port, "/match", json.dumps({"query": query, "market": market}).encode())


def _cache(service):
    return service._live.answers


def _size(key, body):
    """What an entry counts: its key tuple, market, query and body objects
    and the OrderedDict's own bytes per entry."""
    market, query = key
    return (sys.getsizeof(key) + sys.getsizeof(market) + sys.getsizeof(query)
            + sys.getsizeof(body) + _ENTRY_OVERHEAD)


def _check_bytes(service):
    """The cache's byte count is the sum of its entries' sizes, within the
    budget, each entry is within the per-entry cap, and the keys asked once
    are within their bound."""
    cache = _cache(service)
    sizes = [_size(key, body) for key, body in cache._bodies.items()]
    stats = cache.stats()
    assert stats["bytes"] == sum(sizes) <= ANSWER_CACHE_BYTES
    assert all(size <= MAX_CACHED_ANSWER_BYTES for size in sizes)
    assert stats["entries"] == len(sizes)
    assert len(cache._seen) <= ANSWER_CACHE_SEEN
    return stats


def _put_twice(cache, key, body):
    """Offer an answer as its second ask does, so that it is kept."""
    for _ in range(2):
        cache.put(key, body)


@pytest.fixture(scope="module")
def contents(chain_dir, tmp_path_factory):
    """Directories of contents A (the chain's snapshot) and B."""
    root = tmp_path_factory.mktemp("contents")
    a, b = str(root / "A"), str(root / "B")
    shutil.copytree(os.path.join(chain_dir, "snapshot"), a)
    shutil.copytree(a, b)
    _apply(b, CONTENT_B)
    return {"A": a, "B": b}


@pytest.fixture
def service(contents, tmp_path):
    served = str(tmp_path / "served")
    shutil.copytree(contents["A"], served)
    return MatchService(served)


@pytest.fixture
def port(service):
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    yield httpd.server_address[1]
    httpd.shutdown()
    httpd.server_close()
    thread.join()


def _publish(content_dir, served, live):
    """Copy a content over the served directory, one version above ``live``."""
    shutil.copytree(content_dir, served, dirs_exist_ok=True)
    _bump_version(served, live)


def test_contents_answer_differently(contents):
    # both at version 1: a refresh that served a replaced answer would show
    a, b = (MatchService(contents[c]).current() for c in "AB")
    assert sum(_expected(a, q, m) != _expected(b, q, m) for m, q in QUERIES if m != "AU") >= 2


OPERATIONS = st.lists(st.one_of(st.sampled_from(QUERIES), st.just("refresh")), max_size=24)


class TestServedEqualsLiveBundle:
    @settings(max_examples=100, deadline=None)
    @given(OPERATIONS)
    def test_any_sequence(self, contents, operations):
        """Each /match body equals json.dumps of match_query on the bundle
        live when it was asked, byte for byte, whether it was cached or
        not: after a /refresh returns, no body of the replaced version is
        served, though the same query was answered before."""
        with tempfile.TemporaryDirectory() as tmp:
            served = os.path.join(tmp, "served")
            shutil.copytree(contents["A"], served)
            service = MatchService(served)
            httpd = make_server(service, port=0)
            thread = threading.Thread(target=httpd.serve_forever,
                                      kwargs={"poll_interval": 0.01}, daemon=True)
            thread.start()
            port = httpd.server_address[1]
            try:
                content = "A"
                for operation in operations:
                    if operation == "refresh":
                        content = "B" if content == "A" else "A"
                        live = service.current()
                        _publish(contents[content], served, live)
                        status, _ = _post_raw(port, "/refresh", b"")
                        assert status == 200
                        assert service.current().version == live.version + 1
                        assert _cache(service).stats()["entries"] == 0
                        continue
                    market, query = operation
                    status, body = _match(port, market, query)
                    if market == "AU":
                        assert status == 404
                    else:
                        assert (status, body) == (200, _expected(service.current(), query, market))
                    _check_bytes(service)
            finally:
                httpd.shutdown()
                httpd.server_close()
                thread.join()


class TestRepeatsAreHits:
    def test_third_request_is_a_hit_with_the_same_bytes(self, service, port):
        """The first ask is remembered by its key's hash, the second keeps
        its answer, and the third is a hit."""
        market, query = QUERIES[0]
        expected = (200, _expected(service.current(), query, market))
        counts = []
        for _ in range(3):
            assert _match(port, market, query) == expected
            stats = _cache(service).stats()
            counts.append((stats["entries"], stats["hits"], stats["misses"]))
        assert counts == [(0, 0, 1), (1, 0, 2), (1, 1, 2)]
        assert not _cache(service)._seen  # the kept key is forgotten there

    def test_key_is_the_exact_query(self, service):
        # every record echoes the query, so texts that tokenize alike still
        # have answers of their own
        market, query = QUERIES[0]
        for text in (query, f" {query}", query.upper(), query, f" {query}"):
            assert service.match(text, market) == _expected(service.current(), text, market)
        assert _check_bytes(service)["entries"] == 2  # the upper-case text was asked once

    def test_hit_runs_no_match(self, service, monkeypatch):
        market, query = QUERIES[0]
        service.match(query, market)
        body = service.match(query, market)

        def no_match(*args):
            raise AssertionError("match_query ran on a hit")
        monkeypatch.setattr(service_module, "match_query", no_match)
        assert service.match(query, market) is body


class TestErrorsAreNotCached:
    @pytest.mark.parametrize("body, status", [
        (b'{"query": "garden lights", "market": "AU"}', 404),
        (b'{"query": "garden lights", "market": 7}', 400),
        (b'{"market": "US"}', 400),
        (b"{not json", 400),
    ], ids=["unknown-market", "market-not-a-string", "no-query", "bad-json"])
    def test_error_thrice_leaves_cache_empty(self, service, port, body, status):
        for _ in range(3):
            assert _post_raw(port, "/match", body)[0] == status
        stats = _cache(service).stats()
        assert (stats["entries"], stats["bytes"], stats["hits"]) == (0, 0, 0)
        assert not _cache(service)._seen  # not even remembered as asked


class TestBounds:
    def test_entry_at_the_cap_is_kept_and_one_byte_over_is_not(self):
        cache = _AnswerCache()
        key = ("US", "q")
        fill = MAX_CACHED_ANSWER_BYTES - _size(key, b"")
        _put_twice(cache, key, b"x" * (fill + 1))
        assert cache.get(key) is None
        assert not cache._seen  # an over-cap answer is not remembered either
        _put_twice(cache, key, b"x" * fill)
        assert cache.get(key) == b"x" * fill
        assert cache.stats()["bytes"] == MAX_CACHED_ANSWER_BYTES

    def test_over_cap_answer_is_served_and_not_cached(self, service):
        # the every-token query padded with unmatched text: each record
        # echoes the query, so its answer is over the cap, while the padding
        # alone is an answer with no matches, under it
        bundle = service.current()
        tokens = sorted({t for groups in bundle.snapshot._token_index["US"].values()
                         for token_set, _ in groups for t in token_set})
        padding = " ".join(f"zz{i}" for i in range(2_000))
        query = " ".join(tokens) + " " + padding
        expected = _expected(bundle, query, "US")
        assert len(expected) > MAX_CACHED_ANSWER_BYTES
        for _ in range(3):
            assert service.match(query, "US") == expected
        assert _cache(service).stats() == {"entries": 0, "bytes": 0, "hits": 0, "misses": 3}
        for _ in range(2):
            assert service.match(padding, "US") == _expected(bundle, padding, "US")
        assert _check_bytes(service)["entries"] == 1

    def test_budget_holds_under_large_queries(self, service):
        """1 MiB queries, every-token queries padded to lengths under and
        over the cap and answers with no match just under it: the bytes
        stay within the budget after every request, the least recently
        used entries go first, and every body is what match_query gives."""
        bundle = service.current()
        tokens = sorted({t for groups in bundle.snapshot._token_index["US"].values()
                         for token_set, _ in groups for t in token_set})
        every = " ".join(tokens)
        near_cap = MAX_CACHED_ANSWER_BYTES - 2_000
        requests = []
        for i in range(100):
            if i % 10 == 0:
                requests.append(f"q{i} " + "y" * (MAX_BODY_BYTES - 8))  # never cached
            requests.append(every + " " + "w" * (i * 200))  # over the cap from i = 50 or so
            requests.append(f"n{i} " + "v" * near_cap)  # no match, just under the cap
        cached, over = [], 0
        for query in requests:
            expected = _expected(bundle, query, "US")
            for _ in range(2):  # the second ask keeps what is under the cap
                assert service.match(query, "US") == expected
                stats = _check_bytes(service)
            if ("US", query) in _cache(service)._bodies:
                cached.append(query)
            else:
                over += 1
        assert over > 10  # 1 MiB queries and every-token answers over the cap
        assert len(cached) * near_cap > 2 * ANSWER_CACHE_BYTES
        assert stats["entries"] < len(cached)  # entries were evicted
        # the most recent entry stays; the oldest went first
        cache = _cache(service)
        assert list(cache._bodies)[-1] == ("US", cached[-1])
        assert ("US", cached[0]) not in cache._bodies

    def test_hit_moves_an_entry_to_most_recent(self):
        cache = _AnswerCache()
        body = b"x" * (MAX_CACHED_ANSWER_BYTES // 2)
        count = ANSWER_CACHE_BYTES // _size(("US", "000"), body)
        for i in range(count - 1):
            _put_twice(cache, ("US", str(i)), body)
        assert cache.get(("US", "0")) == body
        _put_twice(cache, ("US", "new"), body)
        _put_twice(cache, ("US", "newer"), body)
        assert cache.get(("US", "0")) == body  # used recently: kept
        assert cache.get(("US", "1")) is None  # least recently used: evicted
        assert cache.stats()["bytes"] <= ANSWER_CACHE_BYTES


class TestAskedOnce:
    def test_keys_asked_once_evict_nothing(self):
        """A scan of distinct keys, each offered once with answers that
        would fill the budget many times, leaves the kept answer and the
        byte count as they were."""
        cache = _AnswerCache()
        head = ("US", "head")
        _put_twice(cache, head, b"h" * 100)
        before = cache.stats()
        body = b"x" * (MAX_CACHED_ANSWER_BYTES // 2)
        for i in range(4 * ANSWER_CACHE_BYTES // len(body)):
            cache.put(("US", f"tail {i}"), body)
        assert cache.get(head) == b"h" * 100
        assert cache.stats() == {**before, "hits": 1}

    def test_seen_keys_are_bounded(self):
        """Past ANSWER_CACHE_SEEN keys asked once, the remembered hashes are
        dropped: a key asked before the drop needs two asks again."""
        cache = _AnswerCache()
        cache.put(("US", "first"), b"a")
        for i in range(ANSWER_CACHE_SEEN):
            cache.put(("US", f"once {i}"), b"b")
            assert len(cache._seen) <= ANSWER_CACHE_SEEN
        assert cache.stats()["entries"] == 0
        cache.put(("US", "first"), b"a")
        assert cache.get(("US", "first")) is None
        cache.put(("US", "first"), b"a")
        assert cache.get(("US", "first")) == b"a"


class TestConcurrency:
    @pytest.mark.parametrize("delay", [0.0, 0.2], ids=["plain", "slow-match"])
    def test_eight_threads_on_one_key(self, service, monkeypatch, delay):
        """Eight threads ask at once: each gets the same bytes, the entry's
        bytes are counted once, and no count is lost. A slowed match_query
        makes threads miss together and each compute the answer."""
        market, query = QUERIES[0]
        real_match = service_module.match_query

        def slow_match(*args):
            time.sleep(delay)
            return real_match(*args)
        monkeypatch.setattr(service_module, "match_query", slow_match)
        barrier = threading.Barrier(8)
        bodies = []
        lock = threading.Lock()

        def ask():
            barrier.wait()
            body = service.match(query, market)
            with lock:
                bodies.append(body)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=ask) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bodies == [_expected(service.current(), query, market)] * 8
        stats = _check_bytes(service)
        assert stats["entries"] == 1
        assert stats["hits"] + stats["misses"] == 8
        if delay:  # at least two threads computed the one entry
            assert stats["misses"] >= 2

    def test_eight_threads_over_http(self, service, port):
        market, query = QUERIES[1]
        barrier = threading.Barrier(8)
        answers = []

        def ask():
            barrier.wait()
            answers.append(_match(port, market, query))

        threads = [threading.Thread(target=ask) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
        assert answers == [(200, _expected(service.current(), query, market))] * 8
        assert _check_bytes(service)["entries"] == 1
