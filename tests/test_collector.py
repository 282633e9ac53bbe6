"""The collector policy.

load_runtime pauses cyclic garbage collection for the whole load, after one
collection of what is already garbage, leaves the collector as it found it
and freezes (gc.freeze) each bundle it returns. A frozen object is never
collected as a cycle, so serving must make no cyclic garbage: after one
warm-up call of each path, a collection finds nothing. The /match answer
cache is freed with the bundle it belongs to, by reference counting alone.
"""

import contextlib
import gc
import json
import os
import shutil
import socket
import sys
import threading
import weakref

import pytest

from adexpand import cli as cli_module
from adexpand import snapshot_store
from adexpand.cli import cli_dispatch
from adexpand.errors import ParseError, VersionRegressionError
from adexpand.service import ANSWER_CACHE_BYTES, MAX_CACHED_ANSWER_BYTES, MatchService, make_server
from adexpand.snapshot_store import load_runtime

from conftest import FIXTURES_DIR


@pytest.fixture
def snapshot_copy(chain_dir, tmp_path):
    dst = str(tmp_path / "snapshot")
    shutil.copytree(os.path.join(chain_dir, "snapshot"), dst)
    return dst


@contextlib.contextmanager
def _collector(enabled):
    """The collector switched on or off inside the block, and back as it was
    found after it."""
    found = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if found else gc.disable)()


@pytest.fixture
def collector_off():
    """The collector off for the test: a collection runs only when the test
    asks for one."""
    with _collector(False):
        yield


class _Node:
    pass


def _cycle():
    """A weak reference to an object that only a reference cycle keeps,
    made just after a collection, so none runs before the caller's next
    one unless a load asks for it."""
    gc.collect()
    node = _Node()
    node.self = node
    return weakref.ref(node)


def _set_version(snapshot_dir, version):
    path = os.path.join(snapshot_dir, "meta.json")
    with open(path, encoding="utf-8") as fh:
        meta = json.load(fh)
    meta["version"] = version
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


def _break_campaigns(snapshot_dir):
    with open(os.path.join(snapshot_dir, "campaigns.json"), "w", encoding="utf-8") as fh:
        fh.write("{")


class TestLoadPausesCollector:
    """The collector is off while load_runtime reads every file, and on
    every exit it is as the load found it."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """gc.isenabled() at each file the load parses."""
        seen = []

        def watch(name):
            real = getattr(snapshot_store, name)

            def watched(*args, **kwargs):
                seen.append(gc.isenabled())
                return real(*args, **kwargs)
            monkeypatch.setattr(snapshot_store, name, watched)

        for name in ["parse_json", "load_model", "load_embedding_sets", "load_campaigns",
                     "load_expansions"]:
            watch(name)
        return seen

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_after_a_load(self, snapshot_copy, seen, enabled):
        with _collector(enabled):
            assert load_runtime(snapshot_copy).version == 1
            assert gc.isenabled() is enabled
        # meta, model, market thresholds, embeddings, campaigns, expansions
        assert seen == [False] * 6

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_after_a_parse_error(self, snapshot_copy, seen, enabled):
        _break_campaigns(snapshot_copy)
        with _collector(enabled):
            with pytest.raises(ParseError, match="campaigns.json"):
                load_runtime(snapshot_copy)
            assert gc.isenabled() is enabled
        assert seen == [False] * 5

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_after_a_version_regression(self, snapshot_copy, seen, enabled):
        live = load_runtime(snapshot_copy)
        seen.clear()
        with _collector(enabled):
            with pytest.raises(VersionRegressionError):
                load_runtime(snapshot_copy, previous=live)
            assert gc.isenabled() is enabled
        assert seen == [False]  # meta.json only

    def test_garbage_made_before_is_freed_first(self, snapshot_copy, monkeypatch):
        # the paused collector would otherwise hold it through the load
        freed = []
        real = snapshot_store.parse_json

        def watched(*args, **kwargs):
            freed.append(dead() is None)
            return real(*args, **kwargs)
        monkeypatch.setattr(snapshot_store, "parse_json", watched)
        with _collector(True):
            dead = _cycle()
            load_runtime(snapshot_copy)
        assert freed[0]

    def test_disabled_collector_does_not_run(self, snapshot_copy):
        runs = []

        def callback(phase, info):
            runs.append(phase)
        gc.callbacks.append(callback)
        try:
            with _collector(False):
                load_runtime(snapshot_copy)
        finally:
            gc.callbacks.remove(callback)
        assert runs == []

    def test_overlapping_loads_leave_it_enabled(self, snapshot_copy):
        # a load that finds the collector off, paused by another load,
        # leaves it to that load to switch it back on
        errors = []

        def load():
            try:
                for _ in range(3):
                    load_runtime(snapshot_copy)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        with _collector(True):
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=load) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert gc.isenabled()


class TestServiceFreezesLiveBundle:
    def test_freezes_after_each_load_that_goes_live(self, snapshot_copy, monkeypatch):
        events = []
        real_load = snapshot_store._load_runtime

        def load(*args, **kwargs):
            events.append("load")
            return real_load(*args, **kwargs)
        monkeypatch.setattr(snapshot_store, "_load_runtime", load)
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))

        service = MatchService(snapshot_copy)
        assert events == ["load", "freeze"]
        _set_version(snapshot_copy, 2)
        assert service.refresh() == (1, 2)
        assert events == ["load", "freeze"] * 2
        # a refused and a failed refresh leave version 2 live and freeze nothing
        with pytest.raises(VersionRegressionError):
            service.refresh()
        _set_version(snapshot_copy, 3)
        _break_campaigns(snapshot_copy)
        with pytest.raises(ParseError):
            service.refresh()
        assert events == ["load", "freeze"] * 2 + ["load", "load"]
        assert service.current().version == 2

    def test_garbage_made_before_is_not_frozen(self, snapshot_copy):
        with _collector(True):
            dead = _cycle()
            MatchService(snapshot_copy)
        assert dead() is None


class TestCliMatchRunsNoCollection:
    def test_no_collection_after_the_load(self, chain_dir, tmp_path, monkeypatch):
        """The bundle ``adexpand match`` loads is frozen, so matching starts
        with an empty youngest generation; the output is the pinned one."""
        loaded = []
        real_load = cli_module.load_runtime

        def load(*args, **kwargs):
            bundle = real_load(*args, **kwargs)
            loaded.append(bundle)
            return bundle
        monkeypatch.setattr(cli_module, "load_runtime", load)
        after_load = []

        def callback(phase, info):
            if loaded and phase == "start":
                after_load.append(info["generation"])
        out = tmp_path / "matches.jsonl"
        gc.callbacks.append(callback)
        try:
            with _collector(True):
                assert cli_dispatch([
                    "match", "--snapshot", os.path.join(chain_dir, "snapshot"),
                    "--queries", os.path.join(FIXTURES_DIR, "queries.tsv"), "--out", str(out),
                ]) == 0
        finally:
            gc.callbacks.remove(callback)
        assert len(loaded) == 1
        assert after_load == []
        with open(os.path.join(chain_dir, "matches.jsonl"), "rb") as fh:
            assert out.read_bytes() == fh.read()


def _garbage_after(action):
    """What a collection finds after ``action``, with the collector off
    from the collection before it."""
    gc.collect()
    action()
    return gc.collect()


class TestLoadMakesNoGarbage:
    def test_cold_load(self, snapshot_copy, collector_off):
        load_runtime(snapshot_copy)  # warm-up
        assert _garbage_after(lambda: load_runtime(snapshot_copy)) == 0


def _exchange(port, request):
    """Send ``request`` as is and read the reply until the server closes;
    the reply's status."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    return int(response.split(b" ", 2)[1])


def _post(path, body):
    return b"POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s" % (
        path, len(body), body)


# (request, the status it is answered with)
REQUESTS = {
    "match": (_post(b"/match", b'{"query": "solar led garden lights", "market": "US"}'), 200),
    "expand": (_post(b"/expand", b'{"keyword": "led garden lights", "market": "US"}'), 200),
    "expand-unseen": (_post(b"/expand", b'{"keyword": "solar garden lamps", "market": "US"}'),
                      200),
    "healthz": (b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 200),
    "unknown-path": (b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n", 404),
    "bad-json": (_post(b"/match", b"{not json"), 400),
    "unknown-market": (_post(b"/match", b'{"query": "iphone case", "market": "AU"}'), 404),
    "bad-keyword": (_post(b"/expand", b'{"keyword": " ", "market": "US"}'), 400),
    "refresh-same-version": (_post(b"/refresh", b""), 409),
    "put": (b"PUT /match HTTP/1.1\r\nHost: x\r\n\r\n", 501),
}


@pytest.fixture
def port(snapshot_copy, collector_off):
    service = MatchService(snapshot_copy)
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd.server_address[1]
    httpd.shutdown()
    httpd.server_close()
    thread.join()


class TestServingMakesNoGarbage:
    @pytest.mark.parametrize("name", REQUESTS)
    def test_request(self, port, name):
        request, status = REQUESTS[name]
        assert _exchange(port, request) == status  # warm-up
        found = []
        assert _garbage_after(lambda: found.append(_exchange(port, request))) == 0
        assert found == [status]

    def test_refresh(self, port, snapshot_copy):
        refresh = _post(b"/refresh", b"")
        _set_version(snapshot_copy, 2)
        assert _exchange(port, refresh) == 200  # warm-up
        _set_version(snapshot_copy, 3)
        found = []
        assert _garbage_after(lambda: found.append(_exchange(port, refresh))) == 0
        assert found == [200]

    def test_failed_refresh(self, port, snapshot_copy):
        refresh = _post(b"/refresh", b"")
        _set_version(snapshot_copy, 2)
        _break_campaigns(snapshot_copy)
        assert _exchange(port, refresh) == 500  # warm-up
        found = []
        assert _garbage_after(lambda: found.append(_exchange(port, refresh))) == 0
        assert found == [500]


def _no_match(i):
    """A query that matches nothing, whose entry is just under the cap."""
    return f"n{i} " + "v" * (MAX_CACHED_ANSWER_BYTES - 2_000)


class TestAnswerCacheMakesNoGarbage:
    """A hit, a miss, an eviction and a refresh that replaces a full answer
    cache leave nothing for a collection to find, and the replaced cache is
    freed at the swap with the collector off."""

    @pytest.fixture
    def service(self, snapshot_copy, collector_off):
        return MatchService(snapshot_copy)

    @staticmethod
    def _fill(service):
        """Entries until the cache has evicted some, each asked twice so
        that it is kept; the next query's number."""
        i = 0
        while i * (MAX_CACHED_ANSWER_BYTES - 2_000) <= ANSWER_CACHE_BYTES:
            for _ in range(2):
                service.match(_no_match(i), "US")
            i += 1
        return i

    def test_hit(self, service):
        for _ in range(3):  # a miss, a miss that keeps the answer, a hit
            service.match("solar led garden lights", "US")
        assert _garbage_after(lambda: service.match("solar led garden lights", "US")) == 0
        assert service.health()["answer_cache"]["hits"] == 2

    def test_miss(self, service):
        for _ in range(2):  # warm-up: a first miss and a miss that keeps
            service.match("garden lights", "US")
        # a first miss, remembered by hash, then a miss that keeps its answer
        for entries in (1, 2):
            assert _garbage_after(lambda: service.match("solar led garden lights", "US")) == 0
            stats = service.health()["answer_cache"]
            assert (stats["entries"], stats["hits"]) == (entries, 0)
        assert stats["misses"] == 4

    def test_eviction(self, service):
        i = self._fill(service)
        oldest = next(iter(service._live.answers._bodies))
        service.match(_no_match(i), "US")
        assert oldest in service._live.answers._bodies  # a first ask evicts nothing
        assert _garbage_after(lambda: service.match(_no_match(i), "US")) == 0
        assert oldest not in service._live.answers._bodies
        assert service.health()["answer_cache"]["bytes"] <= ANSWER_CACHE_BYTES

    def test_refresh_replaces_a_full_cache(self, service, snapshot_copy):
        self._fill(service)
        replaced = weakref.ref(service._live.answers)
        _set_version(snapshot_copy, 2)
        freed = []

        def refresh():
            assert service.refresh() == (1, 2)
            freed.append(replaced() is None)
        assert _garbage_after(refresh) == 0
        assert freed == [True]
        assert service.health()["answer_cache"] == {
            "entries": 0, "bytes": 0, "hits": 0, "misses": 0}
