"""HTTP endpoints over a snapshot directory: expand, match, refresh, health."""

import json
import os
import re
import shutil
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adexpand.cli import cli_dispatch
from adexpand.expansion import record_to_doc
from adexpand.service import (
    MAX_BODY_BYTES,
    MAX_IDLE_THREADS,
    REQUEST_TIMEOUT_S,
    MatchService,
    _ENTRY_OVERHEAD,
    make_server,
)

from test_snapshot_store import MISTYPED, NO_ANSWER, NON_FINITE, ONE_EACH, UNSERVABLE


def _post(port, path, payload=None, raw=None):
    body = raw if raw is not None else json.dumps(payload or {}).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def _get(port, path):
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


_MATCH_BODY = b'{"query": "solar led garden lights outdoor", "market": "US"}'
# a load time as /healthz gives it
_LOADED_AT = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}\+00:00")


def _live(port):
    """/healthz's status and body without the answer cache's counters: what
    a refused or failed refresh leaves as it was."""
    status, doc = _get(port, "/healthz")
    doc.pop("answer_cache")
    return status, doc


@pytest.fixture
def snapshot_copy(chain_dir, tmp_path):
    dst = str(tmp_path / "snapshot")
    shutil.copytree(os.path.join(chain_dir, "snapshot"), dst)
    return dst


def _threads_since(before):
    return [t for t in threading.enumerate() if t not in before]


@pytest.fixture
def server(snapshot_copy):
    """A served snapshot copy. Once shut down and closed, the server has no
    thread left alive: an idle handler thread is woken and ends."""
    before = set(threading.enumerate())
    service = MatchService(snapshot_copy)
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd, service, snapshot_copy
    httpd.shutdown()
    httpd.server_close()
    deadline = time.monotonic() + 5.0
    for t in _threads_since(before):
        t.join(max(0.0, deadline - time.monotonic()))
    assert _threads_since(before) == []


def _bump_snapshot(snapshot_dir, version, threshold):
    meta_path = os.path.join(snapshot_dir, "meta.json")
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    meta["version"] = version
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    thresholds_path = os.path.join(snapshot_dir, "market_thresholds.json")
    with open(thresholds_path, "w", encoding="utf-8") as fh:
        json.dump({"US": threshold, "UK": threshold}, fh)


class TestEndpoints:
    def test_healthz_reports_version(self, server):
        httpd, _, _ = server
        port = httpd.server_address[1]
        status, doc = _get(port, "/healthz")
        assert status == 200
        assert _LOADED_AT.fullmatch(doc["loaded_at"])
        assert doc == {"status": "ok", "snapshot_version": 1, "markets": ["UK", "US"],
                       "loaded_at": doc["loaded_at"],
                       "answer_cache": {"entries": 0, "bytes": 0, "hits": 0, "misses": 0}}

    def test_healthz_counts_answer_cache(self, server):
        httpd, service, _ = server
        port = httpd.server_address[1]
        query = {"query": "apple iphone 13 case red", "market": "US"}
        # two misses, the second of which keeps the answer, then a hit
        answers = [_post(port, "/match", query) for _ in range(3)]
        assert answers[0] == answers[1] == answers[2]
        _post(port, "/match", {"query": "iphone case", "market": "AU"})  # 404
        body = service.match(query["query"], "US")  # a second hit
        size = (sys.getsizeof(("US", query["query"])) + sys.getsizeof("US")
                + sys.getsizeof(query["query"]) + sys.getsizeof(body) + _ENTRY_OVERHEAD)
        assert _get(port, "/healthz")[1]["answer_cache"] == {
            "entries": 1, "bytes": size, "hits": 2, "misses": 3}

    def test_match_known_market(self, server):
        httpd, _, _ = server
        status, doc = _post(httpd.server_address[1], "/match",
                            {"query": "apple iphone 13 case red", "market": "US"})
        assert status == 200
        assert doc["snapshot_version"] == 1
        assert any(m["item_id"] == 104 for m in doc["matches"])

    def test_match_unknown_market_is_404(self, server):
        httpd, _, _ = server
        status, _ = _post(httpd.server_address[1], "/match",
                          {"query": "iphone case", "market": "AU"})
        assert status == 404

    def test_malformed_body_is_400(self, server):
        httpd, _, _ = server
        status, _ = _post(httpd.server_address[1], "/match", raw=b"{not json")
        assert status == 400
        status, _ = _post(httpd.server_address[1], "/match", {"market": "US"})
        assert status == 400

    # int() takes "+5" and "1_0", which are not a Content-Length (RFC 9112
    # section 6.3)
    @pytest.mark.parametrize("length", [-1, MAX_BODY_BYTES + 1, "+5", "1_0"])
    def test_bad_content_length_is_400_before_reading(self, server, length):
        # no body follows and the socket stays open, so a server that reads
        # before checking the length waits here until the timeout
        httpd, _, _ = server
        port = httpd.server_address[1]
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(
                f"POST /match HTTP/1.1\r\nHost: localhost\r\n"
                f"Content-Length: {length}\r\n\r\n".encode("ascii")
            )
            response = b""
            while chunk := sock.recv(4096):
                response += chunk
        assert response.split(b" ", 2)[1] == b"400"
        assert _get(port, "/healthz")[0] == 200

    @pytest.mark.parametrize("lengths, status", [
        ((len(_MATCH_BODY), 0), 400),
        ((len(_MATCH_BODY), len(_MATCH_BODY)), 200),
    ])
    def test_repeated_content_length_must_agree(self, server, lengths, status):
        """Content-Length headers that differ are refused before a body byte
        is read (none follows then); equal ones give the length."""
        httpd, _, _ = server
        port = httpd.server_address[1]
        headers = "".join(f"Content-Length: {n}\r\n" for n in lengths)
        request = f"POST /match HTTP/1.1\r\nHost: localhost\r\n{headers}\r\n".encode("ascii")
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(request + (_MATCH_BODY if status == 200 else b""))
            response = b""
            while chunk := sock.recv(4096):
                response += chunk
        assert response.split(b" ", 2)[1] == str(status).encode("ascii")
        assert _get(port, "/healthz")[0] == 200

    def test_expand_known_keyword(self, server):
        httpd, _, _ = server
        status, doc = _post(httpd.server_address[1], "/expand",
                            {"keyword": "led garden lights", "market": "US"})
        assert status == 200
        accepted = [v["keyword"]["text"] for v in doc["variants"]
                    if "filtered_reason" not in v]
        assert "garden lighting" in accepted

    def test_expand_unseen_keyword_uses_fallback_embedding(self, server):
        httpd, _, _ = server
        status, doc = _post(httpd.server_address[1], "/expand",
                            {"keyword": "solar powered garden lamps", "market": "US"})
        assert status == 200
        assert doc["origin"]["id"] == -1

    def test_expand_unknown_market_is_404(self, server):
        httpd, _, _ = server
        status, _ = _post(httpd.server_address[1], "/expand",
                          {"keyword": "iphone case", "market": "AU"})
        assert status == 404

    def test_unknown_path_is_404(self, server):
        httpd, _, _ = server
        assert _get(httpd.server_address[1], "/nope")[0] == 404
        assert _post(httpd.server_address[1], "/nope", {})[0] == 404


# meta.json as build-snapshot writes it for version 2 of the fixture snapshot
_META_V2 = {"version": 2, "dim": 64, "k_neighbors": 11, "filters_enabled": True,
            "markets": ["UK", "US"]}


class TestRefresh:
    def test_refresh_swaps_versions(self, server):
        httpd, _, snapshot_dir = server
        port = httpd.server_address[1]
        query = {"query": "solar led garden lights outdoor", "market": "US"}
        assert _post(port, "/match", query)[1]["snapshot_version"] == 1
        _, before = _get(port, "/healthz")
        _bump_snapshot(snapshot_dir, 2, -100.0)
        status, doc = _post(port, "/refresh")
        assert status == 200
        assert doc == {"old_version": 1, "new_version": 2}
        status, doc = _get(port, "/healthz")
        assert doc["snapshot_version"] == 2
        # the new version goes live later, with an empty answer cache
        assert doc["loaded_at"] > before["loaded_at"]
        assert doc["answer_cache"] == {"entries": 0, "bytes": 0, "hits": 0, "misses": 0}
        assert _post(port, "/match", query)[1]["snapshot_version"] == 2

    @pytest.mark.parametrize("meta", [
        {"dim": 8}, {"version": "2", "dim": 8},
        # the filters always run: a snapshot that asks for none is refused
        {**_META_V2, "filters_enabled": False},
        # every key build-snapshot writes is required, and markets is not empty
        *({k: v for k, v in _META_V2.items() if k != key}
          for key in ("k_neighbors", "filters_enabled", "markets")),
        {**_META_V2, "markets": []},
    ])
    def test_refresh_with_bad_meta_is_500_and_keeps_serving(self, server, meta):
        httpd, _, snapshot_dir = server
        port = httpd.server_address[1]
        live = _live(port)
        with open(os.path.join(snapshot_dir, "meta.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        status, doc = _post(port, "/refresh")
        assert status == 500
        assert "meta.json" in doc["error"]
        assert _live(port) == live
        status, doc = _post(port, "/match",
                            {"query": "solar led garden lights outdoor", "market": "US"})
        assert status == 200
        assert doc["snapshot_version"] == 1

    def test_refresh_with_bad_campaigns_is_500_and_keeps_serving(self, server):
        httpd, _, snapshot_dir = server
        port = httpd.server_address[1]
        live = _live(port)
        _bump_snapshot(snapshot_dir, 2, -100.0)
        path = os.path.join(snapshot_dir, "campaigns.json")
        with open(path, encoding="utf-8") as fh:
            campaigns = json.load(fh)
        del campaigns["campaigns"][0]["ad_groups"][0]["items"][0]["price"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(campaigns, fh)
        status, doc = _post(port, "/refresh")
        assert status == 500
        assert "campaigns.json" in doc["error"] and "'price'" in doc["error"]
        assert not doc["error"].startswith("internal error")
        assert _live(port) == live
        status, doc = _post(port, "/match",
                            {"query": "solar led garden lights outdoor", "market": "US"})
        assert status == 200
        assert doc["snapshot_version"] == 1

    @pytest.mark.parametrize("name, damage, named", [
        *UNSERVABLE,
        # the file, its damage and what the error names, without the loader
        *(pytest.param(case.values[0], *case.values[2:], id=case.id)
          for case in [*NON_FINITE, *ONE_EACH, *MISTYPED, *NO_ANSWER]),
    ])
    def test_refresh_to_unservable_snapshot_is_500_and_keeps_serving(
        self, server, name, damage, named
    ):
        httpd, _, snapshot_dir = server
        port = httpd.server_address[1]
        live = _live(port)
        _bump_snapshot(snapshot_dir, 2, -100.0)
        damage(os.path.join(snapshot_dir, name))
        status, doc = _post(port, "/refresh")
        assert status == 500
        assert name in doc["error"] and named in doc["error"]
        assert _live(port) == live
        status, doc = _post(port, "/expand", {"keyword": "garden lights", "market": "US"})
        assert status == 200
        status, doc = _post(port, "/match",
                            {"query": "solar led garden lights outdoor", "market": "US"})
        assert status == 200
        assert doc["snapshot_version"] == 1

    def test_refresh_same_version_is_conflict(self, server):
        # a directory at the live version, then at a lower one: each is
        # refused, and version 1 keeps serving though the refused directory
        # would keep every match at threshold -100
        httpd, _, snapshot_dir = server
        port = httpd.server_address[1]
        query = {"query": "apple iphone 13 case red", "market": "US"}
        served = _post(port, "/match", query)
        assert _post(port, "/match", query) == served  # kept from the second ask
        live = _live(port)
        for hits, version in enumerate((1, 0), start=1):
            _bump_snapshot(snapshot_dir, version, -100.0)
            status, doc = _post(port, "/refresh")
            assert status == 409
            assert doc == {"error": f"version {version} does not exceed 1"}
            assert _live(port) == live
            assert _post(port, "/match", query) == served
            # the live version keeps its answer cache
            assert _get(port, "/healthz")[1]["answer_cache"]["hits"] == hits

    def test_refresh_during_match_stream_no_mixed_batches(self, server):
        # Every version writes its own sentinel threshold, so a mixed batch
        # would contain two different thresholds (or disagree with the
        # reported snapshot_version).
        httpd, _, snapshot_dir = server
        port = httpd.server_address[1]
        errors = []
        stop = threading.Event()

        def tag_of(threshold):
            return int(-100.0 - threshold) + 1  # threshold = -100 - (v - 1)

        def reader():
            last = 0
            while not stop.is_set():
                status, doc = _post(port, "/match",
                                    {"query": "solar led garden lights outdoor",
                                     "market": "US"})
                if status != 200:
                    errors.append(f"status {status}")
                    continue
                version = doc["snapshot_version"]
                if version < last:
                    errors.append("version went backwards")
                last = version
                thresholds = {m["threshold"] for m in doc["matches"]}
                if len(thresholds) > 1:
                    errors.append(f"mixed thresholds {thresholds}")
                elif thresholds and version > 1 and tag_of(thresholds.pop()) != version:
                    errors.append("threshold tag does not match version")

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for version in range(2, 12):
            _bump_snapshot(snapshot_dir, version, -100.0 - (version - 1))
            status, _ = _post(port, "/refresh")
            assert status == 200
        stop.set()
        for t in threads:
            t.join()
        assert errors == []


def _raw_exchange(port, request):
    """Send ``request`` as is and read the reply until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    return response


# Requests the stdlib answers itself, before a do_* handler runs: request
# bytes, status, and whether the reply has a status line. The stdlib sends
# none on a request line it reads as HTTP/0.9 (one word, or a version it
# cannot use), so that reply is the JSON body alone.
STDLIB_ERRORS = {
    "PUT": (b"PUT /match HTTP/1.1\r\nHost: x\r\n\r\n", 501, True),
    "quoted-method": (b'P"UT\\ /match HTTP/1.1\r\n\r\n', 501, True),
    "HEAD": (b"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 501, True),
    "70kB-line": (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414, True),
    "101-headers": (b"GET /healthz HTTP/1.1\r\n" + b"X: y\r\n" * 101 + b"\r\n", 431, True),
    "HTTP/9.9": (b"GET /healthz HTTP/9.9\r\n\r\n", 505, False),
    "one-word": (b"GARBAGE\r\n\r\n", 400, False),
    "quoted-version": (b'GET /"\\ H"T\\TP\r\n\r\n', 400, False),
}


_HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
_MATCH = (b"POST /match HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
          % (len(_MATCH_BODY), _MATCH_BODY))


def _status(response):
    return int(response.split(b" ", 2)[1])


class TestHandlerThreads:
    """Each connection gets a thread of its own; a thread that finishes an
    exchange waits for the next connection, up to MAX_IDLE_THREADS of them."""

    def test_sequential_requests_start_no_thread(self, server, monkeypatch):
        httpd, _, _ = server
        port = httpd.server_address[1]
        assert _status(_raw_exchange(port, _HEALTHZ)) == 200  # starts the one thread
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        for i in range(50):
            # _raw_exchange returns once the server closes the connection,
            # and the thread counts itself idle before it closes
            assert _status(_raw_exchange(port, _MATCH if i % 2 else _HEALTHZ)) == 200
        assert started == []

    def test_concurrent_clients_all_answered(self, server):
        """16 clients at once, with threads switched as often as the
        interpreter allows: a lost update of the idle count would hand a
        connection to no thread (a client times out), or leave a waiting
        thread unwoken by server_close (the fixture's check fails)."""
        httpd, _, _ = server
        port = httpd.server_address[1]
        statuses = []

        def client():
            for i in range(25):
                statuses.append(_status(_raw_exchange(port, _MATCH if i % 5 == 0 else _HEALTHZ)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=client) for _ in range(16)]
            for t in clients:
                t.start()
            for t in clients:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in clients)
        assert statuses == [200] * 16 * 25

    def test_stalled_connections_leave_healthz_answering(self, server):
        httpd, _, _ = server
        port = httpd.server_address[1]
        before = set(threading.enumerate())
        stalled = [socket.create_connection(("127.0.0.1", port), timeout=5)
                   for _ in range(MAX_IDLE_THREADS + 2)]
        try:
            started = time.monotonic()
            assert _get(port, "/healthz")[0] == 200
            assert time.monotonic() - started < REQUEST_TIMEOUT_S / 5
        finally:
            for sock in stalled:
                sock.close()
        # each stalled thread reads EOF and ends its exchange; all but
        # MAX_IDLE_THREADS of the threads then end
        deadline = time.monotonic() + 5.0
        while len(_threads_since(before)) > MAX_IDLE_THREADS and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(_threads_since(before)) == MAX_IDLE_THREADS


class TestStdlibErrorsAnswerJson:
    @pytest.mark.parametrize("name", STDLIB_ERRORS)
    def test_reply_is_json(self, server, name):
        request, status, has_status_line = STDLIB_ERRORS[name]
        httpd, _, _ = server
        port = httpd.server_address[1]
        response = _raw_exchange(port, request)
        if has_status_line:
            head, body = response.split(b"\r\n\r\n", 1)
            status_line, *header_lines = head.decode("iso-8859-1").split("\r\n")
            assert status_line.split(" ", 2)[1] == str(status)
            headers = dict(line.split(": ", 1) for line in header_lines)
            assert headers["Content-Type"] == "application/json"
            if request.startswith(b"HEAD "):
                assert body == b""  # a reply to HEAD carries headers only
                return
            assert int(headers["Content-Length"]) == len(body)
        else:
            body = response
        assert set(json.loads(body.decode("utf-8"))) == {"error"}
        assert _get(port, "/healthz")[0] == 200


class TestStalledBody:
    def test_short_body_is_400_and_closed(self, server, monkeypatch):
        """A body shorter than its Content-Length times out on the handler's
        socket: the client gets a 400 and a closed connection."""
        httpd, _, _ = server
        monkeypatch.setattr(httpd.RequestHandlerClass, "timeout", 0.2)
        port = httpd.server_address[1]
        request = (b"POST /match HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n"
                   b'{"market": "US", "query": "garden')
        response = _raw_exchange(port, request)  # returns once the server closes
        head, body = response.split(b"\r\n\r\n", 1)
        assert head.split(b" ", 2)[1] == b"400"
        assert json.loads(body.decode("utf-8")) == {"error": "timed out reading a 100-byte body"}
        assert _get(port, "/healthz")[0] == 200


_METHODS = [b"GET", b"POST", b"HEAD", b"PUT", b"post", b"GET\x00"]
_PATHS = [b"/match", b"/expand", b"/healthz", b"/refresh", b"/", b"/match?q=1", b"*", b"/\xff"]
_VERSIONS = [b"HTTP/1.1", b"HTTP/1.0", b"HTTP/0.9", b"HTTP/2.0", b"HTTP/1.1 x", b"http/1.1"]
_LENGTHS = [b"", b"-1", b"0", b"5", b"40", b"1000", b"abc", b"1e3", b" 7 ", b"+5", b"5, 5",
            b"99999999999999999999999", str(MAX_BODY_BYTES + 1).encode()]
_HEADERS = [b"Host: x", b"Transfer-Encoding: chunked", b"Expect: 100-continue",
            b"Connection: keep-alive", b"Connection: close", b"Content-Type: text/plain",
            b"X", b": no name", b" folded", b"X-\xff: \xfe"]
_BODIES = [b'{"query": "solar led garden lights outdoor", "market": "US"}',
           b'{"keyword": "garden lights", "market": "US"}', b'{"market": "US"}',
           b'{"query": 5, "market": "AU"}', b"[]", b"{", b"\xff\xfe", b""]


@st.composite
def _raw_requests(draw):
    """A request line, headers and a body, each well-formed, odd or
    arbitrary bytes; Content-Length values that lie; the whole cut short at
    any byte."""
    line = draw(st.one_of(
        st.tuples(*(st.sampled_from(parts) for parts in (_METHODS, _PATHS, _VERSIONS)))
        .map(b" ".join),
        st.binary(max_size=40),
    ))
    headers = draw(st.lists(st.one_of(
        st.sampled_from(_LENGTHS).map(lambda value: b"Content-Length: " + value),
        st.sampled_from(_HEADERS),
        st.binary(max_size=30),
    ), max_size=4))
    body = draw(st.one_of(st.sampled_from(_BODIES), st.binary(max_size=60)))
    request = line + b"\r\n" + b"".join(h + b"\r\n" for h in headers) + b"\r\n" + body
    return request[:draw(st.integers(0, len(request)))] if draw(st.booleans()) else request


def _check_replies(response, request):
    """Each reply is a status line and headers, then the JSON object its
    Content-Length gives, or an interim 1xx reply; a HEAD request's reply
    has no body. A last reply with no status line is the JSON body the
    stdlib sends alone to a request line it reads as HTTP/0.9."""
    while response:
        if not response.startswith(b"HTTP/1."):
            assert isinstance(json.loads(response.decode("utf-8")), dict)
            return
        head, ended, response = response.partition(b"\r\n\r\n")
        assert ended, head
        status_line, *header_lines = head.decode("iso-8859-1").split("\r\n")
        if status_line.split(" ", 2)[1].startswith("1"):
            continue
        headers = dict(line.split(": ", 1) for line in header_lines)
        assert headers["Content-Type"] == "application/json"
        length = int(headers["Content-Length"])
        if not response and b"HEAD" in request:
            return
        body, response = response[:length], response[length:]
        assert isinstance(json.loads(body.decode("utf-8")), dict)


class TestHostileRawRequests:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=_raw_requests(), half_close=st.booleans())
    def test_answered_or_closed(self, server, monkeypatch, raw, half_close):
        """Whatever bytes arrive, the connection ends in JSON replies or in a
        close with none, and the server goes on answering; the fixture then
        finds no handler thread left alive. A client that stops sending
        without closing has its exchange ended by the handler's read
        timeout."""
        httpd, _, _ = server
        monkeypatch.setattr(httpd.RequestHandlerClass, "timeout", 0.1)
        port = httpd.server_address[1]
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(raw)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        _check_replies(response, raw)
        assert _raw_exchange(port, _HEALTHZ).startswith(b"HTTP/1.0 200 ")


class TestUnexpectedErrors:
    def test_handler_error_is_500_and_server_lives(self, server, monkeypatch, capsys):
        httpd, _, _ = server
        port = httpd.server_address[1]

        def broken_match(self, query, market):
            raise RuntimeError("scoring blew up")

        monkeypatch.setattr(MatchService, "match", broken_match)
        status, doc = _post(port, "/match", {"query": "garden lights", "market": "US"})
        assert status == 500
        assert "RuntimeError" in doc["error"]
        status, doc = _get(port, "/healthz")
        assert (status, doc["snapshot_version"]) == (200, 1)
        assert "RuntimeError: scoring blew up" in capsys.readouterr().err


class TestOfflineExpandEqualsServed:
    """``adexpand expand --keyword`` and /expand share one rule for a keyword
    given as text, so on the same files they print the same record. The text
    is stripped first, as keyword files are, so padding changes nothing."""

    @pytest.mark.parametrize("keyword, seen", [
        ("led garden lights", True),  # in the US set: its stored vector and id
        ("garden light fixtures", False),  # unseen: embedded on the fly, id -1
        (" led garden lights", True),
        ("led garden lights\n", True),
        ("\tgarden light fixtures  ", False),
    ])
    def test_stdout_equals_expand_body(self, server, keyword, seen, capsys):
        httpd, _, snapshot_dir = server
        port = httpd.server_address[1]
        status, body = _post(port, "/expand", {"keyword": keyword, "market": "US"})
        assert status == 200
        assert (body["origin"]["id"] >= 0) == seen
        assert _post(port, "/expand", {"keyword": keyword.strip(), "market": "US"}) == (200, body)
        with open(os.path.join(snapshot_dir, "meta.json"), encoding="utf-8") as fh:
            meta = json.load(fh)
        assert cli_dispatch([
            "expand",
            "--embeddings", os.path.join(snapshot_dir, "embeddings.tsv"),
            "--market", "US",
            "--clustering", os.path.join(snapshot_dir, "clustering_US.json"),
            "--thresholds", os.path.join(snapshot_dir, "thresholds_US.jsonl"),
            "--k-neighbors", str(meta["k_neighbors"]),
            "--keyword", keyword,
        ]) == 0
        assert capsys.readouterr().out == json.dumps(body, sort_keys=True) + "\n"


class TestOneFilterPolicy:
    def test_served_accepted_variants_equal_offline(self, snapshot_copy):
        """/expand of a stored keyword accepts the variants the offline
        expand wrote for it, the ones the match index serves."""
        service = MatchService(snapshot_copy)
        with open(os.path.join(snapshot_copy, "expansions.jsonl"), encoding="utf-8") as fh:
            offline = [json.loads(line) for line in fh]
        contexts = service.current().contexts.values()
        assert len(offline) == sum(len(context.embedding_set) for context in contexts)

        def accepted(doc):
            return [v["keyword"] for v in doc["variants"] if "filtered_reason" not in v]

        for doc in offline:
            origin = doc["origin"]
            served = record_to_doc(service.expand(origin["text"], origin["market"]))
            assert served["origin"] == origin
            assert accepted(served) == accepted(doc), origin
