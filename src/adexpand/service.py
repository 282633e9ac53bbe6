"""HTTP+JSON serving layer over the current snapshot.

Endpoints: POST /expand, POST /match, POST /refresh, GET /healthz. A request
reads the live snapshot reference once; /refresh is the only writer and
replaces it under one lock. A repeated /match is answered from the live
snapshot's answer cache, which is replaced with the snapshot (see
_AnswerCache). Each connection is answered on a thread of its own, reused
across connections (see _ReusingHTTPServer).
"""

from __future__ import annotations

import json
import queue
import sys
import threading
import traceback
from collections import OrderedDict
from datetime import datetime, timezone
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import NamedTuple

from .errors import AdexpandError, UnknownMarketError, VersionRegressionError
from .expansion import ExpansionRecord, expand_text, record_to_doc
from .matching import match_query, match_record_to_doc
from .snapshot_store import RuntimeBundle, load_runtime


# Largest request body read; a request carries one keyword or query, so
# anything near this size is not a real request.
MAX_BODY_BYTES = 1 << 20
# Most bytes the /match answer cache of one snapshot holds, and most bytes of
# one entry (its key, its body and its slot): a larger answer is computed on
# every request. An answer is kept from the second time its key is asked; up
# to ANSWER_CACHE_SEEN keys asked once are remembered by hash, outside the
# byte budget (about 0.3 MB at most, tracemalloc on CPython 3.11).
ANSWER_CACHE_BYTES = 4 << 20
MAX_CACHED_ANSWER_BYTES = 64 << 10
ANSWER_CACHE_SEEN = 4096
# Longest wait, in seconds, on one read from or write to a client: a request
# that stalls this long ends its exchange instead of holding a thread.
REQUEST_TIMEOUT_S = 10.0
# Most handler threads kept waiting for a connection: a thread that finishes
# an exchange while this many wait ends instead.
MAX_IDLE_THREADS = 8
# Handed to an idle thread in place of a connection: end.
_STOP = None


class _AnswerCache:
    """The /match bodies of one snapshot, keyed by (market, query), least
    recently used first and bounded in bytes.

    A body is kept the second time its key is put, not the first (the
    "cache on second hit" rule of content caches): a query asked only once
    takes no room and evicts no answer that repeats.
    ``_seen`` holds the hashes of keys put once, and is emptied when it
    reaches ANSWER_CACHE_SEEN; two keys of one hash only admit each other
    early. An entry's size is that of its key tuple, market, query and body
    objects (sys.getsizeof) plus _ENTRY_OVERHEAD. An entry over
    MAX_CACHED_ANSWER_BYTES is never kept, and the least recently used
    entries are dropped while the total exceeds ANSWER_CACHE_BYTES. Two
    threads that miss on one key both compute it; its bytes are counted
    once. ``misses`` counts every lookup that found nothing, errors
    included.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._bodies: OrderedDict[tuple[str, str], bytes] = OrderedDict()
        self._seen: set[int] = set()
        self._bytes = 0
        self._hits = 0
        self._misses = 0

    def get(self, key: tuple[str, str]) -> bytes | None:
        with self._lock:
            body = self._bodies.get(key)
            if body is None:
                self._misses += 1
            else:
                self._hits += 1
                self._bodies.move_to_end(key)
            return body

    def put(self, key: tuple[str, str], body: bytes) -> None:
        size = _entry_size(key, body)
        if size > MAX_CACHED_ANSWER_BYTES:
            return
        with self._lock:
            if key in self._bodies:
                return
            seen = hash(key)
            if seen not in self._seen:
                if len(self._seen) >= ANSWER_CACHE_SEEN:
                    self._seen.clear()
                self._seen.add(seen)
                return
            self._seen.discard(seen)
            self._bodies[key] = body
            self._bytes += size
            while self._bytes > ANSWER_CACHE_BYTES:
                self._bytes -= _entry_size(*self._bodies.popitem(last=False))

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"entries": len(self._bodies), "bytes": self._bytes,
                    "hits": self._hits, "misses": self._misses}


# Bytes an OrderedDict spends per entry beyond its key and value: the dict
# slot and the ordering node. CPython 3.11 measured at most 112 (tracemalloc,
# 32 to 6,000 entries, just after the table doubles), rounded up.
_ENTRY_OVERHEAD = 128


def _entry_size(key: tuple[str, str], body: bytes) -> int:
    return (sys.getsizeof(key) + sys.getsizeof(key[0]) + sys.getsizeof(key[1])
            + sys.getsizeof(body) + _ENTRY_OVERHEAD)


class _Live(NamedTuple):
    """What a request reads, in one reference: the live bundle, its answer
    cache and when it went live (ISO 8601, UTC, to the millisecond)."""

    bundle: RuntimeBundle
    answers: _AnswerCache
    loaded_at: str


def _go_live(bundle: RuntimeBundle) -> _Live:
    loaded_at = datetime.now(timezone.utc).isoformat(timespec="milliseconds")
    return _Live(bundle, _AnswerCache(), loaded_at)


class MatchService:
    """The live snapshot of one directory, loaded when the service is made,
    plus the expand/match operations the API exposes.

    A bundle and its answer cache go live together and are replaced
    together, so no answer of a replaced version is served once refresh
    returns, and reference counting frees the replaced cache with its bundle.
    load_runtime freezes (gc.freeze) each bundle it loads, so a cycle inside
    one would never be collected.
    """

    def __init__(self, snapshot_dir: str) -> None:
        self.snapshot_dir = snapshot_dir
        self._refresh_lock = threading.Lock()
        self._live = _go_live(load_runtime(snapshot_dir))

    def current(self) -> RuntimeBundle:
        return self._live.bundle

    def refresh(self) -> tuple[int, int]:
        """Reload the snapshot directory and swap it in atomically, with an
        empty answer cache; returns the old and new versions.

        The load shares every part of the live bundle whose files have the
        same bytes, and refuses a version that does not exceed the live one
        (see snapshot_store). A failed or refused load leaves the live bundle
        and its cache serving.
        """
        with self._refresh_lock:
            old = self._live.bundle
            self._live = _go_live(load_runtime(self.snapshot_dir, previous=old))
            return old.version, self._live.bundle.version

    def match(self, query: str, market: str) -> bytes:
        """The /match body for ``query`` in ``market`` under the live
        snapshot: the cached bytes of a repeated request, or else json.dumps
        of match_query's records, offered to the cache (which keeps them
        from the second offer of the key on). An error is raised,
        never cached."""
        bundle, answers, _ = self._live
        key = (market, query)
        body = answers.get(key)
        if body is None:
            records = match_query(query, market, bundle.snapshot)
            body = json.dumps({
                "snapshot_version": bundle.version,
                "matches": [match_record_to_doc(r) for r in records],
            }).encode("utf-8")
            answers.put(key, body)
        return body

    def expand(self, keyword: str, market: str) -> ExpansionRecord:
        """Expand a possibly unseen keyword using the current snapshot.

        Ingested keywords reuse their stored vector; new ones are embedded on
        the fly with the fallback embedder (see expand_text).
        """
        bundle = self.current()
        context = bundle.contexts.get(market)
        if context is None:
            raise UnknownMarketError(f"unknown market {market!r}")
        return expand_text(context, keyword, bundle.k_neighbors)

    def health(self) -> dict:
        """The /healthz body: the live version, its markets, when it went
        live and its answer cache's counters."""
        bundle, answers, loaded_at = self._live
        return {
            "status": "ok",
            "snapshot_version": bundle.version,
            "markets": list(bundle.contexts),
            "loaded_at": loaded_at,
            "answer_cache": answers.stats(),
        }


class _Handler(BaseHTTPRequestHandler):
    service: MatchService  # set by make_server
    timeout = REQUEST_TIMEOUT_S  # applied to the socket by StreamRequestHandler

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging is the caller's concern, not the test suite's

    def _send(self, status: int, payload) -> None:
        self._send_body(status, json.dumps(payload).encode("utf-8"))

    def _send_body(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":  # a HEAD reply has headers only
            self.wfile.write(body)

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        """The stdlib's own error replies (unsupported method, over-long or
        malformed request line, bad headers) in JSON like every other answer;
        json.dumps escapes whatever request text ``message`` quotes."""
        self.close_connection = True
        self._send(code, {"error": message or HTTPStatus(code).phrase})

    def _read_json(self) -> dict | None:
        """The body as a JSON object, or None once a 400 has been sent.

        The length is checked before any byte is read: a negative one would
        make rfile.read wait for EOF and hold this thread. A body shorter
        than its length times out, and the connection is closed. As RFC 9112
        section 6.3 reads it, the length is ASCII digits, in one header or in
        several that agree; int() would also take "+5" or "1_0".
        """
        values = {v.strip(" \t") for v in self.headers.get_all("Content-Length", ["0"])}
        value = values.pop() if len(values) == 1 else ""
        try:
            length = int(value) if value.isascii() and value.isdigit() else -1
        except ValueError:  # more digits than int() converts
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self._send(400, {"error": "Content-Length must be one run of digits,"
                                      f" in [0, {MAX_BODY_BYTES}]"})
            return None
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            self.close_connection = True
            self._send(400, {"error": f"timed out reading a {length}-byte body"})
            return None
        try:
            doc = json.loads(body.decode("utf-8"))
        except ValueError:
            doc = None
        if not isinstance(doc, dict):
            self._send(400, {"error": "malformed JSON body"})
            return None
        return doc

    def do_GET(self) -> None:  # noqa: N802
        self._answer(self._get)

    def do_POST(self) -> None:  # noqa: N802
        self._answer(self._post)

    def _answer(self, handle) -> None:
        """Run a handler; an error it does not map itself answers 500."""
        try:
            handle()
        except Exception as exc:  # noqa: BLE001 - the connection must get an answer
            traceback.print_exc(file=sys.stderr)
            self._send(500, {"error": f"internal error: {type(exc).__name__}: {exc}"})

    def _get(self) -> None:
        if self.path != "/healthz":
            self._send(404, {"error": "not found"})
            return
        self._send(200, self.service.health())

    def _post(self) -> None:
        if self.path == "/refresh":
            try:
                old, new = self.service.refresh()
            except VersionRegressionError as exc:
                self._send(409, {"error": str(exc)})
            except AdexpandError as exc:
                self._send(500, {"error": str(exc)})
            else:
                self._send(200, {"old_version": old, "new_version": new})
            return

        if self.path not in ("/expand", "/match"):
            self._send(404, {"error": "not found"})
            return
        doc = self._read_json()
        if doc is None:
            return
        market = doc.get("market")
        if not isinstance(market, str):
            self._send(400, {"error": "missing or invalid 'market'"})
            return
        try:
            if self.path == "/expand":
                keyword = doc.get("keyword")
                if not isinstance(keyword, str) or not keyword.strip():
                    self._send(400, {"error": "missing or invalid 'keyword'"})
                    return
                record = self.service.expand(keyword, market)
                self._send(200, record_to_doc(record))
            else:
                query = doc.get("query")
                if not isinstance(query, str):
                    self._send(400, {"error": "missing or invalid 'query'"})
                    return
                self._send_body(200, self.service.match(query, market))
        except UnknownMarketError as exc:
            self._send(404, {"error": str(exc)})
        except AdexpandError as exc:
            self._send(400, {"error": str(exc)})


class _ReusingHTTPServer(HTTPServer):
    """An HTTPServer that answers each connection on a daemon thread of its
    own, as ThreadingHTTPServer does, but reuses the threads.

    A thread that finishes an exchange counts itself idle and waits on the
    hand-off queue, unless MAX_IDLE_THREADS already wait; then it ends.
    process_request hands a connection to an idle thread if there is one and
    starts a new thread only when there is none, so any number of
    connections are answered at once, and a stalled client holds only its
    own thread, for up to REQUEST_TIMEOUT_S per read or write. server_close
    wakes every idle thread and ends it.
    """

    def __init__(self, server_address, handler_class) -> None:
        super().__init__(server_address, handler_class)
        self._handoff = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._idle = 0  # threads waiting on the hand-off queue, or about to
        self._closed = False

    def process_request(self, request, client_address) -> None:
        with self._lock:
            handed = self._idle > 0
            if handed:
                self._idle -= 1
        if handed:
            self._handoff.put((request, client_address))
        else:
            threading.Thread(target=self._answer_connections, args=(request, client_address),
                             daemon=True).start()

    def _answer_connections(self, request, client_address) -> None:
        while True:
            try:
                self.finish_request(request, client_address)
            except Exception:  # noqa: BLE001 - as socketserver's own threads do
                self.handle_error(request, client_address)
            # idle before the connection closes: a client that waits for the
            # close finds this thread ready for its next connection
            with self._lock:
                stay = not self._closed and self._idle < MAX_IDLE_THREADS
                if stay:
                    self._idle += 1
            self.shutdown_request(request)
            if not stay:
                return
            handed = self._handoff.get()
            if handed is _STOP:
                return
            request, client_address = handed

    def server_close(self) -> None:
        super().server_close()
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, 0
        for _ in range(idle):
            self._handoff.put(_STOP)


def make_server(service: MatchService, port: int = 0) -> HTTPServer:
    """The threaded HTTP server bound to localhost; port 0 picks a free
    port."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return _ReusingHTTPServer(("127.0.0.1", port), handler)


def serve(snapshot_dir: str, port: int) -> None:
    """Blocking entry point used by the CLI."""
    service = MatchService(snapshot_dir)
    server = make_server(service, port)
    host, bound_port = server.server_address[0], server.server_address[1]
    print(f"serving on http://{host}:{bound_port} (snapshot version {service.current().version})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
