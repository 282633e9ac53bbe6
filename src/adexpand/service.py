"""HTTP+JSON serving layer over the current snapshot.

Endpoints: POST /expand, POST /match, POST /refresh, GET /healthz. A request
reads the live snapshot reference once; /refresh is the only writer and
replaces it under one lock.
"""

from __future__ import annotations

import json
import sys
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .errors import AdexpandError, UnknownMarketError, VersionRegressionError
from .expansion import ExpansionRecord, expand_text, record_to_doc
from .matching import MatchRecord, match_query, match_record_to_doc
from .snapshot_store import RuntimeBundle, load_runtime


# Largest request body read; a request carries one keyword or query, so
# anything near this size is not a real request.
MAX_BODY_BYTES = 1 << 20


class MatchService:
    """The live snapshot of one directory, loaded when the service is made,
    plus the expand/match operations the API exposes."""

    def __init__(self, snapshot_dir: str) -> None:
        self.snapshot_dir = snapshot_dir
        self._refresh_lock = threading.Lock()
        self._bundle = load_runtime(snapshot_dir)

    def current(self) -> RuntimeBundle:
        return self._bundle

    def refresh(self) -> tuple[int, int]:
        """Reload the snapshot directory and swap it in atomically; returns
        the old and new versions.

        The load shares every part of the live bundle whose files have the
        same bytes (see snapshot_store). A failed load, or one whose version
        does not exceed the live one, leaves the live bundle serving.
        """
        with self._refresh_lock:
            old = self._bundle
            bundle = load_runtime(self.snapshot_dir, previous=old)
            if bundle.version <= old.version:
                raise VersionRegressionError(
                    f"version {bundle.version} does not exceed {old.version}"
                )
            self._bundle = bundle
            return old.version, bundle.version

    def match(self, query: str, market: str) -> tuple[list[MatchRecord], int]:
        bundle = self.current()
        return match_query(query, market, bundle.snapshot), bundle.version

    def expand(self, keyword: str, market: str) -> ExpansionRecord:
        """Expand a possibly unseen keyword using the current snapshot.

        Ingested keywords reuse their stored vector; new ones are embedded on
        the fly with the fallback embedder (see expand_text).
        """
        bundle = self.current()
        context = bundle.contexts.get(market)
        if context is None:
            raise UnknownMarketError(f"unknown market {market!r}")
        return expand_text(context, keyword, bundle.k_neighbors, bundle.filters_enabled)


class _Handler(BaseHTTPRequestHandler):
    service: MatchService  # set by make_server

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging is the caller's concern, not the test suite's

    def _send(self, status: int, payload) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict | None:
        """The body as a JSON object, or None once a 400 has been sent.

        The length is checked before any byte is read: a negative one would
        make rfile.read wait for EOF and hold this thread.
        """
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self._send(400, {"error": f"Content-Length must be in [0, {MAX_BODY_BYTES}]"})
            return None
        try:
            doc = json.loads(self.rfile.read(length).decode("utf-8"))
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
        self._send(200, {"status": "ok", "snapshot_version": self.service.current().version})

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
                records, version = self.service.match(query, market)
                self._send(
                    200,
                    {
                        "snapshot_version": version,
                        "matches": [match_record_to_doc(r) for r in records],
                    },
                )
        except UnknownMarketError as exc:
            self._send(404, {"error": str(exc)})
        except AdexpandError as exc:
            self._send(400, {"error": str(exc)})


def make_server(service: MatchService, port: int = 0) -> ThreadingHTTPServer:
    """ThreadingHTTPServer bound to localhost; port 0 picks a free port."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer(("127.0.0.1", port), handler)


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
