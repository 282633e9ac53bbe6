"""HTTP endpoints over a snapshot directory: expand, match, refresh, health."""

import json
import os
import shutil
import socket
import threading
import urllib.error
import urllib.request

import pytest

from adexpand.service import MAX_BODY_BYTES, MatchService, make_server

from test_snapshot_store import UNSERVABLE


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


@pytest.fixture
def snapshot_copy(chain_dir, tmp_path):
    dst = str(tmp_path / "snapshot")
    shutil.copytree(os.path.join(chain_dir, "snapshot"), dst)
    return dst


@pytest.fixture
def server(snapshot_copy):
    service = MatchService(snapshot_copy)
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd, service, snapshot_copy
    httpd.shutdown()
    httpd.server_close()


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
        status, doc = _get(httpd.server_address[1], "/healthz")
        assert status == 200
        assert doc == {"status": "ok", "snapshot_version": 1}

    def test_healthz_without_snapshot_is_503(self):
        service = MatchService(None)
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            status, doc = _get(httpd.server_address[1], "/healthz")
            assert status == 503
            assert doc["status"] == "no_snapshot"
            status, _ = _post(httpd.server_address[1], "/match",
                              {"query": "x", "market": "US"})
            assert status == 503
        finally:
            httpd.shutdown()
            httpd.server_close()

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

    @pytest.mark.parametrize("length", [-1, MAX_BODY_BYTES + 1])
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


class TestRefresh:
    def test_refresh_swaps_versions(self, server):
        httpd, _, snapshot_dir = server
        _bump_snapshot(snapshot_dir, 2, -100.0)
        status, doc = _post(httpd.server_address[1], "/refresh")
        assert status == 200
        assert doc == {"old_version": 1, "new_version": 2}
        status, doc = _get(httpd.server_address[1], "/healthz")
        assert doc["snapshot_version"] == 2

    @pytest.mark.parametrize("meta", [{"dim": 8}, {"version": "2", "dim": 8}])
    def test_refresh_with_bad_meta_is_500_and_keeps_serving(self, server, meta):
        httpd, _, snapshot_dir = server
        port = httpd.server_address[1]
        with open(os.path.join(snapshot_dir, "meta.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        status, doc = _post(port, "/refresh")
        assert status == 500
        assert "meta.json" in doc["error"]
        assert _get(port, "/healthz") == (200, {"status": "ok", "snapshot_version": 1})
        status, doc = _post(port, "/match",
                            {"query": "solar led garden lights outdoor", "market": "US"})
        assert status == 200
        assert doc["snapshot_version"] == 1

    def test_refresh_with_bad_campaigns_is_500_and_keeps_serving(self, server):
        httpd, _, snapshot_dir = server
        port = httpd.server_address[1]
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
        assert _get(port, "/healthz") == (200, {"status": "ok", "snapshot_version": 1})
        status, doc = _post(port, "/match",
                            {"query": "solar led garden lights outdoor", "market": "US"})
        assert status == 200
        assert doc["snapshot_version"] == 1

    @pytest.mark.parametrize("name, damage, named", UNSERVABLE)
    def test_refresh_to_unservable_snapshot_is_500_and_keeps_serving(
        self, server, name, damage, named
    ):
        httpd, _, snapshot_dir = server
        port = httpd.server_address[1]
        _bump_snapshot(snapshot_dir, 2, -100.0)
        damage(os.path.join(snapshot_dir, name))
        status, doc = _post(port, "/refresh")
        assert status == 500
        assert name in doc["error"] and named in doc["error"]
        assert _get(port, "/healthz") == (200, {"status": "ok", "snapshot_version": 1})
        status, doc = _post(port, "/expand", {"keyword": "garden lights", "market": "US"})
        assert status == 200
        status, doc = _post(port, "/match",
                            {"query": "solar led garden lights outdoor", "market": "US"})
        assert status == 200
        assert doc["snapshot_version"] == 1

    def test_refresh_same_version_is_conflict(self, server):
        httpd, _, _ = server
        status, _ = _post(httpd.server_address[1], "/refresh")
        assert status == 409

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
        assert _get(port, "/healthz") == (200, {"status": "ok", "snapshot_version": 1})
        assert "RuntimeError: scoring blew up" in capsys.readouterr().err
