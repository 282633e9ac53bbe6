"""A reload shares every snapshot part whose files kept their bytes.

``load_runtime(dir, previous)`` must answer /match and /expand exactly as a
cold load of the same directory, raise what the cold load raises, build
only the parts whose inputs changed, close every file it opened, and leave
``previous`` as it was whether it succeeds or fails. /refresh passes the
live bundle as ``previous``.
"""

import builtins
import contextlib
import dataclasses
import json
import os
import shutil
import tempfile
import threading
import weakref
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adexpand import snapshot_store
from adexpand.errors import AdexpandError, VersionRegressionError
from adexpand.expansion import record_to_doc
from adexpand.matching import Item, Snapshot, match_record_to_doc
from adexpand.service import MatchService, make_server
from adexpand.snapshot_store import load_runtime

from conftest import FIXTURES_DIR, GOLDEN_KEYWORDS
from test_service import _post


def _rewrite_json(path, edit=None, **dump_options):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if edit is not None:
        edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, **dump_options)


def _rewrite_lines(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(edit(lines))


def _json(edit=None, **dump_options):
    return lambda path: _rewrite_json(path, edit, **dump_options)


def _lines(edit):
    return lambda path: _rewrite_lines(path, edit)


def _append(text):
    def write(path):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(text)
    return write


def _truncate(path):
    # cut mid-document; the "{" also spoils a JSON-lines cut at a line end
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2] + b"{")


def _reverse_vectors(lines):
    out = []
    for line in lines:
        market, keyword, values = line.rstrip("\n").split("\t")
        out.append(f"{market}\t{keyword}\t{' '.join(reversed(values.split()))}\n")
    return out


def _drop_last_value(lines):
    market, keyword, values = lines[0].rstrip("\n").split("\t")
    return [f"{market}\t{keyword}\t{' '.join(values.split()[:-1])}\n"] + lines[1:]


def _tighten_rows(lines):
    rows = [json.loads(line) for line in lines[1:]]
    for row in rows:
        row["tau_distance"] = 0.3
        row["tau_similarity"] = 1.0 - 0.3
    return lines[:1] + [json.dumps(row) + "\n" for row in rows]


def _scale_first_price(doc):
    doc["campaigns"][0]["ad_groups"][0]["items"][0]["price"] *= 3


# Changed-file groups: group -> (file, {change: how the file is rewritten}).
# "reformat" changes the bytes but not what they mean; the other changes
# alter the content and still load.
GROUPS = {
    "campaigns": ("campaigns.json", {
        "reformat": _json(indent=1),
        "alter": _json(_scale_first_price),
    }),
    "expansions": ("expansions.jsonl", {
        "reformat": _append("\n"),
        "alter": _lines(lambda lines: lines[1:]),
    }),
    "embeddings": ("embeddings.tsv", {
        "reformat": _append("# a comment\n"),
        "alter": _lines(_reverse_vectors),
    }),
    "clustering_US": ("clustering_US.json", {
        "reformat": _json(indent=1),
        "alter": _json(lambda d: d["centroids"].reverse()),
    }),
    "thresholds_US": ("thresholds_US.jsonl", {
        "reformat": _append("\n"),
        "alter": _lines(_tighten_rows),
    }),
    "model": ("model.json", {
        "reformat": _json(indent=1),
        "alter": _json(lambda d: d.update(adjustment_rate=0.25)),
    }),
    "market_thresholds": ("market_thresholds.json", {
        "reformat": _json(),
        "alter": _json(lambda d: d.update(US=0.0)),
    }),
    "meta": ("meta.json", {
        "reformat": _json(lambda d: d.update(version=2)),
        "k": _json(lambda d: d.update(k_neighbors=3)),
        "US-only": _json(lambda d: d.update(markets=["US"])),
    }),
}
# meta changes that change its markets, a key of every expansion context
MARKETS_CHANGES = {"US-only"}

# Rewrites after which a load raises: name -> (group, rewrite).
BREAKS = {
    "campaigns-dangling": ("campaigns", _json(lambda d: d.update(
        campaigns=[c for c in d["campaigns"] if c["market"] != "US"]))),
    "campaigns-truncated": ("campaigns", _truncate),
    "expansions-truncated": ("expansions", _truncate),
    "embeddings-ragged": ("embeddings", _lines(_drop_last_value)),
    "clustering_US-of-UK": ("clustering_US", _json(lambda d: d.update(market="UK"))),
    "thresholds_US-header-only": ("thresholds_US", _lines(lambda lines: lines[:1])),
    "model-truncated": ("model", _truncate),
    "market_thresholds-no-UK": ("market_thresholds", _json(lambda d: d.pop("UK"))),
    "market_thresholds-null": ("market_thresholds", _json(lambda d: d.update(US=None))),
    "meta-DE": ("meta", _json(lambda d: d.update(markets=["UK", "US", "DE"]))),
    "meta-no-filters": ("meta", _json(lambda d: d.update(filters_enabled=False))),
    "meta-file-order": ("meta", _json(lambda d: d.pop("markets"))),
    "meta-dim-65": ("meta", _json(lambda d: d.update(dim=65))),
}


def _apply(snapshot_dir, changes, breaks=()):
    for group, change in changes.items():
        if change is not None:
            name, rewrites = GROUPS[group]
            rewrites[change](os.path.join(snapshot_dir, name))
    for key in breaks:
        group, rewrite = BREAKS[key]
        rewrite(os.path.join(snapshot_dir, GROUPS[group][0]))


def _bump_version(snapshot_dir, previous):
    """Set meta.json's version one above ``previous``'s, as a publish does,
    so that a load given ``previous`` is not refused."""
    _rewrite_json(os.path.join(snapshot_dir, "meta.json"),
                  lambda meta: meta.update(version=previous.version + 1))


def _read_queries():
    with open(os.path.join(FIXTURES_DIR, "queries.tsv"), encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t")[::-1] for line in fh if not line.startswith("#")]


PROBES = (
    [("/match", query, market) for query, market in _read_queries()]
    + [("/match", "solar garden lights", "AU")]
    + [("/expand", kw, market) for market, kws in GOLDEN_KEYWORDS.items() for kw in kws]
    + [("/expand", "solar patio lamp 2 pack", "US"), ("/expand", "womens knitted cardigan", "UK"),
       ("/expand", "garden lights", "AU")]
)


def _answers(bundle):
    """Each probe's /match or /expand body, or its error, as the service
    gives it for this bundle."""
    service = MatchService.__new__(MatchService)  # serves ``bundle``, loads nothing
    service._bundle = bundle
    out = []
    for path, text, market in PROBES:
        try:
            if path == "/match":
                records, version = service.match(text, market)
                doc = {"snapshot_version": version,
                       "matches": [match_record_to_doc(r) for r in records]}
            else:
                doc = record_to_doc(service.expand(text, market))
        except AdexpandError as exc:
            doc = {"error": f"{type(exc).__name__}: {exc}"}
        out.append(json.dumps(doc, sort_keys=True))
    return out


def _http_answers(port):
    """Each probe's status and body from the server on ``port``."""
    out = []
    for path, text, market in PROBES:
        key = "query" if path == "/match" else "keyword"
        out.append(_post(port, path, {key: text, "market": market}))
    return out


@contextlib.contextmanager
def _opened_files():
    """Every file object ``open`` returns while the block runs."""
    opened = []
    real_open = builtins.open

    def tracking_open(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        opened.append(fh)
        return fh

    with mock.patch.object(builtins, "open", tracking_open):
        yield opened


def _load(snapshot_dir, previous=None):
    """("loaded", bundle, answers) or ("raised", type name, message); every
    file the load opened is closed again."""
    with _opened_files() as opened:
        try:
            bundle = load_runtime(snapshot_dir, previous=previous)
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            outcome = ("raised", type(exc).__name__, str(exc))
        else:
            outcome = ("loaded", bundle, _answers(bundle))
    assert opened and all(fh.closed for fh in opened)
    return outcome


@pytest.fixture(scope="module")
def base_dir(chain_dir, tmp_path_factory):
    dst = str(tmp_path_factory.mktemp("reuse") / "snapshot")
    shutil.copytree(os.path.join(chain_dir, "snapshot"), dst)
    return dst


class _Live:
    """The bundle a reload is given as ``previous``, and its answers."""

    def __init__(self, bundle):
        self.bundle = bundle
        self.answers = _answers(bundle)

    def __repr__(self):
        return f"<loaded bundle, version {self.bundle.version}>"


@pytest.fixture(scope="module")
def previous(base_dir):
    return _Live(load_runtime(base_dir))


@pytest.fixture
def snapshot_copy(base_dir, tmp_path):
    dst = str(tmp_path / "snapshot")
    shutil.copytree(base_dir, dst)
    return dst


def _check_reload(base_dir, previous, changes, breaks):
    """Rewrite a copy of the base snapshot, then load it cold and with
    ``previous``: the same answers, or the same error, and only the parts
    whose files changed are rebuilt; ``previous`` still answers as before."""
    changes = {group: changes.get(group) for group in GROUPS}
    old = previous.bundle
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = os.path.join(tmp, "snapshot")
        shutil.copytree(base_dir, snapshot)
        _apply(snapshot, changes, breaks)
        _bump_version(snapshot, old)
        cold = _load(snapshot)
        warm = _load(snapshot, old)
    assert cold[0] == ("raised" if breaks else "loaded"), cold
    if breaks:
        assert warm == cold
    else:
        assert warm[2] == cold[2]
        bundle = warm[1]
        index_kept = changes["campaigns"] is None and changes["expansions"] is None
        assert (bundle.snapshot._token_index is old.snapshot._token_index) == index_kept
        embeddings_kept = changes["embeddings"] is None and changes["meta"] not in MARKETS_CHANGES
        for market, context in bundle.contexts.items():
            kept = embeddings_kept and all(
                market != "US" or changes[group] is None
                for group in ("clustering_US", "thresholds_US")
            )
            assert (context is old.contexts.get(market)) == kept, market
    assert _answers(old) == previous.answers


SINGLE_CHANGES = (
    [pytest.param({group: change}, [], id=f"{group}-{change}")
     for group, (_, rewrites) in GROUPS.items() for change in rewrites]
    + [pytest.param({}, [key], id=key) for key in BREAKS]
)


class TestReuseEqualsColdLoad:
    @pytest.mark.parametrize("changes, breaks", SINGLE_CHANGES)
    def test_one_change(self, base_dir, previous, changes, breaks):
        _check_reload(base_dir, previous, changes, breaks)

    @settings(max_examples=200, deadline=None)
    @given(
        st.fixed_dictionaries({
            group: st.sampled_from([None, *rewrites]) for group, (_, rewrites) in GROUPS.items()
        }),
        st.one_of(st.just([]), st.lists(st.sampled_from(sorted(BREAKS)), min_size=1, max_size=2,
                                        unique_by=lambda key: BREAKS[key][0])),
    )
    def test_any_changes(self, base_dir, previous, changes, breaks):
        _check_reload(base_dir, previous, changes, breaks)


def _counted(calls, name, real):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    return wrapper


# The loaders and builders load_runtime calls, and how often a load calls
# each when one group's bytes changed; load_model and load_market_thresholds
# run once on every load.
BUILDERS = ("load_campaigns", "load_expansions", "build_snapshot", "load_model",
            "load_market_thresholds", "load_embedding_sets", "load_clustering",
            "load_threshold_table", "build_index")
INDEX_BUILD = {"load_campaigns": 1, "load_expansions": 1, "build_snapshot": 1}
CONTEXT_BUILD = {"load_clustering": 1, "load_threshold_table": 1, "build_index": 1}
BUILT_WHEN_CHANGED = {
    "campaigns": INDEX_BUILD,
    "expansions": INDEX_BUILD,
    "embeddings": {"load_embedding_sets": 1, "load_clustering": 2,
                   "load_threshold_table": 2, "build_index": 2},
    "clustering_US": CONTEXT_BUILD,
    "thresholds_US": CONTEXT_BUILD,
    "model": {},
    "market_thresholds": {},
    "meta": {},
}


class TestOnlyChangedPartsAreBuilt:
    def _calls(self, monkeypatch, snapshot_dir, previous=None):
        calls = Counter()
        for name in BUILDERS:
            monkeypatch.setattr(snapshot_store, name,
                                _counted(calls, name, getattr(snapshot_store, name)))
        if previous is not None:
            _bump_version(snapshot_dir, previous)
        load_runtime(snapshot_dir, previous=previous)
        monkeypatch.undo()
        return calls

    def test_cold_load_builds_every_part(self, snapshot_copy, monkeypatch):
        assert self._calls(monkeypatch, snapshot_copy) == Counter({
            **INDEX_BUILD, "load_model": 1, "load_market_thresholds": 1,
            "load_embedding_sets": 1, "load_clustering": 2, "load_threshold_table": 2,
            "build_index": 2,
        })

    @pytest.mark.parametrize("group", GROUPS)
    def test_builds_only_the_changed_group(self, snapshot_copy, monkeypatch, group):
        old = load_runtime(snapshot_copy)
        _apply(snapshot_copy, {group: "reformat"})
        assert self._calls(monkeypatch, snapshot_copy, old) == Counter({
            "load_model": 1, "load_market_thresholds": 1, **BUILT_WHEN_CHANGED[group],
        })

    def test_model_thresholds_and_meta_together_build_nothing(self, snapshot_copy, monkeypatch):
        # the shape of an incremental-learning refresh: new residual trees
        # and cutoffs under a new version, the keyword side unchanged
        old = load_runtime(snapshot_copy)
        _apply(snapshot_copy, {"model": "alter", "market_thresholds": "alter", "meta": "reformat"})
        assert self._calls(monkeypatch, snapshot_copy, old) == Counter(
            {"load_model": 1, "load_market_thresholds": 1})


class TestRefusedRefresh:
    """A directory whose version does not exceed the live one is refused
    from meta.json alone: no loader runs and no other file is opened, even
    when every other file changed; /refresh answers 409 and the live bundle
    keeps serving."""

    CHANGED = {group: "alter" for group in GROUPS if group != "meta"}

    @pytest.mark.parametrize("version", [1, 0])
    def test_refused_load_opens_only_meta(self, snapshot_copy, monkeypatch, version):
        old = load_runtime(snapshot_copy)
        _apply(snapshot_copy, self.CHANGED)
        _rewrite_json(os.path.join(snapshot_copy, "meta.json"),
                      lambda meta: meta.update(version=version))
        calls = Counter()
        for name in BUILDERS:
            monkeypatch.setattr(snapshot_store, name,
                                _counted(calls, name, getattr(snapshot_store, name)))
        with _opened_files() as opened, pytest.raises(VersionRegressionError,
                                                      match=f"version {version} does not exceed 1"):
            load_runtime(snapshot_copy, previous=old)
        assert calls == Counter()
        assert [os.path.basename(fh.name) for fh in opened] == ["meta.json"]
        assert all(fh.closed for fh in opened)

    def test_refused_refresh_is_409_and_keeps_serving(self, snapshot_copy):
        service = MatchService(snapshot_copy)
        v1 = service.current()
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        port = httpd.server_address[1]
        try:
            v1_http = _http_answers(port)
            _apply(snapshot_copy, self.CHANGED)
            assert _post(port, "/refresh") == (409, {"error": "version 1 does not exceed 1"})
            assert service.current() is v1
            assert _http_answers(port) == v1_http
        finally:
            httpd.shutdown()
            httpd.server_close()


class TestFailedRefreshLeavesTheLiveBundle:
    """/refresh onto a snapshot whose index is reusable but which fails to
    load answers 500; version 1 keeps serving, and a later good refresh
    still shares its parts."""

    def test_failed_loads_then_good_refresh(self, snapshot_copy):
        service = MatchService(snapshot_copy)
        v1 = service.current()
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        port = httpd.server_address[1]
        try:
            v1_http = _http_answers(port)
            _apply(snapshot_copy, {"meta": "reformat"})  # version 2
            pristine = {}
            for name in ("model.json", "market_thresholds.json", "meta.json"):
                with open(os.path.join(snapshot_copy, name), "rb") as fh:
                    pristine[name] = fh.read()
            for key in ("model-truncated", "market_thresholds-no-UK", "market_thresholds-null",
                        "meta-file-order"):
                _apply(snapshot_copy, {}, [key])
                status, doc = _post(port, "/refresh")
                assert status == 500, doc
                assert service.current() is v1
                assert _http_answers(port) == v1_http
                name = GROUPS[BREAKS[key][0]][0]
                with open(os.path.join(snapshot_copy, name), "wb") as fh:
                    fh.write(pristine[name])

            _apply(snapshot_copy, {"market_thresholds": "alter"})
            assert _post(port, "/refresh") == (200, {"old_version": 1, "new_version": 2})
            v2 = service.current()
            assert v2.snapshot._token_index is v1.snapshot._token_index
            assert all(v2.contexts[m] is v1.contexts[m] for m in v1.contexts)
            cold = load_runtime(snapshot_copy)
            assert _answers(v2) == _answers(cold)
            assert _http_answers(port) != v1_http
        finally:
            httpd.shutdown()
            httpd.server_close()


class TestCrossFileRefusals:
    """/refresh onto a snapshot whose files disagree answers 500 naming the
    files, and version 1 keeps serving."""

    @pytest.mark.parametrize("key, first, last", [
        ("meta-dim-65", "meta.json: 'dim' must equal the dim of embeddings.tsv, 64", "got 65"),
        ("campaigns-dangling", "expansions.jsonl: expansion origin ",
         "(US) is not in any campaign of {dir}/campaigns.json"),
    ])
    def test_refresh_is_500_and_keeps_serving(self, snapshot_copy, key, first, last):
        service = MatchService(snapshot_copy)
        v1 = service.current()
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        port = httpd.server_address[1]
        try:
            v1_http = _http_answers(port)
            _apply(snapshot_copy, {"meta": "reformat"}, [key])  # version 2
            status, doc = _post(port, "/refresh")
            assert status == 500, doc
            assert doc["error"].startswith(f"{snapshot_copy}/{first}"), doc
            assert doc["error"].endswith(last.format(dir=snapshot_copy)), doc
            assert service.current() is v1
            assert _http_answers(port) == v1_http
        finally:
            httpd.shutdown()
            httpd.server_close()


class TestOneSnapshotPerLoad:
    """A load makes the one Snapshot it serves, and checks threshold
    coverage once; a reload that keeps campaigns.json and expansions.jsonl
    shares the replaced bundle's token index itself."""

    def _load_counted(self, monkeypatch, snapshot_dir, previous=None):
        made = []
        check = Snapshot.__post_init__

        def counted(snapshot):
            made.append(snapshot)
            check(snapshot)

        monkeypatch.setattr(Snapshot, "__post_init__", counted)
        bundle = load_runtime(snapshot_dir, previous=previous)
        monkeypatch.undo()
        assert len(made) == 1 and made[0] is bundle.snapshot
        return bundle

    def test_cold_load(self, snapshot_copy, monkeypatch):
        self._load_counted(monkeypatch, snapshot_copy)

    def test_reload_keeping_the_index_files(self, snapshot_copy, monkeypatch):
        old = load_runtime(snapshot_copy)
        _apply(snapshot_copy, {"model": "alter", "market_thresholds": "alter"})
        _bump_version(snapshot_copy, old)
        bundle = self._load_counted(monkeypatch, snapshot_copy, old)
        assert bundle.snapshot._token_index is old.snapshot._token_index
        assert bundle.snapshot.version == 2


class TestFrozenServingState:
    """Request threads read the live bundle without a lock: no field of it
    can be reassigned."""

    def test_snapshot_and_bundle_refuse_assignment(self, previous):
        bundle = previous.bundle
        with pytest.raises(dataclasses.FrozenInstanceError):
            bundle.snapshot.market_thresholds = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            bundle.snapshot = None

    def test_item_has_no_market(self):
        assert [f.name for f in dataclasses.fields(Item)] == ["id", "title", "price"]


class TestReplacedSnapshotIsFreed:
    def test_weak_reference_dies_after_refresh(self, snapshot_copy):
        """Reference counting frees the replaced Snapshot at the swap, with
        no collection run."""
        service = MatchService(snapshot_copy)
        replaced = weakref.ref(service.current().snapshot)
        _bump_version(snapshot_copy, service.current())
        assert service.refresh() == (1, 2)
        assert replaced() is None
