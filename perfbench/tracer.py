"""In-memory spans around the program's public functions.

``install()`` wraps each target at every name its callers look up (a
function imported by name into another module is rebound there too), so a
call is recorded wherever it comes from. Each span carries a name, start,
end, parent span, request id and self time (its duration minus the time its
child spans cover on the same thread). Spans are kept in memory and written
as JSON lines by ``dump()``.

A few wrappers also record counts read off the return value (expansion
outcomes, k-means iterations, cutoff fallbacks) or the arguments (rows
scored); counts sit in the span's ``n`` field.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# span name -> "module:qualname" of the program function it wraps
FUNCTIONS = {
    "embeddings.fallback_embed": "adexpand.embeddings:fallback_embed",
    "embeddings.load_embeddings": "adexpand.embeddings:load_embeddings",
    "flat_index.knn_search": "adexpand.flat_index:knn_search",
    "flat_index.build_index": "adexpand.flat_index:build_index",
    "clustering.kmeans": "adexpand.clustering:kmeans",
    "clustering.elbow_sweep": "adexpand.clustering:elbow_sweep",
    "clustering.kfold_stability": "adexpand.clustering:kfold_stability",
    "clustering.assign_cluster": "adexpand.clustering:assign_cluster",
    "thresholds.build_threshold_table": "adexpand.thresholds:build_threshold_table",
    "expansion.expand_keyword": "adexpand.expansion:expand_keyword",
    "relevance.train_base": "adexpand.relevance:train_base",
    "relevance.train_adjustment": "adexpand.relevance:train_adjustment",
    "relevance.tune_market_threshold": "adexpand.relevance:tune_market_threshold",
    "features.extract": "adexpand.features:FeatureExtractor.extract",
    "matching.match_query": "adexpand.matching:match_query",
    "matching.build_snapshot": "adexpand.matching:build_snapshot",
    "snapshot_store.load_runtime": "adexpand.snapshot_store:load_runtime",
    "snapshot_store.write_snapshot_dir": "adexpand.snapshot_store:write_snapshot_dir",
    "service.match": "adexpand.service:MatchService.match",
    "service.expand": "adexpand.service:MatchService.expand",
    "service.refresh": "adexpand.service:MatchService.refresh",
}
# Every public predict* method of the model classes is one layer,
# "relevance.score"; only the outermost call on a thread becomes a span.
SCORE_METHODS = (
    "adexpand.relevance:GbdtModel.predict",
    "adexpand.relevance:StackedModel.predict",
    "adexpand.relevance:StackedModel.predict_base",
    "adexpand.relevance:StackedModel.predict_adjustment",
    "adexpand.relevance:StackedModel.predict_one",
)


def _count_of(name: str, args: tuple, result, frame: list):
    """The counts a span records, read off its arguments, result or children."""
    if name == "expansion.expand_keyword":
        reasons = [v.filtered_reason for v in result.variants]
        return [
            len(reasons),
            sum(r is None for r in reasons),
            sum(r is not None and r.value == "GENDER" for r in reasons),
            sum(r is not None and r.value == "NUMERIC" for r in reasons),
        ]
    if name == "clustering.kmeans":
        return len(result.wcss_history)
    if name == "thresholds.build_threshold_table":
        return sum(row.fallback for row in result.rows.values())
    if name == "matching.match_query":
        # kept items, broad-matched index entries, scored (item, keyword) pairs
        return [len(result), frame[4], frame[5].get("features.extract", 0)]
    if name == "relevance.score":
        x = args[1]
        return 1 if getattr(x, "ndim", 2) == 1 else len(x)
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, outermost_only: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if outermost_only and stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            if stack:
                parent, rid = stack[-1][0], stack[-1][2]
            else:
                parent, rid = 0, next(tracer._rids)
            # id, name, request id, child time, hits, child calls by name
            frame = [span_id, name, rid, 0.0, 0, {}]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][3] += end - start
                    calls = stack[-1][5]
                    calls[name] = calls.get(name, 0) + 1
            n = _count_of(name, args, result, frame)
            tracer.spans.append((span_id, name, start, end, parent, rid, end - start - frame[3], n))
            return result

        return wrapper

    def hit(self) -> None:
        """Count one event against the innermost open span on this thread."""
        stack = self._stack()
        if stack:
            stack[-1][4] += 1

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[0], "name": s[1], "start": s[2], "end": s[3],
                    "parent": s[4], "rid": s[5], "self": s[6], "n": s[7],
                }) + "\n")


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rebind_everywhere(original, replacement) -> None:
    """Point every adexpand module attribute bound to original at replacement."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("adexpand") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    for mod in ("cli", "service", "snapshot_store", "matching", "expansion", "features",
                "relevance", "clustering", "thresholds", "flat_index", "embeddings"):
        importlib.import_module(f"adexpand.{mod}")
    for name, target in FUNCTIONS.items():
        owner, attr = _resolve(target)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original)
        setattr(owner, attr, wrapped)
        if not isinstance(owner, type):
            _rebind_everywhere(original, wrapped)
    for target in SCORE_METHODS:
        owner, attr = _resolve(target)
        setattr(owner, attr, tracer.wrap("relevance.score", getattr(owner, attr), outermost_only=True))
    # candidates per query: the broad-match tests inside match_query that succeed
    matching = importlib.import_module("adexpand.matching")
    broad_match = matching.broad_match

    def counted_broad_match(query_tokens, keyword_tokens):
        matched = broad_match(query_tokens, keyword_tokens)
        if matched:
            tracer.hit()
        return matched

    matching.broad_match = counted_broad_match
