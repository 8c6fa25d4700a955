"""The traced run: per-layer rows measured from outside the program.

End-to-end metrics always come from untraced runs.  ``--traced`` adds one
in-process pass over the same request list through a staged driver that
calls each layer's public entry point (client encode -> server decode ->
``MatchDaemon.handle_match`` -> ``MatchService`` -> ``QueryMatcher`` over a
timing/counting index -> encode -> client decode).  Spans are recorded
around those calls from this package; nothing under ``src/`` changes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.matching.matcher import EntityMatch, MatchOutcome
from repro.scenarios.workload import Request
from repro.server.daemon import MatchDaemon
from repro.serving.artifact import SynonymArtifact, build_blocks, dedupe_entries
from repro.serving.delta import delta_path_for
from repro.serving.service import MatchService
from repro.storage.artifact import read_artifact, write_artifact
from repro.text.normalize import normalize
from repro.text.similarity import levenshtein_similarity
from repro.text.tokenize import tokenize

from benchmarks.perf.oracle import check_response
from benchmarks.perf.serving import Generation, publish_bytes
from benchmarks.perf.stats import Span, median, self_times
from benchmarks.perf.workloads import ServingInputs, Workload

__all__ = ["TraceResult", "TracedArtifact", "Tracer", "trace_serving"]

_LEVENSHTEIN_PAIRS = 3000
_SERVICE_SAMPLE = 400
_MICRO_SAMPLES = 5


@dataclass
class TraceResult:
    rows: dict[str, float]  # per-layer metric name -> value
    self_us_per_request: dict[str, float]  # span name -> self time per request
    spans: list[Span]
    attempted: int
    failed: int


class Tracer:
    """In-memory span recorder; parent = the span open when one begins."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent, request]
        self._open: list[int] = []
        self.request = -1

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def finished(self) -> list[Span]:
        return [tuple(span) for span in self.spans]  # type: ignore[misc]


class TracedArtifact(SynonymArtifact):
    """A :class:`DictionaryIndex` proxy that times and counts index calls.

    A subclass rather than a wrapper so an unstarted ``MatchDaemon`` (which
    insists on a real artifact) can be built over it; it adds spans and a
    shortlist-size count and changes no answer.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.tracer: Tracer | None = None  # set to start recording
        self.shortlist_sizes: list[int] = []

    def entities_for(self, text: str) -> set[str]:
        tracer = self.tracer
        if tracer is None:
            return super().entities_for(text)
        index = tracer.begin("serving.lookup")
        try:
            return super().entities_for(text)
        finally:
            tracer.end(index)

    def strings_containing_token(self, token: str) -> set[str]:
        tracer = self.tracer
        if tracer is None:
            return super().strings_containing_token(token)
        index = tracer.begin("serving.shortlist")
        try:
            found = super().strings_containing_token(token)
        finally:
            tracer.end(index)
        self.shortlist_sizes.append(len(found))
        return found


def _staged_pass(
    daemon: MatchDaemon, requests: Sequence[Request], tracer: Tracer | None
) -> tuple[list[Any], float]:
    """Every request through every stage; returns (client-side results, seconds)."""

    def stage(name: str, function: Callable[..., Any], *args: Any) -> Any:
        if tracer is None:
            return function(*args)
        index = tracer.begin(name)
        try:
            return function(*args)
        finally:
            tracer.end(index)

    results: list[Any] = []
    started = time.perf_counter()
    for number, request in enumerate(requests):
        if tracer is not None:
            tracer.request = number
        body = (
            {"queries": list(request.queries)} if request.batched
            else {"query": request.queries[0]}
        )  # fmt: skip
        handle = daemon.handle_resolve if request.endpoint == "resolve" else daemon.handle_match
        root = tracer.begin("request") if tracer is not None else -1
        raw = stage("client.encode", lambda: json.dumps(body, ensure_ascii=False).encode("utf-8"))
        decoded = stage("server.decode", json.loads, raw)
        payload = stage("server.handle", handle, decoded)
        wire = stage(
            "server.encode", lambda: json.dumps(payload, ensure_ascii=False).encode("utf-8")
        )
        answer = stage("client.decode", json.loads, wire)
        if tracer is not None:
            tracer.end(root)
        results.append(answer["results"] if request.batched else answer)
    return results, time.perf_counter() - started


def _instrument(daemon: MatchDaemon, tracer: Tracer, matches: list[EntityMatch]) -> None:
    """Wrap the public entry points of the layers under ``handle_match``."""
    state = daemon.service._state  # the one serving state of this idle daemon
    matcher = state.matcher
    inner_match = tracer.wrap("matching.match", matcher.match)

    def recording_match(query: str) -> EntityMatch:
        match = inner_match(query)
        matches.append(match)
        return match

    matcher.match = recording_match  # type: ignore[method-assign]
    matcher.segmenter.best_segment = tracer.wrap(  # type: ignore[method-assign]
        "matching.segment", matcher.segmenter.best_segment
    )
    state.resolver.rank = tracer.wrap(  # type: ignore[method-assign]
        "matching.resolve_rank", state.resolver.rank
    )


def _mean_us(durations: Sequence[float]) -> float:
    return sum(durations) / len(durations) * 1e6 if durations else 0.0


def _time_calls_us(function: Callable[[Any], Any], arguments: Sequence[Any]) -> float:
    """Mean microseconds per call over *arguments* (median of a few passes)."""
    passes = []
    for _ in range(_MICRO_SAMPLES):
        began = time.perf_counter()
        for argument in arguments:
            function(argument)
        passes.append((time.perf_counter() - began) / len(arguments) * 1e6)
    return median(passes)


def _median_ms(function: Callable[[], Any]) -> float:
    samples = []
    for _ in range(_MICRO_SAMPLES):
        began = time.perf_counter()
        function()
        samples.append((time.perf_counter() - began) * 1e3)
    return median(samples)


def _storage_and_swap_rows(
    workload: Workload, generations: Sequence[Generation], workdir: Path
) -> dict[str, float]:
    """Load, reload, delta-apply and raw container costs on this catalog."""
    rows: dict[str, float] = {}
    swap_dir = workdir / "swap"
    swap_dir.mkdir()
    path = swap_dir / "catalog.synart"
    sidecar = delta_path_for(path)
    publish_bytes(path, generations[0].payload)

    rows["serving.load_heap_ms"] = _median_ms(lambda: SynonymArtifact.load(path, verify=True))

    def load_mapped() -> None:
        with SynonymArtifact.load(path, verify=True, mmap=True):
            pass

    rows["serving.load_mmap_ms"] = _median_ms(load_mapped)
    rows["storage.read_artifact_ms"] = _median_ms(lambda: read_artifact(path))

    artifact = SynonymArtifact.load(path)
    blocks, counts, extra = build_blocks(dedupe_entries(artifact), priors=artifact.priors())
    rows["storage.write_artifact_ms"] = _median_ms(
        lambda: write_artifact(
            swap_dir / "rewrite.synart", blocks, kind=artifact.manifest.kind,
            counts=counts, extra=extra,
        )  # fmt: skip
    )

    for name, mmap in (("serving.apply_delta_heap_ms", False), ("serving.apply_delta_fold_ms", True)):
        samples = []
        for _ in range(_MICRO_SAMPLES):
            sidecar.unlink(missing_ok=True)
            service = MatchService(path, mmap=mmap)
            try:
                publish_bytes(sidecar, generations[1].payload)
                began = time.perf_counter()
                swapped = service.maybe_reload()
                samples.append((time.perf_counter() - began) * 1e3)
                if not swapped or service.manifest.version != generations[1].version:
                    raise RuntimeError(f"{name}: delta was not applied in process")
            finally:
                service.close()
        rows[name] = median(samples)
    sidecar.unlink(missing_ok=True)
    service = MatchService(path, mmap=workload.mmap)
    try:
        rows["serving.full_reload_ms"] = _median_ms(service.reload)
    finally:
        service.close()
    return rows


def trace_serving(
    workload: Workload,
    inputs: ServingInputs,
    generations: Sequence[Generation],
    workdir: Path,
) -> "TraceResult":
    """Per-layer rows of the serving half from one traced in-process pass."""
    requests = inputs.requests
    queries = [query for request in requests for query in request.queries]
    trace_dir = workdir / "trace"
    trace_dir.mkdir()
    path = trace_dir / "catalog.synart"
    publish_bytes(path, generations[0].payload)
    rows: dict[str, float] = {}

    # A warm workload's pass starts from a warm LRU, like its live repeats;
    # a cold one from a fresh service.  The untraced reference pass runs on
    # both sides of the traced one, so slow drift of the machine between
    # passes does not read as tracing overhead.
    warm = not (workload.cold or workload.churn_every)

    def untraced_pass_s() -> float:
        # An idle daemon object, never started: no socket, no watcher.
        plain = MatchDaemon(SynonymArtifact.load(path, mmap=workload.mmap), port=0)
        try:
            if warm:
                _staged_pass(plain, requests, None)
            return _staged_pass(plain, requests, None)[1]
        finally:
            plain.stop()

    plain_before_s = untraced_pass_s()
    tracer = Tracer()
    artifact = TracedArtifact.load(path, mmap=workload.mmap)
    matches: list[EntityMatch] = []
    traced = MatchDaemon(artifact, port=0)
    try:
        if warm:
            _staged_pass(traced, requests, None)
        before = traced.service.stats
        artifact.tracer = tracer
        _instrument(traced, tracer, matches)
        results, traced_s = _staged_pass(traced, requests, tracer)
        after = traced.service.stats
    finally:
        artifact.tracer = None
        traced.stop()
    rows["trace.overhead_ratio"] = traced_s / ((plain_before_s + untraced_pass_s()) / 2)
    failed = sum(
        not check_response(request, result, [generations[0].oracle])
        for request, result in zip(requests, results)
    )

    spans = tracer.finished()
    own = self_times(spans)
    durations: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        durations[span[0]].append(span[2] - span[1])
    lookups_in_segment = sum(
        1 for span in spans
        if span[0] == "serving.lookup" and span[3] >= 0 and spans[span[3]][0] == "matching.segment"
    )  # fmt: skip
    # matching.match spans and the recorded results are in the same order.
    exact_us: list[float] = []
    fuzzy_us: list[float] = []
    fuzzy_accepted = 0
    for duration, match in zip(durations["matching.match"], matches):
        if match.outcome is MatchOutcome.EXACT:
            exact_us.append(duration)
        elif normalize(match.query):
            fuzzy_us.append(duration)
            fuzzy_accepted += match.outcome is MatchOutcome.FUZZY

    rows["client.encode_us"] = _mean_us(durations["client.encode"])
    rows["client.decode_us"] = _mean_us(durations["client.decode"])
    rows["server.decode_us"] = _mean_us(durations["server.decode"])
    rows["server.handle_match_us"] = _mean_us(durations["server.handle"])
    rows["server.encode_us"] = _mean_us(durations["server.encode"])
    rows["matching.segment_us"] = _mean_us(durations["matching.segment"])
    rows["matching.segment_probes_per_query"] = lookups_in_segment / max(
        1, len(durations["matching.segment"])
    )
    rows["matching.match_exact_us"] = _mean_us(exact_us)
    rows["matching.match_fuzzy_us"] = _mean_us(fuzzy_us)
    rows["matching.fuzzy_attempt_share"] = len(fuzzy_us) / len(queries)
    rows["matching.fuzzy_accept_ratio"] = fuzzy_accepted / max(1, len(fuzzy_us))
    rows["matching.shortlist_mean"] = (
        sum(artifact.shortlist_sizes) / max(1, len(artifact.shortlist_sizes))
    )
    rows["matching.resolve_rank_us"] = _mean_us(durations["matching.resolve_rank"])
    rows["serving.lookup_us"] = _mean_us(durations["serving.lookup"])
    rows["serving.shortlist_us"] = _mean_us(durations["serving.shortlist"])
    rows["serving.cache_hit_ratio"] = (after.cache_hits - before.cache_hits) / (
        after.queries - before.queries
    )
    # Self time per request by span name: where a request's time goes.
    attribution: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, own):
        attribution[span[0]] += self_s / len(requests) * 1e6

    # Plain timed calls into text and service entry points.
    rows["text.normalize_us"] = _time_calls_us(normalize, queries)
    normalized = [normalize(query) for query in queries]
    rows["text.tokenize_us"] = _time_calls_us(lambda q: tokenize(q, normalized=True), normalized)
    heap = SynonymArtifact.load(path)
    pairs: list[tuple[str, str]] = []
    for match in matches:
        if match.outcome is MatchOutcome.EXACT or len(pairs) >= _LEVENSHTEIN_PAIRS:
            continue
        query = normalize(match.query)
        for token in tokenize(query, normalized=True):
            for candidate in sorted(heap.strings_containing_token(token)):
                pairs.append((query, candidate))
    pairs = pairs[:_LEVENSHTEIN_PAIRS] or [(query, query) for query in normalized[:100]]
    rows["text.levenshtein_us"] = _time_calls_us(
        lambda pair: levenshtein_similarity(pair[0], pair[1]), pairs
    )
    distinct = list(dict.fromkeys(queries))[:_SERVICE_SAMPLE]
    miss_us: list[float] = []
    hit_us: list[float] = []
    for _ in range(3):
        service = MatchService(heap, cache_size=len(distinct))
        for target in (miss_us, hit_us):
            began = time.perf_counter()
            for query in distinct:
                service.match(query)
            target.append((time.perf_counter() - began) / len(distinct) * 1e6)
    rows["serving.service_miss_us"] = median(miss_us)
    rows["serving.service_hit_us"] = median(hit_us)

    rows.update(_storage_and_swap_rows(workload, generations, workdir))
    return TraceResult(rows, dict(attribution), spans, len(requests), failed)
