"""Exporter tests: JSONL round-trip, Chrome trace_event, Prometheus text."""

import json

from repro.telemetry import (
    JsonlStreamWriter,
    MetricsRegistry,
    Span,
    Tracer,
    chrome_trace_events,
    load_spans,
    prometheus_text,
    registry_samples,
    write_chrome_trace,
)


def write_jsonl(spans, path):
    """Stream ``spans`` to ``path``; returns the number written."""
    with JsonlStreamWriter(path) as writer:
        for span in spans:
            writer.append(span)
    return writer.written


def sample_spans():
    ticks = iter([float(t) for t in range(10)])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer", track="n1/exec", function="f"):
        with tracer.span("inner", track="n1/exec"):
            pass
    tracer.instant("evt", track="n2/pool", kind="cold")
    return tracer.spans


def test_jsonl_round_trip(tmp_path):
    spans = sample_spans()
    path = str(tmp_path / "spans.jsonl")
    assert write_jsonl(spans, path) == 3
    loaded = load_spans(path)
    assert len(loaded) == 3
    for original, restored in zip(spans, loaded):
        assert restored.name == original.name
        assert restored.track == original.track
        assert restored.start == original.start
        assert restored.end == original.end
        assert restored.attrs == original.attrs
        assert restored.parent_id == original.parent_id


def test_chrome_trace_structure(tmp_path):
    spans = sample_spans()
    events = chrome_trace_events(spans)
    slices = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(slices) == 2 and len(instants) == 1
    # One thread_name per track, one process_name per node.
    thread_names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
    assert thread_names == {"n1/exec", "n2/pool"}
    # Timestamps are in microseconds relative to the earliest span.
    outer = next(e for e in slices if e["name"] == "outer")
    inner = next(e for e in slices if e["name"] == "inner")
    assert outer["ts"] == 0.0
    assert inner["ts"] == 1e6 and inner["dur"] == 1e6
    outer_span = next(s for s in spans if s.name == "outer")
    assert inner["args"]["parent_id"] == outer_span.span_id
    # The file is valid JSON with a traceEvents array.
    path = str(tmp_path / "trace.json")
    write_chrome_trace(spans, path)
    payload = json.load(open(path))
    assert isinstance(payload["traceEvents"], list)


def test_load_spans_reads_chrome_format_back(tmp_path):
    spans = sample_spans()
    path = str(tmp_path / "trace.json")
    write_chrome_trace(spans, path)
    loaded = load_spans(path)
    assert {s.name for s in loaded} == {"outer", "inner", "evt"}
    inner = next(s for s in loaded if s.name == "inner")
    assert inner.duration == 1.0


def test_open_spans_are_skipped_by_chrome_export():
    span = Span("open", 1.0, span_id=1)
    assert chrome_trace_events([span]) == []


def test_prometheus_text_format():
    registry = MetricsRegistry(clock=lambda: 1.0, scope="sim0")
    registry.counter("repro_test_things_total", lambda: 3, help="things")
    registry.gauge("repro_test_level_count").set(7)
    hist = registry.histogram("repro_test_wait_seconds", buckets=[1.0, 10.0])
    hist.observe(0.5)
    hist.observe(5.0)
    text = prometheus_text(registry)
    assert "# TYPE repro_test_things_total counter" in text
    assert '# HELP repro_test_things_total things' in text
    assert 'repro_test_things_total{scope="sim0"} 3' in text
    assert 'repro_test_level_count{scope="sim0"} 7' in text
    assert 'repro_test_wait_seconds_bucket{le="1",scope="sim0"} 1' in text
    assert 'repro_test_wait_seconds_bucket{le="+Inf",scope="sim0"} 2' in text
    assert 'repro_test_wait_seconds_count{scope="sim0"} 2' in text
    assert text.endswith("\n")


def test_prometheus_merges_scopes_without_duplicate_headers():
    a = MetricsRegistry(clock=lambda: 0.0, scope="sim0")
    b = MetricsRegistry(clock=lambda: 0.0, scope="sim1")
    a.counter("repro_test_things_total", lambda: 1)
    b.counter("repro_test_things_total", lambda: 2)
    text = prometheus_text([a, b])
    assert text.count("# TYPE repro_test_things_total counter") == 1
    assert 'repro_test_things_total{scope="sim0"} 1' in text
    assert 'repro_test_things_total{scope="sim1"} 2' in text



def exposition_blocks(text):
    """Parse exposition text into ``{family: sample lines}``, asserting
    that each family is one block: its ``# HELP``/``# TYPE`` pair, then
    every one of its samples."""
    blocks = {}
    family = kind = helped = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            helped = line.split(" ")[2]
            continue
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ")
            assert helped in (None, family), f"# HELP {helped} before {line}"
            assert family not in blocks, f"{family} is split into several blocks"
            blocks[family], helped = [], None
            continue
        name = line.split("{")[0].split(" ")[0]
        suffixes = ("_bucket", "_sum", "_count") if kind == "histogram" else ()
        assert name in (family, *(family + s for s in suffixes)), line
        blocks[family].append(line)
    return blocks


def test_prometheus_groups_each_family_into_one_block():
    registries = [MetricsRegistry(clock=lambda: 0.0, scope=f"sim{i}")
                  for i in range(2)]
    for registry in registries:
        registry.counter("repro_test_things_total", lambda: 1,
                         labels={"k": "a"}, help="things")
        registry.histogram("repro_test_wait_seconds", buckets=[1.0]).observe(0.5)
        registry.gauge("repro_test_depth_ratio").set(1.0)
        registry.counter("repro_test_things_total", lambda: 1, labels={"k": "b"})
    blocks = exposition_blocks(prometheus_text(registries))
    assert list(blocks) == ["repro_test_things_total", "repro_test_wait_seconds",
                            "repro_test_depth_ratio"]
    assert [line.split(" ")[0] for line in blocks["repro_test_things_total"]] == [
        'repro_test_things_total{k="a",scope="sim0"}',
        'repro_test_things_total{k="b",scope="sim0"}',
        'repro_test_things_total{k="a",scope="sim1"}',
        'repro_test_things_total{k="b",scope="sim1"}',
    ]
    assert len(blocks["repro_test_wait_seconds"]) == 2 * 4   # 2 buckets, sum, count


def test_registry_samples_render_like_the_registry():
    """Samples cross a process boundary and render the same text."""
    import pickle

    registry = MetricsRegistry(clock=lambda: 2.0, scope="sim0")
    registry.gauge("repro_test_depth_ratio").set(3.0)
    registry.histogram("repro_test_wait_seconds").observe(0.25)
    samples = pickle.loads(pickle.dumps(registry_samples(registry)))
    assert prometheus_text([samples]) == prometheus_text(registry)


# -- format sniffing ----------------------------------------------------------

def test_load_spans_single_line_jsonl_is_not_misread_as_chrome(tmp_path):
    """One span -> one JSON object: the old try-Chrome-first sniffing
    parsed it as an (empty) event list and silently dropped the span."""
    span = Span("solo", 1.0, attrs={"k": "v"}, span_id=7)
    span.end = 2.0
    path = str(tmp_path / "one.jsonl")
    write_jsonl([span], path)
    (loaded,) = load_spans(path)
    assert loaded.name == "solo"
    assert loaded.span_id == span.span_id
    assert loaded.attrs == {"k": "v"}


def test_load_spans_jsonl_with_traceevents_attr_stays_jsonl(tmp_path):
    """A JSONL span whose *attrs* mention traceEvents must not be routed
    through the Chrome parser."""
    span = Span("tricky", 0.0, attrs={"traceEvents": "red-herring"}, span_id=1)
    span.end = 1.0
    path = str(tmp_path / "tricky.jsonl")
    write_jsonl([span], path)
    (loaded,) = load_spans(path)
    assert loaded.name == "tricky"


def test_load_spans_reads_bare_chrome_event_list(tmp_path):
    path = str(tmp_path / "events.json")
    events = chrome_trace_events(sample_spans())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(events, fh)
    loaded = load_spans(path)
    assert {s.name for s in loaded} == {"outer", "inner", "evt"}


def test_load_spans_empty_and_blank_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n\n  \n")
    assert load_spans(str(empty)) == []
    assert load_spans(str(blank)) == []


def test_load_spans_round_trips_identity(tmp_path):
    """span_id/parent_id survive both formats, so causal analysis works
    on loaded dumps, not just live collectors."""
    spans = sample_spans()
    jsonl = str(tmp_path / "s.jsonl")
    chrome = str(tmp_path / "s.json")
    write_jsonl(spans, jsonl)
    write_chrome_trace(spans, chrome)
    for path in (jsonl, chrome):
        by_name = {s.name: s for s in load_spans(path)}
        original = {s.name: s for s in spans}
        assert by_name["inner"].span_id == original["inner"].span_id
        assert by_name["inner"].parent_id == original["outer"].span_id


def test_load_spans_numbers_idless_records_locally(tmp_path):
    """A record without a span_id loads with a local id, in load order,
    in both formats; recorded ids are kept as they are."""
    jsonl = tmp_path / "idless.jsonl"
    jsonl.write_text(
        json.dumps({"name": "a", "start": 0.0, "end": 1.0}) + "\n"
        + json.dumps({"name": "b", "start": 0.0, "end": 1.0,
                      "span_id": 9}) + "\n"
        + json.dumps({"name": "c", "start": 1.0, "end": 2.0}) + "\n"
    )
    chrome = tmp_path / "idless.json"
    chrome.write_text(json.dumps({"traceEvents": [
        {"ph": "X", "name": "a", "ts": 0, "dur": 1},
        {"ph": "X", "name": "b", "ts": 0, "dur": 1, "args": {"span_id": 9}},
        {"ph": "X", "name": "c", "ts": 1, "dur": 1},
    ]}))
    for path in (jsonl, chrome):
        loaded = load_spans(str(path))
        assert [(s.name, s.span_id) for s in loaded] == [
            ("a", 1), ("b", 9), ("c", 2)]


# -- label-value escaping -----------------------------------------------------

def test_prometheus_escapes_hostile_label_values():
    registry = MetricsRegistry(clock=lambda: 0.0, scope="sim0")
    registry.counter(
        "repro_test_things_total", lambda: 1,
        labels={"tenant": 'evil"} 1\nfake_metric 2\\'},
    )
    text = prometheus_text(registry)
    # The hostile value stays inside one quoted label: backslash first,
    # then quotes, then newlines, per the exposition-format spec.
    assert '\\"} 1\\nfake_metric 2\\\\' in text
    assert "\nfake_metric" not in text          # no injected sample line
    (sample,) = [line for line in text.splitlines()
                 if not line.startswith("#")]
    assert sample.endswith(" 1")


def test_prometheus_escaping_is_spec_exact():
    from repro.telemetry.exporters import _escape_label_value

    assert _escape_label_value('a"b') == 'a\\"b'
    assert _escape_label_value("a\\b") == "a\\\\b"
    assert _escape_label_value("a\nb") == "a\\nb"
    # Backslash is escaped first so escapes are not double-mangled.
    assert _escape_label_value('\\"') == '\\\\\\"'
    assert _escape_label_value("plain") == "plain"
