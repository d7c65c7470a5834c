"""Where the traced run records spans, and how spans become layer metrics.

Every probe wraps one public entry point of one layer, at the name its
callers look up.  Span names are ``<layer>.<operation>``; the layer
prefix is what the ledger sums self time by.  The layers are the
repo's modules:

========== ==========================================================
kernel     ``repro.simulation.kernel`` — ``Simulator.step``
network    ``repro.net.network`` — ``Network.send`` (+ latency model)
broker     ``repro.events.broker`` — ``BrokerNode.handle_message``
client     ``repro.events.broker`` / ``repro.events.sharding`` — client
           receive paths (``SienaClient.handle_message``,
           ``FleetClient.handle``)
index      ``repro.events.index`` — ``PredicateIndex``
poset      ``repro.events.index`` — ``CoveringPoset``
engine     ``repro.matching.engine`` — ``MatchingEngine.ingest``
overlay    ``repro.overlay`` — ``PastryNode`` dispatch, ``LeafSet``
storage    ``repro.storage`` — ``StorageService`` audit and upcalls
codec      ``repro.net.serialization`` — ``encode_frame``,
           ``FrameDecoder.feed`` (patched where the transport looks
           them up)
transport  ``repro.net.transport`` — ``AsyncioTransport.send`` plus
           the hub's untraced event-loop CPU time
router     ``repro.events.sharding`` — ``ShardRouter.handle``
shard      ``repro.events.sharding`` — ``ShardEndpoint.handle``
harness    the benchmark's own receipt bookkeeping on the socket hub
gc         the interpreter's garbage collections, wherever they ran
========== ==========================================================
"""

from __future__ import annotations

import importlib

from perfbench.tracing import SpanRecorder, self_times

LAYERS = (
    "kernel", "network", "broker", "client", "index", "poset", "engine",
    "overlay", "storage", "codec", "transport", "router", "shard", "harness", "gc",
)


# ----------------------------------------------------------------------
# Per-boundary counters: before(recorder, args) -> token,
# after(recorder, args, token, result)
# ----------------------------------------------------------------------
def _pub_id(payload) -> object:
    return getattr(payload, "pub_id", None)


def _kernel_before(rec, args):
    rec.peak("kernel.max_pending", args[0].pending_events)


def _kernel_after(rec, args, token, result):
    if result:
        rec.add("kernel.events")


def _send_after(rec, args, token, result):
    rec.add("network.messages")
    rec.add("network.bytes", args[4] if len(args) > 4 else 256)
    if result is False:
        rec.add("network.dropped")


def _broker_before(rec, args):
    broker = args[0]
    return (broker.duplicates_suppressed, broker.notifications_processed,
            broker.notifications_delivered)


def _broker_after(rec, args, token, result):
    broker = args[0]
    rec.add("broker.messages_handled")
    if type(args[2]).__name__ not in ("Publish", "PublishBatch", "Heartbeat"):
        rec.add("broker.control_msgs")
    rec.add("broker.duplicates", broker.duplicates_suppressed - token[0])
    rec.add("broker.processed", broker.notifications_processed - token[1])
    rec.add("broker.delivered", broker.notifications_delivered - token[2])


def _deliveries(payload) -> int:
    kind = type(payload).__name__
    if kind == "Notify":
        return 1
    if kind == "NotifyBatch":
        return len(payload.notifications)
    return 0


def _client_after(rec, args, token, result):
    rec.add("client.deliveries", _deliveries(args[2]))


def _ops_before(rec, args):
    return args[0].ops


def _match_after(rec, args, token, result):
    rec.add("index.match_calls")
    rec.add("index.events_matched", 1)
    rec.add("index.ops", args[0].ops - token)
    rec.add("index.matches", len(result))


def _match_batch_after(rec, args, token, result):
    rec.add("index.match_calls")
    rec.add("index.events_matched", len(result))
    rec.add("index.ops", args[0].ops - token)
    rec.add("index.matches", sum(len(matched) for matched in result))


def _checks_before(rec, args):
    return args[0].checks


def _poset_query_after(rec, args, token, result):
    rec.add("poset.queries")
    rec.add("poset.checks", args[0].checks - token)
    if result:
        rec.add("poset.hits")


def _engine_before(rec, args):
    stats = args[0].stats
    return stats.candidate_joins, stats.window_scanned, stats.matches


def _engine_after(rec, args, token, result):
    stats = args[0].stats
    rec.add("engine.events_in")
    rec.add("engine.candidate_joins", stats.candidate_joins - token[0])
    rec.add("engine.window_scanned", stats.window_scanned - token[1])
    rec.add("engine.matches", stats.matches - token[2])


def _count(key):
    def after(rec, args, token, result):
        rec.add(key)
    return after


def _events_in(message) -> int:
    kind = type(message).__name__
    if kind in ("Publish", "Notify"):
        return 1
    if kind in ("PublishBatch",):
        return len(message.items)
    if kind == "NotifyBatch":
        return len(message.notifications)
    if kind == "Routed":
        return _events_in(message.message)
    if kind == "Deliver":
        return sum(len(notifications) for _, notifications in message.items)
    return 0


def _encode_after(rec, args, token, result):
    rec.add("codec.frames_encoded")
    rec.add("codec.bytes_encoded", len(result))
    rec.add("codec.events_encoded", _events_in(args[2]))


def _decode_after(rec, args, token, result):
    rec.add("codec.frames_decoded", len(result))


# (module, attribute path, span name, options)
PROBES = [
    ("repro.simulation.kernel", "Simulator.step", "kernel.step",
     dict(before=_kernel_before, after=_kernel_after)),
    ("repro.net.network", "Network.send", "network.send",
     dict(pub_of=lambda a: _pub_id(a[3]), after=_send_after)),
    ("repro.events.broker", "BrokerNode.handle_message", "broker.handle",
     dict(pub_of=lambda a: _pub_id(a[2]), before=_broker_before, after=_broker_after)),
    ("repro.events.broker", "SienaClient.handle_message", "client.receive",
     dict(after=_client_after)),
    ("repro.events.sharding", "FleetClient.handle", "client.receive",
     dict(after=_client_after)),
    ("repro.events.index", "PredicateIndex.match", "index.match",
     dict(before=_ops_before, after=_match_after)),
    ("repro.events.index", "PredicateIndex.match_batch", "index.match",
     dict(before=_ops_before, after=_match_batch_after)),
    ("repro.events.index", "PredicateIndex.add", "index.write",
     dict(after=_count("index.write_calls"))),
    ("repro.events.index", "PredicateIndex.remove", "index.write",
     dict(after=_count("index.write_calls"))),
    *[
        ("repro.events.index", f"CoveringPoset.{query}", "poset.query",
         dict(before=_checks_before, after=_poset_query_after))
        for query in ("covers_any", "covering", "covered_by", "intersecting_any", "intersecting")
    ],
    ("repro.events.index", "CoveringPoset.add", "poset.write", {}),
    ("repro.events.index", "CoveringPoset.remove", "poset.write", {}),
    ("repro.matching.engine", "MatchingEngine.ingest", "engine.ingest",
     dict(before=_engine_before, after=_engine_after)),
    *[
        ("repro.overlay.node_state", f"LeafSet.{op}", "overlay.leafset",
         dict(after=_count("overlay.leafset_ops")))
        for op in ("add", "remove", "closest", "closest_k")
    ],
    ("repro.overlay.pastry", "PastryNode.handle_message", "overlay.handle",
     dict(after=_count("overlay.messages_handled"))),
    ("repro.overlay.pastry", "PastryNode.route", "overlay.route", {}),
    ("repro.storage.service", "StorageService.audit_replicas", "storage.audit", {}),
    *[
        ("repro.storage.service", f"StorageService.{upcall}", "storage.handle", {})
        for upcall in ("on_direct", "on_deliver", "on_forward")
    ],
    ("repro.net.transport", "encode_frame", "codec.encode", dict(after=_encode_after)),
    ("repro.net.transport", "FrameDecoder.feed", "codec.decode",
     dict(after=_decode_after, materialize=True)),
    ("repro.net.transport", "AsyncioTransport.send", "transport.send",
     dict(pub_of=lambda a: _pub_id(a[3]), after=_count("transport.sends"))),
    ("repro.events.sharding", "ShardRouter.handle", "router.handle", {}),
    ("repro.events.sharding", "ShardEndpoint.handle", "shard.handle",
     dict(before=lambda rec, a: a[0].notifications_processed,
          after=lambda rec, a, token, result: rec.add(
              "shard.notifications_processed", a[0].notifications_processed - token))),
    ("perfbench.fleet", "SocketFleet._deliver", "harness.receipt", {}),
]


def install(recorder: SpanRecorder) -> None:
    """Wrap every probe's entry point; ``recorder.restore()`` undoes it."""
    recorder.track_gc()
    for module_name, path, span, options in PROBES:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        recorder.patch(owner, attr, span, **options)


# ----------------------------------------------------------------------
# Ledger: spans + counters -> per-layer metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_self(spans: list[list]) -> dict[str, float]:
    """Self seconds per layer (span-name prefix)."""
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in self_times(spans).items():
        layer = name.split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + seconds
    return per_layer


def ledger(
    spans: list[list],
    counters: dict,
    wall_s: float,
    worker_spans: list[list] | None = None,
    untraced_cpu_s: float = 0.0,
) -> dict[str, float]:
    """Per-layer metrics for one traced phase of ``wall_s`` seconds.

    ``worker_spans`` come from another process and are timed on their
    own stacks; ``untraced_cpu_s`` is CPU time the hub spent outside
    every span (its event loop), which is charged to the transport.
    """
    names = self_times(spans)
    worker_names = self_times(worker_spans or [])
    for name, seconds in worker_names.items():
        names[name] = names.get(name, 0.0) + seconds
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in names.items():
        per_layer[name.split(".", 1)[0]] += seconds
    per_layer["transport"] += untraced_cpu_s
    c = counters.get
    metrics = {
        "kernel.events": c("kernel.events", 0),
        "kernel.step_self_s": names.get("kernel.step", 0.0),
        "kernel.max_pending": c("kernel.max_pending", 0),
        "network.messages": c("network.messages", 0),
        "network.bytes": c("network.bytes", 0),
        "network.dropped": c("network.dropped", 0),
        "network.send_self_s": names.get("network.send", 0.0),
        "broker.messages_handled": c("broker.messages_handled", 0),
        "broker.dispatch_self_s": names.get("broker.handle", 0.0),
        "broker.control_msgs": c("broker.control_msgs", 0),
        "broker.dup_ratio": _ratio(
            c("broker.duplicates", 0), c("broker.duplicates", 0) + c("broker.processed", 0)
        ),
        "broker.fanout_per_pub": _ratio(c("broker.delivered", 0), c("broker.processed", 0)),
        "client.receive_self_s": names.get("client.receive", 0.0),
        "client.deliveries": c("client.deliveries", 0),
        "index.match_calls": c("index.match_calls", 0),
        "index.events_matched": c("index.events_matched", 0),
        "index.match_self_s": names.get("index.match", 0.0),
        "index.ops_per_event": _ratio(c("index.ops", 0), c("index.events_matched", 0)),
        "index.match_yield": _ratio(c("index.matches", 0), c("index.ops", 0)),
        "index.write_calls": c("index.write_calls", 0),
        "index.write_self_s": names.get("index.write", 0.0),
        "poset.queries": c("poset.queries", 0),
        "poset.checks_per_query": _ratio(c("poset.checks", 0), c("poset.queries", 0)),
        "poset.self_s": per_layer["poset"],
        "poset.hit_ratio": _ratio(c("poset.hits", 0), c("poset.queries", 0)),
        "engine.events_in": c("engine.events_in", 0),
        "engine.ingest_self_s": names.get("engine.ingest", 0.0),
        "engine.candidate_joins": c("engine.candidate_joins", 0),
        "engine.window_scanned": c("engine.window_scanned", 0),
        "engine.match_yield": _ratio(c("engine.matches", 0), c("engine.candidate_joins", 0)),
        "overlay.leafset_ops": c("overlay.leafset_ops", 0),
        "overlay.leafset_self_s": names.get("overlay.leafset", 0.0),
        "overlay.messages_handled": c("overlay.messages_handled", 0),
        "overlay.handle_self_s": names.get("overlay.handle", 0.0),
        "storage.audit_self_s": names.get("storage.audit", 0.0),
        "codec.frames_encoded": c("codec.frames_encoded", 0),
        "codec.encode_us_per_frame": 1e6 * _ratio(
            names.get("codec.encode", 0.0), c("codec.frames_encoded", 0)
        ),
        "codec.bytes_per_event": _ratio(c("codec.bytes_encoded", 0), c("codec.events_encoded", 0)),
        "codec.frames_decoded": c("codec.frames_decoded", 0),
        "codec.decode_us_per_frame": 1e6 * _ratio(
            names.get("codec.decode", 0.0), c("codec.frames_decoded", 0)
        ),
        "transport.sends": c("transport.sends", 0),
        "transport.frames_relayed": c("transport.frames_relayed", 0),
        "transport.handler_self_s": per_layer["transport"],
        "transport.gen_late_ms": c("transport.gen_late_ms", 0),
        "router.self_s": names.get("router.handle", 0.0),
        "shard.match_self_s": worker_names.get("index.match", 0.0),
        "shard.notifications_processed": c("shard.notifications_processed", 0),
    }
    covered = 0.0
    for layer in LAYERS:
        metrics[f"{layer}.share"] = _ratio(per_layer[layer], wall_s)
        covered += per_layer[layer]
    metrics["unattributed.share"] = max(0.0, 1.0 - _ratio(covered, wall_s))
    return metrics


def setup_ledger(spans: list[list]) -> dict[str, float]:
    """Self seconds per layer while the traced instance was set up."""
    return {f"{layer}.setup_s": seconds for layer, seconds in layer_self(spans).items()
            if layer in LAYERS}


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = list(ledger([], {}, 1.0))
    names += [f"{layer}.setup_s" for layer in LAYERS]
    names += ["trace.overhead", "latency.p99_ms", "latency.samples"]
    return names
