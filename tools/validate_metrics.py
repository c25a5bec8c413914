#!/usr/bin/env python3
"""Validates a streamkc_cli --metrics-out JSON dump against the checked-in
schema (tools/metrics_schema.json) plus semantic invariants the schema
cannot express. Stdlib only — no jsonschema dependency.

Usage: validate_metrics.py DUMP.json [--schema SCHEMA.json]
Exit status: 0 valid, 1 invalid, 2 usage/IO error.
"""

import json
import os
import sys

SUPPORTED_KEYS = {
    "$comment", "type", "required", "properties", "items",
    "additionalProperties", "anyOf", "enum",
}


def type_ok(value, expected):
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    raise ValueError(f"unsupported schema type: {expected}")


def validate(value, schema, path, errors):
    """Interprets the JSON-Schema subset documented in metrics_schema.json."""
    unknown = set(schema) - SUPPORTED_KEYS
    if unknown:
        raise ValueError(f"schema uses unsupported keywords at {path}: {unknown}")

    if "anyOf" in schema:
        for alternative in schema["anyOf"]:
            trial = []
            validate(value, alternative, path, trial)
            if not trial:
                return
        errors.append(f"{path}: matches no anyOf alternative")
        return

    expected = schema.get("type")
    if expected is not None and not type_ok(value, expected):
        errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
        return

    allowed = schema.get("enum")
    if allowed is not None and value not in allowed:
        errors.append(f"{path}: {value!r} not one of {allowed}")
        return

    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key '{key}'")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, sub in value.items():
            if key in props:
                validate(sub, props[key], f"{path}.{key}", errors)
            elif isinstance(extra, dict):
                validate(sub, extra, f"{path}.{key}", errors)
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]", errors)


def check_invariants(dump, errors):
    """Cross-field rules: counter consistency the schema cannot state."""
    shards = dump.get("shards")
    if shards is not None:
        # A dump with shard rows must carry the whole runtime section.
        for key in ("edges_ingested", "batches_enqueued", "queue_full_stalls",
                    "ring_stall_rounds", "ring_stalled_ns", "merges",
                    "merge_ns", "wall_ns"):
            if key not in dump:
                errors.append(f"$: runtime dump missing '{key}'")
        for i, row in enumerate(shards):
            if row.get("shard") != i:
                errors.append(f"$.shards[{i}]: shard id {row.get('shard')}")
            if row.get("ring_stall_rounds", 0) < row.get("ring_stalls", 0):
                errors.append(f"$.shards[{i}]: stall rounds < stall events")
        if "edges_ingested" in dump:
            # Every ingested edge is either processed by its shard or
            # discarded by a dead (quarantined) worker draining its ring.
            total = sum(row.get("edges", 0) + row.get("edges_discarded", 0)
                        for row in shards)
            if total != dump["edges_ingested"]:
                errors.append(
                    f"$: shard edges+discarded sum {total} != "
                    f"edges_ingested {dump['edges_ingested']}")
        quarantined_rows = sum(row.get("quarantined", 0) for row in shards)
        if dump.get("shards_quarantined", quarantined_rows) != quarantined_rows:
            errors.append(
                f"$: shards_quarantined {dump['shards_quarantined']} != "
                f"sum of quarantined shard rows {quarantined_rows}")
        if "quarantined_fraction" in dump and shards:
            expect = dump.get("shards_quarantined", 0) / len(shards)
            if abs(dump["quarantined_fraction"] - expect) > 1e-3:
                errors.append(
                    f"$: quarantined_fraction {dump['quarantined_fraction']} "
                    f"inconsistent with shards_quarantined/num_shards "
                    f"{expect:.4f}")

    producers = dump.get("producers")
    if producers is not None:
        if dump.get("num_producers", len(producers)) != len(producers):
            errors.append(
                f"$: num_producers {dump['num_producers']} != "
                f"{len(producers)} producer rows")
        for i, row in enumerate(producers):
            if row.get("producer") != i:
                errors.append(f"$.producers[{i}]: producer id "
                              f"{row.get('producer')}")
        if "edges_ingested" in dump:
            # The producer rows partition the ingested stream: each edge is
            # read by exactly one producer.
            total = sum(row.get("edges", 0) for row in producers)
            if total != dump["edges_ingested"]:
                errors.append(
                    f"$: producer edges sum {total} != "
                    f"edges_ingested {dump['edges_ingested']}")
        if "stream_retries" in dump:
            retries = sum(row.get("stream_retries", 0) for row in producers)
            if retries != dump["stream_retries"]:
                errors.append(
                    f"$: producer stream_retries sum {retries} != "
                    f"stream_retries {dump['stream_retries']}")
        if "batches_recycled" in dump:
            recycled = sum(row.get("batches_recycled", 0)
                           for row in producers)
            if recycled != dump["batches_recycled"]:
                errors.append(
                    f"$: producer batches_recycled sum {recycled} != "
                    f"batches_recycled {dump['batches_recycled']}")

    space = dump.get("space")
    if space is not None:
        if space["peak_total_bytes"] < space["current_total_bytes"]:
            errors.append("$.space: peak_total_bytes < current_total_bytes")
        for name, comp in space.get("components", {}).items():
            if comp["peak_bytes"] < comp["current_bytes"]:
                errors.append(f"$.space.components.{name}: peak < current")

    serving = dump.get("serving")
    if serving is not None:
        reg = dump.get("registry", {})
        # A serving dump comes from one fresh store, so its final epoch is
        # exactly the number of snapshots it published.
        if serving["epoch"] != serving["snapshots_published"]:
            errors.append(
                f"$.serving: epoch {serving['epoch']} != "
                f"snapshots_published {serving['snapshots_published']}")
        store = serving["store"]
        for gauge, want in (
                (f'serve_snapshots_published_total{{store="{store}"}}',
                 serving["snapshots_published"]),
                (f'serve_snapshot_epoch{{store="{store}"}}',
                 serving["epoch"]),
                ("serve_ingest_edges_total", serving["edges_ingested"]),
                ("serve_ingest_segments_total", serving["segments"])):
            have = reg.get(gauge, want)
            if have != want:
                errors.append(
                    f"$.registry.{gauge}: {have} != serving section {want}")
        publish = reg.get("serve_publish_ns")
        if isinstance(publish, dict) and \
                publish["count"] != serving["snapshots_published"]:
            errors.append(
                f"$.registry.serve_publish_ns: count {publish['count']} != "
                f"snapshots_published {serving['snapshots_published']}")
        # Every publish is timed whole and in two disjoint parts (finalize,
        # then snapshot build), so the counts agree and the parts fit inside.
        if isinstance(publish, dict):
            parts = {name: reg.get(name) for name in
                     ("serve_publish_finalize_ns", "serve_publish_build_ns")}
            for name, part in parts.items():
                if not isinstance(part, dict):
                    errors.append(f"$.registry.{name}: missing")
                elif part["count"] != publish["count"]:
                    errors.append(
                        f"$.registry.{name}: count {part['count']} != "
                        f"serve_publish_ns count {publish['count']}")
            if all(isinstance(p, dict) for p in parts.values()):
                part_sum = sum(p["sum"] for p in parts.values())
                if part_sum > publish["sum"]:
                    errors.append(
                        f"$.registry: serve_publish_finalize_ns.sum + "
                        f"serve_publish_build_ns.sum {part_sum} > "
                        f"serve_publish_ns.sum {publish['sum']}")
        # Every served query is observed in exactly one per-type latency
        # histogram; every rejection is counted under exactly one reason.
        served = rejected = 0
        for name, metric in reg.items():
            if name.startswith("serve_queries_total{"):
                served += metric
                latency = reg.get(name.replace(
                    "serve_queries_total", "serve_query_latency_ns"))
                if isinstance(latency, dict) and latency["count"] != metric:
                    errors.append(
                        f"$.registry.{name}: served {metric} != latency "
                        f"observations {latency['count']}")
            elif name.startswith("serve_queries_rejected_total{"):
                rejected += metric
        if served != serving["queries_served"]:
            errors.append(
                f"$: per-type served counters sum {served} != "
                f"serving.queries_served {serving['queries_served']}")
        if rejected != serving["queries_rejected"]:
            errors.append(
                f"$: per-reason rejected counters sum {rejected} != "
                f"serving.queries_rejected {serving['queries_rejected']}")
        # Every published answer must be the one the estimator gives with
        # no guess retired: a published estimate below the largest retired
        # guess z counts here, and retirement must never cost an answer.
        for name in ("serve_guesses_retired", "serve_answers_inexact_total"):
            if name not in reg:
                errors.append(f"$.registry.{name}: missing")
        inexact = reg.get("serve_answers_inexact_total", 0)
        if inexact != 0:
            errors.append(
                f"$.registry.serve_answers_inexact_total: {inexact} "
                f"published answers fell below a retired guess")

    dist = dump.get("dist")
    if dist is not None:
        workers = dist["workers"]
        if dist["num_workers"] != len(workers):
            errors.append(
                f"$.dist: num_workers {dist['num_workers']} != "
                f"{len(workers)} worker rows")
        for i, row in enumerate(workers):
            if row.get("worker") != i:
                errors.append(f"$.dist.workers[{i}]: worker id "
                              f"{row.get('worker')}")
            # Cross-process conservation, per worker: every edge a worker
            # ingested was either processed into its state or discarded by
            # degradation — nothing leaks across the pipe boundary.
            ingested = row["edges_ingested"]
            accounted = row["edges_processed"] + row["edges_discarded"]
            if ingested != accounted:
                errors.append(
                    f"$.dist.workers[{i}]: edges_ingested {ingested} != "
                    f"processed+discarded {accounted}")
            if row["quarantined"]:
                # A quarantined worker contributed nothing to the merge, so
                # its row must count nothing (its partial work died with it).
                if row["edges_ingested"] or row["edges_processed"]:
                    errors.append(
                        f"$.dist.workers[{i}]: quarantined but carries "
                        f"nonzero edge counters")
            if row["segments_done"] > row["segments_assigned"]:
                errors.append(
                    f"$.dist.workers[{i}]: segments_done "
                    f"{row['segments_done']} > assigned "
                    f"{row['segments_assigned']}")
        # Totals are exactly the row sums: the coordinator ledger has no
        # source of counts other than what workers shipped.
        for total_key, row_key in (
                ("edges_ingested", "edges_ingested"),
                ("edges_processed", "edges_processed"),
                ("edges_discarded", "edges_discarded"),
                ("stream_retries", "stream_retries"),
                ("bytes_shipped", "bytes_shipped"),
                ("checkpoints_written", "checkpoints_written"),
                ("checkpoints_loaded", "checkpoints_loaded"),
                ("checkpoints_rejected", "checkpoints_rejected"),
                ("workers_respawned", "respawns"),
                ("crc_rejections", "crc_rejections")):
            row_sum = sum(row[row_key] for row in workers)
            if dist[total_key] != row_sum:
                errors.append(
                    f"$.dist.{total_key}: {dist[total_key]} != "
                    f"worker row sum {row_sum}")
        quarantined = sum(1 for row in workers if row["quarantined"])
        if dist["workers_quarantined"] != quarantined:
            errors.append(
                f"$.dist.workers_quarantined: {dist['workers_quarantined']} "
                f"!= {quarantined} quarantined rows")
        assigned = sum(row["segments_assigned"] for row in workers)
        if dist["num_segments"] != assigned:
            errors.append(
                f"$.dist.num_segments: {dist['num_segments']} != "
                f"sum of segments_assigned {assigned}")
        # The flat fold merges every surviving (non-quarantined) worker but
        # the root into the root: one Merge() per survivor after the first.
        survivors = len(workers) - quarantined
        if survivors > 0 and dist["merges"] != survivors - 1:
            errors.append(
                f"$.dist.merges: {dist['merges']} != {survivors} "
                f"survivors - 1")
        # PublishTo mirrors the section into the registry; the dump must be
        # one coherent snapshot, not two.
        reg = dump.get("registry", {})
        for gauge, want in (
                ("dist_num_workers", dist["num_workers"]),
                ("dist_edges_processed_total", dist["edges_processed"]),
                ("dist_bytes_shipped_total", dist["bytes_shipped"]),
                ("dist_workers_respawned_total", dist["workers_respawned"]),
                ("dist_workers_quarantined", dist["workers_quarantined"]),
                ("dist_checkpoints_written_total",
                 dist["checkpoints_written"]),
                ("dist_checkpoints_rejected_total",
                 dist["checkpoints_rejected"]),
                ("dist_poll_wakeups_total", dist["poll_wakeups"]),
                ("dist_merges_total", dist["merges"])):
            have = reg.get(gauge, want)
            if have != want:
                errors.append(
                    f"$.registry.{gauge}: {have} != dist section {want}")
        for row in workers:
            gauge = (f'dist_worker_edges_total'
                     f'{{worker="{row["worker"]}"}}')
            have = reg.get(gauge, row["edges_processed"])
            if have != row["edges_processed"]:
                errors.append(
                    f"$.registry.{gauge}: {have} != worker row "
                    f"{row['edges_processed']}")

    # hash_kernel_avx2 is a boolean fact about the run (which MapFoldedBatch
    # kernel the dispatcher resolved), published as a gauge: 0 or 1 only.
    kernel = dump.get("registry", {}).get("hash_kernel_avx2")
    if kernel is not None and kernel not in (0, 1):
        errors.append(f"$.registry.hash_kernel_avx2: {kernel} is not 0/1")

    for name, metric in dump.get("registry", {}).items():
        if isinstance(metric, dict):  # histogram
            bucket_sum = sum(count for _, count in metric["buckets"])
            if bucket_sum != metric["count"]:
                errors.append(
                    f"$.registry.{name}: bucket counts sum {bucket_sum} "
                    f"!= count {metric['count']}")
            bounds = [le for le, _ in metric["buckets"]]
            if bounds != sorted(bounds):
                errors.append(f"$.registry.{name}: bucket bounds not sorted")


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    schema_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "metrics_schema.json")
    for i, a in enumerate(argv[1:]):
        if a == "--schema":
            schema_path = argv[1:][i + 1]
            args.remove(schema_path)
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2

    try:
        with open(schema_path) as f:
            schema = json.load(f)
        with open(args[0]) as f:
            dump = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"validate_metrics: {e}", file=sys.stderr)
        return 2

    errors = []
    validate(dump, schema, "$", errors)
    if not errors:
        check_invariants(dump, errors)
    if errors:
        for e in errors:
            print(f"INVALID {e}", file=sys.stderr)
        return 1
    print(f"OK {args[0]}: {len(dump.get('registry', {}))} registry metrics, "
          f"{len(dump.get('shards', []))} shard rows, "
          f"{len(dump.get('producers', []))} producer rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
