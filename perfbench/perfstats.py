"""Statistics of the benchmark: turns the harness's raw measurements into the
metrics BENCHMARK.json names, and checks the result line's schema.

Pure functions only (no I/O), so test_perfstats.py can pin each rule.
"""

import math
import statistics

# Percentiles a tail metric may report, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

# The span each workload's end-to-end anchor comes from, for the tracing
# overhead and for how much of it the layer self times account for:
# (untraced metric, traced span whose duration is the same operation,
#  spans whose self times lie along the blocking path).
ANCHORS = {
    "expert_loop": ("step_ms", "expert.cycle",
                    ("core.select", "sim.oracle", "core.assert",
                     "core.uncertainty")),
    "cold_start": ("open_ms", "server.open", ("core.create",)),
    "durable_crowd": ("assert_service_ms", "server.request",
                      ("server.journal.append", "core.assert")),
}


class InsufficientSamples(ValueError):
    """A tail percentile was asked of too few samples."""


def _rank(count, p):
    """1-based nearest rank of the p-th percentile among `count` samples:
    ceil(p / 100 * count), in integers (p has at most one decimal) so that
    p99.9 of 10000 is rank 9990, not 9991."""
    tenths = int(round(p * 10))
    return max(1, -(-tenths * count // 1000))


def nearest_rank(values, p):
    """The p-th percentile by nearest rank: the smallest sample with at
    least p percent of all samples at or below it."""
    if not values:
        raise InsufficientSamples("no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(count, p):
    """How many of `count` samples lie strictly above the p-th percentile."""
    return count - _rank(count, p)


def highest_supported_percentile(count):
    """The highest ladder percentile with at least MIN_BEYOND samples beyond
    it, or None when even the median lacks them."""
    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(count, p) >= MIN_BEYOND:
            best = p
    return best


def tail(values, p):
    """The p-th percentile, refused unless the sample count supports it."""
    supported = highest_supported_percentile(len(values))
    if supported is None or supported < p:
        raise InsufficientSamples(
            "p%g needs %d samples beyond it; %d samples support at most %s"
            % (p, MIN_BEYOND, len(values),
               "nothing" if supported is None else "p%g" % supported))
    return nearest_rank(values, p)


def self_times(spans):
    """Self time of every span, in ns: its duration minus the part of its
    interval that its child spans cover (overlapping children count once).

    `spans` holds [id, parent, request, name, start_ns, end_ns] rows."""
    children = {}
    for row in spans:
        children.setdefault(row[1], []).append((row[4], row[5]))
    result = {}
    for span_id, _parent, _request, _name, start, end in spans:
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def layer_self_ms(spans):
    """Median self time per span name, in ms, and the span count per name."""
    own = self_times(spans)
    by_name = {}
    for row in spans:
        by_name.setdefault(row[3], []).append(own[row[0]] / 1e6)
    medians = {name: statistics.median(v) for name, v in by_name.items()}
    return medians, {name: len(v) for name, v in by_name.items()}


def span_duration_ms(spans, name):
    """Durations of the spans called `name`, in ms."""
    return [(row[5] - row[4]) / 1e6 for row in spans if row[3] == name]


def open_loop(requests, kind):
    """Latency from the due time and generator lateness of the open-loop
    requests of `kind`, in ms. Rows are [kind, due_ns, sent_ns, done_ns]:
    a request the generator sent late still counts its lateness as latency,
    so a stall shows in every request queued behind it."""
    rows = [r for r in requests if r[0] == kind]
    latency = [(done - due) / 1e6 for _k, due, _sent, done in rows]
    late = [(sent - due) / 1e6 for _k, due, sent, _done in rows]
    return latency, late


def latency_samples(passdata, kind):
    """The latency samples of `kind` in ms: open-loop rows (timed from the
    due time) when the pass has them, else the closed-loop samples."""
    latency, _late = open_loop(passdata.get("requests", []), kind)
    if latency:
        return latency
    return passdata.get("samples", {}).get(kind + "_ms", [])


def end_to_end(raw):
    """The end-to-end metrics of the untraced pass, with sample counts."""
    u = raw["untraced"]
    samples = u["samples"]
    counters = u["counters"]
    values = {}
    counts = {}

    def put(name, value, count):
        values[name] = value
        counts[name] = count

    put("setup_s", statistics.median(samples["setup_s"]),
        len(samples["setup_s"]))
    for kind in ("open", "step", "assert"):
        lat = latency_samples(u, kind)
        put(kind + "_p50_ms", statistics.median(lat), len(lat))
        put(kind + "_p90_ms", tail(lat, 90.0), len(lat))
    snap = latency_samples(u, "snapshot")
    put("snapshot_p50_ms", statistics.median(snap), len(snap))
    put("steps_per_s", counters["steps"] / counters["elapsed_s"],
        int(counters["steps"]))
    put("uncertainty_left", statistics.fmean(samples["uncertainty_left"]),
        len(samples["uncertainty_left"]))
    put("recover_s", statistics.median(samples["recover_s"]),
        len(samples["recover_s"]))
    put("peak_rss_mb", raw["peak_rss_mb"], 1)
    return values, counts


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def per_layer(raw):
    """The per-layer metrics of the traced pass, with the span count each
    self-time median rests on. A layer the workload does not reach reads 0."""
    t = raw["traced"]
    spans = t["spans"]
    counters = t["counters"]
    samples = t["samples"]
    own, span_counts = layer_self_ms(spans)
    out = {}
    counts = {}
    for name in ("datasets.generate", "matchers.match", "constraints.compile",
                 "core.artifact", "core.create", "core.select", "core.assert",
                 "core.uncertainty", "server.open", "server.snapshot",
                 "server.request", "server.journal.append"):
        out[name + "_ms"] = own.get(name, 0.0)
        counts[name + "_ms"] = span_counts.get(name, 0)
    for name in ("matchers.candidates", "core.assert_rejected",
                 "server.exec_ewma_ms", "server.shed", "server.expired",
                 "server.journal.bytes", "server.recover.sessions",
                 "server.recover.asserts_replayed"):
        out[name] = counters.get(name, 0.0)
    out["core.components"] = _median_or_zero(samples.get("core.components"))
    out["core.exact_share"] = _median_or_zero(samples.get("core.exact_share"))
    uncertain = samples.get("core.select_uncertain")
    out["core.select_uncertain"] = statistics.fmean(uncertain) if uncertain else 0.0
    _lat, late = open_loop(t.get("requests", []), "assert")
    out["load.late_p90_ms"] = tail(late, 90.0) if late else 0.0

    untraced_metric, traced_span, blocking = ANCHORS[raw["workload"]]
    u = raw["untraced"]
    if untraced_metric == "assert_service_ms":
        # The request's service time (sent → done) on both passes.
        base = [(r[3] - r[2]) / 1e6 for r in u["requests"] if r[0] == "assert"]
    else:
        base = u["samples"][untraced_metric]
    base_p50 = statistics.median(base)
    traced_p50 = statistics.median(span_duration_ms(spans, traced_span))
    out["trace.overhead_share"] = traced_p50 / base_p50 - 1.0
    out["trace.accounted_share"] = sum(own.get(n, 0.0) for n in blocking) / base_p50
    return out, counts


def validate_result(result, expected_metrics):
    """Problems with a result line (empty list when it is well formed):
    exactly the four keys, whole-number counts, and exactly the expected
    metrics, each a finite number with its unit."""
    problems = []
    if not isinstance(result, dict):
        return ["result is not an object"]
    keys = set(result)
    if keys != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys are %s" % sorted(keys))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        value = result[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    if set(metrics) != set(expected_metrics):
        problems.append("metrics differ: missing %s, extra %s" % (
            sorted(set(expected_metrics) - set(metrics)),
            sorted(set(metrics) - set(expected_metrics))))
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append("%s is not {value, unit}" % name)
            continue
        value = entry["value"]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append("%s value is not a finite number" % name)
        if name in expected_metrics and entry["unit"] != expected_metrics[name]:
            problems.append("%s unit is %r, not %r" % (
                name, entry["unit"], expected_metrics[name]))
    return problems
