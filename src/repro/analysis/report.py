"""Plain-text table rendering for benchmark and experiment output."""

import json


def render_table(headers, rows, title=None):
    """Render an aligned ASCII table; returns the string."""
    headers = [str(h) for h in headers]
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells):
        return "  ".join(
            cell.ljust(widths[index]) for index, cell in enumerate(cells)
        ).rstrip()

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append("  ".join("-" * w for w in widths))
    parts.extend(line(row) for row in rows)
    return "\n".join(parts)


def render_stage_table(summary):
    """The per-stage delivery-latency table of ``Tracer.stage_summary()``."""
    rows = []
    for stage in ("wire", "vs", "dvs", "to", "cb", "total"):
        stats = summary["stages"].get(stage)
        if stats is None:
            continue
        rows.append([
            stage,
            "{0:.3f}".format(stats["p50_ms"]),
            "{0:.3f}".format(stats["mean_ms"]),
            "{0:.3f}".format(stats["p95_ms"]),
            "{0:.3f}".format(stats["max_ms"]),
        ])
    return render_table(
        ["stage", "p50 ms", "mean ms", "p95 ms", "max ms"],
        rows,
        title="per-stage delivery latency: {0} deliveries, "
              "{1} view span(s), {2} orphan(s)".format(
                  summary["deliveries"], summary["views"],
                  summary["orphans"]),
    )


def _format_metric(snap):
    if snap["type"] == "histogram":
        return "n={0} p50={1:.6g} p95={2:.6g} max={3:.6g}".format(
            snap["count"], snap["p50"] or 0, snap["p95"] or 0,
            snap["max"] or 0,
        )
    if snap["type"] == "gauge":
        return "{0} (high {1})".format(snap["value"], snap["high"])
    return str(snap["value"])


def render_metrics_table(metrics):
    """One row per instrument of a ``MetricsRegistry.snapshot()``."""
    rows = [
        [name, snap["type"], _format_metric(snap)]
        for name, snap in sorted(metrics.items())
    ]
    return render_table(["metric", "type", "value"], rows, title="metrics")


def report_observability(trace, trace_json=None, snapshot=None,
                         metrics_json=None):
    """What ``repro trace`` and an observed ``repro serve`` print: the
    stage table of a ``Tracer.to_json_dict()`` (and the metrics table of
    an ``Observability.snapshot()``), each then written to its path."""
    print(render_stage_table(trace["summary"]))
    if snapshot is not None:
        print(render_metrics_table(snapshot["metrics"]))
    for what, path, data in (("metrics snapshot", metrics_json, snapshot),
                             ("trace JSON", trace_json, trace)):
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(data, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("{0} written to {1}".format(what, path))
