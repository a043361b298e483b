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
    """The per-stage delivery-latency table of ``Tracer.stage_summary()``:
    the four stages, then ``total`` and each tier's ``total.<tier>``."""
    rows = [
        [
            stage,
            "{0:.3f}".format(stats["p50_ms"]),
            "{0:.3f}".format(stats["mean_ms"]),
            "{0:.3f}".format(stats["p95_ms"]),
            "{0:.3f}".format(stats["max_ms"]),
        ]
        for stage, stats in summary["stages"].items()
    ]
    return render_table(
        ["stage", "p50 ms", "mean ms", "p95 ms", "max ms"],
        rows,
        title="per-stage delivery latency: {0} deliveries, "
              "{1} view span(s), {2} orphan(s)".format(
                  summary["deliveries"], summary["views"],
                  summary["orphans"]),
    )


def render_counts_table(counts):
    """One row per recorded action or probe name of ``Observability``."""
    return render_table(
        ["action", "count"], sorted(counts.items()), title="action counts"
    )


def report_observability(trace, trace_json=None, snapshot=None,
                         metrics_json=None):
    """What ``repro trace`` and an observed ``repro serve`` print: the
    stage table of a ``Tracer.to_json_dict()`` (and the counts table of
    an observed cluster's ``obs_snapshot()``), each then written to its
    path."""
    print(render_stage_table(trace["summary"]))
    if snapshot is not None:
        print(render_counts_table(snapshot["counts"]))
    for what, path, data in (("metrics snapshot", metrics_json, snapshot),
                             ("trace JSON", trace_json, trace)):
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(data, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("{0} written to {1}".format(what, path))
