"""Two results files -> one verdict per workload x end-to-end metric.

The rule is the choosing-metrics guide's: a metric *regressed* when the
change's median is worse than the parent's by more than the metric's
bound; where either side's run-to-run spread is wider than the bound
the row is *unresolved*, not unchanged -- unless every run of one side
reads better than every run of the other.  ``failed_share`` has an
absolute bound: any failed request the parent did not have regresses.
"""

IMPROVED, UNCHANGED, REGRESSED, UNRESOLVED = (
    "improved", "unchanged", "regressed", "unresolved"
)


def relative_range(row):
    """(max - min) / median over a side's repetitions."""
    median = row["median"]
    return (row["max"] - row["min"]) / abs(median) if median else 0.0


def worsening(parent, change, better):
    """By what share of the parent's median the change is worse
    (negative: better)."""
    if not parent:
        return 0.0 if not change else float("inf")
    delta = (change - parent) / abs(parent)
    return -delta if better == "higher" else delta


def _every_run_better(winner, loser, better):
    if better == "higher":
        return min(winner["values"]) > max(loser["values"])
    return max(winner["values"]) < min(loser["values"])


def judge(parent, change):
    """Verdict for one metric given both sides' summary rows."""
    better, bound = parent["better"], parent["bound"]
    worse_by = worsening(parent["median"], change["median"], better)
    if bound == 0.0:
        if change["median"] > parent["median"]:
            return REGRESSED
        return IMPROVED if change["median"] < parent["median"] else UNCHANGED
    noise = max(relative_range(parent), relative_range(change))
    if noise > bound:
        if _every_run_better(change, parent, better):
            return IMPROVED
        if worse_by > bound and _every_run_better(parent, change, better):
            return REGRESSED
        return UNRESOLVED
    if worse_by > bound:
        return REGRESSED
    if worse_by < -noise and _every_run_better(change, parent, better):
        return IMPROVED
    return UNCHANGED


def compare(parent, change):
    rows = []
    for name in sorted(parent["workloads"]):
        ours = parent["workloads"][name]["end_to_end"]
        theirs = change["workloads"].get(name, {}).get("end_to_end", {})
        for metric in sorted(ours):
            if metric not in theirs:
                rows.append({
                    "workload": name, "metric": metric,
                    "parent": ours[metric]["median"], "change": None,
                    "delta": None, "bound": ours[metric]["bound"],
                    "unit": ours[metric]["unit"], "verdict": UNRESOLVED,
                })
                continue
            p, c = ours[metric], theirs[metric]
            rows.append({
                "workload": name, "metric": metric,
                "parent": p["median"], "change": c["median"],
                "delta": (
                    (c["median"] - p["median"]) / abs(p["median"])
                    if p["median"] else None
                ),
                "bound": p["bound"], "unit": p["unit"],
                "verdict": judge(p, c),
            })
    return rows


def render(rows):
    lines = ["{0:<16}{1:<22}{2:>12}{3:>12}{4:>9}{5:>8}  {6}".format(
        "workload", "metric", "parent", "change", "delta", "bound",
        "verdict",
    )]
    for row in rows:
        lines.append(
            "{0:<16}{1:<22}{2:>12.4f}{3:>12}{4:>9}{5:>8}  {6}".format(
                row["workload"], row["metric"], row["parent"],
                "n/a" if row["change"] is None
                else "{0:.4f}".format(row["change"]),
                "n/a" if row["delta"] is None
                else "{0:+.1%}".format(row["delta"]),
                "abs 0" if row["bound"] == 0.0
                else "{0:.0%}".format(row["bound"]),
                row["verdict"],
            )
        )
    return "\n".join(lines)
