"""compare: improved / unchanged / regressed / unresolved."""

from benchmarks.gcsbench import compare


def row(values, better="higher", bound=0.10):
    ordered = sorted(values)
    return {
        "better": better, "bound": bound, "unit": "x", "values": values,
        "median": ordered[len(ordered) // 2], "min": ordered[0],
        "max": ordered[-1],
    }


def test_within_bound_and_noise_is_unchanged():
    assert compare.judge(row([100, 101, 102]), row([99, 100, 103])) == (
        compare.UNCHANGED
    )


def test_worse_by_more_than_the_bound_regresses():
    assert compare.judge(row([100, 101, 102]), row([80, 81, 82])) == (
        compare.REGRESSED
    )
    assert compare.judge(
        row([10, 10.1, 10.2], better="lower"),
        row([12, 12.1, 12.2], better="lower"),
    ) == compare.REGRESSED


def test_better_on_every_run_is_improved():
    assert compare.judge(row([100, 101, 102]), row([120, 121, 125])) == (
        compare.IMPROVED
    )


def test_spread_wider_than_the_bound_is_unresolved():
    assert compare.judge(row([80, 100, 120]), row([85, 95, 125])) == (
        compare.UNRESOLVED
    )
    # ... unless every run of the change beats every run of the parent.
    assert compare.judge(row([80, 100, 120]), row([130, 150, 170])) == (
        compare.IMPROVED
    )


def test_failed_share_has_an_absolute_bound():
    parent = row([0.0, 0.0, 0.0], better="lower", bound=0.0)
    assert compare.judge(parent, row([0.0, 0.0, 0.0], "lower", 0.0)) == (
        compare.UNCHANGED
    )
    assert compare.judge(parent, row([0.0, 0.01, 0.02], "lower", 0.0)) == (
        compare.REGRESSED
    )


def test_compare_walks_two_documents_and_renders():
    def document(throughput):
        return {"workloads": {"to_small_n3": {"end_to_end": {
            "throughput_rps": row(throughput),
        }}}}

    rows = compare.compare(document([300, 301, 302]), document([200, 201, 202]))
    assert [r["verdict"] for r in rows] == [compare.REGRESSED]
    assert "regressed" in compare.render(rows)
    missing = compare.compare(document([300, 301, 302]), {"workloads": {}})
    assert missing[0]["verdict"] == compare.UNRESOLVED
