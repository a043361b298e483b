"""E6 -- the paper's motivation, quantified: dynamic vs static primaries.

Three regimes over the same connectivity histories:

1. fixed population, random partitions -- static and dynamic comparable;
2. drifting population (permanent departures, fresh joins) -- static
   majority availability collapses, dynamic voting keeps tracking;
3. interrupted formations -- naive dynamic voting forms disjoint
   primaries (split brain), the LKD/DVS rule never does.

The printed tables are the reference results recorded in EXPERIMENTS.md.
"""

from repro.analysis import e6_table, render_table

HEADERS = ["rule", "availability", "primaries", "disjoint"]


def test_bench_fixed_population(benchmark):
    results = benchmark(e6_table, "fixed population")
    print()
    print(render_table(HEADERS, [r.row() for r in results],
                       title="E6a: fixed population"))
    static, dynamic, lagged = results
    assert abs(static.availability - dynamic.availability) < 0.2
    assert all(r.disjoint_incidents == 0 for r in results)


def test_bench_drifting_population(benchmark):
    results = benchmark(e6_table, "drifting population")
    print()
    print(render_table(HEADERS, [r.row() for r in results],
                       title="E6b: drifting population"))
    static, dynamic = results
    assert static.availability < 0.3
    assert dynamic.availability > 0.6


def test_bench_interrupted_formations(benchmark):
    results = benchmark(e6_table, "interrupted formations")
    print()
    print(render_table(HEADERS, [r.row() for r in results],
                       title="E6c: interrupted formations (split brain)"))
    naive, dvs = results
    assert naive.disjoint_incidents > 0
    assert dvs.disjoint_incidents == 0
