"""Why dynamic primary views: the availability study (experiment E6).

Compares, over identical connectivity histories, the static-majority
notion of primary the paper moves away from, the DVS/Lotem-Keidar-Dolev
dynamic voting rule it specifies, and the flawed "naive" dynamic rule the
LKD subtleties warn about:

1. fixed population  -- static and dynamic are comparable;
2. drifting population -- static availability collapses, dynamic tracks;
3. interrupted formations -- the naive rule forms disjoint primaries
   (split brain), dynamic voting never does.

Run:  python examples/availability_study.py
"""

from repro.analysis import E6_REGIMES, e6_table, render_table

HEADERS = ["rule", "availability", "primaries formed", "disjoint primaries"]
TITLES = (
    "Fixed population, random partitions",
    "Drifting population (joins and departures)",
    "Interrupted view formations (the LKD subtlety)",
)


def main():
    print("\n\n".join(
        render_table(
            HEADERS, [r.row() for r in e6_table(regime)], title=title
        )
        for regime, title in zip(E6_REGIMES, TITLES)
    ))
    print(
        "\nNote the nonzero 'disjoint primaries' for the naive rule: two\n"
        "components simultaneously believed they were the primary -- the\n"
        "failure the DVS intersection invariant (4.1) rules out."
    )


if __name__ == "__main__":
    main()
