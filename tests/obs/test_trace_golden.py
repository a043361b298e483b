"""The stitched trace, pinned byte for byte.

``repro trace --output`` at two seeds over three and five processes, and
``to_json_dict()`` of a simulated partition-and-heal run, each reduced
to the SHA-256 of its ``sort_keys`` JSON.  A change to how events are
kept or grouped must leave every digest as it is; a change that alters
what is stitched on purpose re-pins it here and says so in CHANGES.md.
The export's ``ring_size`` key is left out, so the digests name only
what is stitched, whatever bounds the log.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.gcs.cluster import Cluster

#: ``(seed, processes)`` -> digest of ``repro trace --output``.
TRACE_GOLDENS = {
    (0, 3): "e5b610468c84f19e022aee237647dbdf9973e69a2ca6563684bb84e2f7729f05",
    (0, 5): "db5a4d58b4a8546d21add351ced18a43b1857727403ad3e4b08475ac78654fcb",
    (7, 3): "06620238c02f6890c3c897d56676817233850fd9838aeb78bba4f11153833847",
    (7, 5): "25021dcb666b0cef46a8dbaa0f8c39ff6663232a94a075fc96fca4b64dfa8434",
}

PARTITION_HEAL_GOLDEN = (
    "ca8a7836ebbf48221b818215ce0b6992915bef4930b25f3a5fa1e53c9177b707"
)


def _digest(data):
    data = dict(data)
    data.pop("ring_size", None)
    encoded = json.dumps(data, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


@pytest.mark.parametrize("seed,processes", sorted(TRACE_GOLDENS))
def test_repro_trace_output_is_pinned(seed, processes, tmp_path, capsys):
    path = tmp_path / "trace.json"
    argv = ["trace", "--seed", str(seed), "--processes", str(processes),
            "--output", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    assert _digest(data) == TRACE_GOLDENS[(seed, processes)]


def test_partition_and_heal_trace_is_pinned():
    procs = ["p1", "p2", "p3", "p4", "p5"]
    cluster = Cluster(procs, seed=4, obs=True)
    cluster.start().settle(max_time=500.0)
    for i in range(6):
        cluster.bcast(procs[i % 5], ("before", i))
    cluster.settle(max_time=5000.0)
    cluster.partition(["p1", "p2", "p3"], ["p4", "p5"])
    cluster.settle(max_time=5000.0)
    for i in range(6):
        cluster.bcast(procs[i % 5], ("split", i),
                      ordering="cb" if i % 2 else "to")
    cluster.settle(max_time=5000.0)
    cluster.heal()
    cluster.settle(max_time=5000.0)
    for i in range(6):
        cluster.bcast(procs[i % 5], ("after", i))
    cluster.settle(max_time=5000.0)
    data = cluster.obs.tracer.to_json_dict()
    assert data["summary"]["views"] == 4
    assert data["summary"]["orphans"] == 0
    assert _digest(data) == PARTITION_HEAL_GOLDEN
