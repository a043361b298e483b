"""gcsbench: the committed benchmark of the live VS -> DVS -> {TO, CB} stack.

Drives an in-process :class:`repro.runtime.cluster.RuntimeCluster` over
loopback TCP with the load generator running on the cluster's own event
loop, reports the end-to-end metrics a client of the group would see,
checks every replica's output, and attributes processor time to the
repo's layers from a second, traced run.  Nothing under ``src/`` knows
this package exists: layers are measured from outside, by bracketing
calls into their public functions.

See ``README.md`` in this directory for the metric glossary, the ground
rules and the baseline.
"""
