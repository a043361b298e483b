"""The registry of product mutants, and the runner that re-measures it.

Each :class:`Mutant` is one small edit to the shipped source that
breaks a property some checker guards: a handoff across the runtime's
thread boundary, a task reference, a buffered position, a counter
reset.  The registry records, per mutant, which static rules of
``repro lint`` flag it and what the *dynamic* suite does with it: the
first test that fails on it (its killer), or ``None`` if every test
passes (it survives).  DESIGN.md section 8 renders its kill matrix from
this table, and a lint rule is retired only when every mutant it flags
has a named dynamic killer.  An equivalent mutant, one that cannot
change behaviour, is no evidence either way and is not registered.

The registry is re-measured by the runner::

    PYTHONPATH=src python -m tests.mutants [NAME ...]

For each named mutant (all of them when none is named) it copies
``src/`` to a temporary directory, applies the edit (failing at once if
the anchor has drifted), runs :data:`SUITE` on the copy with ``-x`` and
compares the verdict and the first killer with the registry.  It exits
non-zero on any change, in either direction: a change that kills a
survivor, or one that lets a killed mutant through, updates the
registry in the same commit.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

#: The dynamic suite: tier-1 without the linter's own tests and without
#: the one bounded exploration that takes minutes and kills nothing the
#: rest of the suite does not.  Paths are relative to the repository.
SUITE = (
    "tests",
    "--ignore=tests/lint",
    "--ignore=tests/test_lint_clean.py",
    "--deselect=tests/dvs/test_dvs_impl.py::TestBoundedExploration",
)


@dataclass(frozen=True)
class Mutant:
    """One product mutant and its recorded verdicts.

    ``file`` is relative to ``src/repro``; ``original`` must occur in it
    exactly once.  ``rules`` are the lint rules that flag the mutated
    tree; ``killer`` is the node id of the first test the dynamic suite
    fails on it, or ``None`` if the suite passes.  ``retired`` names the
    rules that flagged it until its killer let them go: if the mutant
    ever survives again, those are the rules to reconsider."""

    name: str
    file: str
    original: str
    replacement: str
    what: str
    rules: frozenset
    killer: Optional[str]
    retired: frozenset = frozenset()


MUTANTS = (
    # -- races: the facade's thread boundary (DVS012, DVS013, retired) ----
    Mutant(
        "stop_wrap", "runtime/cluster.py",
        "self._loop.call_soon_threadsafe(self._loop.stop)",
        "self._loop.stop()",
        "`stop()` stops the loop from the caller thread",
        frozenset(),
        "tests/faults/test_spec_acceptance.py::TestAmnesiacVsRemintsAViewId"
        "::test_dvs_and_to_accept",
        retired=frozenset({"DVS013"}),
    ),
    # Pure: the same call with the same arguments, on the caller thread.
    Mutant(
        "bcast_wrap", "runtime/cluster.py",
        "self._call(call)",
        "self._nodes[pid].tower.bcast(payload, ordering)",
        "`bcast()` calls the tower on the caller thread",
        frozenset(),
        "tests/integration/test_live_chaos.py::TestMarshallingUnderAsyncioDebug"
        "::test_debug_loop_accepts_the_tree_and_rejects_unmarshalled_bcast",
        retired=frozenset({"DVS012"}),
    ),
    # Pure: the node is still stopped, on the loop; only the thread the
    # three pops run on changes.
    Mutant(
        "kill_wrap", "runtime/cluster.py",
        "self._call(self._kill_async, pid, timeout=timeout)",
        "node = self._nodes.pop(pid)\n"
        "        self._apps.pop(pid, None)\n"
        "        self._cb_apps.pop(pid, None)\n"
        "        self._call(node.stop, timeout=timeout)",
        "`kill()` pops the node registries on the caller thread",
        frozenset(),
        "tests/runtime/test_facade_threads.py::"
        "test_kill_and_restart_write_the_registries_on_the_loop_thread",
        retired=frozenset({"DVS012"}),
    ),
    # -- asyncflow: the event loop (DVS016-018, retired) ------------------
    # Pure: the node is still stopped; the loop just stalls first.
    Mutant(
        "blocking_stop", "runtime/cluster.py",
        "self._cb_apps.pop(pid, None)\n        await node.stop()",
        "self._cb_apps.pop(pid, None)\n        time.sleep(0.05)\n"
        "        await node.stop()",
        "`_kill_async` stalls the loop 50 ms",
        frozenset(),
        "tests/integration/test_failover_live.py::"
        "test_no_callback_outlasts_the_slow_callback_bound",
        retired=frozenset({"DVS016"}),
    ),
    Mutant(
        "dropped_dial_task", "runtime/transport.py",
        "self._redial = asyncio.ensure_future(self._dial(0.0))",
        "asyncio.ensure_future(self._dial(0.0))",
        "`PeerLink.start` drops its dial task",
        frozenset(),
        "tests/runtime/test_bugfixes.py::"
        "test_link_close_routes_teardown_errors_to_on_error",
        retired=frozenset({"DVS017"}),
    ),
    Mutant(
        "dropped_redial_task", "runtime/transport.py",
        "self._redial = asyncio.ensure_future(self._dial(delay))",
        "asyncio.ensure_future(self._dial(delay))",
        "`PeerLink.connection_lost` drops its redial task",
        frozenset(),
        "tests/runtime/test_bugfixes.py::"
        "test_link_close_reaps_the_redial_of_a_lost_connection",
        retired=frozenset({"DVS017"}),
    ),
    Mutant(
        "untracked_crash", "runtime/faultnet.py",
        "            self._track(\n"
        "                asyncio.ensure_future(cluster.nemesis_kill(op.args[0]))\n"
        "            )\n",
        "            asyncio.ensure_future(cluster.nemesis_kill(op.args[0]))\n",
        "`LiveNemesis._apply` drops its crash task",
        frozenset(),
        "tests/runtime/test_bugfixes.py::"
        "test_nemesis_crash_failures_are_captured_not_lost[crash]",
        retired=frozenset({"DVS017"}),
    ),
    Mutant(
        "untracked_recover", "runtime/faultnet.py",
        "            self._track(\n"
        "                asyncio.ensure_future(cluster.nemesis_revive(op.args[0]))\n"
        "            )\n",
        "            asyncio.ensure_future(cluster.nemesis_revive(op.args[0]))\n",
        "`LiveNemesis._apply` drops its recover task",
        frozenset(),
        "tests/runtime/test_bugfixes.py::"
        "test_nemesis_crash_failures_are_captured_not_lost[recover]",
        retired=frozenset({"DVS017"}),
    ),
    # The first prototype of the direct write, the rule's first real-code
    # finding, replayed on the redial coroutine: it publishes the
    # transport ``send_frame`` writes to around its own await, instead
    # of leaving that to connection_made / connection_lost.
    Mutant(
        "forked_fast_path", "runtime/transport.py",
        "                await loop.create_connection(\n"
        "                    lambda: self, host, port, **_ALL_ERRORS\n"
        "                )\n",
        "                self._transport = None\n"
        "                made = await loop.create_connection(\n"
        "                    lambda: self, host, port, **_ALL_ERRORS\n"
        "                )\n"
        "                self._transport = made[0]\n",
        "`PeerLink._dial` writes `_transport` on both sides of an `await`",
        frozenset(),
        "tests/runtime/test_failover_evidence.py::"
        "test_a_connection_lost_before_the_dial_resumes_is_not_held",
        retired=frozenset({"DVS018"}),
    ),
    # -- taint (DVS020, DVS021, retired) ---------------------------------
    Mutant(
        "unvalidated_inbound", "runtime/node.py",
        "        if not self._validate_inbound(src, msg):\n"
        "            return\n",
        "",
        "`RuntimeNode._on_frame` dispatches without `_validate_inbound`",
        frozenset(),
        "tests/runtime/test_bugfixes.py::"
        "test_forged_and_unknown_frames_are_dropped_before_dispatch",
        retired=frozenset({"DVS020"}),
    ),
    Mutant(
        "unbounded_errors", "runtime/node.py",
        "deque(maxlen=ERROR_LIMIT)",
        "[]",
        "`RuntimeNode.errors` grows without bound",
        frozenset(),
        "tests/runtime/test_bugfixes.py::test_node_error_buffer_is_bounded",
        retired=frozenset({"DVS021"}),
    ),
    # -- the message path, seeded for ROADMAP item 13 ---------------------
    Mutant(
        "ack_sent_kept", "gcs/dvs_layer.py",
        "        self.ack_sent = 0\n"
        "        self.ack_wanted = 0\n"
        "        self.stack.gpsnd(InfoMsg(",
        "        self.ack_wanted = 0\n"
        "        self.stack.gpsnd(InfoMsg(",
        "`DvsLayer` keeps `ack_sent` across a new view",
        frozenset(),
        "tests/apps/test_kv_store.py::TestPartitionedCluster::"
        "test_minority_write_stalls_then_applies",
    ),
    Mutant(
        "accept_overwrites", "gcs/vs_stack.py",
        "buffer.setdefault(seq, entry)",
        "buffer[seq] = entry",
        "`VsStackNode._accept` overwrites a buffered position",
        frozenset(),
        "tests/gcs/test_stack_protocol_units.py::TestSequencerRuns::"
        "test_overlapping_and_duplicate_positions_are_ignored",
    ),
    # The self-clock as it was before acks waited for the frame's end.
    Mutant(
        "mid_batch_ack", "gcs/dvs_layer.py",
        "            self.acked[sender] = ack.count\n",
        "            self.acked[sender] = ack.count\n"
        "        if sender == self.pid:\n"
        "            self._send_ack()\n",
        "`DvsLayer._on_ack` sends the next ack at its own echo, mid-frame",
        frozenset(),
        "tests/gcs/test_dvs_layer_units.py::TestAckCoalescing::"
        "test_echo_inside_a_frame_acks_the_whole_frame",
    ),
    # The in-order fast path taken over positions already buffered: the
    # frame is delivered, what waits behind it is not.
    Mutant(
        "accept_fast_path_over_gap", "gcs/vs_stack.py",
        "if first_seq == ordering.next_deliver and entries and not buffer:",
        "if first_seq == ordering.next_deliver and entries:",
        "`VsStackNode._accept` delivers an in-order frame past a "
        "non-empty buffer",
        frozenset(),
        "tests/gcs/test_stack_protocol_units.py::TestSequencer::"
        "test_out_of_order_delivery_buffers",
    ),
    # The sequencer as it was before ``Data`` carried its sender's count
    # (ROADMAP 4(beta), 4(delta)): whatever reaches it is ordered.
    Mutant(
        "data_fifo_unchecked", "gcs/vs_stack.py",
        "        if msg.n != n:\n            self.data_refused += 1\n"
        "            return\n",
        "",
        "`VsStackNode._on_data` orders a `Data` whatever its `n`",
        frozenset(),
        "tests/faults/test_spec_acceptance.py::"
        "TestLossIsATraceInclusionViolation::"
        "test_one_dropped_data_frame_is_a_trace_of_vs",
    ),
    # -- the codec's read window --------------------------------------------
    # The window as it was before a wire bump retired the old reader: a
    # v5 peer's Hello, Heartbeat and StateReply decode, so VS installs a
    # member whose Data is refused and DVS waits for it forever.
    Mutant(
        "old_stamp_accepted", "runtime/codec.py",
        "if data[start] != WIRE_VERSION:",
        "if data[start] not in (5, WIRE_VERSION):",
        "`_decode_span` also reads stamp 5",
        frozenset(),
        "tests/runtime/test_codec_migration.py::TestVersioning::"
        "test_current_version_and_acceptance_window",
    ),
    # -- the codec's checks, derived from the declared field types ---------
    # The derivation blind to ``Optional[X]``: ``Heartbeat.view`` then
    # accepts anything, so a forged ``Heartbeat("g1@n1")`` validates and
    # decodes.
    Mutant(
        "optional_unchecked", "runtime/codec.py",
        "if get_origin(declared) is Union and",
        "if get_origin(declared) is Optional and",
        "`_optional_of` never recognises `Optional[X]`",
        frozenset(),
        "tests/runtime/test_codec_migration.py::TestHeartbeatViewOnTheWire::"
        "test_pinned_and_validated",
    ),
    # -- the trace summary, the one source of end-to-end latency -----------
    # Each tier's end-to-end row built from every delivery: on a mixed
    # run both rows read the population of ``total``.
    Mutant(
        "tier_total_unfiltered", "obs/trace.py",
        'r["total"] for r in rows if r["tier"] == tier',
        'r["total"] for r in rows',
        "`stage_summary` builds each `total.<tier>` row from every "
        "delivery",
        frozenset(),
        "tests/obs/test_live_tracing.py::"
        "test_tier_total_is_the_exact_end_to_end_latency",
    ),
    # -- reading a live trace ----------------------------------------------
    # The facade as it was before the stitch left the loop: a long trace
    # holds the loop past ``hb_timeout`` and the group re-forms.
    Mutant(
        "stitch_on_loop", "runtime/cluster.py",
        "obs, _ = self._observed()\n"
        "        return obs.tracer.to_json_dict()",
        "return self._call(self._require_obs().tracer.to_json_dict)",
        "`trace_snapshot()` stitches inside the marshalled call",
        frozenset(),
        "tests/obs/test_live_tracing.py::"
        "test_reading_never_stitches_on_the_loop_thread",
    ),
)

BY_NAME = {mutant.name: mutant for mutant in MUTANTS}


class AnchorDrift(RuntimeError):
    """The mutant's ``original`` no longer occurs exactly once."""


def mutate(mutant, source):
    """``source`` (the text of ``mutant.file``) with the edit applied."""
    count = source.count(mutant.original)
    if count != 1:
        raise AnchorDrift("{0}: anchor occurs {1} times in {2}".format(
            mutant.name, count, mutant.file))
    return source.replace(mutant.original, mutant.replacement)


def mutated_tree(mutant, root):
    """Copy ``src/`` under ``root`` with ``mutant`` applied; return the
    copy's ``src`` directory."""
    src = os.path.join(root, "src")
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = os.path.join(src, "repro", mutant.file)
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(mutate(mutant, source))
    return src


def _absolute(arg):
    """A suite argument with its repository path made absolute (the
    suite runs from a scratch directory); node ids in ``--deselect``
    stay relative to the rootdir, as pytest compares them."""
    if arg.startswith("--ignore="):
        return "--ignore=" + os.path.join(REPO, arg[len("--ignore="):])
    if arg.startswith("-"):
        return arg
    path, sep, rest = arg.partition("::")
    return os.path.join(REPO, path) + sep + rest


def first_failure(output, cwd):
    """The first ``FAILED`` / ``ERROR`` line in the short test summary
    of a run from ``cwd``, as ``(node id, line)``: the node id relative
    to the repository, and the line with that id; ``(None, None)`` if
    there is none."""
    _, marker, summary = output.partition("short test summary info")
    for line in summary.splitlines() if marker else ():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                node, dash, reason = line[len(tag):].partition(" - ")
                path, sep, rest = node.strip().partition("::")
                path = os.path.normpath(os.path.join(cwd, path))
                killer = os.path.relpath(path, REPO) + sep + rest
                return killer, tag + killer + dash + reason
    return None, None


def measure(mutant, suite=SUITE):
    """Run ``suite`` on a mutated copy of ``src/``: ``(killer, line)``,
    the first failing test's node id and its ``-rfE`` summary line (why
    it failed), or ``(None, None)`` if the suite passes."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as root:
        src = mutated_tree(mutant, root)
        # From the scratch directory, so that nothing the run writes
        # (pytest's cache, Hypothesis' example database) lands in the
        # repository.
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
             "-p", "no:cacheprovider", "--rootdir", REPO]
            + [_absolute(arg) for arg in suite],
            # Wide enough that each summary line keeps its reason.
            cwd=root, env=dict(os.environ, PYTHONPATH=src, COLUMNS="1000"),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    if proc.returncode == 0:
        return None, None
    killer, line = first_failure(proc.stdout, root)
    if killer is None:
        raise RuntimeError("{0}: pytest exited {1} with no failing test\n"
                           "{2}".format(mutant.name, proc.returncode,
                                        proc.stdout[-2000:]))
    return killer, line


def verdict(killer):
    return "survives" if killer is None else "killed by " + killer


def render_table():
    """DESIGN.md section 8's kill matrix, one row per mutant."""
    rows = [
        "| mutant | file | change | static rules | tier-1 dynamic suite |",
        "|---|---|---|---|---|",
    ]
    for mutant in MUTANTS:
        static = ", ".join(sorted(mutant.rules)) or "none"
        if mutant.retired:
            static += " (retired: {0})".format(
                ", ".join(sorted(mutant.retired)))
        rows.append("| `{0}` | `{1}` | {2} | {3} | {4} |".format(
            mutant.name, mutant.file, mutant.what, static,
            "**survives**" if mutant.killer is None
            else "killed by `{0}`".format(mutant.killer),
        ))
    return "\n".join(rows) + "\n"


def main(names=None, suite=SUITE, out=sys.stdout):
    """Measure ``names`` (default: every mutant) and compare with the
    registry; 0 if every verdict and killer is as recorded.  A changed
    verdict that is a kill also prints the killer's summary line, so a
    flaky kill can be told from a real one."""
    names = list(names or ()) or [mutant.name for mutant in MUTANTS]
    unknown = [name for name in names if name not in BY_NAME]
    if unknown:
        out.write("unknown mutant(s): {0}\n".format(", ".join(unknown)))
        return 2
    changed = []
    for name in names:
        mutant = BY_NAME[name]
        got, line = measure(mutant, suite)
        same = got == mutant.killer
        out.write("{0:<22} {1}{2}\n".format(
            name, verdict(got),
            "" if same else "   (recorded: {0})".format(
                verdict(mutant.killer))))
        if not same:
            changed.append(name)
            if line is not None:
                out.write("  {0}\n".format(line))
        out.flush()
    if changed:
        out.write("verdict changed: {0}\n".format(", ".join(changed)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
