"""DVS016-DVS018: the async-hazard pass on its fixtures, the facade
classification of the real runtime (caller-thread blocking is *not* a
loop hazard), and the acceptance-critical mutation checks on the real
tree.
"""

import os
import shutil

import pytest

from repro.lint import LintConfig, lint_paths

from tests.lint.conftest import fixture_path, findings_for, rule_ids

ASYNC_RULES = frozenset({"DVS016", "DVS017", "DVS018"})

SRC_RUNTIME = os.path.join("src", "repro", "runtime")


def _config(glob):
    return LintConfig(select=ASYNC_RULES, runtime_globs=(glob,))


def _bad_report():
    return lint_paths(
        [fixture_path("async_bad.py")],
        config=_config("*/fixtures/async_bad.py"),
    )


def test_blocking_calls_found_through_the_call_graph():
    report = _bad_report()
    blocking = findings_for(report, "DVS016")
    assert len(blocking) == 3
    messages = " | ".join(f.message for f in blocking)
    assert "time.sleep" in messages
    assert "subprocess.run" in messages
    assert "fut.result()" in messages
    # The sync helper is only a hazard because a coroutine reaches it:
    # the finding names the originating coroutine, two hops away.
    assert "ack" in messages


def test_dropped_task_and_torn_write_sites():
    report = _bad_report()
    (dropped,) = findings_for(report, "DVS017")
    assert "ensure_future" in dropped.message
    (torn,) = findings_for(report, "DVS018")
    assert "self.view" in torn.message
    assert "33" in torn.message and "35" in torn.message


def test_good_fixture_is_clean():
    report = lint_paths(
        [fixture_path("async_good.py")],
        config=_config("*/fixtures/async_good.py"),
    )
    assert report.ok, report.to_text()


def test_classification_of_the_real_runtime():
    """The audit the pass exists for: the facade's caller-thread
    ``time.sleep``/``fut.result`` sites (cluster.py, chaos.py) are NOT
    loop hazards -- only coroutine-reachable blocking is."""
    for name in ("cluster.py", "chaos.py"):
        with open(os.path.join(SRC_RUNTIME, name),
                  encoding="utf-8") as handle:
            assert "time.sleep" in handle.read(), (
                "expected a caller-thread sleep in " + name
            )
    report = lint_paths(["src/repro"], config=LintConfig(
        select=ASYNC_RULES,
    ))
    assert report.ok, report.to_text()


# -- Mutations on the real runtime -------------------------------------

_MUTATIONS = {
    # Pure: the node is still stopped; the loop just stalls first.
    "blocking_stop": (
        "cluster.py",
        "self._cb_apps.pop(pid, None)\n        await node.stop()",
        "self._cb_apps.pop(pid, None)\n        time.sleep(0.05)\n"
        "        await node.stop()",
        "DVS016",
    ),
    "dropped_reader_task": (
        "transport.py",
        "self._redial = asyncio.ensure_future(self._dial(0.0))",
        "asyncio.ensure_future(self._dial(0.0))",
        "DVS017",
    ),
    # ISSUE 22's prototype, the rule's first real-code finding: a
    # coroutine (there the old writer loop, here the redial) publishes
    # the transport ``send_frame``'s fast path reads around its own
    # await, instead of leaving it to connection_made/connection_lost.
    "forked_fast_path": (
        "transport.py",
        "                await loop.create_connection(\n"
        "                    lambda: self, host, port, **_ALL_ERRORS\n"
        "                )\n",
        "                self._transport = None\n"
        "                made = await loop.create_connection(\n"
        "                    lambda: self, host, port, **_ALL_ERRORS\n"
        "                )\n"
        "                self._transport = made[0]\n",
        "DVS018",
    ),
}


@pytest.mark.parametrize("name", sorted(_MUTATIONS))
def test_mutating_the_runtime_reintroduces_findings(tmp_path, name):
    """Acceptance: blocking a coroutine, dropping a task ref or tearing
    an invariant across an await in the shipped runtime is reported."""
    filename, original, replacement, expected_rule = _MUTATIONS[name]
    tree = tmp_path / "repro" / "runtime"
    shutil.copytree(SRC_RUNTIME, tree)
    target = tree / filename
    source = target.read_text()
    assert original in source, "mutation anchor drifted"
    target.write_text(source.replace(original, replacement))
    report = lint_paths([str(tmp_path)], config=LintConfig(
        select=ASYNC_RULES,
    ))
    assert expected_rule in rule_ids(report), report.to_text()
    assert all(
        f.path.endswith(filename)
        for f in findings_for(report, expected_rule)
    )


def test_unmutated_runtime_is_clean():
    report = lint_paths(["src/repro"], config=LintConfig(
        select=ASYNC_RULES,
    ))
    assert report.ok, report.to_text()
