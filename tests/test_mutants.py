"""The mutant registry stays applicable, documented and re-measurable.

The runner itself (``python -m tests.mutants``) runs the dynamic suite
once per mutant and lives in CI; here tier-1 checks what is cheap: each
anchor still occurs once, DESIGN.md shows the registry as it is, and
the runner notices when a recorded killer stops killing.
"""

import dataclasses
import io
import os

import pytest

from tests import mutants

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_every_anchor_occurs_exactly_once(mutant):
    path = os.path.join(mutants.SRC, "repro", mutant.file)
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    assert mutants.mutate(mutant, source) != source


def test_names_are_unique():
    assert len(mutants.BY_NAME) == len(mutants.MUTANTS)


def test_a_rule_retires_only_when_its_mutants_are_killed():
    """``retired`` is the record of the static rules each killer let go:
    a retired rule's mutants all have a killer, and every one of the
    contract rules DVS001-011 has at least one."""
    for mutant in mutants.MUTANTS:
        if mutant.retired:
            assert mutant.killer is not None, mutant.name
    retired = set().union(*(m.retired for m in mutants.MUTANTS))
    contract = {"DVS{0:03d}".format(number) for number in range(1, 12)}
    assert contract <= retired, sorted(contract - retired)


def test_design_shows_the_rendered_kill_matrix():
    with open(os.path.join(REPO, "DESIGN.md"), encoding="utf-8") as handle:
        design = handle.read()
    assert mutants.render_table() in design


def test_deselecting_the_recorded_killer_flips_the_verdict():
    """The runner's self-test: with its recorded killer in the suite the
    mutant is killed as recorded (exit 0); with the killer deselected
    it survives, and the runner reports the change (exit 1)."""
    mutant = mutants.BY_NAME["untracked_recover"]
    killer = mutant.killer
    out = io.StringIO()
    assert mutants.main([mutant.name], suite=(killer,), out=out) == 0, (
        out.getvalue())
    out = io.StringIO()
    suite = (killer.partition("[")[0], "--deselect=" + killer)
    assert mutants.main([mutant.name], suite=suite, out=out) == 1
    assert "untracked_recover      survives" in out.getvalue()
    assert "verdict changed: untracked_recover" in out.getvalue()


def test_a_changed_kill_prints_the_killers_summary_line(monkeypatch):
    """A kill the registry did not record prints pytest's ``-rfE`` line
    for the killer, with its reason: a flaky kill is told from a real
    one without re-running."""
    recorded = mutants.BY_NAME["untracked_recover"]
    survivor = dataclasses.replace(recorded, killer=None)
    monkeypatch.setitem(mutants.BY_NAME, survivor.name, survivor)
    out = io.StringIO()
    assert mutants.main([survivor.name], suite=(recorded.killer,),
                        out=out) == 1
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("untracked_recover      killed by ")
    assert lines[1].startswith("  FAILED ")
    assert recorded.killer.rpartition("::")[2] in lines[1]
    assert " - " in lines[1]  # the reason pytest gave
    assert lines[2] == "verdict changed: untracked_recover"
