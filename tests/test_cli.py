"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import _build_chaos_plan, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.seeds == 3
        assert args.processes == 3


class TestCommands:
    def test_verify(self, capsys):
        code = main(["verify", "--seeds", "1", "--steps", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "5.1-5.6" in out

    def test_availability(self, capsys):
        code = main(["availability"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fixed population" in out
        assert "drifting population" in out
        assert "dynamic voting (DVS)" in out
        # The third table shows what README / EXPERIMENTS E6c cite: the
        # naive rule splits the brain, Figure 3's rule never does.
        third = out.split("interrupted formations\n")[1].splitlines()
        disjoint = {
            line.split("  ")[0]: int(line.split()[-1]) for line in third[2:]
        }
        assert disjoint["naive dynamic (flawed)"] > 0
        assert disjoint["dynamic voting (DVS)"] == 0

    def test_explore(self, capsys):
        code = main(["explore", "--max-states", "3000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "invariants hold" in out

    def test_isis(self, capsys):
        code = main(["isis", "--seeds", "5", "--steps", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Isis" in out


class TestServe:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.processes == 3
        assert args.requests == 60
        assert args.pid is None

    def test_loopback_run_with_crash(self, capsys):
        code = main(["serve", "--requests", "20", "--timeout", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "primary view formed" in out
        assert "killing n3" in out
        assert "rejoined and caught up" in out
        assert "no violations" in out

    def test_loopback_no_kill(self, capsys):
        code = main(
            ["serve", "--requests", "9", "--no-kill", "--timeout", "30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "killing" not in out
        assert "no violations" in out

    def test_observed_run_prints_tables_and_writes_snapshots(
        self, tmp_path, capsys
    ):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.json"
        code = main(
            ["serve", "--no-kill", "--requests", "20",
             "--metrics-json", str(metrics_path),
             "--trace-json", str(trace_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-stage delivery latency" in out
        assert " 0 orphan(s)" in out
        assert "action counts" in out
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counts"]["bcast"] == 20
        assert metrics["trace"]["stages"]["total.to"]["count"] == 60
        assert sorted(metrics["nodes"]) == ["n1", "n2", "n3"]
        trace = json.loads(trace_path.read_text())
        assert trace["summary"]["orphans"] == 0

    def test_single_node_requires_bind(self):
        with pytest.raises(SystemExit):
            main(["serve", "--pid", "n1"])

    def test_single_node_runs_for_duration(self, capsys):
        code = main(
            ["serve", "--pid", "n1", "--bind", "127.0.0.1:0",
             "--duration", "0.3", "--hb-interval", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "n1 listening on 127.0.0.1:" in out
        assert "stopped" in out


class TestChaos:
    def test_healthy_run_is_clean(self, capsys):
        code = main(
            ["chaos", "--seed", "3", "--processes", "4",
             "--plan", "churn", "--duration", "120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no safety violations" in out
        assert "log digest:" in out

    def test_same_seed_same_digest(self, capsys):
        def digest():
            main(["chaos", "--seed", "5", "--processes", "4",
                  "--plan", "storm", "--duration", "120"])
            out = capsys.readouterr().out
            (line,) = [l for l in out.splitlines()
                       if l.startswith("log digest:")]
            return line

        assert digest() == digest()

    def test_broken_stack_shrinks_to_repro(self, capsys):
        code = main(
            ["chaos", "--seed", "0", "--processes", "5",
             "--plan", "churn", "--duration", "160", "--broken",
             "--max-probes", "40"]
        )
        assert code == 1
        out = capsys.readouterr().out
        # The online violation is printed as the verdict's own line.
        (verdict,) = [l for l in out.splitlines()
                      if l.startswith("DVS rejected at #")]
        assert "SAFETY VIOLATION: " + verdict in out
        assert "forces dvs_createview" in verdict
        assert "replay: python -m repro chaos" in out
        assert "--broken" in out

    def test_rejection_is_never_reported_as_no_violation(self, capsys):
        """A verdict line's rejection is the monitor's violation: the
        run closes with it, never with a clean bill."""
        code = main(["chaos", "--seed", "0", "--plan", "churn", "--broken",
                     "--no-shrink"])
        assert code == 1
        out = capsys.readouterr().out
        (rejected,) = [l for l in out.splitlines()
                       if l.split(" ")[:2] == ["DVS", "rejected"]]
        assert "SAFETY VIOLATION: " + rejected in out
        assert "no safety violations" not in out

    def test_plan_json_replay(self, capsys):
        plan = '[[10.0, "crash", ["p1"]], [40.0, "recover", ["p1"]]]'
        code = main(
            ["chaos", "--seed", "1", "--processes", "3",
             "--plan-json", plan, "--duration", "90"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 fault ops" in out


#: ``repro chaos`` runs whose digest and verdicts are pinned across
#: commits: a change that alters any of them on purpose re-pins it here
#: and says so in CHANGES.md.  ``(argv, exit code, log digest, verdict
#: lines)``.
CHAOS_GOLDENS = {
    "storm-5": (
        ["--seed", "5", "--plan", "storm"], 0,
        "53456ec476e837ddbcf8c10e11e8ba15d378cc909732359f36d0b219d4755fc8",
        ["VS accepted", "DVS accepted", "TO accepted"],
    ),
    "churn-3": (
        ["--seed", "3", "--plan", "churn"], 0,
        "4a01222812fcaf1282faa7b0e0aba2e881df83fa93ec8615a83cecd818603370",
        ["VS accepted", "DVS accepted", "TO accepted"],
    ),
    "broken-churn-0": (
        ["--seed", "0", "--plan", "churn", "--broken", "--no-shrink"], 1,
        "bb979f9142a860523fc33224e49a98a0724b763189ead20687729bebd8c45a15",
        [
            "VS accepted",
            "DVS rejected at #153 dvs_newview(<g2@p1,{p1,p2,p3,p4}>, "
            "'p2'): forces dvs_createview(<g2@p1,{p1,p2,p3,p4}>), which "
            "is not enabled",
            "TO accepted",
        ],
    ),
    "flaky-10": (
        ["--seed", "10", "--plan", "flaky", "--no-shrink"], 0,
        "1cb32a88c54a46cdeb61a2abd4da5eb1b703b82229171302dfb9124ce09df437",
        ["VS accepted", "DVS accepted", "TO accepted"],
    ),
}


@pytest.mark.parametrize("name", sorted(CHAOS_GOLDENS))
def test_simulator_chaos_golden(name, capsys):
    argv, exit_code, digest, verdicts = CHAOS_GOLDENS[name]
    assert main(["chaos"] + argv) == exit_code
    lines = capsys.readouterr().out.splitlines()
    assert "log digest: " + digest in lines
    assert [l for l in lines if l.split(" ")[0] in ("VS", "DVS", "TO")] \
        == verdicts


def test_a_chaos_golden_replays_under_two_hash_seeds():
    """Seed replay owes nothing to hash order, the wall clock, ambient
    entropy or object addresses: one golden, run in two fresh
    interpreters under ``PYTHONHASHSEED`` 0 and 1, prints the pinned
    digest in both.  The two seeds iterate the member set in different
    orders, so an unsorted walk over members on the run's path cannot
    pass both; tier-1's own random hash seed catches it only by
    chance."""
    argv, exit_code, digest, _ = CHAOS_GOLDENS["churn-3"]
    src = os.path.dirname(os.path.dirname(repro.__file__))
    script = (
        "import sys; from repro.cli import main; "
        "print(list({'p1', 'p2', 'p3'})); "
        "sys.exit(main(sys.argv[1:]))"
    )
    orders = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script, "chaos"] + argv, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        lines = proc.stdout.splitlines()
        orders.add(lines[0])
        assert proc.returncode == exit_code, proc.stdout[-2000:]
        assert "log digest: " + digest in lines, (hash_seed, lines[-5:])
    assert len(orders) == 2, orders


class TestLiveChaosPlans:
    @pytest.mark.parametrize("seed", range(6))
    def test_live_storm_revives_a_node_before_the_settle(self, seed):
        """Live storm down-times are sized from the live window (faults
        over [2, duration - 2] seconds), not in simulator units: at the
        default 12 s every seed brings a crashed node back in time."""
        args = build_parser().parse_args(
            ["chaos", "--live", "--plan", "storm", "--seed", str(seed)]
        )
        procs = ["p{0}".format(i) for i in range(1, args.processes + 1)]
        plan = _build_chaos_plan(args, procs, 12.0)
        crashes = [op.at for op in plan if op.kind == "crash"]
        recovers = [op.at for op in plan if op.kind == "recover"]
        assert crashes and min(crashes) >= 2.0
        assert min(recovers) < 10.0


class TestChaosFlagConflicts:
    """Live-only and sim-only flags must fail fast, with exit code 2
    and an error that names the offending flag (satellite: no silent
    misconfiguration of a chaos run)."""

    def _error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    def test_record_requires_live(self, capsys):
        err = self._error(
            capsys, ["chaos", "--processes", "3", "--record", "x.trace"]
        )
        assert "--record" in err
        assert "requires --live" in err

    def test_hb_flags_require_live(self, capsys):
        err = self._error(
            capsys, ["chaos", "--processes", "3", "--hb-interval", "0.1"]
        )
        assert "--hb-interval" in err
        assert "requires --live" in err
        err = self._error(
            capsys, ["chaos", "--processes", "3", "--hb-timeout", "0.5"]
        )
        assert "--hb-timeout" in err

    def test_log_limit_is_sim_only(self, capsys):
        err = self._error(
            capsys,
            ["chaos", "--live", "--processes", "3", "--log-limit", "10"],
        )
        assert "--log-limit" in err
        assert "simulated runs only" in err

    def test_conflicts_are_reported_together(self, capsys):
        err = self._error(
            capsys,
            ["chaos", "--processes", "3", "--record", "x.trace",
             "--hb-interval", "0.1"],
        )
        assert "--record" in err and "--hb-interval" in err

    def test_help_marks_mode_specific_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--help"])
        out = capsys.readouterr().out
        assert "[--live only]" in out
        assert "[sim only]" in out


class TestReplayCommand:
    def test_missing_file_is_exit_2(self, capsys):
        code = main(["replay", "/nonexistent/run.trace"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().out

    def test_hostile_file_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"\x00\x00\x00\x02ok")
        code = main(["replay", str(path)])
        assert code == 2
        assert "cannot load trace" in capsys.readouterr().out

    def test_live_record_then_replay_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "run.trace"
        code = main(
            ["chaos", "--live", "--processes", "3", "--plan-json", "[]",
             "--duration", "3", "--record", str(trace)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no safety violations" in out
        assert str(trace) in out
        assert trace.exists()

        code = main(["replay", str(trace), "--check-determinism"])
        assert code == 0
        out = capsys.readouterr().out
        assert "identical digests" in out
        assert "replay digest:" in out
