"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_info_command(capsys):
    assert main(["info", "-n", "54"]) == 0
    out = capsys.readouterr().out
    assert "n = 54" in out
    assert "k1" in out


def test_run_ba_fault_free(capsys):
    assert main(["run-ba", "-n", "27"]) == 0
    out = capsys.readouterr().out
    assert "agreed bit" in out
    assert "validity           : True" in out


def test_run_ba_with_corruption(capsys):
    assert main(["run-ba", "-n", "27", "--corrupt", "0.1",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "corruption = 10%" in out


def test_run_ba_forced_input(capsys):
    assert main(["run-ba", "-n", "27", "--input-bit", "1"]) == 0
    out = capsys.readouterr().out
    assert "agreed bit         : 1" in out


def test_costmodel_command(capsys):
    assert main(
        ["costmodel", "--start", "1024", "--stop", "4096", "--factor", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "Phase King" in out
    assert "1,024" in out


def test_attack_guessing(capsys):
    assert main(["attack", "guessing", "-n", "60"]) == 0
    out = capsys.readouterr().out
    assert "Coin-guessing" in out
    assert "victim" in out


def test_attack_isolation(capsys):
    assert main(["attack", "isolation", "-n", "60"]) == 0
    out = capsys.readouterr().out
    assert "Isolation attack" in out
    assert "ISOLATED" in out


def test_run_async(capsys):
    assert main(["run-async", "-n", "6", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "Ben-Or" in out
    assert "common coin" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_costmodel_plot(capsys):
    assert main(
        ["costmodel", "--start", "1024", "--stop", "65536",
         "--factor", "4", "--plot"]
    ) == 0
    out = capsys.readouterr().out
    assert "fitted exponents" in out
    assert "*=this paper" in out
    assert "|" in out


def test_cost_prices_a_grid_and_names_unpriced_params(capsys):
    assert main(
        ["cost", "phase-king", "-n", "8,16", "--param", "num_phases=3"]
    ) == 0
    out = capsys.readouterr().out
    # 49 bits x num_phases x (n^2 - 1) vote messages.
    rows = [line.split() for line in out.splitlines()[2:4]]
    assert [row[:2] for row in rows] == [["8", "9,261"], ["16", "37,485"]]
    assert out.rstrip().endswith(": behavior, corrupt, inputs")


def _unpriced_trial(ctx):
    from repro.engine import TrialResult

    return TrialResult(trial_index=ctx.trial_index, seed=ctx.seed)


def test_cost_rejects_a_scenario_without_a_model(capsys):
    from repro.engine import Scenario, register

    register(
        Scenario(
            name="cli-test-unpriced",
            run_trial=_unpriced_trial,
            description="cli tests: a scenario with no cost model",
        )
    )
    assert main(["cost", "cli-test-unpriced", "-n", "8"]) == 2
    err = capsys.readouterr().err
    assert "no cost model for scenario 'cli-test-unpriced'" in err
    assert "phase-king" in err  # names the scenarios that have one


def test_report_to_stdout(capsys):
    assert main(["report", "-n", "27"]) == 0
    out = capsys.readouterr().out
    assert "# repro experiment report" in out
    assert "Everywhere BA at n = 27" in out
    assert "| corruption |" in out


def test_report_to_file(tmp_path, capsys):
    target = tmp_path / "report.md"
    assert main(["report", "-n", "27", "--out", str(target)]) == 0
    assert target.exists()
    assert "Dolev-Reischuk" in target.read_text()


def test_elect_leader_fault_free(capsys):
    assert main(["elect-leader", "-n", "27", "--rounds", "3"]) == 0
    out = capsys.readouterr().out
    assert "Leader rotation, n = 27" in out
    assert out.count("-> leader") == 3
    assert "good fraction      : 100%" in out


def test_elect_leader_with_corruption(capsys):
    assert main(
        ["elect-leader", "-n", "27", "--rounds", "3",
         "--corrupt", "0.1", "--seed", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "corruption = 10%" in out
    assert "weakest agreement" in out


def test_commit_log_fault_free(capsys):
    assert main(["commit-log", "-n", "27", "--slots", "2"]) == 0
    out = capsys.readouterr().out
    assert "Replicated log, n = 27" in out
    assert out.count("  slot ") == 2
    assert "all valid              : True" in out


def test_commit_log_with_corruption(capsys):
    assert main(
        ["commit-log", "-n", "27", "--slots", "3",
         "--corrupt", "0.1", "--seed", "4"]
    ) == 0
    out = capsys.readouterr().out
    assert "corruption = 10%" in out
    assert "amortized bits/slot" in out


def test_run_experiment_list(capsys):
    assert main(["run-experiment", "--list"]) == 0
    out = capsys.readouterr().out
    assert "everywhere-ba" in out
    assert "vss-coin [batchable]" in out


def test_run_experiment_list_shows_schema(capsys):
    """--list renders each scenario's declared parameters, types and
    defaults from the schema, plus the metric contract."""
    assert main(["run-experiment", "--list"]) == 0
    out = capsys.readouterr().out
    assert "--param corrupt: float = 0.0" in out
    assert "--param degree: int = auto" in out
    assert "one of: split, thirds, ones, zeros" in out
    assert "metrics: agreed, coin, corrupted" in out
    assert "common-coin-ba [batchable]" in out
    assert "[async]" not in out


def test_run_experiment_unknown_param_rejected(capsys):
    assert main(
        ["run-experiment", "--name", "everywhere-ba", "--trials", "1",
         "--param", "corupt=0.1"]
    ) == 2
    err = capsys.readouterr().err
    assert "unknown parameter 'corupt'" in err
    assert "did you mean 'corrupt'?" in err


def test_run_experiment_ill_typed_param_rejected(capsys):
    assert main(
        ["run-experiment", "--name", "unreliable-coin-ba", "-n", "24",
         "--trials", "1", "--param", "num_rounds=lots"]
    ) == 2
    assert "expects int" in capsys.readouterr().err


def test_run_experiment_bad_choice_rejected(capsys):
    assert main(
        ["run-experiment", "--name", "vss-coin", "-n", "7",
         "--trials", "1", "--param", "adversary=nope"]
    ) == 2
    assert "must be one of" in capsys.readouterr().err


def test_run_experiment_batch_backend_runs_async_scenarios(capsys):
    assert main(
        ["run-experiment", "--name", "common-coin-ba", "-n", "6",
         "--trials", "3", "--backend", "batch"]
    ) == 0
    out = capsys.readouterr().out
    assert "batch backend" in out
    assert "steps" in out


def test_run_experiment_serial(capsys):
    assert main(
        ["run-experiment", "--name", "vss-coin", "-n", "7",
         "--trials", "3", "--seed", "5"]
    ) == 0
    out = capsys.readouterr().out
    assert "vss-coin(n=7, trials=3, seed=5" in out
    assert "agreed" in out
    assert "3 trials, 0 failures" in out


def test_run_experiment_batch_backend(capsys):
    assert main(
        ["run-experiment", "--name", "unreliable-coin-ba", "-n", "40",
         "--trials", "4", "--backend", "batch",
         "--param", "num_rounds=1"]
    ) == 0
    out = capsys.readouterr().out
    assert "batch backend" in out
    assert "top_fraction" in out


def test_run_experiment_process_backend(capsys):
    assert main(
        ["run-experiment", "--name", "vss-coin", "-n", "7",
         "--trials", "4", "--backend", "process", "--workers", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "process backend" in out


def test_run_experiment_wave_size_reaches_the_process_backend(
    tmp_path, capsys
):
    """``--wave-size K`` sizes every sharded backend's units, the
    process backend included: 6 trials at K=3 are two 3-trial units."""
    from repro.engine.telemetry import load_report

    out = tmp_path / "telemetry.json"
    assert main(
        ["run-experiment", "--name", "vss-coin", "-n", "7",
         "--trials", "6", "--backend", "process", "--workers", "2",
         "--wave-size", "3", "--telemetry", str(out)]
    ) == 0
    capsys.readouterr()
    report = load_report(str(out))
    assert report.backend == "process"
    assert report.unit_attempts == 2 and report.retries == 0
    assert sum(lane.trials for lane in report.lanes) == 6
    assert sum(lane.units_ok for lane in report.lanes) == 2


def test_run_experiment_process_backend_runs_async_scenarios(capsys):
    assert main(
        ["run-experiment", "--name", "common-coin-ba", "-n", "6",
         "--trials", "5", "--backend", "process", "--workers", "2",
         "--wave-size", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "process backend" in out
    assert "steps" in out


def test_run_experiment_cross_field_check_rejected(capsys):
    assert main(
        ["run-experiment", "--name", "unreliable-coin-ba", "-n", "24",
         "--trials", "1", "--param", "degree=30"]
    ) == 2
    err = capsys.readouterr().err
    assert "degree 30 must be < n = 24" in err
    for param, problem in (
        ("epsilon0=1.5", "epsilon0 1.5 must lie in [0, 1)"),
        ("epsilon=-3", "epsilon -3.0 must lie in (0, 1/3)"),
    ):
        assert main(
            ["run-experiment", "--name", "unreliable-coin-ba", "-n", "24",
             "--trials", "1", "--param", param]
        ) == 2
        assert problem in capsys.readouterr().err


def test_run_experiment_backends_bit_identical(capsys):
    for backend in ("serial", "process", "batch"):
        assert main(
            ["run-experiment", "--name", "vss-coin", "-n", "7",
             "--trials", "2", "--seed", "9", "--backend", backend]
        ) == 0
    out = capsys.readouterr().out
    tables = [
        block for block in out.split("=== ") if block.startswith("vss-coin")
    ]
    assert len(tables) == 3
    # Identical aggregates modulo the backend-name/timing note line.
    bodies = [
        "\n".join(
            line for line in block.splitlines()
            if "backend" not in line and "[" not in line
        )
        for block in tables
    ]
    assert bodies[0] == bodies[1] == bodies[2]


def test_run_experiment_unknown_runner(capsys):
    assert main(
        ["run-experiment", "--name", "no-such-runner", "--trials", "1"]
    ) == 2
    err = capsys.readouterr().err
    assert "unknown experiment runner" in err
    assert "vss-coin" in err  # the error names the valid choices


def test_run_experiment_zero_trials(capsys):
    assert main(["run-experiment", "--trials", "0"]) == 2
    assert "at least one trial" in capsys.readouterr().err


def test_run_experiment_bad_param():
    with pytest.raises(SystemExit):
        main(["run-experiment", "--param", "not-a-pair", "--trials", "1"])


# -- distributed backend and the worker subcommand --------------------------------------


def test_worker_serve_parser():
    parser = build_parser()
    args = parser.parse_args(["worker", "serve", "--port", "0"])
    assert args.worker_command == "serve"
    assert args.port == 0
    assert args.host == "127.0.0.1"
    with pytest.raises(SystemExit):
        parser.parse_args(["worker"])  # subcommand required


def test_worker_serve_refuses_unusable_frame_cap(capsys):
    """A frame cap too small for any frame exits 2 with the error
    before the worker binds, instead of serving connections that all
    die in their handler threads."""
    assert main(
        ["worker", "serve", "--port", "0", "--max-frame-bytes", "4"]
    ) == 2
    captured = capsys.readouterr()
    assert "max_frame_bytes 4" in captured.err
    assert "serving on" not in captured.out


def test_run_experiment_distributed_requires_hosts(capsys):
    assert main(
        ["run-experiment", "--name", "vss-coin", "-n", "7",
         "--trials", "1", "--backend", "distributed"]
    ) == 2
    assert "--hosts" in capsys.readouterr().err


def test_run_experiment_distributed_against_loopback_workers(capsys):
    """The CLI's distributed leg end to end: two in-process workers,
    one sweep, aggregates identical to the serial leg."""
    from repro.engine import WorkerServer

    with WorkerServer() as w1, WorkerServer() as w2:
        assert main(
            ["run-experiment", "--name", "bracha-broadcast", "-n", "5",
             "--trials", "6", "--seed", "4", "--backend", "distributed",
             "--hosts", f"{w1.address},{w2.address}"]
        ) == 0
        assert main(
            ["run-experiment", "--name", "bracha-broadcast", "-n", "5",
             "--trials", "6", "--seed", "4", "--backend", "serial"]
        ) == 0
    out = capsys.readouterr().out
    tables = [
        block for block in out.split("=== ")
        if block.startswith("bracha-broadcast")
    ]
    assert len(tables) == 2
    bodies = [
        "\n".join(
            line for line in block.splitlines()
            if "backend" not in line and "[" not in line
        )
        for block in tables
    ]
    assert bodies[0] == bodies[1]
