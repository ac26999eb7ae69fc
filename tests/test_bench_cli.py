from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rentsim
from rentsim import (
    CapacityConfig,
    Job,
    JobSequence,
    UniformParams,
    compute_stats,
    gen_uniform,
    simulate,
    write_sequence_csv,
)
from rentsim.bench import (
    BenchError,
    ExperimentSpec,
    rows_to_csv,
    run_experiment,
    summary_table,
)
from rentsim.cli import main
from rentsim.strategies import build_strategy

from helpers import exact_ratio


SMALL_SPEC = dict(
    strategies=("nf", "mnf", "ff", "mtf"),
    ns=(300,), es=(100,), ts=(300,), mus=(2,),
    trials=4, seed_base=10,
)


def test_single_trial_bench_equals_a_direct_run():
    spec = ExperimentSpec(
        strategies=("mtf",), ns=(200,), es=(100,), ts=(200,), mus=(3,),
        trials=1, seed_base=5,
    )
    (row,) = run_experiment(spec)
    seq = gen_uniform(UniformParams(n=200, e=100, t=200, mu=3, seed=5))
    result = simulate(build_strategy("mtf", 100), seq)
    util = compute_stats(seq).util
    assert row.mean_ratio == exact_ratio(result.total_cost, util)
    assert row.mean_cost == result.total_cost
    assert row.std_ratio == 0.0


def test_bench_rows_cover_grid_in_order_and_ratios_dominate_one():
    spec = ExperimentSpec(**SMALL_SPEC)
    rows = run_experiment(spec)
    assert [r.strategy for r in rows] == list(SMALL_SPEC["strategies"])
    assert all(r.mean_ratio >= 1 for r in rows)
    table = summary_table(rows)
    assert table.count("*") == 1  # one best strategy for the single cell


def test_bench_output_is_byte_deterministic(tmp_path):
    spec = ExperimentSpec(**SMALL_SPEC)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    rows_to_csv(run_experiment(spec), first)
    rows_to_csv(run_experiment(spec), second)
    assert first.read_bytes() == second.read_bytes()


def test_bench_parallel_equals_sequential(tmp_path):
    # The second grid has three cells and fewer trials than workers, so one
    # pool's results must be split back into cells in grid order.
    for spec in (SMALL_SPEC, {**SMALL_SPEC, "ts": (300, 400, 500), "trials": 1}):
        seq_spec = ExperimentSpec(**spec)
        par_spec = ExperimentSpec(**{**spec, "workers": 2})
        a, b = tmp_path / "seq.csv", tmp_path / "par.csv"
        rows_to_csv(run_experiment(seq_spec), a)
        rows_to_csv(run_experiment(par_spec), b)
        assert a.read_bytes() == b.read_bytes()


def test_bench_oracle_toggle_checks_tiny_instances():
    spec = ExperimentSpec(
        strategies=("nf", "bf"), ns=(5,), es=(10,), ts=(8,), mus=(3,),
        trials=6, seed_base=2, oracle=True,
    )
    rows = run_experiment(spec)  # would raise if any run beat the optimum
    assert all(r.mean_ratio >= 1 for r in rows)


def test_bench_rejects_empty_grids_and_bad_cells():
    with pytest.raises(ValueError):
        ExperimentSpec(strategies=(), ns=(1,), es=(1,), ts=(2,), mus=(1,),
                       trials=1, seed_base=0)
    spec = ExperimentSpec(strategies=("nf",), ns=(10,), es=(10,), ts=(2,),
                          mus=(5,), trials=1, seed_base=0)
    with pytest.raises(BenchError, match="cell"):
        run_experiment(spec)  # t <= mu is an invalid generator range
    # Only the middle cell (t=5 <= mu=5) is invalid; the error names it, not a later cell.
    for workers in (1, 2):
        spec = ExperimentSpec(strategies=("nf", "ff"), ns=(20,), es=(10,), ts=(10, 5, 8),
                              mus=(5,), trials=2, seed_base=0, workers=workers)
        with pytest.raises(BenchError, match=r"^cell n=20 e=10 t=5 mu=5: "):
            run_experiment(spec)


def test_importing_rentsim_loads_no_process_pool():
    # Only bench --workers N > 1 needs a pool, so no other process pays for it.
    src = str(Path(rentsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, rentsim, rentsim.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


# ------------------------------------------------------------------- CLI

def _write_three_job_instance(path):
    seq = JobSequence(
        [Job(1, 3, 1, 5), Job(2, 4, 2, 6), Job(3, 4, 3, 5)], CapacityConfig(10)
    )
    write_sequence_csv(seq, path)
    return seq


def test_cli_generate_uniform_row_count_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "u1.csv", tmp_path / "u2.csv"
    argv = ["generate", "uniform", "--n", "1000", "--e", "1000", "--t", "10000",
            "--mu", "10", "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    body = out1.read_text(encoding="utf-8").splitlines()
    assert len(body) == 1002  # capacity comment + header + one row per job
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_generate_adversarial_writes_sidecar(tmp_path, capsys):
    out = tmp_path / "adv.csv"
    argv = ["generate", "adversarial", "--eps", "0.5", "--mu", "3", "--delta", "1",
            "--phases", "1", "--target", "nf", "--e", "10", "--out", str(out)]
    assert main(argv) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 6  # comment + header + four items
    meta = json.loads((tmp_path / "adv.meta.json").read_text(encoding="utf-8"))
    assert meta == {"offline_cost": 4, "eps": "1/2", "mu": 3, "delta": 1, "phases": 1}


def test_cli_run_reports_cost_and_checks(tmp_path, capsys):
    seq_path = tmp_path / "ex.csv"
    _write_three_job_instance(seq_path)
    assert main(["run", "nf", str(seq_path)]) == 0
    out = capsys.readouterr().out
    assert "cost: 7" in out
    assert "servers_opened: 2" in out
    assert "VIOLATED" not in out

    assert main(["run", "mtf", str(seq_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_cost"] == 7
    assert payload["violations"] == []
    assert all(c["satisfied"] for c in payload["bounds"]["checks"])


def test_cli_run_with_oracle_includes_exact_optimum(tmp_path, capsys):
    seq_path = tmp_path / "tiny.csv"
    _write_three_job_instance(seq_path)
    assert main(["run", "bf", str(seq_path), "--oracle", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bounds"]["opt_exact"] == 7
    names = [c["name"] for c in payload["bounds"]["checks"]]
    assert "cost_geq_opt" in names


def test_cli_run_events_then_verify_round_trip(tmp_path, capsys):
    seq_path, ev_path = tmp_path / "ex.csv", tmp_path / "ev.csv"
    _write_three_job_instance(seq_path)
    assert main(["run", "nf", str(seq_path), "--events", str(ev_path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(seq_path), str(ev_path)]) == 0
    assert "no violations" in capsys.readouterr().out

    # corrupt the log: claim the second server was never released on time
    lines = ev_path.read_text(encoding="utf-8").splitlines()
    lines = [ln for ln in lines if ln != "5,release,,2"] + ["9,release,,2"]
    ev_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", str(seq_path), str(ev_path)]) == 1
    assert "violation" in capsys.readouterr().out


def _write_next_fit_log(tmp_path):
    """The Next Fit run of (6,[0,9)), (6,[2,8)), (2,[4,6)) at E=10, with its event log."""
    seq_path, ev_path = tmp_path / "ex.csv", tmp_path / "ev.csv"
    write_sequence_csv(
        JobSequence([Job(1, 6, 0, 9), Job(2, 6, 2, 8), Job(3, 2, 4, 6)],
                    CapacityConfig(10)),
        seq_path,
    )
    assert main(["run", "nf", str(seq_path), "--events", str(ev_path)]) == 0
    return seq_path, ev_path


def test_cli_verify_rejects_a_placement_into_a_closed_server(tmp_path, capsys):
    # Next Fit closes server 1 when job 2 arrives at t=2 and puts job 3 in
    # server 2; moving job 3 (its place and its depart row) into closed
    # server 1 breaks no capacity, release, stretch or log rule, only the close
    seq_path, ev_path = _write_next_fit_log(tmp_path)
    text = ev_path.read_text(encoding="utf-8")
    assert "4,place,3,2\n" in text and "6,depart,3,2\n" in text
    text = text.replace("4,place,3,2\n", "4,place,3,1\n")
    ev_path.write_text(text.replace("6,depart,3,2\n", "6,depart,3,1\n"), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(seq_path), str(ev_path)]) == 1
    assert capsys.readouterr().out == (
        "violation: placement-after-close t=4 job=3 server=1 closed at 2\n"
    )


@pytest.mark.parametrize(
    "old, new, expected",
    [
        # job 3's place row one step after its arrival
        ("4,place,3,2", "5,place,3,2",
         "violation: event-at-wrong-step t=5 job=3 server=2 place expected at 4\n"),
        # job 3 departs from a server it was never placed in
        ("6,depart,3,2", "6,depart,3,1",
         "violation: depart-from-wrong-server t=6 job=3 server=1 placed in 2\n"),
        # job 3 departs one step early
        ("6,depart,3,2", "5,depart,3,2",
         "violation: event-at-wrong-step t=5 job=3 server=2 depart expected at 6\n"),
        # job 2's arrive row is missing
        ("2,arrive,2,", None, "violation: event-missing job=2 arrive\n"),
        # server 2's release row twice
        ("8,release,,2", "8,release,,2\n8,release,,2",
         "violation: event-repeated t=8 server=2 release\n"),
    ],
    ids=["place-step", "depart-server", "depart-step", "arrive-missing", "release-repeated"],
)
def test_cli_verify_rejects_a_log_that_disagrees_with_the_sequence(
        tmp_path, capsys, old, new, expected):
    seq_path, ev_path = _write_next_fit_log(tmp_path)
    lines = ev_path.read_text(encoding="utf-8").splitlines()
    assert old in lines
    lines = [new if ln == old else ln for ln in lines]
    ev_path.write_text("".join(f"{ln}\n" for ln in lines if ln is not None),
                       encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(seq_path), str(ev_path)]) == 1
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "row, message",
    [("1,shut,,1", "line 2: unknown event kind 'shut'"),
     ("1,place,1", "line 2: expected 4 fields, got 3")],
)
def test_cli_verify_malformed_event_row_exits_2(tmp_path, capsys, row, message):
    seq_path, ev_path = tmp_path / "ex.csv", tmp_path / "ev.csv"
    _write_three_job_instance(seq_path)
    assert main(["run", "nf", str(seq_path), "--events", str(ev_path)]) == 0
    lines = ev_path.read_text(encoding="utf-8").splitlines()
    lines.insert(1, row)
    ev_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(seq_path), str(ev_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_verify_event_row_without_its_ids_exits_2(tmp_path, capsys):
    seq_path, ev_path = tmp_path / "ex.csv", tmp_path / "ev.csv"
    _write_three_job_instance(seq_path)
    ev_path.write_text("t,kind,job_id,server_id\n0,arrive,1,\n0,place,1,\n",
                       encoding="utf-8")
    assert main(["verify", str(seq_path), str(ev_path)]) == 2
    assert capsys.readouterr().err == "error: line 3: place event without a server id\n"


@pytest.mark.parametrize("selection, message", [
    ("mnf:1", "mnf requires K >= 2, got 1"),
    ("harmonic:2.5", "harmonic requires integer K >= 1, got 5/2"),
])
def test_cli_bench_bad_selection_exits_2(capsys, selection, message):
    argv = ["bench", "--strategies", f"nf,{selection}", "--n", "10", "--e", "10",
            "--t", "10", "--mu", "2", "--trials", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["run"])  # missing positionals
    assert info.value.code == 2
    missing = tmp_path / "missing.csv"
    assert main(["run", "nf", str(missing)]) == 2
    seq_path = tmp_path / "ex.csv"
    _write_three_job_instance(seq_path)
    assert main(["run", "mnf:1", str(seq_path)]) == 2  # K below the minimum


def test_cli_bench_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "agg.csv"
    argv = ["bench", "--strategies", "nf,mtf", "--n", "200", "--e", "100",
            "--t", "200", "--mu", "2", "--trials", "2", "--seed-base", "3",
            "--out", str(out)]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "mean_ratio" in text and "*" in text
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "strategy,n,e,t,mu,trials,mean_ratio,std_ratio,mean_cost,mean_util"
    assert len(lines) == 3
