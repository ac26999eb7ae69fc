from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

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
from rentsim.bounds import ORACLE_DEFAULT_LIMIT
from rentsim.bench import (
    AGGREGATE_HEADER,
    BenchError,
    ExperimentSpec,
    rows_to_csv,
    run_experiment,
    summary_table,
)
from rentsim.cli import main
from rentsim.engine import EVENT_BLOCK_CHARS
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
    # a bad cell is a usage error, found before any trial runs
    with pytest.raises(ValueError, match="cell"):
        run_experiment(spec)  # t <= mu is an invalid generator range
    # Only the middle cell (t=5 <= mu=5) is invalid; the error names it, not a later cell.
    for workers in (1, 2):
        spec = ExperimentSpec(strategies=("nf", "ff"), ns=(20,), es=(10,), ts=(10, 5, 8),
                              mus=(5,), trials=2, seed_base=0, workers=workers)
        with pytest.raises(ValueError, match=r"^cell n=20 e=10 t=5 mu=5: "):
            run_experiment(spec)


def test_bench_failing_trial_names_its_cell(monkeypatch):
    def failing(task):
        raise BenchError(f"cost below utilization (seed {task[4]})")

    monkeypatch.setattr(rentsim.bench, "_run_trial", failing)
    spec = ExperimentSpec(strategies=("nf",), ns=(20,), es=(10,), ts=(10,), mus=(5,),
                          trials=2, seed_base=3)
    with pytest.raises(BenchError, match=r"^cell n=20 e=10 t=10 mu=5: .*\(seed 3\)$"):
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


def test_cli_run_text_output_prints_the_exact_optimum_with_oracle(tmp_path, capsys):
    seq_path = tmp_path / "tiny.csv"
    _write_three_job_instance(seq_path)
    assert main(["run", "bf", str(seq_path)]) == 0
    plain = capsys.readouterr().out.splitlines()
    assert main(["run", "bf", str(seq_path), "--oracle"]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("lb_util: 18/5 (3.6)") + 1
    assert lines[at] == "opt_exact: 7"
    assert lines[:at] + lines[at + 1:-1] == plain
    assert lines[-1] == "check cost_geq_opt: formula=7 cost=7 ok"


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


def test_cli_verify_json_lists_the_violations(tmp_path, capsys):
    seq_path, ev_path = _write_next_fit_log(tmp_path)
    capsys.readouterr()
    assert main(["verify", str(seq_path), str(ev_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == []
    text = ev_path.read_text(encoding="utf-8")
    text = text.replace("4,place,3,2\n", "4,place,3,1\n").replace("6,depart,3,2\n", "")
    ev_path.write_text(text, encoding="utf-8")
    assert main(["verify", str(seq_path), str(ev_path), "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == [
        "placement-after-close t=4 job=3 server=1 closed at 2",
        "event-missing job=3 depart",
    ]


def test_cli_verify_rejects_a_close_after_the_release(tmp_path, capsys):
    # First Fit releases server 1 at t=10; a close row for it at t=20 would
    # give it a closed period of -10
    seq_path, ev_path = tmp_path / "ex.csv", tmp_path / "ev.csv"
    write_sequence_csv(
        JobSequence([Job(1, 5, 0, 10), Job(2, 5, 2, 6), Job(3, 5, 20, 25)],
                    CapacityConfig(10)),
        seq_path,
    )
    assert main(["run", "ff", str(seq_path), "--events", str(ev_path)]) == 0
    text = ev_path.read_text(encoding="utf-8")
    assert "10,release,,1\n20,arrive,3,\n20,place,3,2\n" in text
    ev_path.write_text(text.replace("20,place,3,2\n", "20,place,3,2\n20,close,,1\n"),
                       encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(seq_path), str(ev_path)]) == 1
    assert capsys.readouterr().out == "violation: close-outside-rental t=20 server=1\n"


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
     ("1,place,1", "line 2: expected 4 fields, got 3"),
     ("1,arrive,,", "line 2: arrive event without a job id")],
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


def _write_first_fit_log(tmp_path):
    """The First Fit run of five jobs at E=10, with its event log."""
    seq_path, ev_path = tmp_path / "ex.csv", tmp_path / "ev.csv"
    write_sequence_csv(
        JobSequence([Job(1, 6, 0, 5), Job(2, 6, 4, 8), Job(3, 3, 4, 6), Job(4, 2, 6, 9),
                     Job(5, 5, 7, 10)], CapacityConfig(10)),
        seq_path,
    )
    assert main(["run", "ff", str(seq_path), "--events", str(ev_path)]) == 0
    return seq_path, ev_path


@pytest.mark.parametrize(
    "old, new, message",
    [("4,arrive,2,\n", "4,arrive,2,99\n", "line 4: arrive event with a server id"),
     # every release row gains a job id; the first is on line 10
     (",release,,", ",release,77,", "line 10: release event with a job id")],
    ids=["extra-server-id", "extra-job-id"],
)
def test_cli_verify_event_row_with_an_id_its_kind_lacks_exits_2(
        tmp_path, capsys, old, new, message):
    seq_path, ev_path = _write_first_fit_log(tmp_path)
    capsys.readouterr()
    assert main(["verify", str(seq_path), str(ev_path)]) == 0
    assert capsys.readouterr().out == "ok: 5 jobs, 3 servers, no violations\n"
    text = ev_path.read_text(encoding="utf-8")
    assert old in text
    ev_path.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["verify", str(seq_path), str(ev_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "edit, code, stream, expected",
    [
        # csv.reader accepts a quoted field, CRLF line ends and a blank line
        (lambda text: text.replace("4,place,3,2\n", '4,"place",3,"2"\n'), 0, "out",
         "ok: 3 jobs, 2 servers, no violations\n"),
        (lambda text: text.replace("\n", "\r\n"), 0, "out",
         "ok: 3 jobs, 2 servers, no violations\n"),
        (lambda text: text.replace("2,arrive,2,\n", "2,arrive,2,\n\n"), 0, "out",
         "ok: 3 jobs, 2 servers, no violations\n"),
        (lambda text: text.replace("4,place,3,2\n", "4,place,3,2,\n"), 2, "err",
         "error: line 8: expected 4 fields, got 5\n"),
    ],
    ids=["quoted-field", "crlf", "blank-line", "fifth-field"],
)
def test_cli_verify_reads_what_the_csv_module_reads(tmp_path, capsys, edit, code, stream,
                                                   expected):
    seq_path, ev_path = _write_next_fit_log(tmp_path)
    text = ev_path.read_text(encoding="utf-8")
    edited = edit(text)
    assert edited != text
    ev_path.write_bytes(edited.encode("utf-8"))
    capsys.readouterr()
    assert main(["verify", str(seq_path), str(ev_path)]) == code
    captured = capsys.readouterr()
    assert (captured.out if stream == "out" else captured.err) == expected


def test_cli_verify_names_a_bad_row_in_a_later_block(tmp_path, capsys):
    seq_path, ev_path = tmp_path / "seq.csv", tmp_path / "ev.csv"
    write_sequence_csv(gen_uniform(UniformParams(n=5000, e=100, t=2000, mu=5, seed=3)),
                       seq_path)
    assert main(["run", "ff", str(seq_path), "--events", str(ev_path)]) == 0
    lines = ev_path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert sum(map(len, lines)) > 2 * EVENT_BLOCK_CHARS
    t, kind, rest = lines[-3].split(",", 2)
    lines[-3] = f"{t},shut,{rest}"
    ev_path.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(seq_path), str(ev_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: line {len(lines) - 2}: unknown event kind 'shut'\n")


def test_cli_run_names_the_sequence_line_that_is_not_utf8(tmp_path, capsys):
    seq_path = tmp_path / "ex.csv"
    _write_three_job_instance(seq_path)
    data = seq_path.read_bytes()
    assert data.splitlines()[3] == b"2,4,2,6"
    seq_path.write_bytes(data.replace(b"2,4,2,6\n", b"2,4,2,6\xe9\n"))
    assert main(["run", "nf", str(seq_path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 4: 'utf-8' codec can't decode byte 0xe9 in position 7: "
        "invalid continuation byte\n")


def test_cli_verify_names_the_event_line_that_is_not_utf8(tmp_path, capsys):
    seq_path, ev_path = _write_next_fit_log(tmp_path)
    data = ev_path.read_bytes()
    assert data.splitlines()[4] == b"2,close,,1"
    ev_path.write_bytes(data.replace(b"2,close,,1\n", b"2,close,,1\xe9\n"))
    capsys.readouterr()
    assert main(["verify", str(seq_path), str(ev_path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 5: 'utf-8' codec can't decode byte 0xe9 in position 10: "
        "invalid continuation byte\n")


def test_cli_run_names_a_bad_sequence_row_before_a_line_that_is_not_utf8(tmp_path, capsys):
    seq_path = tmp_path / "ex.csv"
    _write_three_job_instance(seq_path)
    lines = seq_path.read_bytes().splitlines(keepends=True)
    assert lines[2:] == [b"1,3,1,5\n", b"2,4,2,6\n", b"3,4,3,5\n"]
    seq_path.write_bytes(b"".join(lines[:2] + [b"1,3,1\n", lines[3], b"3,4,3,5\xe9\n"]))
    assert main(["run", "nf", str(seq_path)]) == 2
    assert capsys.readouterr().err == "error: line 3: expected 4 fields, got 3\n"


def test_cli_run_names_an_oversized_row_before_a_line_that_is_not_utf8(tmp_path, capsys):
    # the capacity line comes first, so the row's size is checked when it is read
    seq_path = tmp_path / "ex.csv"
    seq_path.write_bytes(b"# capacity=10\nid,size,arrival,departure\n"
                         b"1,30,1,5\n2,4,2,6\n3,4,3,5\xe9\n")
    assert main(["run", "nf", str(seq_path)]) == 2
    assert capsys.readouterr().err == "error: line 3: job 1: size 30 exceeds capacity 10\n"


def test_cli_run_sequence_without_a_header_line_exits_2(tmp_path, capsys):
    seq_path = tmp_path / "ex.csv"
    seq_path.write_text("# capacity=10\n", encoding="utf-8")
    assert main(["run", "nf", str(seq_path)]) == 2
    assert capsys.readouterr().err == "error: missing header line\n"


def test_cli_run_sequence_without_a_capacity_line_exits_2(tmp_path, capsys):
    seq_path = tmp_path / "ex.csv"
    seq_path.write_text("id,size,arrival,departure\n1,3,1,5\n", encoding="utf-8")
    assert main(["run", "nf", str(seq_path)]) == 2
    assert capsys.readouterr().err == "error: missing '# capacity=E' line\n"


def test_cli_verify_names_a_bad_event_row_before_a_line_that_is_not_utf8(tmp_path, capsys):
    seq_path, ev_path = tmp_path / "seq.csv", tmp_path / "ev.csv"
    write_sequence_csv(gen_uniform(UniformParams(n=20, e=10, t=20, mu=2, seed=1)), seq_path)
    assert main(["run", "ff", str(seq_path), "--events", str(ev_path)]) == 0
    lines = ev_path.read_bytes().splitlines(keepends=True)
    assert len(lines) > 54
    t, kind, ids = lines[2].split(b",", 2)
    lines[2] = b",".join([t, b"shut", ids])
    lines[53] = lines[53].replace(b"\n", b"\xe9\n")
    ev_path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(["verify", str(seq_path), str(ev_path)]) == 2
    assert capsys.readouterr().err == "error: line 3: unknown event kind 'shut'\n"


def test_cli_verify_bad_event_header_exits_2(tmp_path, capsys):
    seq_path, ev_path = tmp_path / "ex.csv", tmp_path / "ev.csv"
    _write_three_job_instance(seq_path)
    ev_path.write_text("t,kind,job,server_id\n0,arrive,1,\n", encoding="utf-8")
    assert main(["verify", str(seq_path), str(ev_path)]) == 2
    assert capsys.readouterr().err == (
        "error: bad event header ['t', 'kind', 'job', 'server_id'], "
        "expected ['t', 'kind', 'job_id', 'server_id']\n")


@pytest.mark.parametrize("selection, message", [
    ("mnf:1", "mnf requires K >= 2, got 1"),
    ("harmonic:2.5", "harmonic requires integer K >= 1, got 5/2"),
    ("harmonic", "harmonic requires a parameter K"),
    ("mnf:x", "bad parameter in 'mnf:x': Invalid literal for Fraction: 'x'"),
])
def test_cli_bench_bad_selection_exits_2(capsys, selection, message):
    argv = ["bench", "--strategies", f"nf,{selection}", "--n", "10", "--e", "10",
            "--t", "10", "--mu", "2", "--trials", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_bench_cost_below_utilization_exits_1(capsys, monkeypatch):
    # no run can cost less than the utilization bound (32/5 on this seed)
    monkeypatch.setattr(rentsim.bench, "simulate",
                        lambda strategy, seq, **kwargs: SimpleNamespace(total_cost=6))
    argv = ["bench", "--strategies", "nf", "--n", "10", "--e", "10", "--t", "20",
            "--mu", "2", "--trials", "1", "--seed-base", "1", "--workers", "1"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", (
        "error: cell n=10 e=10 t=20 mu=2: cost 6 below utilization 32/5 "
        "(strategy nf, seed 1)\n"))


def test_cli_bench_cost_below_the_exact_optimum_exits_1(capsys, monkeypatch):
    # nf costs 5 on this seed; an optimum of 6 would mean it beat the optimum
    monkeypatch.setattr(rentsim.bench, "brute_force_opt", lambda seq: 6)
    argv = ["bench", "--strategies", "nf", "--n", "5", "--e", "10", "--t", "8",
            "--mu", "3", "--trials", "1", "--seed-base", "2", "--workers", "1", "--oracle"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", (
        "error: cell n=5 e=10 t=8 mu=3: cost 5 below exact optimum 6 (strategy nf, seed 2)\n"))


def test_cli_bench_bad_cell_exits_2_before_any_trial(capsys, monkeypatch):
    trials = []
    monkeypatch.setattr(rentsim.bench, "_run_trial", trials.append)
    argv = ["bench", "--n", "10", "--n", "0", "--e", "10", "--t", "10", "--mu", "2",
            "--trials", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: cell n=0 e=10 t=10 mu=2: n must be >= 1, got 0\n"
    assert trials == []


def test_cli_bench_oracle_beyond_its_limit_exits_2_before_any_trial(capsys, monkeypatch):
    trials = []
    monkeypatch.setattr(rentsim.bench, "_run_trial", trials.append)
    argv = ["bench", "--strategies", "nf,mtf", "--n", "20", "--e", "10", "--t", "40",
            "--mu", "2", "--trials", "2", "--seed-base", "1", "--oracle"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: cell n=20 e=10 t=40 mu=2: the oracle needs n <= {ORACLE_DEFAULT_LIMIT}, "
        "got 20\n")
    assert trials == []


def test_cli_generate_bad_eps_exits_2(tmp_path, capsys):
    argv = ["generate", "adversarial", "--eps", "1/0", "--mu", "3", "--phases", "1",
            "--target", "nf", "--out", str(tmp_path / "adv.csv")]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --eps: not a rational number: '1/0'\n")
    assert not (tmp_path / "adv.csv").exists()


def test_cli_run_bad_nf_k_exits_2(tmp_path, capsys):
    seq_path = tmp_path / "ex.csv"
    _write_three_job_instance(seq_path)
    with pytest.raises(SystemExit) as info:
        main(["run", "nf", str(seq_path), "--nf-k", "1/0"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --nf-k: not a rational number: '1/0'\n")
    # --nf-k 0 adds no check, as when the flag is unset; --nf-k 2 adds the small-size ones
    outputs = []
    for extra in ([], ["--nf-k", "0"], ["--nf-k", "2"]):
        assert main(["run", "nf", str(seq_path), *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != outputs[2]
    assert "check nf_worst_case_small_k=2:" in outputs[2]


@pytest.mark.parametrize("strategy, k, reason", [
    pytest.param("nf", "0", "k=0 is below 2", id="0-k=0 is below 2"),
    # the largest job of the three, at E=10
    pytest.param("nf", "5", "job 2 has size 4 > E/k = 2", id="5-job 2 has size 4 > E/k = 2"),
    pytest.param("ff", "2", "it bounds nf only, not ff", id="ff-2-it bounds nf only, not ff"),
])
def test_cli_run_says_why_nf_k_adds_no_check(tmp_path, capsys, strategy, k, reason):
    seq_path = tmp_path / "ex.csv"
    _write_three_job_instance(seq_path)
    assert main(["run", strategy, str(seq_path)]) == 0
    plain = capsys.readouterr()
    assert main(["run", strategy, str(seq_path), "--nf-k", k]) == 0
    out, err = capsys.readouterr()
    assert out == plain.out
    assert err == f"note: --nf-k {k} adds no check: {reason}\n"
    assert main(["run", "nf", str(seq_path), "--nf-k", "2"]) == 0
    assert capsys.readouterr().err == ""


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


def test_cli_bench_json_rows_carry_the_csv_columns_in_grid_order(capsys):
    argv = ["bench", "--strategies", "nf,mtf", "--n", "60", "--e", "10", "--t", "40",
            "--mu", "2", "--mu", "4", "--trials", "2", "--seed-base", "1", "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = run_experiment(ExperimentSpec(
        strategies=("nf", "mtf"), ns=(60,), es=(10,), ts=(40,), mus=(2, 4),
        trials=2, seed_base=1))
    assert [list(entry) for entry in payload] == [AGGREGATE_HEADER] * 4
    assert [(entry["strategy"], entry["mu"]) for entry in payload] == [
        ("nf", 2), ("mtf", 2), ("nf", 4), ("mtf", 4)]
    assert payload == [
        {"strategy": r.strategy, "n": 60, "e": 10, "t": 40, "mu": r.mu, "trials": 2,
         "mean_ratio": float(r.mean_ratio), "std_ratio": r.std_ratio,
         "mean_cost": float(r.mean_cost), "mean_util": float(r.mean_util)}
        for r in rows]
