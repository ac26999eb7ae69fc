"""The benchmark's two workloads: inputs made from a seed, a timed unit, its checks.

Each workload builds its inputs in ``__init__`` (counted in ``setup_s``) and
exposes a ``pool`` of unit descriptions.  The timed loop runs ``run(item)``
over the pool in order, wrapping round to the start; a pass is one trip
through the pool, a round is ``round_size`` consecutive items, and runs
stop only at round ends so that every kind of unit is counted equally.
``check(item, raw)`` runs outside the timed part and returns the number of
job placements, the digests compared with the golden file, and a list of
problems (empty when the unit's output is correct).

Workloads call rentsim only through the ``api`` namespace, so the traced
run can swap in timing wrappers without touching ``src/``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import rentsim
from rentsim import UniformParams, bench, cli, engine
from tracer import bound_counts, file_bytes, seq_len, simulate_counts, validate_counts

DESK_STRATEGIES = "nf,mnf,ff,mff,bf,harmonic:10,mtf"

# instance seeds are seed * SEED_STRIDE + offset, so seeds never share instances
SEED_STRIDE = 1_000_000

# per scale: the workloads' parameters, and how many fresh interpreters a
# run times for setup_s (their median is reported)
SCALES = {
    "full": {
        "setup_samples": 21,
        "desk_bench": {"n": 10_000, "e": 1000, "t": 10_000, "mus": [2, 10], "trials": 2},
        "battery": {"n": 1000, "e": 1000, "t": 1000, "mus": [2, 10, 100], "instances": 10},
    },
    "tiny": {
        "setup_samples": 1,
        "desk_bench": {"n": 300, "e": 1000, "t": 1000, "mus": [2, 10], "trials": 2},
        "battery": {"n": 100, "e": 1000, "t": 1000, "mus": [2, 10, 100], "instances": 2},
    },
}


# span name -> (public function, counter hook, modules that imported the
# function under its own name and look it up at call time).  Workloads call
# each as ``api.<last part>``; rentsim.bench and rentsim.cli run every trial
# in this process with --workers 1, so patching their names traces it too.
LAYERS = {
    "generators.gen_uniform": (rentsim.gen_uniform, seq_len, (bench,)),
    "core.compute_stats": (rentsim.compute_stats, None, (bench,)),
    "core.validate_trace": (rentsim.validate_trace, validate_counts, ()),
    "engine.simulate": (rentsim.simulate, simulate_counts, (bench,)),
    "engine.write_event_csv": (engine.write_event_csv, file_bytes, ()),
    "engine.read_event_csv": (engine.read_event_csv, None, ()),
    "engine.trace_from_events": (engine.trace_from_events, None, ()),
    "strategies.build_strategy": (rentsim.build_strategy, None, ()),
    "bounds.check_nf_bound": (rentsim.check_nf_bound, bound_counts, ()),
    "bounds.check_mnf_bound": (rentsim.check_mnf_bound, bound_counts, ()),
    "bounds.check_mtf_bound": (rentsim.check_mtf_bound, bound_counts, ()),
    "bounds.check_universal_bounds": (rentsim.check_universal_bounds, bound_counts, ()),
    "bench.run_experiment": (bench.run_experiment, None, (cli,)),
    "bench.rows_to_csv": (bench.rows_to_csv, file_bytes, (cli,)),
    "cli.main": (cli.main, None, ()),
}


def make_api() -> SimpleNamespace:
    return SimpleNamespace(**{name.rsplit(".", 1)[1]: fn for name, (fn, _, _) in LAYERS.items()})


def trace_layers(tracer, api) -> None:
    """Route every layer call of the workloads through ``tracer`` until it restores."""
    for name, (_, after, modules) in LAYERS.items():
        attr = name.rsplit(".", 1)[1]
        for obj in (api, *modules):
            tracer.patch(obj, attr, name, after)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class DeskBench:
    """``rentsim bench`` in-process on the desk grid; a unit is one trial of the grid.

    One trial is one seed run through every cell (mu = 2 and mu = 10) with
    all seven default strategies on the same sequence per cell, which is one
    ``rentsim bench --trials 1 --seed-base <seed>`` call writing ``--out``.
    """

    name = "desk_bench"
    round_size = 1

    def __init__(self, api, seed: int, p: dict, workdir: Path):
        self.api = api
        self.p = p
        self.out = workdir / "desk.csv"
        self.strategies = DESK_STRATEGIES.split(",")
        self.pool = [seed * SEED_STRIDE + i for i in range(p["trials"])]
        self.lower_bounds: dict[tuple[int, int], Fraction] = {}

    def key(self, item) -> str:
        return f"trial:{item}"

    def run(self, item):
        p = self.p
        argv = ["bench", "--strategies", DESK_STRATEGIES,
                "--n", str(p["n"]), "--e", str(p["e"]), "--t", str(p["t"])]
        for mu in p["mus"]:
            argv += ["--mu", str(mu)]
        argv += ["--trials", "1", "--seed-base", str(item), "--workers", "1",
                 "--out", str(self.out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.api.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def lower_bound(self, mu: int, seed: int) -> Fraction:
        """The trial's lower bound, regenerated once per pool item, outside the timed part."""
        if (mu, seed) not in self.lower_bounds:
            p = self.p
            seq = rentsim.gen_uniform(UniformParams(n=p["n"], e=p["e"], t=p["t"], mu=mu,
                                                    seed=seed))
            self.lower_bounds[mu, seed] = rentsim.lower_bound(seq)[2]
        return self.lower_bounds[mu, seed]

    def check(self, item, raw):
        code, stdout, stderr = raw
        p = self.p
        if code != 0:
            return 0, {}, [f"rentsim bench exited {code}: {stderr.strip()}"]
        with self.out.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        expected = [(s, mu) for mu in p["mus"] for s in self.strategies]
        if [(r["strategy"], int(r["mu"])) for r in rows] != expected:
            problems.append("CSV rows are not the desk grid in order")
        for row in rows:
            lb = self.lower_bound(int(row["mu"]), item)
            if Fraction(row["mean_cost"]) < lb:
                problems.append(f"{row['strategy']} mu={row['mu']}: cost "
                                f"{row['mean_cost']} below lower bound {lb}")
        if f"wrote {len(expected)} rows" not in stdout:
            problems.append("summary does not report the CSV rows written")
        placements = p["n"] * len(self.strategies) * len(p["mus"])
        return placements, {self.key(item): _sha256(self.out)}, problems


class Battery:
    """The acceptance battery of criteria 3-6, with one run per instance verified.

    A unit is one battery instance pair, as the acceptance fixture runs it:
    - a full instance: generate, statistics, nf, mnf(mu+1) and mtf, their
      bound checks and the universal bounds;
    - its size-capped sibling, sizes at most E/2: nf with
      ``check_nf_bound(k=2)`` and the universal bounds.
    The full instance's mtf run also records its events and goes the way of
    ``rentsim run --events`` and ``rentsim verify``: write the event CSV,
    read it back, rebuild the trace and validate it.  A round is one pair
    per mu.  Pairing keeps the median off the gap between full and capped
    instances, whose times differ fourfold.
    """

    name = "battery"

    def __init__(self, api, seed: int, p: dict, workdir: Path):
        self.api = api
        self.p = p
        self.path = workdir / "events.csv"
        self.round_size = len(p["mus"])
        base = seed * SEED_STRIDE
        self.pool = [(mu, base + mu * 1000 + i, base + 500_000 + mu * 1000 + i)
                     for i in range(p["instances"]) for mu in p["mus"]]

    def key(self, item) -> str:
        return f"mu={item[0]}:{item[1]}"

    def run(self, item):
        api, p = self.api, self.p
        mu, full_seed, capped_seed = item
        seq = api.gen_uniform(UniformParams(n=p["n"], e=p["e"], t=p["t"], mu=mu,
                                            seed=full_seed))
        stats = api.compute_stats(seq)
        nf = api.simulate(api.build_strategy("nf", p["e"]), seq, record_events=False)
        mnf = api.simulate(api.build_strategy(f"mnf:{mu + 1}", p["e"]), seq,
                           record_events=False)
        mtf = api.simulate(api.build_strategy("mtf", p["e"]), seq, record_events=True)
        entries = {
            "nf": api.check_nf_bound(nf, stats) + api.check_universal_bounds(nf, stats),
            "mnf": ([api.check_mnf_bound(mnf, stats, Fraction(mu + 1))]
                    + api.check_universal_bounds(mnf, stats)),
            "mtf": ([api.check_mtf_bound(mtf, stats)]
                    + api.check_universal_bounds(mtf, stats)),
        }
        api.write_event_csv(mtf.trace.events, self.path)
        replayed = api.trace_from_events(seq, api.read_event_csv(self.path))
        violations = api.validate_trace(replayed)

        capped = api.gen_uniform(UniformParams(n=p["n"], e=p["e"], t=p["t"], mu=mu,
                                               seed=capped_seed, size_max=p["e"] // 2))
        capped_stats = api.compute_stats(capped)
        nf_capped = api.simulate(api.build_strategy("nf", p["e"]), capped,
                                 record_events=False)
        entries["nf_capped"] = (api.check_nf_bound(nf_capped, capped_stats, k=2)
                                + api.check_universal_bounds(nf_capped, capped_stats))
        costs = {"nf": nf.total_cost, "mnf": mnf.total_cost, "mtf": mtf.total_cost,
                 "nf_capped": nf_capped.total_cost}
        return costs, entries, replayed, violations

    def check(self, item, raw):
        costs, entries, replayed, violations = raw
        mu, full_seed, capped_seed = item
        key = self.key(item)
        problems = [f"{key} {name}: bound {e.name} unsatisfied"
                    for name, group in entries.items() for e in group if not e.satisfied]
        small = [e.name for e in entries["nf_capped"] if "_small_k=" in e.name]
        if len(small) != 2:
            problems.append(f"{key}: capped instance gave {len(small)} "
                            "small-size Next Fit checks, expected 2")
        problems += [f"{key} mtf: {v}" for v in violations]
        cost = sum(srv.stretch for srv in replayed.servers)
        if cost != costs["mtf"]:
            problems.append(f"{key} mtf: replayed cost {cost} != run cost {costs['mtf']}")
        digests = {f"{name}:{capped_seed if name == 'nf_capped' else full_seed}": cost
                   for name, cost in costs.items()}
        digests[f"mtf:{full_seed}:events_sha256"] = _sha256(self.path)
        return 4 * self.p["n"], digests, problems


WORKLOADS = {cls.name: cls for cls in (DeskBench, Battery)}
