"""rentsim's benchmark: run one workload for a fixed time and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload battery --seed 7 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced passes over the workload's pool with
passes in which every rentsim call is wrapped in a span, and reports
per-layer metrics per pass plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; its metrics are the
ones BENCHMARK.json lists for the mode.  The line before it,
``{"run": {...}}``, holds the run's metadata and every metric measured,
and the same record is written to ``.perfbench_out/``.

Inputs come from ``--seed`` only.  For the seed in the golden file, each
unit's costs and file digests must also equal the recorded ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
WORKLOADS = ("desk_bench", "battery")
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile


class Tally:
    """Unit times, placements, failures and digests of one loop."""

    def __init__(self):
        self.unit_s: list[float] = []
        self.placements = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict = {}

    @property
    def attempted(self) -> int:
        return len(self.unit_s)

    @property
    def jobs_per_s(self) -> float:
        return self.placements / sum(self.unit_s)


def run_unit(workload, index, item, golden, tally, tracer=None) -> None:
    key = workload.key(item)
    start, end = perf_counter(), None
    try:
        if tracer is None:
            raw = workload.run(item)
        else:
            raw = tracer.unit_span(index, key, lambda: workload.run(item))
        end = perf_counter()
        placements, digests, problems = workload.check(item, raw)
    except Exception as exc:  # a unit that raises, or whose output is unreadable, failed
        end = perf_counter() if end is None else end
        placements, digests, problems = 0, {}, [f"{key}: {type(exc).__name__}: {exc}"]
    tally.unit_s.append(end - start)
    tally.placements += placements
    tally.digests.update(digests)
    if golden is not None:
        problems += [f"{k}: {v!r} differs from golden {golden.get(k)!r}"
                     for k, v in digests.items() if golden.get(k) != v]
    if problems:
        tally.failed += 1
        tally.problems += problems[:3]


def timed_loop(workload, seconds, golden, boundary, between=None) -> Tally:
    """Run pool items in order until ``seconds`` have passed at a ``boundary``.

    ``between(elapsed)``, if given, runs before each unit, outside unit time.
    """
    tally = Tally()
    pool = workload.pool
    start = perf_counter()
    i = 0
    while True:
        if between is not None:
            between(perf_counter() - start)
        run_unit(workload, i, pool[i % len(pool)], golden, tally)
        i += 1
        if i % boundary == 0 and perf_counter() - start >= seconds:
            return tally


def tail(samples: list[float]) -> dict | None:
    """Highest whole percentile with at least TAIL_BEYOND samples above it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = -(-p * n // 100)
        if n - rank >= TAIL_BEYOND:
            return {"percentile": p, "value_ms": ordered[rank - 1] * 1000,
                    "samples": n, "beyond": n - rank}
    return None


def setup_sample(args) -> float:
    """Seconds from starting a fresh interpreter until its workload is ready to time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-only"]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child exited {code} after {line!r}")
    return elapsed


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rentsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def load_golden(path: Path, seed: int, scale: str, workload: str):
    """The workload's golden digests if the file covers this seed and scale, else None."""
    if not path.exists():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    if data["seed"] != seed or data["scale"] != scale:
        return None
    return data["workloads"].get(workload, {})


def write_golden(path: Path, args, workload) -> int:
    tally = timed_loop(workload, 0, None, len(workload.pool))
    if tally.failed:
        print("\n".join(tally.problems), file=sys.stderr)
        return 1
    data = {"seed": args.seed, "scale": args.scale, "workloads": {}}
    if path.exists():
        old = json.loads(path.read_text(encoding="utf-8"))
        if (old["seed"], old["scale"]) == (args.seed, args.scale):
            data = old
    data["workloads"][args.workload] = dict(sorted(tally.digests.items()))
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(tally.digests)} digests for {args.workload} to {path}")
    return 0


def traced_run(args, workload, api, golden):
    """Pairs of one untraced and one traced pass over the pool, for ``--seconds``.

    Pairs alternate their order (A B, B A, ...) so that both kinds of pass
    see the same host conditions and the same share of warm-up, and the
    ratio of their ``jobs_per_s`` is the tracing overhead.  Per-layer
    metrics are per traced pass.
    """
    from tracer import Tracer, summarize
    from workloads import trace_layers

    pool = workload.pool
    plain, traced, tracer = Tally(), Tally(), Tracer()
    start = perf_counter()
    passes = 0
    while passes % 2 or passes == 0 or perf_counter() - start < args.seconds:
        is_traced = passes % 4 in (1, 2)
        if is_traced:
            trace_layers(tracer, api)
        try:
            for i, item in enumerate(pool):
                if is_traced:
                    run_unit(workload, traced.attempted, item, golden, traced, tracer)
                else:
                    run_unit(workload, i, item, golden, plain)
        finally:
            tracer.restore()
        passes += 1
    passes //= 2
    layers = summarize(tracer.spans, passes)
    layers["trace.jobs_per_s_ratio"] = (traced.jobs_per_s / plain.jobs_per_s, "ratio")
    per_pass = [
        {k: v for k, (v, unit) in summarize(
            [s for s in tracer.spans if s.unit // len(pool) == p], 1).items()
         if unit in ("count", "bytes")}
        for p in range(passes)
    ]
    extra = {
        "passes": {"untraced": passes, "traced": passes},
        "jobs_per_s": {"untraced": plain.jobs_per_s, "traced": traced.jobs_per_s},
        "counters_repeat_across_passes": all(c == per_pass[0] for c in per_pass),
    }
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return plain, traced, layers, extra


def run_all(args) -> int:
    """Run every workload in its own process and print one table of their metrics."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale, "--golden", str(args.golden)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-2])["run"]
    table = "layers" if args.trace else "metrics"
    names = list(dict.fromkeys(k for r in results.values() for k in r[table]))
    print(f"{'metric':<40} {'unit':<6}" + "".join(f" {w:>16}" for w in WORKLOADS))
    for metric in names:
        cells = [results[w][table].get(metric) for w in WORKLOADS]
        unit = next(c["unit"] for c in cells if c)
        print(f"{metric:<40} {unit:<6}" + "".join(
            f" {c['value']:>16.6g}" if c else f" {'-':>16}" for c in cells))
    for w in WORKLOADS:
        t = results[w]["unit_ms_tail"]
        note = f"p{t['percentile']} of {t['samples']} units" if t else "too few units"
        print(f"# {w}: unit_ms_tail {note}; failed {results[w]['failed']} "
              f"of {results[w]['attempted']}")
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r[table].items()},
    }))
    return 0


def end_to_end(tally, setup_samples, failed_frac):
    """End-to-end metrics BENCHMARK.json gates, those reported beside them, tail facts."""
    metrics = {
        "jobs_per_s": (tally.jobs_per_s, "1/s"),
        "unit_ms_p50": (statistics.median(tally.unit_s) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if setup_samples:
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
    extra = {"failed_frac": (failed_frac, "ratio")}
    tail_stats = tail(tally.unit_s)
    if tail_stats is not None:
        extra["unit_ms_tail"] = (tail_stats["value_ms"], "ms")
    return metrics, extra, tail_stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny inputs are for the self-test only")
    parser.add_argument("--golden", type=Path, default=GOLDEN)
    parser.add_argument("--write-golden", type=Path, default=None,
                        help="run one pass and record its digests in this file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "rentsim" / "__init__.py").is_file():
        print(f"error: {SRC / 'rentsim'} not found; run from a rentsim checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import rentsim
    from workloads import SCALES, WORKLOADS as CLASSES, make_api

    if Path(rentsim.__file__).resolve().parent != SRC / "rentsim":
        print(f"error: imported rentsim from {rentsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    params = SCALES[args.scale][args.workload]
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    api = make_api()
    workload = CLASSES[args.workload](api, args.seed, params, workdir)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    workdir.mkdir(parents=True, exist_ok=True)
    setup_samples: list[float] = []
    try:
        if args.write_golden:
            return write_golden(args.write_golden, args, workload)
        golden = load_golden(args.golden, args.seed, args.scale, args.workload)
        if args.trace:
            plain, traced, layers, trace_extra = traced_run(args, workload, api, golden)
            tallies = (plain, traced)
        else:
            # set-up samples are spread over the run, so that their median
            # sees the same host conditions as the units do
            samples = SCALES[args.scale]["setup_samples"]
            due = [args.seconds * k / samples for k in range(samples)]

            def sample_setup(elapsed):
                while due and elapsed >= due[0]:
                    due.pop(0)
                    setup_samples.append(setup_sample(args))

            plain = timed_loop(workload, args.seconds, golden, workload.round_size,
                               sample_setup)
            tallies = (plain,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    metrics, extra, tail_stats = end_to_end(plain, setup_samples, failed / attempted)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "golden_checked": golden is not None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "unit_samples": plain.attempted,
        "unit_s": plain.unit_s,
        "setup_samples_s": setup_samples,
        "unit_ms_tail": tail_stats,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for t in tallies for p in t.problems][:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        record.update(trace_extra)
        record["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        shown = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
        lines = [f"{k:<40} {v:>16.6g} {u}" for k, (v, u) in layers.items()]
    else:
        shown = {m["name"]: metrics[m["name"]] for m in spec["end_to_end"]}
        lines = [f"{k:<16} {v:>14.6g} {u}" for k, (v, u) in {**metrics, **extra}.items()]
        if tail_stats is not None:
            lines.append(f"# unit_ms_tail is p{tail_stats['percentile']} of "
                         f"{tail_stats['samples']} units, {tail_stats['beyond']} beyond it")

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"# {args.workload} seed={args.seed} scale={args.scale} trace={args.trace} "
          f"units={plain.attempted} failed={failed}")
    for problem in record["problems"]:
        print(f"# problem: {problem}")
    print("\n".join(lines))
    print(json.dumps({"run": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
