"""Command-line harness: generate instances, run strategies, benchmark, verify.

Exit codes: 0 on success, 1 when an invariant or bound check fails,
2 on usage errors (bad flags, bad parameters, unreadable files).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .bench import (
    AGGREGATE_HEADER,
    BenchError,
    ExperimentSpec,
    rows_to_csv,
    run_experiment,
    summary_table,
)
from .bounds import build_report, nf_small_k_unmet
from .core import (
    compute_stats,
    fraction_json,
    read_sequence_csv,
    validate_trace,
    write_sequence_csv,
)
from .engine import (
    InfeasiblePlacementError,
    read_event_csv,
    simulate,
    trace_from_events,
    write_event_csv,
)
from .generators import AdversaryParams, UniformParams, gen_adversarial, gen_uniform
from .strategies import build_strategy

# benchmark defaults, desk scale; full scale sits behind the same flags
DESK_N = 10_000
DESK_E = 1_000
DESK_T = 10_000
DESK_MUS = (2, 10)
DESK_TRIALS = 30
DEFAULT_STRATEGIES = "nf,mnf,ff,mff,bf,harmonic:10,mtf"


def _fraction(text: str) -> Fraction:
    """An argparse type: a rational like ``0.5`` or ``1/10``; a bad one exits 2."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _fmt(value) -> str:
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(int(frac))
    return f"{frac} ({float(frac):g})"


def cmd_generate(args) -> int:
    out = Path(args.out)
    if args.kind == "uniform":
        params = UniformParams(
            n=args.n, e=args.e, t=args.t, mu=args.mu, seed=args.seed,
            size_min=args.size_min, size_max=args.size_max,
        )
        write_sequence_csv(gen_uniform(params), out)
        print(f"wrote {args.n} jobs to {out}")
        return 0
    eps = args.eps
    e = args.e if args.e is not None else eps.denominator
    params = AdversaryParams(
        eps=eps, mu=args.mu, delta=args.delta, phases=args.phases,
        target=args.target, e=e,
    )
    seq, offline_cost = gen_adversarial(params)
    write_sequence_csv(seq, out)
    sidecar = out.with_suffix(".meta.json")
    sidecar.write_text(
        json.dumps(
            {
                "offline_cost": fraction_json(offline_cost),
                "eps": str(eps),
                "mu": args.mu,
                "delta": args.delta,
                "phases": args.phases,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(seq)} jobs to {out}, offline cost {_fmt(offline_cost)} in {sidecar}")
    return 0


def cmd_run(args) -> int:
    seq = read_sequence_csv(args.sequence)
    stats = compute_stats(seq)
    strategy = build_strategy(args.strategy, seq.capacity.e, mu=stats.mu)
    result = simulate(strategy, seq)
    violations = validate_trace(result.trace)
    report = build_report(result, with_oracle=args.oracle, nf_k=args.nf_k)
    if args.events:
        write_event_csv(result.trace.events, args.events)
    if args.nf_k is not None:
        reason = (nf_small_k_unmet(seq, args.nf_k) if result.strategy == "nf"
                  else f"it bounds nf only, not {result.strategy}")
        if reason is not None:
            print(f"note: --nf-k {args.nf_k} adds no check: {reason}", file=sys.stderr)

    if args.json:
        payload = {
            "strategy": result.strategy,
            "total_cost": result.total_cost,
            "servers_opened": result.servers_opened,
            "critical_count": result.critical_count,
            "per_server": [[s.id, s.stretch, s.closed_period] for s in result.trace.servers],
            "violations": [str(v) for v in violations],
            "bounds": report.to_json(),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"strategy: {result.strategy}")
        print(f"cost: {result.total_cost}")
        print(f"servers_opened: {result.servers_opened}")
        print(f"critical_count: {result.critical_count}")
        print(f"lb_span: {report.lb_span}")
        print(f"lb_util: {_fmt(report.lb_util)}")
        if report.opt_exact is not None:
            print(f"opt_exact: {_fmt(report.opt_exact)}")
        for violation in violations:
            print(f"violation: {violation}")
        for entry in report.entries:
            verdict = "ok" if entry.satisfied else "VIOLATED"
            print(
                f"check {entry.name}: formula={_fmt(entry.formula_value)} "
                f"cost={_fmt(entry.cost)} {verdict}"
            )
    return 1 if violations or not report.all_satisfied else 0


def cmd_bench(args) -> int:
    spec = ExperimentSpec(
        strategies=tuple(s.strip() for s in args.strategies.split(",") if s.strip()),
        ns=tuple(args.n or [DESK_N]),
        es=tuple(args.e or [DESK_E]),
        ts=tuple(args.t or [DESK_T]),
        mus=tuple(args.mu or list(DESK_MUS)),
        trials=args.trials,
        seed_base=args.seed_base,
        oracle=args.oracle,
        workers=args.workers,
    )
    rows = run_experiment(spec)
    if args.out:
        rows_to_csv(rows, args.out)
    if args.json:
        print(json.dumps(
            [dict(zip(AGGREGATE_HEADER,
                      [r.strategy, r.n, r.e, r.t, r.mu, r.trials,
                       float(r.mean_ratio), r.std_ratio,
                       float(r.mean_cost), float(r.mean_util)]))
             for r in rows],
            indent=2,
        ))
    else:
        print(summary_table(rows))
        if args.out:
            print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_verify(args) -> int:
    seq = read_sequence_csv(args.sequence)
    events = read_event_csv(args.events)
    trace = trace_from_events(seq, events)
    violations = validate_trace(trace)
    if args.json:
        print(json.dumps([str(v) for v in violations], indent=2))
    elif violations:
        for violation in violations:
            print(f"violation: {violation}")
    else:
        print(f"ok: {len(seq)} jobs, {len(trace.servers)} servers, no violations")
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rentsim",
        description="Online server-renting simulator and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a sequence CSV")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    uni = gen_sub.add_parser("uniform", help="uniform random instance")
    uni.add_argument("--n", type=int, required=True, help="number of jobs")
    uni.add_argument("--e", type=int, required=True, help="server capacity")
    uni.add_argument("--t", type=int, required=True, help="span parameter")
    uni.add_argument("--mu", type=int, required=True, help="maximum job length")
    uni.add_argument("--seed", type=int, required=True)
    uni.add_argument("--size-min", type=int, default=1)
    uni.add_argument("--size-max", type=int, default=None)
    uni.add_argument("--out", required=True)
    uni.set_defaults(func=cmd_generate, kind="uniform")
    adv = gen_sub.add_parser("adversarial", help="adaptive phase construction")
    adv.add_argument("--eps", type=_fraction, required=True,
                     help="item size fraction, e.g. 0.5 or 1/10")
    adv.add_argument("--mu", type=int, required=True)
    adv.add_argument("--delta", type=int, default=1)
    adv.add_argument("--phases", type=int, required=True)
    adv.add_argument("--target", required=True, help="strategy whose packing the adversary attacks")
    adv.add_argument("--e", type=int, default=None,
                     help="capacity (default: denominator of eps)")
    adv.add_argument("--out", required=True)
    adv.set_defaults(func=cmd_generate, kind="adversarial")

    run = sub.add_parser("run", help="run one strategy over a sequence CSV")
    run.add_argument("strategy", help="nf, mnf:K, ff, mff:K, bf, harmonic:K, mtf; "
                                      "bare mnf/mff take K from the sequence's mu")
    run.add_argument("sequence")
    run.add_argument("--oracle", action="store_true",
                     help="compare against the exact optimum (tiny instances)")
    run.add_argument("--nf-k", type=_fraction, default=None,
                     help="assert the small-size Next Fit bound for this k")
    run.add_argument("--events", default=None, help="write the event log CSV here")
    run.add_argument("--json", action="store_true")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="strategy x grid benchmark")
    bench.add_argument("--strategies", default=DEFAULT_STRATEGIES)
    bench.add_argument("--n", type=int, action="append")
    bench.add_argument("--e", type=int, action="append")
    bench.add_argument("--t", type=int, action="append")
    bench.add_argument("--mu", type=int, action="append")
    bench.add_argument("--trials", type=int, default=DESK_TRIALS)
    bench.add_argument("--seed-base", type=int, default=1)
    bench.add_argument("--oracle", action="store_true")
    bench.add_argument("--workers", type=int, default=1)
    bench.add_argument("--out", default=None)
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(func=cmd_bench)

    verify = sub.add_parser("verify", help="replay an event log through the validator")
    verify.add_argument("sequence")
    verify.add_argument("events")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InfeasiblePlacementError, BenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
