"""Mutation gate: every named mutant of ``src/rentsim`` must fail the tests.

Run from anywhere, with only the standard library and pytest installed::

    python tests/mutation_gate.py

Each mutant in ``MUTANTS`` is one exact text replacement in one file under
``src/``.  For each, the gate copies ``src/`` to a temporary directory,
applies the replacement there and runs
``python -m pytest -q -x -k "not acceptance" tests`` in a subprocess with
that copy first on ``PYTHONPATH``, at most two runs at a time.  An
unmutated copy runs the same way first, so a suite that already fails
cannot count as killing anything.  The gate prints ``killed`` or
``survived`` per mutant and exits 1 if any mutant survives, if any old text
does not occur exactly once, or if the unmutated copy fails.

pytest does not collect this file (its name does not match ``test_*.py``),
so it stays out of the Tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-k", "not acceptance",
          "-p", "no:cacheprovider", str(ROOT / "tests")]
MAX_RUNNING = 2


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/rentsim
    old: str
    new: str


def dropped(kind: str, rest: str = "", indent: int | None = None) -> Mutant:
    """The mutant in which ``validate_trace`` never reports a ``kind`` violation.

    The append that reports it goes to a throwaway list instead.  ``rest``
    continues the call's text where ``kind`` has two appends, and ``indent``
    is the column of ``Violation(`` when the call starts on the next line.
    """
    head = "violations.append(" + ("" if indent is None else "\n" + " " * indent)
    old = f'{head}Violation("{kind}"{rest}'
    return Mutant(f"validator-drops-{kind}", "core.py", old,
                  old.replace("violations.append(", "[].append(", 1))


MUTANTS = [
    # the bench fold
    Mutant("fold-mean-util-from-first-trial", "bench.py",
           "mean_util = sum(utils, Fraction(0)) / k", "mean_util = utils[0]"),
    Mutant("fold-population-stdev", "bench.py",
           "statistics.stdev(", "statistics.pstdev("),
    Mutant("fold-mean-cost-from-last-trial", "bench.py",
           "mean_cost=Fraction(sum(costs), k)", "mean_cost=Fraction(costs[-1])"),
    Mutant("summary-marks-the-worst-row", "bench.py",
           "if key not in cells or r.mean_ratio < cells[key]:",
           "if key not in cells or r.mean_ratio > cells[key]:"),
    # verdict checks: one mutant per violation kind
    dropped("unknown-job-in-server"),
    dropped("job-not-assigned"),
    dropped("server-empty-before-release"),
    dropped("placement-after-close"),
    dropped("capacity-exceeded"),
    dropped("close-outside-rental"),
    dropped("event-log-out-of-order"),
    dropped("unknown-server-in-log", indent=20),
    dropped("unknown-job-in-log", indent=20),
    dropped("event-repeated"),
    dropped("event-at-wrong-step", indent=16),
    dropped("depart-from-wrong-server", indent=16),
    dropped("event-missing", rest=", job_id=jid"),
    # the load sum and the server records the validator reads
    Mutant("first-overload-at-capacity", "core.py", "if load > e:", "if load >= e:"),
    Mutant("servers-open-at-latest-arrival", "core.py",
           "if arrival < opened[sid]:", "if arrival > opened[sid]:"),
    # bound formulas
    Mutant("nf-small-k-cap-doubled", "bounds.py",
           "cap = stats.total_size / (1 - 1 / k)",
           "cap = 2 * stats.total_size / (1 - 1 / k)"),
    # the sequence's columns
    Mutant("column-check-departure-at-arrival-passes", "core.py",
           "or not all(map(gt, departures, arrivals))",
           "or not all(map(lambda d, a: d >= a, departures, arrivals))"),
    Mutant("column-check-drops-duplicate-ids", "core.py",
           "if len(set(ids)) < len(ids) or max(sizes, default=0) > capacity.e:",
           "if max(sizes, default=0) > capacity.e:"),
    Mutant("arrival-sort-reverses-ties", "core.py",
           "order = sorted(range(len(ids)), key=arrivals.__getitem__)",
           "order = sorted(range(len(ids))[::-1], key=arrivals.__getitem__)"),
    Mutant("utilization-reads-the-ids-column", "core.py",
           "return Fraction(sum(map(mul, seq.sizes, lengths)), seq.capacity.e)",
           "return Fraction(sum(map(mul, seq.ids, lengths)), seq.capacity.e)"),
]


def unmatched(mutants) -> list[str]:
    """One line per mutant whose old text does not occur exactly once."""
    out = []
    for m in mutants:
        count = (ROOT / "src" / "rentsim" / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            out.append(f"{m.name}: old text occurs {count} times in {m.path}")
    return out


def tests_pass(mutant: Mutant | None) -> bool:
    """Whether the non-acceptance tests pass against a copy of src/ with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="rentsim-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            target = src / "rentsim" / mutant.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
        # run in the copy's directory, so hypothesis keeps its example database there
        done = subprocess.run(PYTEST, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        return done.returncode == 0


def main() -> int:
    problems = unmatched(MUTANTS)
    for line in problems:
        print(f"error: {line}")
    if problems:
        return 1
    with ThreadPoolExecutor(max_workers=MAX_RUNNING) as pool:
        passed = list(pool.map(tests_pass, [None, *MUTANTS]))
    if not passed[0]:
        print("error: the tests fail on an unmutated copy of src/")
        return 1
    for mutant, survived in zip(MUTANTS, passed[1:]):
        print(f"{'survived' if survived else 'killed':<9} {mutant.name}")
    survivors = sum(passed[1:])
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
