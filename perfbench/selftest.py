"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

For every workload it checks that:
- every metric BENCHMARK.json names is printed with its unit, in both modes,
  and the run record carries its metadata, failed_frac and the tail percentile;
- the deterministic counters repeat exactly across two traced runs;
- a run checked against golden digests recorded from the same inputs passes,
  and one altered digest makes failed_frac greater than 0.
It also checks that a directory holding only BENCHMARK.json and the
benchmark fails with a non-zero exit and prints no result.  Exits 0 when
every check holds and 1 otherwise, listing the failures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out" / "selftest"
WORKLOADS = ("desk_bench", "battery")
COUNTERS = ("engine.arrivals", "engine.servers_opened", "engine.events",
            "strategies.place.candidates", "bounds.entries")
METADATA = ("python", "nproc", "cpu_model", "git_commit", "src_sha256", "seed",
            "params", "unit_samples", "unit_ms_tail")


def run(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--scale", "tiny",
           "--seconds", "1", *extra]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    failures: list[str] = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    for w in WORKLOADS:
        traced = []
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"]), (1, [])):
            record, result = run(w, "--trace", str(trace))
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{w} trace={trace}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{w} trace={trace}: {record['problems']}")
            for m in listed:
                got = result["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{w} trace={trace}: metric {m['name']} missing or unit wrong: {got}")
            for key in METADATA:
                expect(key in record, f"{w} trace={trace}: run record lacks {key}")
            expect(record["metrics"]["failed_frac"]["value"] == 0,
                   f"{w} trace={trace}: failed_frac not 0")
            if record["unit_samples"] >= 2 * 10:
                expect("unit_ms_tail" in record["metrics"],
                       f"{w} trace={trace}: unit_ms_tail missing with enough units")
            if trace:
                expect(record["counters_repeat_across_passes"],
                       f"{w}: counters differ between passes of one run")
                traced.append(record["layers"])
        for name in COUNTERS:
            a, b = (t.get(name, {}).get("value") for t in traced)
            expect(a == b, f"{w}: counter {name} differs between runs: {a} != {b}")
        expect(traced[0].get("engine.arrivals", {}).get("value", 0) > 0,
               f"{w}: no arrivals counted")

        golden = WORK / "golden.json"
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", w,
                               "--scale", "tiny", "--write-golden", str(golden)],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        expect(done.returncode == 0, f"{w}: writing golden digests failed: {done.stderr}")
        record, result = run(w, "--golden", str(golden))
        expect(record["golden_checked"] and result["failed"] == 0,
               f"{w}: run against its own golden digests failed: {record['problems']}")
        data = json.loads(golden.read_text(encoding="utf-8"))
        digests = data["workloads"][w]
        key = sorted(digests)[0]
        digests[key] = digests[key] + 1 if isinstance(digests[key], int) else "0" * 64
        altered = WORK / f"altered-{w}.json"
        altered.write_text(json.dumps(data), encoding="utf-8")
        record, result = run(w, "--golden", str(altered))
        expect(not result["correct"] and record["metrics"]["failed_frac"]["value"] > 0,
               f"{w}: an altered golden digest ({key}) did not fail a unit")

    bare = WORK / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    expect(done.returncode != 0 and "correct" not in done.stdout,
           f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}")

    shutil.rmtree(WORK, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
