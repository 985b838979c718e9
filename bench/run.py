"""sgcalc benchmark: one command, three workloads, every metric by name and unit.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper|script|corpus --seed N --seconds S --trace 0|1

The command builds nothing: it runs the checkout's ``src/sgcalc`` in
worker processes (``bench/worker.py``) with ``PYTHONPATH`` pointing there.
Set-up is timed from worker spawn to its ``READY`` line, several times, and
reported as the median scaled to the reference loop's nominal speed.  A
separate worker then measures for ``--seconds``.  With ``--trace 0`` the
result line carries the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it carries the per-layer metrics of an outside-in traced run.
Every verdict is checked against an independently known answer; a wrong
one is counted in ``failed`` and makes the command exit 1.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

REQUIRED = (
    Path("BENCHMARK.json"),
    Path("src") / "sgcalc" / "__init__.py",
    Path("scripts") / "exotic_cp2_3.sgc",
    Path("tests") / "golden" / "x_relators.txt",
)
SETUP_SAMPLES = 9
WORKER_GRACE_S = 120


def spawn(root: Path, args: list[str]) -> subprocess.Popen:
    # a fixed hash seed fixes set iteration order inside sgcalc, so the
    # traced counters repeat from run to run, not only within one
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
    )


def setup_seconds(root: Path, worker_args: list[str]) -> tuple[float, float]:
    """Median set-up time, raw and scaled to the reference loop's nominal speed."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        before = reference.measure()
        start = time.perf_counter()
        proc = spawn(root, [*worker_args, "--setup-only"])
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(f"set-up worker failed (exit {proc.returncode})")
        after = reference.measure()
        raw.append(elapsed)
        scaled.append(elapsed * reference.NOMINAL_S / ((before + after) / 2))
    return statistics.median(raw), statistics.median(scaled)


def measure(root: Path, worker_args: list[str], seconds: float) -> dict:
    proc = spawn(root, worker_args)
    try:
        out, _ = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or lines[0] != "READY":
        raise RuntimeError(f"measuring worker failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("paper", "script", "corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    missing = [str(p) for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"bench: not a checkout of sgcalc, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    worker_args = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        raw_setup, setup = setup_seconds(root, [*worker_args, "--seconds", str(args.seconds)])
        result = measure(root, [*worker_args, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                         args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    values = dict(result["metrics"], setup_s=setup)
    values["bench.raw_setup_s"] = raw_setup
    absent = [m["name"] for m in wanted if m["name"] not in values]
    for error in result["errors"]:
        print(f"bench: wrong result: {error}", file=sys.stderr)
    for name in absent:
        print(f"bench: metric {name} was not measured", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for m in wanted:
        if m["name"] in values:
            print(f"  {m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}")
    for key, value in dict(result["diagnostics"], raw_setup_s=raw_setup).items():
        print(f"  diagnostic {key:<25} {value:>14.6g}")
    correct = result["failed"] == 0 and not absent
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
