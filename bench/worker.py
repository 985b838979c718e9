"""Benchmark worker: runs one workload against the checkout's sgcalc.

Started by ``run.py`` with ``PYTHONPATH=<checkout>/src``.  It imports
sgcalc, builds the workload's inputs, prints ``READY`` (the end of set-up)
and, unless ``--setup-only`` is given, measures and prints one JSON object
with its metrics, diagnostics, attempted and failed counts and errors.

Load is one closed loop with one caller: every verdict, and every CLI child
(one at a time), starts only after the previous one has finished.  Every
timed sample sits between two runs of ``reference.measure()`` and is
reported as ``sample / mean(adjacent references)``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

ROOT = Path.cwd()
SCRIPT_FILE = Path("scripts") / "exotic_cp2_3.sgc"
WORK_DIR = Path(".bench_work")
CORPUS_MAX_COSETS = 10_000
VERDICT_EXIT = {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 2}
# sweeps in each traced pass; a corpus sweep is one verdict per item
TRACED_SWEEPS = {"paper": 3, "script": 6, "corpus": 1}
# in-process sweeps per CLI child: the in-process verdict gets most samples,
# since its percentiles are the ones a Tietze or enumeration change moves
SWEEPS_PER_CLI = {"paper": 3, "script": 4, "corpus": 1}


class GateError(Exception):
    """An output that contradicts its independently known answer."""


def need(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


# -- verdict jobs ---------------------------------------------------------------
#
# A job is (label, run, gate).  ``run`` is the timed call; ``gate`` checks its
# result untimed and returns "decided" or "undecided", raising GateError on
# a wrong answer.


def paper_jobs(sgcalc) -> list:
    construction, tietze = sgcalc.construction, sgcalc.tietze

    def gate(report) -> str:
        need(report.verdict == "PASS", f"verdict {report.verdict}")
        x = report.state
        need((x.euler, x.signature) == (6, -2), f"(e, sigma) = ({x.euler}, {x.signature})")
        need(report.certificate is not None and report.certificate.result.index == 1, "index is not 1")
        need(report.trace is not None and report.trace.complete, "simplification incomplete")
        need(report.simplified is not None and report.simplified.is_empty(), "simplification not empty")
        need(tietze.replay(x.pi1, report.trace).is_empty(), "trace replay does not reach the empty presentation")
        need(report.replay is not None and sorted(report.replay.killed) == sorted(x.pi1.alphabet.names),
             "kill-order replay did not kill every generator")
        need(report.homeo is not None and report.homeo.description == "CP^2 # 3 CP^2bar",
             "classification is not CP^2 # 3 CP^2bar")
        need(bool(report.homeo.exotic_note), "no exotic note")
        return "decided"

    # the lambda looks the function up per call, so a traced pass sees the wrapper
    return [("paper", lambda: construction.verify_main_theorem(), gate)]


def serialize_paper(report) -> str:
    return json.dumps(report.to_dict(), indent=2)


def script_jobs(sgcalc, text: str) -> list:
    script = sgcalc.script

    def gate(report) -> str:
        need(report.verdict == "PASS", f"verdict {report.verdict}")
        checks = [s for s in report.statements if s.text.startswith("check ")]
        need(len(checks) == 3 and all(s.status == "pass" for s in checks), "not all three checks pass")
        return "decided"

    return [("script", lambda: script.execute(script.parse(text)), gate)]


def corpus_gate(item: corpus.Item, verdict: str, data: dict) -> str:
    """Compare one corpus verdict with the item's known answer."""
    if verdict == "INCONCLUSIVE":
        need(item.expect != "h1_rank", "H1 decides this item, yet it was inconclusive")
        return "undecided"
    if item.expect == "trivial":
        need(verdict == "PASS", f"trivial group reported {verdict}")
    elif item.expect == "order":
        need(verdict == "FAIL" and data.get("index") == item.value,
             f"group of order {item.value} reported {verdict} with index {data.get('index')}")
    else:
        need(verdict == "FAIL" and data.get("h1_rank") == item.value,
             f"H1 of rank {item.value} reported {verdict} with rank {data.get('h1_rank')}")
    return "decided"


def corpus_jobs(sgcalc, items: list[corpus.Item]) -> list:
    script = sgcalc.script
    budgets = script.Budgets(max_cosets=CORPUS_MAX_COSETS)

    def job(item):
        def gate(report) -> str:
            return corpus_gate(item, report.verdict, report.statements[-1].data)

        return (item.name, lambda: script.execute(script.parse(item.text), budgets), gate)

    return [job(item) for item in items]


# -- CLI jobs -------------------------------------------------------------------


def cli_jobs(workload: str, items: list[corpus.Item]) -> list:
    """(label, sgcalc arguments, gate on (exit code, JSON)) for each CLI sample."""

    def pass_gate(code: int, payload: dict) -> str:
        need(code == 0 and payload.get("verdict") == "PASS", f"exit {code}, verdict {payload.get('verdict')}")
        return "decided"

    if workload == "paper":
        return [("verify-paper", ["verify-paper", "--emit", "json"], pass_gate)]
    if workload == "script":
        return [("run", ["run", str(SCRIPT_FILE), "--emit", "json"], pass_gate)]
    # the drop items: the CLI's fixed cost plus the parse and SNF path, alike
    # in cost, so the median does not depend on which items a run reaches
    jobs = []
    for item in sorted((i for i in items if i.family == "drop"), key=lambda i: i.name):
        path = WORK_DIR / f"{item.name}.sgc"

        def gate(code: int, payload: dict, item=item) -> str:
            verdict = payload.get("verdict")
            need(VERDICT_EXIT.get(verdict) == code, f"exit {code} for verdict {verdict}")
            return corpus_gate(item, verdict, payload["statements"][-1]["data"])

        jobs.append((item.name, ["run", str(path), "--emit", "json", "--max-cosets", str(CORPUS_MAX_COSETS)], gate))
    return jobs


def run_cli(args: list[str]) -> tuple[float, int, dict]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sgcalc", *args], capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    try:
        payload = json.loads(proc.stdout)
    except json.JSONDecodeError:
        payload = {}
    return elapsed, proc.returncode, payload


def child_seconds(code: str) -> float:
    """Run a one-line child interpreter that prints a duration it measured."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


# -- measurement ------------------------------------------------------------------


class Loop:
    """The closed measurement loop and its bookkeeping."""

    def __init__(self, jobs: list, clis: list, tracer: tracing.Tracer | None = None):
        self.jobs, self.clis, self.tracer = jobs, clis, tracer
        self.verdict_raw: list[float] = []
        self.verdict_ratio: list[float] = []
        self.cli_raw: list[float] = []
        self.cli_ratio: list[float] = []
        self.refs: list[float] = []
        self.attempted = self.failed = self.decided = 0
        self.errors: list[str] = []
        self.last_ref = reference.measure()
        self.refs.append(self.last_ref)

    def _ratio(self, elapsed: float) -> float:
        ref = reference.measure()
        self.refs.append(ref)
        ratio = elapsed / ((self.last_ref + ref) / 2)
        self.last_ref = ref
        return ratio

    def _judge(self, label: str, gate, *result) -> None:
        self.attempted += 1
        try:
            if gate(*result) == "decided":
                self.decided += 1
        except (GateError, KeyError, TypeError, IndexError) as err:
            self.failed += 1
            self.errors.append(f"{label}: {err}")

    def verdict(self, label: str, run, gate, serialize=None) -> None:
        """Time one verdict between two references, then gate it untimed.

        With a tracer the verdict is one root span; its gate and the report
        serialisation a CLI run would do are separate spans with the same id.
        """
        tracer = self.tracer
        gc.collect()
        if tracer is not None:
            tracer.verdict = len(self.verdict_raw)
            tracer.counting = True
            root = tracer.begin("bench.verdict")
        start = time.perf_counter()
        try:
            result = run()
        except Exception as err:  # a crash is a wrong answer, counted and reported
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{label}: {type(err).__name__}: {err}")
            result = None
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end(root)
            tracer.counting = False
        if result is None:
            return
        self.verdict_raw.append(elapsed)
        self.verdict_ratio.append(self._ratio(elapsed))
        if tracer is None:
            self._judge(label, gate, result)
            return
        span = tracer.begin("bench.gate")
        self._judge(label, gate, result)
        tracer.end(span)
        span = tracer.begin("cli.serialize")
        serialize(result)
        tracer.end(span)

    def cli(self, label: str, args: list[str], gate) -> None:
        elapsed, code, payload = run_cli(args)
        self.cli_raw.append(elapsed)
        self.cli_ratio.append(self._ratio(elapsed))
        self._judge(f"cli {label}", gate, code, payload)

    def rounds(self, seconds: float, sweeps: int) -> None:
        """``sweeps`` sweeps of every job, then one CLI child, until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        k = 0
        while time.perf_counter() < deadline or not self.cli_ratio:
            for _ in range(sweeps):
                for label, run, gate in self.jobs:
                    self.verdict(label, run, gate)
            if self.clis:
                self.cli(*self.clis[k % len(self.clis)])
                k += 1


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def e2e_metrics(loop: Loop) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "verdict_ref_p50": p50(loop.verdict_ratio),
        "verdict_ref_p90": p90(loop.verdict_ratio),
        "items_per_kref": 1000 * len(loop.verdict_ratio) / sum(loop.verdict_ratio),
        "cli_ref_p50": p50(loop.cli_ratio),
        "decided_share": loop.decided / loop.attempted,
        "peak_rss_mb": rss_kb / 1024,
    }


def diagnostics(loop: Loop) -> dict:
    return {
        "samples": len(loop.verdict_ratio),
        "cli_samples": len(loop.cli_ratio),
        "raw_verdict_ms_p50": 1000 * p50(loop.verdict_raw),
        "raw_verdict_ms_p90": 1000 * p90(loop.verdict_raw),
        "raw_cli_ms_p50": 1000 * p50(loop.cli_raw),
        "calib_ms": 1000 * p50(loop.refs),
        "failed_share": loop.failed / loop.attempted,
    }


def layer_metrics(tracer: tracing.Tracer, verdicts: int) -> dict:
    """Per-verdict layer numbers from one traced pass.

    Everything is counted inside the timed verdicts, except the trace replay
    and the serialisation, which run in the untimed gate after them.
    """
    spans = tracer.spans
    own = tracing.self_times(spans)
    n = verdicts
    dur = lambda s: s[2] - s[1]  # noqa: E731
    gated: dict[str, float] = {}
    total: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    roots = 0.0
    layer_self: dict[str, float] = {}
    for span, mine in zip(spans, own):
        name = span[0]
        root = span
        while root[3] is not None:
            root = spans[root[3]]
        if root[0] != "bench.verdict":
            gated[name] = gated.get(name, 0.0) + dur(span)
            continue
        total[name] = total.get(name, 0.0) + dur(span)
        self_ms[name] = self_ms.get(name, 0.0) + mine
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + mine
        if span is root:
            roots += dur(span)
    builds = sum(
        dur(s) for s in spans
        if s[0].startswith("construction.assemble_")
        and (s[3] is None or not spans[s[3]][0].startswith("construction.assemble_"))
    )
    c = tracer.counts
    ms = lambda seconds: 1000 * seconds / n  # noqa: E731
    per = lambda value: value / n  # noqa: E731
    out = {
        "words.rotations_self_ms": ms(self_ms.get("words.rotations", 0.0)),
        "words.rotations_calls": per(calls.get("words.rotations", 0)),
        "words.word_objects": per(c["words.word_objects"]),
        "tietze.simplify_self_ms": ms(self_ms.get("tietze.simplify", 0.0)),
        "tietze.steps": per(c["tietze.steps"]),
    }
    for kind in ("Shorten", "Eliminate", "RemoveDuplicate", "RemoveTrivial", "CyclicReduce"):
        out[f"tietze.steps.{kind}"] = per(c[f"tietze.steps.{kind}"])
    defined = c["coset_enum.cosets_defined"]
    out.update({
        "tietze.replay_ms": ms(gated.get("tietze.replay", 0.0)),
        "coset_enum.enum_ms": ms(total.get("coset_enum.todd_coxeter", 0.0)),
        "coset_enum.enumerations": per(c["coset_enum.enumerations"]),
        "coset_enum.cosets_defined": per(defined),
        "coset_enum.cosets_collapsed": per(c["coset_enum.cosets_collapsed"]),
        "coset_enum.useful_ratio": c["coset_enum.closed_index"] / defined if defined else 0.0,
        "coset_enum.budget_exhausted": per(c["coset_enum.budget_exhausted"]),
        "presentations.h1_ms": ms(total.get("presentations.h1", 0.0)),
        "presentations.h1_calls": per(calls.get("presentations.h1", 0)),
        "presentations.prune_ms": ms(total.get("presentations.prune", 0.0)),
        "construction.build_ms": ms(builds),
        "construction.blocks_built": per(sum(v for k, v in calls.items() if k.startswith("construction.assemble_"))),
    })
    for block in ("v", "w", "p1", "p2", "p", "x"):
        out[f"construction.blocks_built.{block.upper()}"] = per(calls.get(f"construction.assemble_{block}", 0))
    out.update({
        "construction.kill_replay_ms": ms(total.get("construction.replay_kill_order", 0.0)),
        "manifolds.self_ms": ms(sum(v for k, v in self_ms.items() if k.startswith("manifolds."))),
        "script.parse_ms": ms(total.get("script.parse", 0.0) + total.get("script.parse_word", 0.0)),
        "script.execute_self_ms": ms(self_ms.get("script.execute", 0.0)),
        "cli.serialize_ms": ms(gated.get("cli.serialize", 0.0)),
    })
    for layer in ("words", "tietze", "coset_enum", "presentations", "construction", "manifolds", "script", "bench"):
        out[f"{layer}.self_share"] = layer_self.get(layer, 0.0) / roots
    return out


def counter_signature(tracer: tracing.Tracer) -> dict:
    """Everything in a traced pass that must repeat exactly: counts and calls."""
    calls: dict[str, int] = {}
    for span in tracer.spans:
        calls[span[0]] = calls.get(span[0], 0) + 1
    return {"counts": dict(sorted(tracer.counts.items())), "calls": dict(sorted(calls.items()))}


def traced_pass(sgcalc, jobs: list, serialize, verdicts: int) -> tuple[tracing.Tracer, Loop]:
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        loop = Loop(jobs, [], tracer)
        for k in range(verdicts):
            label, run, gate = jobs[k % len(jobs)]
            loop.verdict(label, run, gate, serialize)
    finally:
        restore()
    return tracer, loop


def cli_layer_metrics() -> dict:
    """Interpreter start-up and ``import sgcalc`` as a CLI child pays them."""
    startup, imports = [], []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        startup.append(time.perf_counter() - start)
        imports.append(child_seconds("import time\nt = time.perf_counter()\nimport sgcalc\nprint(time.perf_counter() - t)"))
    return {"cli.startup_ms": 1000 * p50(startup), "cli.import_ms": 1000 * p50(imports)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("paper", "script", "corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import sgcalc

    if Path(sgcalc.__file__).resolve().parent != (ROOT / "src" / "sgcalc").resolve():
        print(f"worker: sgcalc imported from {sgcalc.__file__}, not this checkout", file=sys.stderr)
        return 2
    items: list[corpus.Item] = []
    if args.workload == "paper":
        jobs, serialize = paper_jobs(sgcalc), serialize_paper
    elif args.workload == "script":
        jobs = script_jobs(sgcalc, (ROOT / SCRIPT_FILE).read_text(encoding="utf-8"))
        serialize = lambda report: report.to_json()  # noqa: E731
    else:
        items = corpus.generate(args.seed, ROOT)
        jobs = corpus_jobs(sgcalc, items)
        serialize = lambda report: report.to_json()  # noqa: E731
    clis = cli_jobs(args.workload, items)
    if items and not args.setup_only:
        WORK_DIR.mkdir(exist_ok=True)
        for item in items:
            (WORK_DIR / f"{item.name}.sgc").write_text(item.text, encoding="utf-8")
    print("READY", flush=True)
    if args.setup_only:
        return 0

    try:
        # warm-up: one untimed sweep, so lazy set-up is not timed
        for _, run, _ in jobs:
            run()
        if not args.trace:
            loop = Loop(jobs, clis)
            loop.rounds(args.seconds, SWEEPS_PER_CLI[args.workload])
            result = {"metrics": e2e_metrics(loop), "diagnostics": diagnostics(loop)}
        else:
            loop = Loop(jobs, clis)
            loop.rounds(args.seconds * 0.4, SWEEPS_PER_CLI[args.workload])
            n = TRACED_SWEEPS[args.workload] * len(jobs)
            first, first_loop = traced_pass(sgcalc, jobs, serialize, n)
            second, second_loop = traced_pass(sgcalc, jobs, serialize, n)
            for extra in (first_loop, second_loop):
                loop.attempted += extra.attempted
                loop.failed += extra.failed
                loop.decided += extra.decided
                loop.errors += extra.errors
            if counter_signature(first) != counter_signature(second):
                loop.failed += 1
                loop.errors.append("traced counters differ between two identical passes")
            untraced = statistics.mean(loop.verdict_ratio)
            metrics = layer_metrics(first, n)
            metrics.update(cli_layer_metrics())
            diag = diagnostics(loop)
            metrics.update({
                "bench.calib_ms": diag["calib_ms"],
                "bench.raw_verdict_ms_p50": diag["raw_verdict_ms_p50"],
                "bench.raw_cli_ms_p50": diag["raw_cli_ms_p50"],
                "bench.trace_overhead": statistics.mean(first_loop.verdict_ratio) / untraced,
                "bench.failed_share": loop.failed / loop.attempted,
            })
            WORK_DIR.mkdir(exist_ok=True)
            spans_file = WORK_DIR / f"spans-{args.workload}-{args.seed}.json"
            spans_file.write_text(json.dumps({"spans": first.spans, "counters": counter_signature(first)}))
            result = {"metrics": metrics, "diagnostics": diag}
    finally:
        for item in items:
            (WORK_DIR / f"{item.name}.sgc").unlink(missing_ok=True)
    result.update(attempted=loop.attempted, failed=loop.failed, errors=loop.errors[:20])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
