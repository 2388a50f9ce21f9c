"""Benchmark of the homearbiter command line, one workload per run.

Run from the repository root:

    python3 bench/run.py --workload resolve-long --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

An op is one call of ``homearbiter.cli.main(argv)`` inside this process: one
client in a closed loop, no threads.  A run

1. times a fixed pure-Python loop (``calib.loop_ms``, to tell machine drift
   from a code change);
2. writes the workload's inputs from ``--seed`` (not timed);
3. sets up ``SETUP_REPEATS`` times, each in a fresh interpreter: import
   ``homearbiter``, run ``demo`` (which must exit 0) and, for the workloads
   that read a store, ``ingest`` it.  ``setup_s`` is the median;
4. runs every request batch once, untimed, in reverse order.  These outputs
   pass structural checks and are the reference: every later op's outputs
   must match them byte for byte, by SHA-256;
5. runs ops for ``--seconds``, cycling through the batches.

Ops and set-ups take turns on the CPUs the process may use.  On a shared
virtual machine each CPU slows down by up to 1.6x for seconds at a time,
independently of the others; taking turns makes every run sample all of
them, so one CPU's slow spell does not set a run's median.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` the loop alternates untraced and traced ops of the same
batch; the traced ops' spans (see ``tracing.py``) give the per-layer metrics,
and are written to ``.bench_build/bench/trace-<workload>-seed<seed>.jsonl``.
``--workload all`` runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench"
WORKLOADS = ("ingest", "resolve-long", "evaluate", "resolve-wide")
SETUP_REPEATS = 5
CALIB_REPEATS = 5
CHILD_TIMEOUT_S = 170

# One set-up in a fresh interpreter: argv is [src, ingest args...].
SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
from homearbiter.cli import main
code = main(["demo"])
if code == 0 and len(sys.argv) > 2:
    code = main(sys.argv[2:])
sys.exit(code)
"""


class SetupError(Exception):
    """The program could not be set up; no metric can be measured."""


def calib_loop_ms() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return 1000 * (time.perf_counter() - start)


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and its value.

    With fewer than 11 samples no such percentile exists; the maximum is
    reported as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    rank = n - 11  # 0-based: ten samples above it
    return 100.0 * rank / (n - 1), ordered[rank]


class Workload:
    """Inputs, argv and output checks of one workload."""

    def __init__(self, name: str, seed: int, directory: Path, scale: float = 1.0):
        import workloads

        self.name = name
        self.inputs = workloads.write_inputs(name, seed, directory / "inputs", scale)
        self.store = None if name == "ingest" else directory / "store.jsonl"
        self.out = directory / "out"
        self.out.mkdir(parents=True, exist_ok=True)

    @property
    def batches(self) -> int:
        return max(1, len(self.inputs.batches))

    def argv(self, batch: int) -> tuple[list[str], list[Path]]:
        """The op's argv and the primary outputs it writes."""
        if self.name == "ingest":
            store = self.out / "store.jsonl"
            return ["ingest", str(self.inputs.log), "--out", str(store)], [store]
        requests = ["--store", str(self.store), "--requests", str(self.inputs.batches[batch])]
        if self.name == "evaluate":
            prefix = self.out / f"report-{batch}"
            return (["evaluate", *requests, "--out-prefix", str(prefix)],
                    [Path(f"{prefix}.json"), Path(f"{prefix}.csv")])
        out = self.out / f"resolutions-{batch}.jsonl"
        top_n = ["--top-n", "10"] if self.name == "resolve-wide" else []
        return ["resolve", *requests, *top_n, "--out", str(out)], [out]

    def setup_argv(self) -> list[str]:
        if self.store is None:
            return []
        return ["ingest", str(self.inputs.log), "--out", str(self.store)]

    def check(self, batch: int, outputs: list[Path]) -> str | None:
        """Structural checks of a reference output; the problem found, if any."""
        from homearbiter.ingest import sha256_file

        first = outputs[0]
        text = first.read_text(encoding="utf-8")
        if self.name == "ingest":
            lines = text.splitlines()
            header = json.loads(lines[0])
            if header.get("schema") != "homearbiter-store/1":
                return f"store schema {header.get('schema')!r}"
            if header["inputs"] != [{"path": self.inputs.log.name, "sha256": sha256_file(self.inputs.log)}]:
                return "store header does not name the log's digest"
            if len(lines) < 2 or any(not json.loads(line)["event_id"] for line in lines[1:]):
                return "store holds no events"
            return None
        request_file = self.inputs.batches[batch]
        expected_inputs = [{"path": p.name, "sha256": sha256_file(p)} for p in (self.store, request_file)]
        situations = self.inputs.situations[batch]
        if self.name == "evaluate":
            report = json.loads(text)
            if report.get("schema") != "homearbiter-report/1" or report["inputs"] != expected_inputs:
                return "report header does not match the inputs"
            if len(report["details"]) != 5 * situations:
                return f"{len(report['details'])} detail rows, expected {5 * situations}"
            counts = {(r["strategy"], r["group_size"]): r["conflicts"] for r in report["rows"]}
            if sorted(counts.values()) != sorted([1, situations - 1] * 5):
                return f"conflict counts per group size {counts}"
            for d in report["details"]:
                if not (0 <= d["avg_satisfaction"] <= 1 and d["sg"] >= 0 and d["harmonic"] >= 0):
                    return f"metric out of range in {d}"
            return None
        lines = [json.loads(line) for line in text.splitlines()]
        if lines[0].get("schema") != "homearbiter-resolutions/1" or lines[0]["inputs"] != expected_inputs:
            return "resolution header does not match the inputs"
        records = lines[1:]
        if len(records) != situations:
            return f"{len(records)} situations, expected {situations}"
        if max(len(r["residents"]) for r in records) != self.inputs.max_group[batch]:
            return "largest conflict group has the wrong size"
        for r in records:
            items = [item for item, _ in r["ranked"]]
            distances = [d for _, d in r["ranked"]]
            if len(set(items)) != len(items) or distances != sorted(distances):
                return f"ranking of {r['window']} is not a sorted ranking of distinct items"
            if r["chosen"] != items[:1]:
                return f"chosen {r['chosen']} is not the first-ranked item"
        return None


def run_op(main, argv: list[str], outputs: list[Path]) -> tuple[float, int, str | None, str]:
    """One op: its wall time, exit code, outputs' digest and captured output."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    digest = sha256_files(outputs) if code == 0 else None
    return elapsed, code, digest, sink.getvalue()


def set_up(workload: Workload, cpus: list[int]) -> float:
    """Median wall time of ``SETUP_REPEATS`` fresh set-ups, in seconds."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), *workload.setup_argv()]
    times, digests = [], set()
    for rep in range(SETUP_REPEATS):
        os.sched_setaffinity(0, {cpus[rep % len(cpus)]})  # the child inherits it
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"set-up exited {proc.returncode}: {proc.stdout[-500:]}{proc.stderr[-500:]}")
        if workload.store is not None:
            digests.add(sha256_files([workload.store]))
    if len(digests) > 1:
        raise SetupError("set-up ingest wrote different stores on identical reruns")
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
                 work: Path = WORK) -> dict:
    """Measure one workload: the result line, a readable report and the tracer, if any."""
    from tracing import Tracer, layer_metrics

    calib_ms = statistics.median(calib_loop_ms() for _ in range(CALIB_REPEATS))
    directory = work / f"run-{name}-seed{seed}"
    shutil.rmtree(directory, ignore_errors=True)
    cpus = sorted(os.sched_getaffinity(0))
    try:
        workload = Workload(name, seed, directory, scale)
        setup_s = set_up(workload, cpus)

        from homearbiter.cli import main

        attempted = failed = 0
        problems: list[str] = []

        def fail(problem: str) -> None:
            nonlocal failed
            failed += 1
            if len(problems) < 5:
                problems.append(problem)

        def run_next(argv: list[str], outputs: list[Path]):
            os.sched_setaffinity(0, {cpus[attempted % len(cpus)]})
            return run_op(main, argv, outputs)

        reference: dict[int, str] = {}
        for batch in reversed(range(workload.batches)):
            argv, outputs = workload.argv(batch)
            _, code, digest, log = run_next(argv, outputs)
            attempted += 1
            problem = f"exit {code}: {log[-300:]}" if code else workload.check(batch, outputs)
            if problem:
                fail(f"reference op, batch {batch}: {problem}")
            reference[batch] = digest

        def timed(batch: int, tracer: Tracer | None = None) -> float:
            nonlocal attempted
            argv, outputs = workload.argv(batch)
            if tracer is None:
                elapsed, code, digest, log = run_next(argv, outputs)
            else:
                with tracer.op(attempted):
                    elapsed, code, digest, log = run_next(argv, outputs)
            attempted += 1
            if code:
                fail(f"batch {batch}: exit {code}: {log[-300:]}")
            elif digest != reference[batch]:
                fail(f"batch {batch}: output differs from the reference")
            return elapsed

        untraced: list[float] = []
        traced: list[float] = []
        tracer = Tracer() if trace else None
        start = time.perf_counter()
        op = 0
        while time.perf_counter() - start < seconds:
            batch = op % workload.batches
            if tracer is None:
                untraced.append(timed(batch))
            elif op % 2:  # alternate which runs first, so order effects cancel
                traced.append(timed(batch, tracer))
                untraced.append(timed(batch))
            else:
                untraced.append(timed(batch))
                traced.append(timed(batch, tracer))
            op += 1
        phase_s = time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(directory, ignore_errors=True)

    percentile, tail_s = tail(untraced)
    report = {
        "workload": name,
        "seed": seed,
        "ops": len(untraced),
        "tail_percentile": percentile,
        "op_fail_ratio": failed / attempted,
        "problems": problems,
        "calib.loop_ms": calib_ms,
    }
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (1000 * statistics.median(untraced), "ms"),
            "op_tail_ms": (1000 * tail_s, "ms"),
            "ops_per_s": (len(untraced) / phase_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layers = layer_metrics(tracer.spans)
        layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        layers["trace.missing"] = len(tracer.missing)
        layers["calib.loop_ms"] = calib_ms
        metrics = {key: (value, per_layer_unit(key)) for key, value in layers.items()}
        report["missing"] = tracer.missing
    return {
        "tracer": tracer,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        },
        "report": report,
    }


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio") or name.endswith("_per_situation"):
        return "ratio"
    return "count"


def describe(result: dict, report: dict) -> list[str]:
    """Readable lines for one run: every metric by name and unit."""
    lines = [f"workload {report['workload']} seed {report['seed']}: {report['ops']} timed ops, "
             f"calib.loop_ms {report['calib.loop_ms']:.3f}"]
    metrics = result["metrics"]
    for key, metric in metrics.items():
        note = ""
        if key == "op_tail_ms":
            note = f"  (p{report['tail_percentile']:.1f} of {report['ops']} ops)"
        elif key.endswith(".busy_ms") and metrics.get("cli.op_ms", {}).get("value"):
            note = f"  ({100 * metric['value'] / metrics['cli.op_ms']['value']:.1f}% of the op)"
        lines.append(f"  {key:<40} {metric['value']:>14.4f} {metric['unit']}{note}")
    lines.append(f"  {'op_fail_ratio':<40} {report['op_fail_ratio']:>14.4f} ratio  "
                 f"({result['failed']} of {result['attempted']} ops failed)")
    if "missing" in report:
        lines.append(f"  missing: {report['missing']}")
    lines += [f"  problem: {p}" for p in report["problems"]]
    return lines


def run_all(args) -> int:
    """Every workload in its own process; one table of all metrics."""
    code = 0
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}: {proc.stderr[-500:]}", file=sys.stderr)
            code = 1
            continue
        rows.append((name, json.loads(lines[-1])))
    if rows:
        keys = list(rows[0][1]["metrics"])
        print(f"{'metric':<40}" + "".join(f"{name:>16}" for name, _ in rows))
        for key in keys + ["op_fail_ratio"]:
            cells = []
            for _, result in rows:
                if key == "op_fail_ratio":
                    cells.append(f"{result['failed'] / result['attempted']:>10.4f} ratio")
                else:
                    metric = result["metrics"][key]
                    cells.append(f"{metric['value']:>10.4f} {metric['unit']:<5}")
            print(f"{key:<40}" + "".join(f"{cell:>16}" for cell in cells))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "homearbiter" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'homearbiter'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import homearbiter

    if Path(homearbiter.__file__).resolve().parent != (SRC / "homearbiter").resolve():
        print(f"error: imported homearbiter from {homearbiter.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result, report = run["result"], run["report"]
    if run["tracer"] is not None:
        run["tracer"].write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl",
                            {"workload": args.workload, "seed": args.seed})
    print("\n".join(describe(result, report)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
