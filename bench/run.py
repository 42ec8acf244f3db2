"""Benchmark of nppreserve: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

A run imports the program from ``src/``, builds the workload's inputs from
the seed, runs one untimed warm-up pass and then whole timed passes over the
same inputs until ``--seconds`` have passed (at least MIN_PASSES).  Each op's
time is its median over the timed passes, so one interrupted op cannot move
the result.  The outputs are checked by ``checks.py`` outside the timed
section.  The last line printed is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced run.  ``--smoke`` runs a slice of every workload with all checks and
a traced pass, in about fifteen seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 3
SETUP_PROBES = 5
TAIL_BEYOND = 10  # op_tail_ms leaves this many slower ops beyond it
SMOKE_OPS = 24
# Per-op deadline.  The cone fault would run for minutes; every other op
# of every workload ends in well under a tenth of its deadline.
DEADLINE_S = {"corpus": 5.0, "cone": 1.0, "falsify": 5.0, "certificate": 5.0}
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_per_op_ms": "ms",
    "peak_rss_mib": "MiB",
}


def import_program():
    """Import nppreserve from this checkout's src/, never from elsewhere."""
    package = SRC / "nppreserve"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no program sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nppreserve

    if Path(nppreserve.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported nppreserve from {nppreserve.__file__}, not from {package}")
    return nppreserve


class Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise Deadline()


class Failed:
    """An op that raised or passed its deadline."""

    def __init__(self, reason):
        self.reason = reason


def call(N, op):
    if op.kind == "p2":
        return N.check_p2(op.poly)
    if op.kind == "falsify":
        return N.falsify_random(op.poly, workloads.FALSIFY_TRIALS, op.seed)
    return N.polya_szego_certificate(op.poly, workloads.CERT_PRECISION)


def run_pass(N, ops, deadline):
    """One pass over ops; returns per-op wall ns, outcomes and the pass's
    process CPU seconds (all threads)."""
    times, outcomes = [], []
    cpu = time.process_time()
    for op in ops:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        start = time.perf_counter_ns()
        try:
            try:
                out = call(N, op)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            out = Failed("deadline")
        except Exception as exc:  # any escape from the program is a failed op
            out = Failed(type(exc).__name__)
        times.append(time.perf_counter_ns() - start)
        outcomes.append(out)
    return times, outcomes, time.process_time() - cpu


def _matrix(m):
    return None if m is None else (m.a11, m.a12, m.a21, m.a22)


def outcome_key(op, out):
    """What must repeat exactly from pass to pass."""
    if isinstance(out, Failed):
        return ("failed", out.reason)
    if op.kind == "p2":
        return (out.status.value, _matrix(out.witness_matrix))
    if op.kind == "falsify":
        return _matrix(out)
    return tuple(getattr(out, n).coeffs for n in ("f1", "f2", "g1", "g2")) + (out.residual,)


def judge(op, out):
    """(failed, error): failed ops count in 'failed'; an error is a wrong output."""
    if isinstance(out, Failed):
        return True, None
    if op.kind == "p2":
        if out.status.value == "unknown":
            return True, None
        error = checks.p2_verdict(op, out)
    elif op.kind == "falsify":
        error = checks.falsify_hit(op, out)
    else:
        error = checks.certificate(op, out, workloads.CERT_PRECISION)
    return error is not None, error


class Outcomes:
    """Judges every distinct outcome once and tallies failed ops."""

    def __init__(self, ops):
        self.ops = ops
        self.first = None
        self.verdicts = [{} for _ in ops]
        self.errors = checks.parsed(ops)
        self.attempted = 0
        self.failed = 0
        self.failures = {}

    def add(self, outcomes, timed=True):
        keys = [outcome_key(op, out) for op, out in zip(self.ops, outcomes)]
        if self.first is None:
            self.first = keys
        for i, (op, out, key) in enumerate(zip(self.ops, outcomes, keys)):
            if key not in self.verdicts[i]:
                self.verdicts[i][key] = judge(op, out)
                if error := self.verdicts[i][key][1]:
                    self.errors.append(error)
                deadline = ("failed", "deadline")
                if key != self.first[i] and deadline not in (key, self.first[i]):
                    self.errors.append(f"{op.text}: output changed between passes")
            failed, error = self.verdicts[i][key]
            if timed:
                self.attempted += 1
                self.failed += failed
            if failed:
                why = "wrong output" if error else key[1] if key[0] == "failed" else "unknown"
                self.failures[op.text[:60]] = why


def timed_passes(N, ops, deadline, seconds, outcomes, between):
    """Whole passes until `seconds` have passed; per-op times and pass CPU.
    `between` runs after each pass, outside the timed section."""
    times, cpu = [], []
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
        t, outs, c = run_pass(N, ops, deadline)
        times.append(t)
        cpu.append(c)
        outcomes.add(outs)
        between()
    return times, cpu


def per_op_ns(times):
    return [statistics.median(col) for col in zip(*times)]


def ops_per_s(per_op):
    return len(per_op) / (sum(per_op) / 1e9)


class SetupProbe:
    """Wall time of a fresh process that imports the program and builds the
    workload's inputs.  Probes run one at a time between timed passes, so
    their median samples the machine over the whole run."""

    def __init__(self, workload, seed):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                     "--workload", workload, "--seed", str(seed)]
        self.samples = []

    def __call__(self):
        if len(self.samples) >= SETUP_PROBES:
            return
        start = time.perf_counter()
        with subprocess.Popen(self.argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            self.samples.append(time.perf_counter() - start)
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"bench: setup probe failed (exit {proc.returncode})")

    def median(self):
        while len(self.samples) < SETUP_PROBES:
            self()
        return statistics.median(self.samples)


def end_to_end(workload, seed, seconds):
    probe = SetupProbe(workload, seed)
    probe()  # fails fast, before any work, when the program cannot be imported
    N = import_program()
    ops = workloads.build(workload, seed, N.parse_polynomial)
    outcomes = Outcomes(ops)
    deadline = DEADLINE_S[workload]
    outcomes.add(run_pass(N, ops, deadline)[1], timed=False)
    times, cpu = timed_passes(N, ops, deadline, seconds, outcomes, probe)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_op = per_op_ns(times)
    values = {
        "setup_s": probe.median(),
        "ops_per_s": ops_per_s(per_op),
        "op_p50_ms": statistics.median(per_op) / 1e6,
        "op_tail_ms": sorted(per_op)[len(per_op) - TAIL_BEYOND - 1] / 1e6,
        "cpu_per_op_ms": statistics.median(cpu) / len(ops) * 1e3,
        "peak_rss_mib": rss_mib,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return N, outcomes, metrics


def batch_overhead(N, tracer, seed, ops_for_batch):
    """Wall ms of one `check-p2 --batch --format json` pass through cli.run
    over the corpus, minus its check_p2 spans; returns it and the reports."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"batch-{seed}.txt"
    path.write_text("".join(op.text + "\n" for op in ops_for_batch))
    sink = io.StringIO()
    with tracer.active("batch"), contextlib.redirect_stdout(sink):
        start = time.perf_counter_ns()
        N.cli.run(["check-p2", "--batch", str(path), "--format", "json"])
        wall = time.perf_counter_ns() - start
    incl = tracer.totals("batch")[1]
    reports = [json.loads(line) for line in sink.getvalue().splitlines()]
    return (wall - incl["preserver.p2"]) / 1e6, reports


def traced_run(workload, seed, seconds, smoke=False):
    N = import_program()
    tracer = spans.Tracer()
    with tracer.active("setup"):
        ops = workloads.build(workload, seed, N.parse_polynomial)
    if smoke:
        ops = ops[:SMOKE_OPS] + [op for op in ops[SMOKE_OPS:] if op.fault]
    outcomes = Outcomes(ops)
    deadline = DEADLINE_S[workload]
    outcomes.add(run_pass(N, ops, deadline)[1], timed=False)
    plain, traced, phases = [], [], []
    start = time.perf_counter()
    while len(traced) < (1 if smoke else MIN_PASSES) or time.perf_counter() - start < seconds:
        t, outs, _ = run_pass(N, ops, deadline)
        plain.append(t)
        outcomes.add(outs)
        phases.append(f"pass{len(phases)}")
        with tracer.active(phases[-1]):
            t, outs, _ = run_pass(N, ops, deadline)
        traced.append(t)
        outcomes.add(outs)
    metrics = spans.layer_metrics(tracer, phases, len(ops))
    if "cone.ratio" in tracer.traced:
        ran = any(tracer.totals(p)[0]["cone.ratio"] for p in phases)
        alloc = spans.peak_alloc(lambda: run_pass(N, ops, deadline)) if ran else 0.0
        metrics["cone.peak_alloc_mib"] = {"value": alloc, "unit": "MiB"}
    if "cli.parse" in tracer.traced:
        metrics["cli.parse_ms"] = {"value": tracer.totals("setup")[1]["cli.parse"] / 1e6, "unit": "ms"}
    corpus = ops if workload == "corpus" else workloads.build("corpus", seed, N.parse_polynomial)
    if smoke:
        corpus = corpus[:SMOKE_OPS]
    overhead_ms, reports = batch_overhead(N, tracer, seed, corpus)
    metrics["cli.batch_overhead_ms"] = {"value": overhead_ms, "unit": "ms"}
    if workload == "corpus" and [r["status"] for r in reports] != [k[0] for k in outcomes.first]:
        outcomes.errors.append("check-p2 --batch statuses differ from check_p2")
    untraced, with_spans = ops_per_s(per_op_ns(plain)), ops_per_s(per_op_ns(traced))
    metrics["trace.overhead_pct"] = {"value": (untraced / with_spans - 1) * 100, "unit": "%"}
    tracer.write(OUT / f"trace-{workload}-{seed}.json", {"workload": workload, "seed": seed})
    return N, outcomes, metrics


def report(N, outcomes, metrics):
    errors = outcomes.errors + checks.paper_examples(N)
    for error in errors[:20]:
        print(f"bench: wrong output: {error}", file=sys.stderr)
    for text, why in outcomes.failures.items():
        print(f"bench: failed op ({why}): {text}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }


def smoke():
    """A slice of every workload, all checks, and a traced pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = True
    for workload in workloads.BUILDERS:
        N, outcomes, metrics = traced_run(workload, 0, 0, smoke=True)
        result = report(N, outcomes, metrics)
        units = {name: m["unit"] for name, m in metrics.items()}
        missing = sorted(set(declared) - set(units))
        wrong_unit = sorted(n for n in declared if n in units and units[n] != declared[n])
        passed = result["correct"] and not missing and not wrong_unit
        ok = ok and passed
        print(f"{workload:12s} {'ok' if passed else 'FAILED'}  attempted={result['attempted']} "
              f"failed={result['failed']} missing={missing} wrong_unit={wrong_unit}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick check of every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, _alarm)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        workloads.build(args.workload, args.seed, import_program().parse_polynomial)
        print("ready", flush=True)
        return 0
    if args.trace:
        N, outcomes, metrics = traced_run(args.workload, args.seed, args.seconds)
    else:
        N, outcomes, metrics = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(report(N, outcomes, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
