"""The filiform benchmark: four workloads, timed end to end and traced per layer.

    python3 perfbench/run.py --workload {generate,oracle,check,cocycles,all}
                             --seed N --seconds S --trace {0,1}

Run it from anywhere inside a source checkout; it uses `src/filiform` of that
checkout and writes only under `.perfbench/` there.  One driver process runs
one child at a time: a closed loop with one client.  `--workload all` runs the
four workloads one after the other, each in its own driver process.

--trace 0  launches the workload's operations as children (`python -m
           filiform.cli ...`, or `perfbench/cocycles.py`), one pass after the
           other, until S seconds have passed, and reports medians:
             wall_s        one pass, summed over its children from launch to exit
             first_byte_s  launch to first stdout byte of the pass's marked
                           operation (`gen` on generate, the first one elsewhere)
             peak_rss_mb   largest ru_maxrss (from wait4) of a pass's children
             setup_s       `filiform --help`: interpreter start, import and
                           parser build; one probe before each pass, at
                           least SETUP_SAMPLES
--trace 1  runs one pass of children, then the same operations inside this
           process with every `filiform` layer wrapped by `tracer.py`, and
           reports per-layer counts and times.  The traced outputs must be
           byte-identical to the children's.  Times of single functions are
           printed but left out of the result line, because they are zero on
           the workloads that never call the function.

Every output is checked (see `workloads.py`); an operation fails on a wrong
exit code or a failed check.  fail_rate = failed / attempted is printed; the
result line carries it as `attempted` and `failed`.  The last line of stdout
is one JSON object: correct, attempted, failed and the metrics BENCHMARK.json
declares for the mode.  The lines before it give the environment and every
metric with its unit, kind and samples; the same record is saved under
`.perfbench/`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads
from tracer import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 11
IMPORT_SAMPLES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import filiform.cli; "
                "print(time.perf_counter() - t)")

TIMING, COUNT, COUNT_RATIO, MEMORY = ("timing", "count (exact)",
                                      "ratio of counts (exact)", "memory")
END_TO_END = {
    "wall_s": ("s", TIMING),
    "first_byte_s": ("s", TIMING),
    "peak_rss_mb": ("MB", MEMORY),
    "setup_s": ("s", TIMING),
}


def _layer_unit(name: str) -> tuple[str, str]:
    if name == "trace_overhead":
        return "ratio", "ratio of timings"
    if name.endswith("_s") or name.endswith(".s"):
        return "s", TIMING
    if name.endswith("ratio"):
        return "ratio", COUNT_RATIO
    if name == "serialize.bytes_out":
        return "bytes", COUNT
    return "count", COUNT


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "concurrency": "one driver process, one child at a time",
    }


# ---- children --------------------------------------------------------------

def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")


def _argv(op: workloads.Op) -> list[str]:
    if op.entry == "cli":
        return [sys.executable, "-m", "filiform.cli", *op.args]
    return [sys.executable, str(BENCH_DIR / "cocycles.py"), *op.args]


def run_child(argv: list[str], keep_output: bool = True) -> dict:
    """Launch, drain stdout, reap with wait4; times are from launch."""
    stderr_path = OUT / "child-stderr.txt"
    digest = hashlib.sha256()
    chunks = []
    first_byte = None
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr,
                                cwd=ROOT, env=_child_env())
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, 1 << 16):
            if first_byte is None:
                first_byte = time.perf_counter() - start
            digest.update(chunk)
            if keep_output:
                chunks.append(chunk)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall": wall,
        "first_byte": wall if first_byte is None else first_byte,
        "digest": digest.hexdigest(),
        "output": b"".join(chunks) if keep_output else None,
        "rss_mb": usage.ru_maxrss / 1024,
        "cpu": usage.ru_utime + usage.ru_stime,
        "stderr": stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:],
    }


class Ledger:
    """Attempted operations and the reasons of the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def judge(self, op: workloads.Op, code: int, digest: str, output, stderr: str = ""):
        self.attempted += 1
        try:
            reason = op.check(code, digest, output)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"output check raised {exc!r}"
        if reason is not None:
            self.failures.append(f"{op.name}: {reason} {stderr.strip()[-300:]}".strip())

    def run(self, op: workloads.Op) -> dict:
        result = run_child(_argv(op), op.keep_output)
        self.judge(op, result["code"], result["digest"], result["output"], result["stderr"])
        return result


# ---- the two modes ---------------------------------------------------------

def measure(ops, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    ledger.run(workloads.SETUP)  # writes the bytecode caches; not a sample
    setup, passes = [], []
    start = time.perf_counter()
    # start-up probes interleave with the passes, so both medians cover the
    # same stretch of time on a host whose speed drifts
    while not passes or time.perf_counter() - start < seconds:
        setup.append(ledger.run(workloads.SETUP)["wall"])
        passes.append([ledger.run(op) for op in ops])
    while len(setup) < SETUP_SAMPLES:
        setup.append(ledger.run(workloads.SETUP)["wall"])
    samples = {
        "wall_s": [sum(r["wall"] for r in p) for p in passes],
        "first_byte_s": [r["first_byte"] for p in passes
                         for op, r in zip(ops, p) if op.first_byte],
        "peak_rss_mb": [max(r["rss_mb"] for r in p) for p in passes],
        "setup_s": setup,
    }
    return {k: statistics.median(v) for k, v in samples.items()}, samples


def _in_process(op: workloads.Op, modules, cocycles) -> tuple[int, bytes, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if op.entry == "cli":
                code = modules["cli"].main(list(op.args))
            else:
                code = cocycles.main(list(op.args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue().encode("utf-8"), time.perf_counter() - start


def trace(ops, workload: str, ledger: Ledger) -> tuple[dict, dict]:
    untraced = [ledger.run(op) for op in ops]
    imports = [float(run_child([sys.executable, "-c", IMPORT_PROBE])["output"])
               for _ in range(IMPORT_SAMPLES + 1)][1:]

    tracer = Tracer()
    sys.path.insert(0, str(SRC))
    modules = tracer.install()
    if Path(modules["cli"].__file__).resolve().parent != SRC / "filiform":
        raise RuntimeError(f"traced the wrong package: {modules['cli'].__file__}")
    import cocycles  # after install, so its `from filiform... import` gets wrappers

    traced_wall = 0.0
    for op, child in zip(ops, untraced):
        code, output, wall = _in_process(op, modules, cocycles)
        traced_wall += wall
        digest = hashlib.sha256(output).hexdigest()
        ledger.judge(op, code, digest, output if op.keep_output else None)
        if digest != child["digest"]:
            ledger.failures.append(f"{op.name}: traced output differs from untraced")
    metrics = layer_metrics(tracer)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["cli.cpu_s"] = sum(r["cpu"] for r in untraced)
    untraced_wall = sum(r["wall"] for r in untraced)
    metrics["trace_overhead"] = traced_wall / untraced_wall
    tracer.write_spans(OUT / f"spans-{workload}.bin.gz")
    samples = {"cli.import_s": imports, "untraced_wall_s": [untraced_wall],
               "traced_wall_s": [traced_wall], "spans": [len(tracer.names)]}
    return metrics, samples


def report(workload: str, args, declared: dict) -> None:
    """Run one workload in the mode `args.trace` selects and print its result."""
    OUT.mkdir(exist_ok=True)
    ledger = Ledger()
    ops = workloads.build(workload, args.seed, OUT)
    if args.trace:
        computed, samples = trace(ops, workload, ledger)
        wanted = [m["name"] for m in declared["per_layer"]]
        units = {name: _layer_unit(name) for name in computed}
    else:
        computed, samples = measure(ops, args.seconds, ledger)
        wanted = [m["name"] for m in declared["end_to_end"]]
        units = END_TO_END
    failed = len(ledger.failures)
    env = environment()

    lines = [f"perfbench {workload} seed={args.seed} trace={args.trace}",
             "env: " + "; ".join(f"{k}={v}" for k, v in env.items())]
    for name in sorted(computed):
        unit, kind = units[name]
        value = computed[name]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        spread = samples.get(name, ())
        if len(spread) > 1:
            q1, _, q3 = statistics.quantiles(spread, n=4)
            detail = f"median of {len(spread)} samples, quartiles {q1:.6g} .. {q3:.6g}"
        else:
            detail = "1 sample"
        tag = "" if name in wanted else ", printed only"
        lines.append(f"{name:36} {shown} {unit:6} {kind}, {detail}{tag}")
    lines.append(f"fail_rate {failed / ledger.attempted:.4g} "
                 f"({failed} of {ledger.attempted} operations) "
                 + ("PASS" if not failed else "FAIL"))
    lines.extend(f"  failure: {f}" for f in ledger.failures)
    print("\n".join(lines))

    result = {
        "correct": not failed,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": computed[name], "unit": units[name][0]}
                    for name in wanted},
    }
    record = dict(result, workload=workload, seed=args.seed, trace=args.trace,
                  environment=env, why=workloads.WHY[workload],
                  kinds={name: units[name][1] for name in computed},
                  all_metrics=computed, samples=samples, failures=ledger.failures)
    with open(OUT / f"result-{workload}-{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    print(json.dumps(result, sort_keys=True), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WHY, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "filiform" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'filiform'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload: the traced run can wrap a process only once
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in workloads.WHY]
        return max(codes)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    report(args.workload, args, declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
