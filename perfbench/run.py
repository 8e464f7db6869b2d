"""goldfishlab benchmark: closed-loop CLI workloads with checked outputs.

    python3 perfbench/run.py --workload {verify-suite,cli-cold,large-n} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree (``src/goldfishlab`` next to
``perfbench``).  One client runs one ``goldfishlab`` process at a time,
cold start included, and checks each output before the operation counts.
The set-up (input generation plus one untimed warm-up operation) is done
three times and reported as a median; then whole rotations of the workload's
operations run; the loop stops at the rotation boundary nearest to
``--seconds``, so every run measures the same operation mix.  Timing
metrics are scaled by a calibration task run every few seconds (see
CALIBRATION).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: spans around each layer boundary for one rotation run
through ``traced_cli.py``, the tracing overhead against the same rotation
untraced, fresh-interpreter import time and the warmed scaling set of
``layers.py``.  Stdout carries a full report line, then the result object
as the last line.
"""
from __future__ import annotations

import os

#: BLAS threads are pinned for every process the benchmark starts: with two
#: OpenBLAS threads on a busy 2-CPU machine one small ``expm`` call took
#: anywhere from 80 us to 8 ms.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_THREADS = {k: v for k, v in os.environ.items() if "THREAD" in k or k.startswith("OMP_")}
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from traced_cli import LAYERS  # noqa: E402
from workloads import WORKLOADS, Op, Outcome  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: A seed no figure was tuned on; a later gain must also hold with it.
HELD_OUT_SEED = 20071
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
OP_TIMEOUT_S = 150.0
#: No new rotation starts after this much of a run, so it ends within 180 s.
LAST_START_S = 110.0

#: A fixed task shaped like a short goldfishlab run: interpreter start, numpy
#: import, and a pure-Python loop around small numpy calls.  It runs as its own
#: process every few seconds of a run.  On a shared machine whole runs went
#: 10-50 % faster or slower for minutes at a time, and this task slowed with
#: them, so the timing metrics are scaled by CALIBRATION_REF_S / (median
#: calibration time of the run): seconds at the speed on which the task takes
#: CALIBRATION_REF_S.  The unscaled figures are in the report.
CALIBRATION = """
import numpy as np
a, s = np.arange(16.0), 0.0
for i in range(60000):
    s += 0.5 * i
    if i % 10 == 0:
        a = np.sort(a[::-1] + 1.0)
"""
CALIBRATION_REF_S = 0.145
CALIBRATE_EVERY_S = 3.0


@dataclass
class Result:
    op: Op
    wall_s: float
    rss_mb: float
    rc: int
    outcome: Outcome


def environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def run_process(argv: list[str], cwd: Path) -> tuple[float, float, int, str, str]:
    """Wall seconds, peak RSS (MB), exit code, stdout and stderr of one process."""
    out, err = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=environment(), stdout=stdout, stderr=stderr)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out.read_text(), err.read_text()


def run_op(op: Op, cwd: Path, traced_spans: Path | None = None) -> Result:
    if traced_spans is None:
        prefix = [sys.executable, "-m", "goldfishlab"]
    else:
        prefix = [sys.executable, str(HERE / "traced_cli.py"), str(traced_spans)]
    wall, rss, rc, stdout, stderr = run_process(prefix + op.argv, cwd)
    return Result(op, wall, rss, rc, op.check(rc, stdout, stderr))


def set_up(workload: str, seed: int, run_dir: Path) -> tuple[float, list[Op], Result]:
    started = time.perf_counter()
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ops = WORKLOADS[workload](seed, run_dir)
    warm = run_op(ops[0], run_dir)
    return time.perf_counter() - started, ops, warm


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it; None below 20 samples."""
    n = len(values)
    if n < 20:
        return None
    rank = n - 10
    return {"percentile": round(100.0 * rank / n, 1), "value": sorted(values)[rank - 1]}


def summarize(results: list[Result], warm: Result) -> dict:
    """Counts over the measured operations; the warm-up must also be correct."""
    errs = [r.outcome.err for r in results if not math.isnan(r.outcome.err)]
    failures = [{"op": r.op.key, "exit": r.rc, "clean": r.outcome.clean, "reason": r.outcome.reason}
                for r in results if not r.outcome.ok]
    return {
        "attempted": len(results),
        "failed": len(failures),
        "correct": all(r.outcome.ok or r.outcome.clean for r in results + [warm]),
        "failed_frac": len(failures) / len(results),
        "err_ratio": max(errs, default=None),
        "failures": failures,
    }


def repeats(results: list[Result]) -> list[str]:
    """Operations whose checked output or counts differed between repeats in this run."""
    seen: dict[str, list] = {}
    flags = []
    for r in results:
        signature = r.outcome.signature()
        if seen.setdefault(r.op.key, signature) != signature and r.op.key not in flags:
            flags.append(r.op.key)
    return flags


def tree_digest(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def stamp(args) -> dict:
    """Machine, versions and inputs every result carries."""
    def blas(config) -> str | None:
        return config.get("Build Dependencies", {}).get("blas", {}).get("version")

    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": blas(np.show_config(mode="dicts")),
                     "scipy": blas(scipy.show_config(mode="dicts"))},
        "nproc": len(os.sched_getaffinity(0)),
        "threads_inherited": INHERITED_THREADS,
        "threads_used": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "source_digest": tree_digest(SRC),
        "benchmark_digest": tree_digest(HERE),
        "loadavg_before": os.getloadavg(),
    }


def recorded(report: dict, mode: str, counts: dict) -> list[str]:
    """Counts that differ from an earlier run of the same code, workload, seed and mode."""
    key = ":".join(str(report[k]) for k in ("source_digest", "benchmark_digest", "workload", "seed"))
    key += ":" + mode
    path = WORK / "counts.json"
    try:
        book = json.loads(path.read_text())
    except (OSError, ValueError):
        book = {}
    before = book.setdefault(key, counts)
    path.write_text(json.dumps(book))
    return sorted(name for name in counts if name in before and before[name] != counts[name])


def outcome_counts(results: list[Result]) -> dict:
    return {r.op.key: r.outcome.signature() for r in results}


def calibrate(run_dir: Path) -> float:
    wall, _, rc, _, stderr = run_process([sys.executable, "-c", CALIBRATION], run_dir)
    if rc != 0:
        raise RuntimeError(f"calibration task failed: {stderr[-300:]}")
    return wall


def end_to_end(args, run_dir: Path, report: dict) -> dict:
    run_started = time.perf_counter()
    setups, calibrations = [], []
    for _ in range(SETUP_REPEATS):
        seconds, ops, warm = set_up(args.workload, args.seed, run_dir)
        setups.append(seconds)
        calibrations.append(calibrate(run_dir))
    results: list[Result] = []
    started = last_calibration = time.perf_counter()
    calibrating_s = 0.0  # kept out of the loop time
    rotations = 0
    while True:
        for op in ops:
            if time.perf_counter() - last_calibration >= CALIBRATE_EVERY_S:
                calibrations.append(calibrate(run_dir))
                calibrating_s += calibrations[-1]
                last_calibration = time.perf_counter()
            results.append(run_op(op, run_dir))
        rotations += 1
        loop_s = time.perf_counter() - started - calibrating_s
        # stop at the rotation boundary nearest to --seconds
        if loop_s + 0.5 * loop_s / rotations >= args.seconds:
            break
        if time.perf_counter() - run_started > LAST_START_S:
            break
    walls = [r.wall_s for r in results]
    summary = summarize(results, warm)
    scale = CALIBRATION_REF_S / statistics.median(calibrations)
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s.p50": statistics.median(walls),
        "ops_per_s": sum(r.outcome.ok for r in results) / loop_s,
        "rows_per_s": sum(r.outcome.rows for r in results) / loop_s,
    }
    report.update(summary, samples=len(results), loop_s=loop_s, setup_runs=setups,
                  calibrations=calibrations, scale=scale, unscaled=raw,
                  ops=[[r.op.key, r.wall_s, r.rss_mb, r.outcome.ok] for r in results],
                  unrepeated=repeats(results))
    report["unrepeated"] += recorded(report, "e2e", outcome_counts(results))
    slowest = tail(walls)
    if slowest:
        slowest["value"] *= scale
    return {
        "setup_s": (raw["setup_s"] * scale, "s"),
        "wall_s.p50": (raw["wall_s.p50"] * scale, "s"),
        "wall_s.tail": (slowest, "s"),
        "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
        "rows_per_s": (raw["rows_per_s"] / scale, "1/s"),
        "failed_frac": (summary["failed_frac"], "share"),
        "err_ratio": (summary["err_ratio"], "ratio"),
        "peak_rss_mb": (max(r.rss_mb for r in results), "MB"),
    }


def import_seconds(run_dir: Path) -> float:
    code = ("import time; t = time.perf_counter(); import goldfishlab; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        _, _, rc, stdout, stderr = run_process([sys.executable, "-c", code], run_dir)
        if rc != 0:
            raise RuntimeError(f"import goldfishlab failed: {stderr[-300:]}")
        samples.append(float(stdout))
    return statistics.median(samples)


def traced(args, run_dir: Path, report: dict) -> dict:
    _, ops, warm = set_up(args.workload, args.seed, run_dir)
    metrics = {"cli.import_s": (import_seconds(run_dir), "s")}
    plain, spanned, edges = [], [], {}
    spans_path = run_dir / "spans.json"
    for k, op in enumerate(ops):
        for with_spans in (k % 2 == 1, k % 2 == 0):  # alternate which goes first
            if not with_spans:
                plain.append(run_op(op, run_dir))
                continue
            spans_path.unlink(missing_ok=True)
            spanned.append(run_op(op, run_dir, spans_path))
            if spans_path.exists():
                for caller, layer, calls, total, own in json.loads(spans_path.read_text()):
                    edge = edges.setdefault((caller, layer), [0, 0.0, 0.0])
                    edge[0] += calls
                    edge[1] += total
                    edge[2] += own
    counts = {}
    for layer in LAYERS:
        counts[f"{layer}.calls"] = sum(e[0] for (_, name), e in edges.items() if name == layer)
        metrics[f"{layer}.calls"] = (counts[f"{layer}.calls"], "count")
        metrics[f"{layer}.self_s"] = (sum(e[2] for (_, name), e in edges.items() if name == layer) + 0.0, "s")
    plain_s, spanned_s = sum(r.wall_s for r in plain), sum(r.wall_s for r in spanned)
    metrics["trace.wall_ratio"] = (spanned_s / plain_s, "ratio")

    done = subprocess.run([sys.executable, str(HERE / "layers.py")], cwd=run_dir, env=environment(),
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"layers.py failed: {done.stderr[-500:]}")
    scaling = json.loads(done.stdout.strip().splitlines()[-1])
    for name, value in scaling["metrics"].items():
        unit = "count" if ".nfev." in name else "abs" if ".err." in name else "us"
        metrics[name] = (value, unit)
        if ".nfev." in name:
            counts[name] = value

    summary = summarize(plain + spanned, warm)
    report.update(summary, untraced_s=plain_s, traced_s=spanned_s,
                  tracing_overhead_s=spanned_s - plain_s,
                  spans=[[caller, layer, *e] for (caller, layer), e in sorted(edges.items())],
                  unrepeated=repeats(plain + spanned) + scaling["unrepeated"])
    report["unrepeated"] += recorded(report, "trace", {**counts, **outcome_counts(plain)})
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "goldfishlab" / "cli.py").is_file():
        print(f"error: no goldfishlab source tree at {SRC}", file=sys.stderr)
        return 2

    report = stamp(args)
    run_dir = WORK / f"run-{os.getpid()}"
    try:
        metrics = (traced if args.trace else end_to_end)(args, run_dir, report)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report["loadavg_after"] = os.getloadavg()
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    if report["unrepeated"]:
        print(f"warning: counts did not repeat: {report['unrepeated']}", file=sys.stderr)
    for failure in report["failures"]:
        print(f"failed: {failure['op']}: {failure['reason']}", file=sys.stderr)
    print(json.dumps({"report": report}))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: report["metrics"][m["name"]] for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
