"""nilpath benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload connect --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  The
run imports the library afresh and sets up its inputs three times or more
(``setup_s`` is the median), then runs ops in a closed loop with one client
until ``--seconds`` of op time is measured and at least one whole round is
done.  Every op is checked exactly outside the timed window.

Op and set-up times are measured in units of a fixed reference kernel
(``ref``), timed in the same process while they run, because the speed of a
shared machine drifts by more than the effects worth measuring.  ``setup_s``
uses a second, allocation-heavy kernel and converts to seconds at
SETUP_REF_S per run of it.  Wall-clock values are
printed too.

Human-readable lines come first, then a ``record`` line, and the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 1`` each op runs twice, once plain and once
under the tracer, for whole rounds only; the metrics are then the per-layer
ones plus the tracing overhead.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("connect", "verify", "certified", "decide")
SETUP_REPEATS = 3  # set-ups per run at least; more, up to SETUP_MAX, while they take under SETUP_BUDGET_S
SETUP_MAX = 15
SETUP_BUDGET_S = 1.5
LIBRARY_MODULES = ("nilpath", "nilpath.cli")  # what a fresh import of the library loads
SETUP_REF_S = 2e-3  # seconds per setup-kernel unit in setup_s: that kernel's time on a nominal machine
MIN_TAIL_BEYOND = 10  # a tail percentile needs this many samples beyond it
PROBE_EVERY_S = 0.05  # interval of the speed probe
PROBE_HISTORY = 5  # probes nearest an op that time it when fewer than this many ran inside it

# Per workload: wall-clock value -> (name used in the issue tracker, factor, unit).
ISSUE_NAMES = {
    "connect": {"op_p50_ms": ("connect_p50_s", 1e-3, "s"), "units_per_s": ("paths_per_min", 60, "1/min"),
                "op_tail_ms": ("connect_tail_s", 1e-3, "s")},
    "verify": {"op_p50_ms": ("verify_sample_p50_ms", 1, "ms"), "units_per_s": ("samples_per_s", 1, "1/s"),
               "op_tail_ms": ("verify_sample_tail_ms", 1, "ms")},
    "certified": {"op_p50_ms": ("certify_p50_s", 1e-3, "s"), "units_per_s": ("certified_paths_per_min", 60, "1/min"),
                  "op_tail_ms": ("certify_tail_s", 1e-3, "s")},
    "decide": {"op_p50_ms": ("decide_p50_ms", 1, "ms"), "units_per_s": ("queries_per_s", 1, "1/s"),
               "op_tail_ms": ("decide_tail_ms", 1, "ms")},
}

_rng = random.Random(7)
_REF_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(6)] for _ in range(6)]


def reference_kernel() -> Fraction:
    """Fixed exact-arithmetic work in the standard library: a 6x6 Fraction matrix product, about 1 ms."""
    a = _REF_MATRIX
    total = Fraction(0)
    for i in range(6):
        for j in range(6):
            s = Fraction(0)
            for k in range(6):
                s += a[i][k] * a[k][j]
            total += s
    return total


def setup_kernel() -> int:
    """Fixed allocation-heavy work in the standard library, about 2 ms.

    Importing modules and generating inputs allocate many small objects.  When
    the shared machine changes speed, their time follows this kernel more
    closely than the Fraction one.
    """
    rows = [tuple(range(i % 7, i % 7 + 5)) for i in range(3000)]
    index = {r: i for i, r in enumerate(rows)}
    text = json.dumps([list(r) for r in rows[:600]])
    return len(index) + len(json.loads(text))


class SpeedProbe:
    """The machine's speed while ops run, as the time of a reference kernel.

    A SIGALRM handler runs the kernel every PROBE_EVERY_S, in between the
    bytecodes of whatever op is running.  An op's time excludes the probes
    that ran inside it, and is divided by the median probe during it, or by
    the median of the PROBE_HISTORY probes nearest to it when the op was too
    short to hold that many.  For an op just finished these are the latest
    ones; `burst` adds probes right before and after a short interval.
    """

    def __init__(self, kernel=reference_kernel):
        self.kernel = kernel
        self.probes: list[tuple[float, float]] = []  # (start, end)
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.probes.append((t0, time.perf_counter()))

    def burst(self) -> None:
        for _ in range(PROBE_HISTORY):
            self._probe()

    def __enter__(self) -> "SpeedProbe":
        self.burst()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds in [t0, t1] outside the probes, reference seconds to divide them by)."""
        inside = []
        for start, end in reversed(self.probes):
            if start < t0:
                break
            if end <= t1:
                inside.append(end - start)
        if len(inside) < PROBE_HISTORY:
            # The nearest are among the latest: a burst, fewer than PROBE_HISTORY inside, a burst.
            recent = self.probes[-4 * PROBE_HISTORY:]
            nearest = sorted(recent, key=lambda pr: max(t0 - pr[1], pr[0] - t1, 0.0))[:PROBE_HISTORY]
            scale = statistics.median(end - start for start, end in nearest)
        else:
            scale = statistics.median(inside)
        return t1 - t0 - sum(inside), scale


def import_library():
    """Import nilpath from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "nilpath" / "__init__.py").is_file():
        print(f"error: no nilpath sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "bench"))
    import nilpath

    if Path(nilpath.__file__).resolve().parent != (SRC / "nilpath").resolve():
        print(f"error: imported nilpath from {nilpath.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _library_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "nilpath" or n.startswith("nilpath.")}


def timed_setup(wl, workdir: Path, probe: "SpeedProbe") -> tuple[float, float]:
    """(wall seconds, units of the probe's kernel) of one fresh import of the library plus the workload's set-up.

    The fresh import runs every module body of the library again; the
    modules imported first are put back afterwards, so the workload and the
    tracer keep using them.
    """
    loaded = _library_modules()
    for name in loaded:
        del sys.modules[name]
    probe.burst()
    t0 = time.perf_counter()
    try:
        for name in LIBRARY_MODULES:
            importlib.import_module(name)
    finally:
        for name in _library_modules():
            del sys.modules[name]
        sys.modules.update(loaded)
    wl.setup(workdir)
    t1 = time.perf_counter()
    probe.burst()
    dt, scale = probe.measure(t0, t1)
    return t1 - t0, dt / scale


def git_commit() -> str:
    """HEAD commit read from .git without starting a process; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
    }


def quantile_tail(values: list[float]) -> tuple[float | None, float | None]:
    """(percentile, value): the highest percentile with MIN_TAIL_BEYOND values beyond it.

    None when there are too few samples for that percentile to lie above the
    median.
    """
    n = len(values)
    if n < 2 * MIN_TAIL_BEYOND:
        return None, None
    k = n - MIN_TAIL_BEYOND  # samples at or below the percentile
    return 100.0 * k / n, sorted(values)[k - 1]


def digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(hashlib.sha256(t.encode()).digest())
    return h.hexdigest()


class Result:
    """Per-op timings and outcome counts of one run.

    Times are kept per case, per unit of work, in compact arrays so that the
    harness adds little to the peak RSS of a long run.
    """

    def __init__(self):
        self.ms: dict[str, array] = {}  # case -> wall-clock ms per unit of work
        self.ref: dict[str, array] = {}  # case -> reference units per unit of work
        self.spent = 0.0  # timed seconds of every op, failed ones too
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.inputs: list[str] = []  # first round only
        self.outputs: list[str] = []


def run_op(op, res: Result, round_size: int, tracer=None, probe=None) -> float | None:
    """Run and time one op, under the tracer or the speed probe if given, then check it.

    Returns the op's timed seconds, or None if it failed.
    """
    index = res.attempted
    res.attempted += 1
    if tracer is not None:
        tracer.install()
    crash = None
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception:
        crash = traceback.format_exc(limit=3)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.restore()
    if crash is not None:
        res.spent += t1 - t0
        res.failed += 1
        res.failures.append(f"{op.label}: {crash}")
        return None
    dt, scale = probe.measure(t0, t1) if probe is not None else (t1 - t0, None)
    res.spent += dt
    if tracer is not None and op.stdout is not None:
        tracer.counts["cli.stdout_bytes"] += len(op.stdout(out).encode())
    try:
        err = op.check(out)
    except Exception:
        err = traceback.format_exc(limit=3)
    if err is not None:
        res.failed += 1
        res.failures.append(f"{op.label}: {err}")
        return None
    if scale is not None:
        res.ms.setdefault(op.case, array("d")).append(1000.0 * dt / op.units)
        res.ref.setdefault(op.case, array("d")).append(dt / op.units / scale)
    if index < round_size:
        res.inputs.append(op.inputs)
        res.outputs.append(op.output(out))
    return dt


def measure(wl, seconds: float) -> tuple[Result, SpeedProbe]:
    """Ops until `seconds` of op time and one whole round, under the speed probe."""
    res = Result()
    with SpeedProbe() as probe:
        i = 0
        while res.spent < seconds or i < wl.round_size:
            run_op(wl.op(i), res, wl.round_size, probe=probe)
            i += 1
    return res, probe


def measure_traced(wl, seconds: float, tracer) -> tuple[Result, Result, list[float]]:
    """Whole rounds, each op plain and traced, alternating which goes first.

    Returns (plain, traced, traced/plain time of each op).  Rounds continue
    until the plain ops have taken half of ``seconds``, so a traced run lasts
    about as long as a plain one.
    """
    plain, traced = Result(), Result()
    ratios = []
    i = 0
    while i == 0 or i % wl.round_size or plain.spent < seconds / 2:
        op = wl.op(i)
        tracer.op_id = i
        if i % 2:
            t = run_op(op, traced, wl.round_size, tracer)
            p = run_op(op, plain, wl.round_size)
        else:
            p = run_op(op, plain, wl.round_size)
            t = run_op(op, traced, wl.round_size, tracer)
        if p and t is not None:
            ratios.append(t / p)
        i += 1
    return plain, traced, ratios


def run(wl, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (record, result line)."""
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        with SpeedProbe(setup_kernel) as setup_probe:
            setups = []
            while len(setups) < SETUP_REPEATS or (
                    len(setups) < SETUP_MAX and sum(wall for wall, _ in setups) < SETUP_BUDGET_S):
                setups.append(timed_setup(wl, workdir, setup_probe))
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            plain, res, ratios = measure_traced(wl, seconds, tracer)
        else:
            res, probe = measure(wl, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass

    record = {
        "workload": wl.name,
        "unit": wl.unit,
        "seconds": seconds,
        "trace": int(trace),
        "env": env_stamp(wl.seed),
        "ops": res.attempted,
        "round_size": wl.round_size,
        "samples_per_op": getattr(wl, "samples", None),
        "inputs_sha256": digest(res.inputs),
        "outputs_sha256": digest(res.outputs),
        "failures": res.failures,
        "error_rate": res.failed / res.attempted,
        "setup_runs_s": [wall for wall, _ in setups],
        "setup_runs_ref": [ref for _, ref in setups],
    }
    if trace:
        per_op = tracer.metrics(res.attempted)
        per_op["trace.overhead_ratio"] = (statistics.median(ratios) - 1.0 if ratios else 0.0, "ratio")
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in per_op.items()}
        record["plain_outputs_sha256"] = digest(plain.outputs)
        record["spans"] = len(tracer.spans)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{wl.name}-seed{wl.seed}.tsv"
        tracer.write_spans(span_file)
        record["span_file"] = str(span_file.relative_to(ROOT))
        failed = res.failed + plain.failed
        attempted = res.attempted + plain.attempted
    else:
        ms, ref = res.ms, res.ref
        pooled_ms = [x for v in ms.values() for x in v]
        pct, tail = quantile_tail(pooled_ms)

        def p50(by_case):  # median over cases of each case's median
            return statistics.median(statistics.median(v) for v in by_case.values()) if by_case else 0.0

        def p50_gmean(by_case):  # geometric mean over cases of each case's median
            return statistics.geometric_mean(statistics.median(v) for v in by_case.values()) if by_case else 0.0

        def rate(by_case):  # units per time over one balanced round
            return 1.0 / statistics.fmean(statistics.fmean(v) for v in by_case.values()) if by_case else 0.0

        metrics = {
            "op_p50_gmean_ref": {"value": p50_gmean(ref), "unit": "ref"},
            "units_per_ref": {"value": rate(ref), "unit": "1/ref"},
            "setup_s": {"value": SETUP_REF_S * statistics.median(ref for _, ref in setups), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
        record["ref_ms"] = 1000.0 * statistics.median(end - start for start, end in probe.probes)
        record["ref_samples"] = len(probe.probes)
        record["timed_ops"] = len(pooled_ms)
        record["case_ops"] = {c: len(v) for c, v in ms.items()}
        record["case_p50_ms"] = {c: statistics.median(v) for c, v in ms.items()}
        record["case_p50_ref"] = {c: statistics.median(v) for c, v in ref.items()}
        record["wall"] = {"op_p50_ms": p50(ms), "units_per_s": 1000.0 * rate(ms), "op_tail_ms": tail,
                          "tail_percentile": pct}
        failed, attempted = res.failed, res.attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def print_report(record: dict, metrics: dict) -> None:
    env = record["env"]
    print(f"nilpath benchmark: workload {record['workload']}, seed {env['seed']}, "
          f"{record['seconds']:g} s, trace {record['trace']}")
    print(f"env: python {env['python']}, nproc {env['nproc']}, {env['platform']}, commit {env['commit']}")
    print(f"ops {record['ops']} (one {record['unit']} each, samples per op {record['samples_per_op']}), "
          f"round {record['round_size']}")
    print(f"  {'error_rate':<40} {record['error_rate']:>14.6g} ratio  "
          f"{len(record['failures'])} of {record['ops']} ops failed")
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
    if not record["trace"]:
        print(f"  wall clock (reference kernel {record['ref_ms']:.4g} ms, median of {record['ref_samples']} probes):")
        wall = record["wall"]
        for key, (alias, factor, unit) in ISSUE_NAMES[record["workload"]].items():
            if wall[key] is None:
                print(f"  {alias:<40} {'n/a':>14} {unit:<6} fewer than {2 * MIN_TAIL_BEYOND} ops")
                continue
            note = f"{record['timed_ops']} ops"
            if key == "op_tail_ms":
                note = f"p{wall['tail_percentile']:.2f}, {MIN_TAIL_BEYOND} of {record['timed_ops']} ops beyond"
            elif key == "op_p50_ms":
                note = f"median of {len(record['case_p50_ms'])} per-case medians, {record['timed_ops']} ops"
            print(f"  {alias:<40} {wall[key] * factor:>14.6g} {unit:<6} {note}")
    for f in record["failures"]:
        print(f"  FAILED {f}")


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        print("\n".join(line for line in lines[:-1] if not line.startswith("record ")) + "\n")
        rows.append((name, json.loads(lines[-1])))
    print("summary")
    for name, result in rows:
        print(f"  {name:<10} {'error_rate':<40} {result['failed'] / result['attempted']:>14.6g} ratio "
              f"({result['failed']} of {result['attempted']})")
        for key, m in result["metrics"].items():
            print(f"  {name:<10} {key:<40} {m['value']:>14.6g} {m['unit']}")
    return 0 if all(result["correct"] for _, result in rows) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import_library()
    import workloads

    record, result = run(workloads.WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))
    print_report(record, result["metrics"])
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
