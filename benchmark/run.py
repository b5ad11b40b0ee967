"""Benchmark of deformgabor: one closed-loop process per workload.

    python3 benchmark/run.py --workload train_dg --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/` and exits with code 2 when the sources are not there. The last line
of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0` the metrics are the end-to-end metrics
listed in BENCHMARK.json; with `--trace 1` they are the per-layer metrics,
taken from spans around the library's public functions (see probes.py).
The line before it, `report: {...}`, records the environment, sample
counts, output checks and model quality.

`--write-reference` recomputes the fixed-seed reference outputs that every
run checks against and stores them in benchmark/reference.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
TRACE_DIR = ROOT / ".bench_trace"
WORKLOADS = ("train_dg", "train_plain", "eval_corrupt", "gradcheck")
# Reference outputs agree to rounding, see check_reference.
RTOL = 1e-9
# Set-up sampling, see Setups: share of the measured time, least length of
# one sample, least number of samples.
SETUP_SHARE = 0.05
SETUP_SAMPLE_S = 0.1
MIN_SETUP_SAMPLES = 7
# One BLAS thread: a run keeps to one core of the two it may use. It is set
# in main before numpy is first imported, so numpy is imported in functions.
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if args.workload is None and not args.write_reference:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def git_revision() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside git."""
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


def environment(args) -> dict:
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": "tiny" if args.tiny else "full",
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Counts checked operations; a failed one raised, went non-finite or mismatched."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


class Setups:
    """Timed set-ups, taken between rounds.

    A sample is the mean time of back-to-back set-ups that together last at
    least SETUP_SAMPLE_S, so a set-up of a fraction of a millisecond is timed
    over hundreds of calls, not by one. Each sample is scaled to nominal
    machine speed by `small_kernel` slices timed right before and after it.
    Samples are taken whenever their total falls below SETUP_SHARE of the
    time spent on operations, and at least MIN_SETUP_SAMPLES times, due
    evenly over the measured time: a slow set-up (eval_corrupt's trains a
    model) is sampled across the run's fast and slow spells. The
    state the operations use is built once before the run, untimed, so no
    set-up repeat or kernel call runs before the first round (see measure);
    every sample must build the same inputs as that state holds.
    """

    def __init__(self, wl, seed, speed, state, seconds):
        self.wl, self.seed, self.speed, self.seconds = wl, seed, speed, seconds
        self.unscaled: list[float] = []
        self.times: list[float] = []  # at nominal speed
        self.prints = {state.fingerprint()}
        self.spent = 0.0

    def sample(self) -> None:
        before = self.speed.small_slice()
        n, spent = 0, 0.0
        while spent < SETUP_SAMPLE_S:
            state = None  # free the previous state first: one is alive at a time
            t0 = time.perf_counter()
            state = self.wl.setup(self.seed)
            spent += time.perf_counter() - t0
            n += 1
        after = self.speed.small_slice()
        self.unscaled.append(spent / n)
        self.times.append(spent / n * self.speed.small_factor(before + after))
        self.spent += spent
        self.prints.add(state.fingerprint())

    def top_up(self, op_seconds: float) -> None:
        due = min(MIN_SETUP_SAMPLES, math.ceil(MIN_SETUP_SAMPLES * op_seconds / self.seconds))
        while len(self.times) < due or self.spent < SETUP_SHARE * op_seconds:
            self.sample()


def measure(wl, state, seconds, modes, checks, between=()):
    """Run whole rounds of operations until `seconds` of them have passed.

    `modes` is a list of (tracer, probe sites); rounds cycle through it, with
    only that round's probes installed, so slow drift of the machine hits
    every mode alike. Each operation is one `bench.op` span. After each
    round every `between(seconds of operations so far)` runs, untimed.
    Returns (rounds, results of the first round, peak RSS in MB after the
    first round); a round is (start, end, bags). The peak is read before any
    `between` has run, so only set-up and the program's own work set it.
    """
    rounds, first = [], None
    spent = 0.0
    while len(rounds) < len(modes) or spent < seconds:
        tracer, sites = modes[len(rounds) % len(modes)]
        tracer.install(sites)
        results = []
        t0 = time.perf_counter()
        try:
            for i in range(wl.ops_per_round(state)):
                with tracer.span("bench.op", new_request=True):
                    try:
                        result, error = wl.op(state, i, tracer), None
                    except Exception as exc:  # a failed operation is counted, not fatal
                        result, error = None, f"{type(exc).__name__}: {exc}"
                if error is not None:
                    checks.record(False, f"op {i}: {error}")
                elif not wl.valid(result):
                    checks.record(False, f"op {i}: invalid output {result!r}")
                else:
                    checks.record(first is None or result == first[i],
                                  f"op {i}: output differs from the first round")
                results.append(result)
        finally:
            tracer.unwrap_all()
        t1 = time.perf_counter()
        rounds.append((t0, t1, wl.bags_per_round(state)))
        spent += t1 - t0
        if first is None:
            first, rss = results, peak_rss_mb()
        for top_up in between:
            top_up(spent)
    return rounds, first, rss


def check_reference(wl, state, args, checks) -> int:
    """Compare the workload's fixed-seed outputs with reference.json; returns items compared.

    Values must agree to rounding: bitwise while the arithmetic is unchanged,
    and RTOL leaves room only for last-digit float64 differences.
    """
    import numpy as np

    if wl.reference_items is None:
        return 0
    stored = json.loads(REFERENCE.read_text())["tiny" if args.tiny else "full"][args.workload]
    computed = wl.reference(state)
    checks.record(len(computed) == len(stored),
                  f"{len(computed)} reference items, {len(stored)} stored")
    for i, (want, got) in enumerate(zip(stored, computed)):
        checks.record(bool(np.allclose(got, want, rtol=RTOL, atol=0.0)),
                      f"reference item {i}: {got!r}, stored {want!r}")
    return len(stored)


def end_to_end(wl, rounds, tracer, setups, speed, rss):
    """End-to-end metrics, and the figures behind them for the report.

    Every timing is scaled to nominal machine speed (see speed.py): each
    set-up sample by `small_kernel` timed next to it, throughput and request
    times by `kernel`'s median over the whole run. Set-up time and
    throughput are medians over the run. Request time is the p90: on a
    shared host requests fall into a fast and a slow mode as neighbours come
    and go; a median follows the share of time spent in each, while the p90
    sits inside the slow mode and moves less from run to run. The median
    request time is in the report only, as are the unscaled figures.
    """
    import numpy as np

    rates = [bags / (t1 - t0) for t0, t1, bags in rounds]
    req_ms = 1000.0 * wl.request_seconds(tracer)
    if len(req_ms) == 0:
        raise SystemExit("no request completed; nothing to report")
    p50, p90 = (float(v) for v in np.percentile(req_ms, [50, 90]))
    f = speed.factor()
    metrics = {
        "setup_s": (statistics.median(setups.times), "s"),
        "bags_per_s": (statistics.median(rates) / f, "1/s"),
        "request_ms_p90": (p90 * f, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    report = {
        "unscaled": {"setup_s": statistics.median(setups.unscaled),
                     "bags_per_s": statistics.median(rates), "request_ms_p90": p90},
        "request_ms_p50": {"unscaled": p50, "scaled": p50 * f},
        "speed": {"kernel_ms": 1000.0 * statistics.median(speed.times),
                  "kernel_calls": len(speed.times), "factor": f,
                  "small_kernel_ms": 1000.0 * statistics.median(speed.small_times),
                  "small_kernel_calls": len(speed.small_times)},
        "samples": {"setup_s": len(setups.times), "bags_per_s": len(rates),
                    "requests": len(req_ms)},
    }
    return metrics, report


def per_layer(untraced_op_s, setup_tracer, tracer, declared):
    """Per-operation means of every probe, from the traced phase; data.* per set-up.

    Also returns the names of recorded spans that `declared` lacks. With
    none, the self times of an operation's spans add up to `bench.op`'s
    busy time, as every span's time is counted once, in the innermost
    span around it.
    """
    ops = len(tracer.spans("bench.op")[0])
    op_stats, setup_stats = tracer.summary(), setup_tracer.summary()
    traced_op_s = op_stats["bench.op"][0] / ops
    bases = {entry["name"].rpartition(".")[0] for entry in declared}
    undeclared = sorted((set(op_stats) | set(setup_stats)) - bases - {"bench.setup"})
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        base, _, field = name.rpartition(".")
        stats, per = (setup_stats, 1) if base.startswith("data.") else (op_stats, ops)
        if name == "trace.untraced_op_s":
            value = untraced_op_s
        elif name == "trace.overhead_s":
            value = traced_op_s - untraced_op_s
        elif field in ("busy_s", "self_s", "calls"):
            busy, own, calls = stats.get(base, (0.0, 0.0, 0))
            value = {"busy_s": busy, "self_s": own, "calls": calls}[field] / per
        elif field == "cache_bytes":
            value = tracer.count_max.get(name, 0.0)  # largest forward cache, bytes
        else:
            value = tracer.count_sum.get(name, 0.0) / per
        metrics[name] = (value, unit)
    return metrics, undeclared


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "deformgabor" / "__init__.py").is_file():
        print(f"deformgabor sources not found under {ROOT / 'src'}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from probes import Tracer
    from speed import Speed

    sizes = workloads.TINY if args.tiny else workloads.FULL
    if args.write_reference:
        return write_reference(workloads)

    wl = workloads.make(args.workload, sizes)
    checks = Checks()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"env": environment(args), "request": wl.request}

    if args.trace == 0:
        state = wl.setup(args.seed)
        speed = Speed()
        setups = Setups(wl, args.seed, speed, state, args.seconds)
        tracer = Tracer()
        rounds, first, rss = measure(wl, state, args.seconds,
                                     [(tracer, workloads.UNTRACED_SITES)],
                                     checks, between=(setups.top_up, speed.top_up))
        checks.record(len(setups.prints) == 1, "set-up is not deterministic")
        metrics, timings = end_to_end(wl, rounds, tracer, setups, speed, rss)
        report.update(timings)
    else:
        setup_tracer = Tracer()
        setup_tracer.install(workloads.TRACED_SITES)
        try:
            with setup_tracer.span("bench.setup"):
                state = wl.setup(args.seed)
        finally:
            setup_tracer.unwrap_all()
        probe, tracer = Tracer(), Tracer()
        _, first, _ = measure(wl, state, args.seconds, [(probe, workloads.UNTRACED_SITES),
                                                        (tracer, workloads.TRACED_SITES)], checks)
        start, end = probe.spans("bench.op")
        metrics, undeclared = per_layer(float((end - start).mean()), setup_tracer, tracer,
                                        declared["per_layer"])
        TRACE_DIR.mkdir(exist_ok=True)
        stem = TRACE_DIR / f"{args.workload}-seed{args.seed}"
        setup_tracer.save(f"{stem}-setup.npz")
        tracer.save(f"{stem}-ops.npz")
        report["spans"] = {"setup": len(setup_tracer.start), "ops": len(tracer.start),
                           "undeclared": undeclared,
                           "files": f"{stem.relative_to(ROOT)}-{{setup,ops}}.npz"}

    report["reference_items"] = check_reference(wl, state, args, checks)
    report["quality"] = wl.quality(state, first)
    report["failed_frac"] = checks.failed / checks.attempted
    report["failures"] = checks.notes
    print("report: " + json.dumps(report, default=str))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_reference(workloads) -> int:
    out = {}
    for label, sizes in (("full", workloads.FULL), ("tiny", workloads.TINY)):
        out[label] = {}
        for name in WORKLOADS:
            wl = workloads.make(name, sizes)
            if wl.reference_items is None:
                continue
            # eval_corrupt's reference needs only the fixed-seed model from set-up
            state = wl.setup(workloads.FIXED_SEED)
            out[label][name] = wl.reference(state)
            print(f"{label} {name}: {len(out[label][name])} items ({wl.reference_items})")
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
