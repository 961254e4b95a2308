"""Benchmark of the feigenbaum toolkit: paper pipelines timed to a
verified result.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the repository root.  The package is imported from ``src/`` of
the same tree, never from an installed copy.  Set-up, passes and checks
run one after another in one process and thread: mpmath's working
precision is process-global, so concurrent pipelines would corrupt each
other.  With ``--workload all`` each workload runs in a process of its
own, one after another.

With ``--trace 0`` every pass is timed with the program unmodified and
the end-to-end metrics are reported.  Shared hosts run the same pass at
speeds up to 1.8x apart, switching within seconds and in phases that
last minutes, so a timer samples the host's speed with a fixed
calibration loop every quarter second all through the run
(``SpeedProbe``).  Every timed pass and set-up is reported in seconds at
the reference host speed (``PROBE_REF_S``): its time less the probes'
own, times reference / mean speed sample around it.  The unscaled
medians are printed and kept in the result file.

With ``--trace 1`` traced and untraced passes alternate, and the
per-layer metrics come from the traced ones (see ``tracing.py``);
``trace.overhead_s`` is the difference of the two medians.

Metric names and units are read from ``BENCHMARK.json``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Human readable lines before it give every
metric with its unit and sample count, the fail rate, and the run
environment.  Result files and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
PROBE_INTERVAL_S = 0.25
PROBE_REPS = 15
PROBE_WINDOW_S = 0.5
# Reported times are scaled to the host speed at which one repetition of
# calibrate() inside a probe takes this long (about its typical value on
# a shared 2-vCPU Xeon host).
PROBE_REF_S = 2.5e-4


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _import_package():
    """Import feigenbaum from this tree's src/; exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "feigenbaum" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no feigenbaum package under %s\n" % src)
        sys.exit(2)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import feigenbaum  # noqa: F401
    import workloads  # noqa: F401
    return time.perf_counter() - t0


def _git_revision():
    """HEAD of the tree's own .git, read without leaving the tree."""
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
    return None


def _source_digest():
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "feigenbaum").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(load_at_start) -> dict:
    import platform
    from importlib import metadata

    import mpmath

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "mpmath_backend": mpmath.libmp.BACKEND,
        "mpmath": mpmath.__version__,
        "numpy": numpy_version,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(load_at_start),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
    }


def calibrate(reps: int) -> float:
    """Seconds per repetition of a fixed multiprecision loop of the
    program's kind: a 32-term Clenshaw recurrence at 245 bits, the working
    precision of 64 digits.  It does not touch the package, so only the
    host's speed at that moment moves it."""
    from mpmath import mp

    t0 = time.perf_counter()
    with mp.workprec(245):
        x = mp.mpf(1) / 3
        coeffs = [mp.mpf(k) / 7 for k in range(32)]
        for _ in range(reps):
            b1 = b2 = mp.mpf(0)
            for c in coeffs:
                b1, b2 = c + 2 * x * b1 - b2, b1
    return (time.perf_counter() - t0) / reps


class SpeedProbe:
    """Samples the host's speed all through a run.  A wall-clock timer
    signal runs a few milliseconds of :func:`calibrate` every
    PROBE_INTERVAL_S, in the main thread between two bytecodes of the
    pass; ``mp.workprec`` restores the pass's precision on the way out.
    The samples that fall inside a timed section give its speed, and the
    time they took is taken off the section."""

    def __init__(self):
        self.samples = []      # (start, seconds per repetition, duration)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        per_rep = calibrate(PROBE_REPS)
        self.samples.append((t0, per_rep, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, start: float, end: float):
        """(seconds of [start, end) not spent probing, factor to the
        reference host speed from the samples within PROBE_WINDOW_S)."""
        probing = sum(d for t, _, d in self.samples if start <= t < end)
        near = [r for t, r, _ in self.samples
                if start - PROBE_WINDOW_S <= t < end + PROBE_WINDOW_S]
        near = near or [r for _, r, _ in self.samples]
        return end - start - probing, PROBE_REF_S / statistics.fmean(near)


def _clear_program_caches():
    """Empty every functools cache in the package, so that each set-up
    pays for the tables it builds, as the first one in a process does."""
    import tracing

    for mod in tracing.package_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _setup(workload, inputs, sizes):
    """SETUP_REPEATS cold set-ups: (state of the last, their intervals)."""
    records, state = [], None
    for _ in range(SETUP_REPEATS):
        _clear_program_caches()
        t0 = time.perf_counter()
        state = workload.setup(inputs, sizes, str(OUT_DIR))
        records.append({"start": t0, "end": time.perf_counter()})
    return state, records


def _one_pass(workload, state, tracer=None) -> dict:
    """One pass, timed from its start to its end; the check is untimed."""
    import tracing

    record = {"traced": tracer is not None, "start": time.perf_counter()}
    try:
        if tracer is None:
            outcome = workload.run(state)
        else:
            with tracing.traced(tracer):
                outcome = workload.run(state)
        record["end"] = time.perf_counter()
        record["failures"], record["delta_digits"] = workload.check(state, outcome)
    except Exception as exc:  # a pass that raises, or output the check cannot read
        record.setdefault("end", time.perf_counter())
        record["failures"] = ["%s: %s" % (type(exc).__name__, exc)]
        record["delta_digits"] = None
    return record


def measure(name: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    """Set up, then run passes until the next one would end after
    ``seconds``: at least one pass, and with tracing at least one
    untraced and one traced pass, alternating.  Each set-up and pass
    record gets its ``seconds`` and its ``scale`` to the reference host
    speed; ``import_scale`` is the speed just after the package import."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(seed)
    OUT_DIR.mkdir(exist_ok=True)
    passes, spans = [], []
    with SpeedProbe() as probe:
        begin = time.perf_counter()
        state, setups = _setup(workload, inputs, sizes)
        measuring = time.perf_counter()
        while True:
            n_traced = sum(p["traced"] for p in passes)
            tracer = tracing.Tracer() if trace and n_traced < len(passes) - n_traced else None
            record = _one_pass(workload, state, tracer)
            if tracer is not None:
                record["layers"] = tracer.summary()
                spans.append(tracer.records())
            passes.append(record)
            kinds_done = not trace or 0 < n_traced + (tracer is not None) < len(passes)
            typical = statistics.median(p["end"] - p["start"] for p in passes)
            if kinds_done and time.perf_counter() - measuring + typical > seconds:
                break
    for rec in setups + passes:
        rec["seconds"], rec["scale"] = probe.timed(rec.pop("start"), rec.pop("end"))
    return {"workload": name, "inputs": dataclasses.asdict(inputs),
            "sizes": dataclasses.asdict(sizes), "import_scale": probe.timed(begin, begin)[1],
            "probes": len(probe.samples), "setups": setups, "passes": passes, "spans": spans}


def _median(values):
    return statistics.median(values) if values else None


def _scaled(records):
    return [r["seconds"] * r["scale"] for r in records]


def end_to_end(run: dict, import_s: float) -> dict:
    """(value, sample count) per end-to-end metric; times at the
    reference host speed."""
    plain = [p for p in run["passes"] if not p["traced"]]
    good = [p for p in plain if not p["failures"]] or plain
    setups = run["setups"]
    return {
        "wall_s": (_median(_scaled(good)), len(good)),
        "setup_s": (import_s * run["import_scale"] + _median(_scaled(setups)), len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "delta_digits": (_median([p["delta_digits"] for p in good
                                  if p["delta_digits"] is not None]), len(good)),
    }


def per_layer(run: dict, names) -> dict:
    """Per-pass layer figures: counts from the traced passes (identical in
    every traced pass of one run, since the inputs are), times as means.
    A name the tracer records reads 0 in a pass that never called it; a
    name it cannot record is an error."""
    import tracing

    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    unknown = set(names) - tracing.metric_names() - {"trace.overhead_s"}
    if unknown:
        raise KeyError("the tracer records no %s" % ", ".join(sorted(unknown)))
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = (_median(_scaled(traced)) - _median(_scaled(plain)), len(traced))
            continue
        values = [p["layers"].get(name, 0) for p in traced]
        if name.endswith((".s", "_s")):
            values = [v * p["scale"] for v, p in zip(values, traced)]
            out[name] = (sum(values) / len(values), len(values))
        else:
            if len(set(values)) > 1:
                sys.stderr.write("perfbench: %s differs between traced passes: %s\n"
                                 % (name, values))
            out[name] = (values[0], len(values))
    return out


def _run_all(args, spec) -> int:
    """Every workload in its own process, one after another."""
    rows, merged, attempted, failed, correct = [], {}, 0, 0, True
    for wl in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write("perfbench: workload %s exited %d\n" % (wl["name"], proc.returncode))
            return proc.returncode or 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for key, metric in result["metrics"].items():
            merged["%s.%s" % (wl["name"], key)] = metric
        rows.append((wl["name"], result))
    print("\nsummary (seed %d, %s s per workload)" % (args.seed, args.seconds))
    for name, result in rows:
        print("  %-8s fail_rate %d/%d  %s" % (
            name, result["failed"], result["attempted"],
            "  ".join("%s %s %s" % (k, m["value"], m["unit"])
                      for k, m in result["metrics"].items())))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 = the paper's inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = _load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return _run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error("unknown workload %r" % args.workload)

    import_s = _import_package()
    import workloads

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), workloads.BENCH)
    run["environment"] = environment(load_at_start)
    section = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        figures = per_layer(run, [m["name"] for m in spec[section]])
    else:
        figures = end_to_end(run, import_s)
    units = {m["name"]: m["unit"] for m in spec[section]}
    metrics = {name: {"value": figures[name][0], "unit": units[name]} for name in units}

    passes = run["passes"]
    failed = sum(bool(p["failures"]) for p in passes)
    print("workload %s  seed %d  inputs %s" % (args.workload, args.seed,
                                             json.dumps(run["inputs"])))
    print("fail_rate %.6g (%d of %d passes)" % (failed / len(passes), failed, len(passes)))
    for msg in sorted({m for p in passes for m in p["failures"]}):
        print("  failed check: %s" % msg)
    for name, metric in metrics.items():
        print("%-48s %s %s  (n=%d)" % (name, metric["value"], metric["unit"],
                                       figures[name][1]))
    print("unscaled: pass median %.4g s, set-up median %.4g s, import %.4g s; "
          "host scale median %.4g" % (
              _median([p["seconds"] for p in passes]),
              _median([s["seconds"] for s in run["setups"]]), import_s,
              _median([p["scale"] for p in passes])))
    print("environment " + json.dumps(run["environment"]))
    run["metrics"] = metrics
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = run.pop("spans")
    with open(OUT_DIR / ("result-%s.json" % tag), "w") as fh:
        json.dump(run, fh, indent=1)
    if spans:
        with open(OUT_DIR / ("spans-%s.jsonl" % tag), "w") as fh:
            for i, records in enumerate(spans):
                for rec in records:
                    fh.write(json.dumps({"pass": i, **rec}) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
