"""Run one matroidlab benchmark workload, check every output, print metrics.

    python3 bench/run.py --workload codes --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src.  One
process, one client: ops run back to back in a closed loop, each an
in-process call of the library function behind a CLI subcommand.  After
set-up, passes over the workload's ops repeat until --seconds is used up;
times are medians over passes, scaled to a reference machine speed (see
Calibration).  Outputs of the first pass are checked against independent
references (untimed), later passes must repeat them byte for byte, and at
the pinned seed every output's digest must match bench/digests.json.  An op that raises or an output that fails its check
makes the run exit 1.  The last line of stdout is one JSON object.

--trace 1 runs untraced passes for a third of the time, then installs the
layer wrappers of tracing.py, sets up again and runs one traced pass; it
reports per-layer metrics instead of the end-to-end ones.
"""

import os

# Only the threads that workers=2 asks for: no BLAS or OpenMP pools.  Set
# before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"
PINNED_SEED = 0
SETUP_REPS = 5
UNTRACED_SHARE = 1 / 3   # of --seconds, in a traced run
LIBRARY_MODULES = ("field", "linalg", "matroid", "constructions", "fileio", "codes",
                   "perturb", "templates", "growth")
# Calibration: a slice of fixed work from oracles.py, which the library never
# runs, is timed before the first op and then every CAL_EVERY_S between ops.
# CAL_REF_S is a slice's typical time.
CAL_EVERY_S = 0.02
CAL_REF_S = 0.0014
CAL_GENERATOR_SHAPE = (8, 14)  # all 3^8 codewords of a fixed ternary generator
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s", "ok_ratio": "ratio"}


@dataclass
class Pass:
    wall: float       # raw seconds, calibration slices excluded
    cpu: float
    times: list
    outputs: list
    failures: list
    scale: float      # raw seconds times scale are seconds at the reference speed


class Calibration:
    """Machine speed, measured alongside the ops.

    On a shared VM the same pass runs up to twice as fast in one minute as
    in another, which no number of passes in one run can average out.
    Scaling each pass's times by the speed measured during that pass
    removes most of it, and a change to the library leaves the calibration
    work untouched.  The slice is numpy work driven from Python: a busy
    machine slows it by about as much as it slows each workload's ops, where
    a pure-Python slice slows more."""

    def __init__(self):
        import numpy as np
        import oracles

        self.tables, self.all_codewords = oracles.Tables(3, 1), oracles.all_codewords
        self.generator = np.arange(np.prod(CAL_GENERATOR_SHAPE), dtype=np.uint8).reshape(
            CAL_GENERATOR_SHAPE) % 3
        self.slices, self.spent, self.cpu = [], 0.0, 0.0

    def work(self):
        return (self.all_codewords(self.tables, self.generator) != 0).sum(axis=1)

    def slice(self):
        """Run the work twice and time the second run: the first refills the
        caches the ops left behind, so the time depends less on what the
        library last touched.  No collection runs inside."""
        cpu0, start = time.process_time(), time.perf_counter()
        gc.disable()
        self.work()
        timed = time.perf_counter()
        self.work()
        end = time.perf_counter()
        gc.enable()
        self.slices.append(end - timed)
        self.spent += end - start
        self.cpu += time.process_time() - cpu0

    def scale(self):
        return CAL_REF_S / statistics.median(self.slices)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("codes", "templates", "structure"))
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help=f"record this workload's output digests (seed {PINNED_SEED} only)")
    return ap.parse_args(argv)


def environment():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def run_pass(ops):
    clock = time.perf_counter
    cal = Calibration()
    times, outputs, failures = [], [], []
    cpu0, t0 = time.process_time(), clock()
    next_cal = t0
    for op in ops:
        if clock() >= next_cal:
            cal.slice()
            next_cal = clock() + CAL_EVERY_S
        start = clock()
        try:
            text = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            text = None
            failures.append(f"{op.id}: {type(exc).__name__}: {exc}")
        times.append(clock() - start)
        outputs.append(text)
    return Pass(clock() - t0 - cal.spent, time.process_time() - cpu0 - cal.cpu,
                times, outputs, failures, cal.scale())


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def import_seconds(src):
    """Time of importing the library in a fresh interpreter."""
    code = ("import importlib, sys, time; sys.path.insert(0, sys.argv[1]); "
            "start = time.perf_counter(); "
            f"[importlib.import_module('matroidlab.' + m) for m in {LIBRARY_MODULES!r}]; "
            "print(time.perf_counter() - start)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout)


def set_up(workloads, name, seed, workdir, make_field):
    """Field construction, input generation and the file round trip."""
    make_field.cache_clear()
    workdir.mkdir()
    start = time.perf_counter()
    ops = workloads.WORKLOADS[name](seed, workloads.Inputs(workdir))
    return ops, time.perf_counter() - start


def check_outputs(ops, passes):
    """Messages for every output that fails its check or changes."""
    from oracles import CheckFailed

    bad = []
    for op, text in zip(ops, passes[0].outputs):
        if text is None:
            continue  # reported from the pass's failures
        try:
            op.check(text)
        except CheckFailed as exc:
            msg = str(exc)
            bad.append(msg if msg.startswith(op.id) else f"{op.id}: {msg}")
        except Exception as exc:  # a malformed output can break the check itself
            bad.append(f"{op.id}: check raised {type(exc).__name__}: {exc}")
    for later in passes[1:]:
        for op, a, b in zip(ops, passes[0].outputs, later.outputs):
            if a is not None and b is not None and a != b:
                bad.append(f"{op.id}: output differs between passes")
    return bad


def digests(ops, outputs):
    return {op.id: hashlib.sha256((text or "").encode()).hexdigest()[:16]
            for op, text in zip(ops, outputs)}


def check_digests(workload, got):
    pinned = json.loads(DIGESTS.read_text())["workloads"].get(workload)
    if pinned is None:
        return [f"no pinned digests for {workload} in {DIGESTS.name}"]
    bad = [f"{op}: output digest {h} != pinned {pinned.get(op)}"
           for op, h in got.items() if pinned.get(op) != h]
    bad += [f"{op}: pinned op was not run" for op in pinned if op not in got]
    return bad


def pin_digests(workload, got):
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else \
        {"seed": PINNED_SEED, "workloads": {}}
    data["workloads"][workload] = got
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "matroidlab" / "__init__.py").is_file():
        print(f"error: no matroidlab sources in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    for name in LIBRARY_MODULES:
        importlib.import_module(f"matroidlab.{name}")
    import workloads
    from matroidlab.field import make_field

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT))
    tracer = None
    try:
        imports, setups = [], []
        for rep in range(SETUP_REPS):
            imports.append(import_seconds(src))
            built, seconds = set_up(workloads, args.workload, args.seed,
                                   work / f"setup{rep}", make_field)
            setups.append(seconds)
            if rep == 0:
                ops = built  # later builds are only timed

        # The inputs of every op stay alive for the whole run, unlike in a CLI
        # call; keep the collector from rescanning them in every pass.
        gc.collect()
        gc.freeze()
        budget = args.seconds * (UNTRACED_SHARE if args.trace else 1.0)
        passes, last = [], 0.0
        began = time.perf_counter()
        while not passes or time.perf_counter() - began + last <= budget:
            gc.collect()
            start = time.perf_counter()
            passes.append(run_pass(ops))
            last = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install(workloads)
            try:
                workloads.probe_layers()
                idle = tracer.idle_layers()
                if idle:
                    print(f"error: no spans from {', '.join(idle)}; wrapper not installed",
                          file=sys.stderr)
                    return 2
                traced_ops, _ = set_up(workloads, args.workload, args.seed, work / "traced",
                                       make_field)
                traced = run_pass(traced_ops)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = passes + ([traced] if tracer else [])
    # an op that raised is a failed check too: the run is not correct
    bad = [f for p in runs for f in p.failures] + check_outputs(ops, runs)
    got = digests(ops, passes[0].outputs)
    if args.pin:
        if args.seed != PINNED_SEED or bad:
            print(f"error: pin only a clean run at seed {PINNED_SEED}", file=sys.stderr)
            return 2
        pin_digests(args.workload, got)
    elif args.seed == PINNED_SEED:
        bad += check_digests(args.workload, got)

    # each op's latency is its median over the untraced passes
    op_ms = {op.id: 1000 * statistics.median(p.times[i] * p.scale for p in passes)
             for i, op in enumerate(ops)}
    attempted = len(ops) * len(runs)
    failed = sum(len(p.failures) for p in runs)
    walls = [p.wall for p in passes]
    wall_s = statistics.median(p.wall * p.scale for p in passes)
    if tracer:
        metrics = tracer.metrics()
        metrics["trace_overhead"] = traced.wall * traced.scale / wall_s
        units = {k: tracing.unit(k) for k in metrics}
    else:
        metrics = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(p.cpu * p.scale for p in passes),
            "op_ms_p50": statistics.median(op_ms.values()),
            "op_ms_p90": p90(list(op_ms.values())),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "ops_per_pass": len(ops),
              "passes": len(passes), "pass_walls_s": walls,
              "pass_scales": [p.scale for p in passes], "imports_s": imports,
              "setup_reps_s": setups, "failures": [f for p in runs for f in p.failures],
              "op_ms_median": op_ms,
              "check_failures": bad, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write_spans(OUT / f"spans-{stem}.tsv.gz")

    for msg in bad[:20]:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed {args.seed}: {len(ops)} ops per pass, {len(passes)} "
          f"untraced passes, pass walls {', '.join(f'{w:.3f}' for w in walls)} s, "
          f"speed scales {', '.join(f'{p.scale:.3f}' for p in passes)}")
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
