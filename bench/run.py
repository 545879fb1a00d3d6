"""Benchmark psolve end to end and layer by layer.

    python3 bench/run.py --workload refute --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --short

One process, one thread, one instance at a time (a closed loop with one
client).  Rounds of instances are generated from ``--seed``; each instance
goes from problem data to a verified verdict, and every answer is checked
against ``reference``, until ``--seconds`` of timed calls have run.  Times
are scaled to a reference machine speed (see ``MachineSpeed``).  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from spans recorded around every call into psolve) with
``--trace 1``.  ``--short`` runs every workload at a small size with all
its checks and exits nonzero if any answer is wrong.  README.md describes
the workloads, the metrics and the measured figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_PROBES = 9
COUNTED_ROUNDS = 5
REFERENCE_UNIT_S = 0.0025   # the calibration unit's time at reference speed
CALIBRATION_UNITS = 5       # units timed before each round
SPEED_WINDOW = 25           # unit times the current speed is the median of

# Span name (the psolve function called) -> per-layer time metric.
LAYER_TIMES = {
    "cli.parse_instance_text": "cli.parse_s",
    "cli.format_instance": "cli.format_s",
    "cli.format_proof": "cli.proof_io_s",
    "cli.parse_proof_text": "cli.proof_io_s",
    "cli.bind_proof": "cli.proof_io_s",
    "encodings.from_cnf": "encodings.encode_s",
    "encodings.from_sdr": "encodings.encode_s",
    "encodings.from_graph_coloring": "encodings.encode_s",
    "encodings.from_list_coloring": "encodings.encode_s",
    "encodings.assignment_from_partition": "encodings.translate_s",
    "encodings.representatives_from_partition": "encodings.translate_s",
    "encodings.coloring_from_partition": "encodings.translate_s",
    "core.check_s_partition": "core.verify_s",
    "search.decide": "search.dpll_s",
    "search.decide_2sat": "search.twosat_s",
    "resolution.decide_by_resolution": "resolution.decide_s",
    "resolution.check_refutation": "resolution.check_s",
}


def load_workloads():
    """Import psolve from the checkout's sources, then the workloads."""
    if not (SRC / "psolve" / "__init__.py").is_file():
        sys.exit(f"error: psolve sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def calibration_unit():
    """A fixed piece of the benchmark's own pure-Python work: dict inserts,
    a sort, string hashing and big-int arithmetic, like psolve's own mix."""
    table = {}
    for i in range(3000):
        table[i * 7919 % 10007] = (i, str(i))
    acc = 0
    for key in sorted(table):
        acc ^= hash(table[key][1]) & (key << 40)
    return acc


class MachineSpeed:
    """Scales times measured on a shared machine to a reference speed.

    Other tenants of the machine slow every process on it by up to a fifth
    for tens of seconds at a time: a fixed loop's throughput over 2-second
    windows ranged from 870 to 1400 iterations within two minutes, and a
    whole 25-second run's wall-time figures moved as much.  So before each
    round the benchmark times CALIBRATION_UNITS runs of ``calibration_unit``
    (the cyclic collector off, so psolve's heap cannot change their cost),
    and a time measured in that round is multiplied by REFERENCE_UNIT_S over
    the median of the last SPEED_WINDOW unit times.  psolve's code does not
    run in the unit, so a change to psolve moves only the measured time.
    """

    def __init__(self):
        self._recent = deque(maxlen=SPEED_WINDOW)

    def factor(self):
        gc.disable()
        try:
            for _ in range(CALIBRATION_UNITS):
                start = time.perf_counter()
                calibration_unit()
                self._recent.append(time.perf_counter() - start)
        finally:
            gc.enable()
        return REFERENCE_UNIT_S / statistics.median(self._recent)


class NoTrace:
    """Calls straight through; used for the end-to-end runs."""

    def root(self, fn, *args):
        return fn(self, *args)

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records a span (name, start, end, parent, op) around every call.

    Spans stay in memory until the run ends.  ``op`` numbers the timed
    operation a span belongs to; the root span of each is ``bench.op``.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1

    def root(self, fn, *args):
        self._op += 1
        return self.call("bench.op", fn, self, *args)

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._op)

    def self_times(self, factors):
        """Total self time per span name: duration minus child durations
        (spans of one thread nest and never overlap), each scaled by the
        speed factor of its operation."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = {}
        for (name, start, end, _, op), child in zip(self.spans, covered):
            own = ((end - start) - child) * factors[op]
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op}))
                handle.write("\n")


def probe_setup(args):
    """Child side of the set-up measurement: import psolve and generate the
    first round, then report the monotonic clock (shared by all processes
    of the machine)."""
    wl = load_workloads().WORKLOADS[args.workload]
    wl.make_round(random.Random(args.seed), False)
    print(repr(time.monotonic()))


def measure_setup(workload, seed, speed):
    """Median over fresh interpreters of launch -> ready for the first call,
    at reference speed."""
    samples = []
    for _ in range(SETUP_PROBES):
        factor = speed.factor()
        launched = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append((float(done.stdout.split()[-1]) - launched, factor))
    return (statistics.median(t * f for t, f in samples),
            statistics.median(t for t, _ in samples))


def timed_pass(workloads, wl, seed, short, seconds, min_rounds, tracer, speed):
    """Whole rounds until ``seconds`` of timed calls and ``min_rounds``.

    Each round is generated afresh from one seeded stream, so a seed fixes
    every round's instances.  Only the calls into psolve are timed: the
    clock stops while the benchmark generates a round, calibrates, and
    checks an answer against the reference.  ``durations`` are at reference
    speed, ``raw`` as the clock read them.
    """
    rng = random.Random(seed)
    durations = []
    raw = []
    factors = []
    failed = wrong = 0
    work = []
    rounds = 0
    busy = 0.0
    while rounds < min_rounds or busy < seconds:
        factor = speed.factor()
        instances = wl.make_round(rng, short)
        for inst in instances:
            if inst.expected is None:
                inst.expected = workloads.expected_verdict(inst)
        for inst in instances:
            start = time.perf_counter()
            out = tracer.root(workloads.run_op, wl, inst)
            elapsed = time.perf_counter() - start
            busy += elapsed
            raw.append(elapsed)
            durations.append(elapsed * factor)
            factors.append(factor)
            if out.has_s is None:
                failed += 1
            elif not workloads.op_correct(wl, inst, out):
                failed += 1
                wrong += 1
            work.append((rounds, out.stats, out.steps, out.nbytes))
        rounds += 1
    return {"durations": durations, "raw": raw, "factors": factors,
            "rounds": rounds, "failed": failed, "wrong": wrong, "work": work}


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def end_to_end(result, durations, wl, setup_s):
    verified = len(durations) - result["failed"]
    return {
        "instances_per_s": (verified / sum(durations), "1/s"),
        "verdict_s.p50": (statistics.median(durations), "s"),
        "verdict_s.tail": (percentile(durations, wl.tail), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(result, tracer):
    """Layer self times per operation over the whole traced pass; work
    counts summed over its first COUNTED_ROUNDS rounds, which a seed fixes."""
    ops = len(result["durations"])
    times = dict.fromkeys(sorted(set(LAYER_TIMES.values())), 0.0)
    for name, total in tracer.self_times(result["factors"]).items():
        if name in LAYER_TIMES:
            times[LAYER_TIMES[name]] += total
    counts = [0] * 6   # generated, kept, subsumed, rounds, steps, bytes
    kept_all = steps_all = 0
    for round_no, stats, steps, nbytes in result["work"]:
        kept_all += stats[1]
        steps_all += steps
        if round_no < COUNTED_ROUNDS:
            for i, value in enumerate((*stats, steps, nbytes)):
                counts[i] += value
    generated, kept, subsumed, closure_rounds, steps, nbytes = counts
    decide_total = times["resolution.decide_s"]
    check_total = times["resolution.check_s"]
    metrics = {name: (total / ops, "s") for name, total in times.items()}
    metrics.update({
        "resolution.generated": (generated, "count"),
        "resolution.kept": (kept, "count"),
        "resolution.subsumed": (subsumed, "count"),
        "resolution.rounds": (closure_rounds, "count"),
        "resolution.kept_ratio": (kept / generated if generated else 0.0, "ratio"),
        "resolution.kept_per_s": (kept_all / decide_total if decide_total else 0.0, "1/s"),
        "resolution.refutation_steps": (steps, "count"),
        "resolution.check_steps_per_s": (steps_all / check_total if check_total else 0.0, "1/s"),
        "cli.bytes": (nbytes, "count"),
    })
    return metrics


def report(correct, attempted, failed, metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run(args):
    workloads = load_workloads()
    wl = workloads.WORKLOADS[args.workload]
    speed = MachineSpeed()
    setup_s, setup_raw = measure_setup(args.workload, args.seed, speed)
    tracer = Tracer() if args.trace else NoTrace()
    min_rounds = COUNTED_ROUNDS if args.trace else 1
    result = timed_pass(workloads, wl, args.seed, False, args.seconds,
                        min_rounds, tracer, speed)
    attempted = len(result["durations"])
    scaled = end_to_end(result, result["durations"], wl, setup_s)
    metrics = per_layer(result, tracer) if args.trace else scaled
    doc = report(result["wrong"] == 0, attempted, result["failed"], metrics)
    # The file keeps what the printed line leaves out: the figures as the
    # clock read them, the speed factors, and the throughput of a traced
    # run, which gives the tracing overhead.
    unscaled = end_to_end(result, result["raw"], wl, setup_raw)
    record = dict(doc, unscaled=report(True, attempted, result["failed"], unscaled)["metrics"],
                  speed_factor_median=statistics.median(result["factors"]),
                  instances_per_s=scaled["instances_per_s"][0])
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n",
                                      encoding="utf-8")
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(json.dumps(doc))


def short():
    """Every workload for COUNTED_ROUNDS rounds at a small size, traced,
    with all its checks; the work counts must repeat on a second pass."""
    workloads = load_workloads()
    ok = True
    for name, wl in workloads.WORKLOADS.items():
        passes = []
        for _ in range(2):
            tracer = Tracer()
            result = timed_pass(workloads, wl, 1, True, 0, COUNTED_ROUNDS, tracer,
                                MachineSpeed())
            metrics = per_layer(result, tracer)
            passes.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
        good = result["failed"] == 0 and passes[0] == passes[1]
        ok = ok and good
        print(f"{name}: attempted {len(result['durations'])}, "
              f"failed {result['failed']}, wrong {result['wrong']}, "
              f"counts {passes[0]}: {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("refute", "saturate", "search", "allpairs"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="run every workload at a small size as a self-test")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.short:
        return short()
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe_setup:
        probe_setup(args)
    else:
        run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
