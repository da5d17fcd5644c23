"""assumekit benchmark: one workload per process, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload fair-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 [--known-defects]

A run sets up (fresh-process import of ``assumekit``, input generation,
warm-up; three times, median reported), then runs operations back to back
until their summed wall time reaches ``--seconds`` and checks every output.
Between operations it times a fixed computation of its own, and every time
it reports is scaled by that computation's speed around it (see Speed).
With ``--trace 1`` it first runs the same workload untraced in a child
process for half the time, then replays exactly those operations with the
tracer on, and reports per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong output
makes the exit code 1; a checkout without the library's sources exits 1
without printing a result.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

LADDER = (50.0, 75.0, 90.0, 99.0, 99.9)
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
# The reference computation's time at the speed every figure is scaled to:
# its median on the 2-core machine the README's figures come from.
REF_S = 0.088
REF_EVERY_S = 1.0  # timed operation time between two reference samples
REF_STATES = 20000


class Speed:
    """The machine's speed through a run.

    The host this was built on runs the same code up to 1.5 times slower
    for seconds to minutes at a time, and every figure moves with it.  So
    the run times a fixed computation of the benchmark's own (an SCC pass
    over a REF_STATES-state graph, no library code) before each set-up,
    before the first operation, then every REF_EVERY_S of timed operations
    and once after the last, always outside the timed region.  Each timed
    interval (an operation, a set-up) is scaled by REF_S over the mean of
    the samples just before and just after it.  The garbage collector is
    off during a sample, so the size of the heap, which a library cache
    would grow, does not move it.  See the README for how the reference
    was chosen.
    """

    def __init__(self) -> None:
        from gen import sparse_game

        spec = sparse_game(Random("speed-reference"), REF_STATES, 2)
        self.nodes, self.succ = set(spec["states"]), spec["succ"].__getitem__
        self.samples: list[float] = []

    def sample(self) -> int:
        """Take a sample; returns its index, the mark of the interval after it."""
        from checks import sccs

        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            sccs(self.nodes, self.succ)
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(dt)
        return len(self.samples) - 1

    def factor(self, mark: int) -> float:
        """Scale of the interval that started after sample ``mark``."""
        s = self.samples
        return 2 * REF_S / (s[mark] + s[min(mark + 1, len(s) - 1)])

    def record(self) -> dict:
        return {"samples": len(self.samples), "reference_ms": statistics.median(self.samples) * 1000,
                "scaled_to_ms": REF_S * 1000}


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def load_library():
    """Import assumekit from this checkout's src/, never from elsewhere."""
    if not (SRC / "assumekit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import assumekit
    import assumekit.cli
    import assumekit.fixtures

    if Path(assumekit.__file__).resolve().parent != SRC / "assumekit":
        sys.exit(f"perfbench: imported assumekit from {assumekit.__file__}, not {SRC}")
    return assumekit


def fresh_import_s() -> float:
    """Time to import the library in a new interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import assumekit, assumekit.cli; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout)


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def tail_percentile(sorted_lat: list[float], cap: float) -> tuple[float, float, int]:
    """Highest percentile of LADDER, up to ``cap``, with at least ten
    samples beyond it (nearest rank); returns (percentile, value, samples
    beyond).  The cap keeps the reported percentile the same from run to
    run when the machine's speed, and so the sample count, drifts."""
    n = len(sorted_lat)
    best = None
    for p in LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if p <= cap and (best is None or n - rank >= 10):
            best = (p, sorted_lat[rank - 1], n - rank)
    return best


def set_up(ak, cls, args, workdir, speed):
    """Set up SETUP_REPEATS times; returns the last workload and, per
    repetition, its unscaled times and the mark of the sample before it."""
    goldens = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))
    reps = []
    for _ in range(SETUP_REPEATS):
        mark = speed.sample()
        import_s = fresh_import_s()
        w = cls(ak, args.seed, workdir, goldens, args.known_defects)
        t0 = time.perf_counter()
        w.prepare(w.first_ops)
        inputs_s = time.perf_counter() - t0
        warm_s = 0.0
        warm = w.stream("warmup")
        for _ in range(w.warmup_ops):
            op = next(warm)
            t0 = time.perf_counter()
            out = op.call()
            warm_s += time.perf_counter() - t0
            op.check(out)
        reps.append({"total": import_s + inputs_s + warm_s, "import": import_s,
                     "inputs": inputs_s, "warmup": warm_s, "mark": mark})
    return w, reps


def setup_median(reps: list[dict], speed: Speed) -> dict:
    """The repetition with the median scaled total, with that total."""
    scaled = sorted((r["total"] * speed.factor(r["mark"]), i) for i, r in enumerate(reps))
    total, i = scaled[len(scaled) // 2]
    return dict(reps[i], scaled=total)


def measure(w, seconds: float, max_ops: int | None, speed: Speed, tracer=None) -> dict:
    """Closed loop over the main stream; outputs checked after each op."""
    latencies, durations, marks, kinds, failures = [], [], [], [], Counter()
    outputs = hashlib.sha256()
    timed = 0.0
    sampled, mark = -math.inf, 0
    wrong = None
    n = 0
    for op in w.ops():
        if (max_ops is not None and n >= max_ops) or (max_ops is None and timed >= seconds):
            break
        if timed - sampled >= REF_EVERY_S:
            mark = speed.sample()
            sampled = timed
        if tracer is not None:
            tracer.op = n
        t0 = time.perf_counter()
        try:
            out = op.call()
            err = None
        except Exception as exc:  # an op that raises counts as failed
            err = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        timed += dt
        n += 1
        kinds.append(op.kind)
        durations.append(dt)
        marks.append(mark)
        if err is not None:
            failures[f"{op.kind}: {type(err).__name__}"] += 1
            latencies.append(math.inf)
            outputs.update(f"error:{type(err).__name__}".encode())
            continue
        latencies.append(dt)
        try:
            outputs.update(op.check(out).encode())
        except Exception as exc:
            wrong = f"op {n - 1} ({op.kind}): {type(exc).__name__}: {exc}"
            break
    speed.sample()
    return {"latencies": latencies, "durations": durations, "marks": marks,
            "timed_s": timed, "ops": n, "kinds": kinds,
            "failures": dict(failures), "wrong": wrong, "digest": outputs.hexdigest()}


def summarize(run: dict, tail_cap: float, speed: Speed | None) -> dict:
    """Run statistics, with each operation's time scaled by ``speed``
    (unscaled without it)."""
    factors = [speed.factor(m) if speed else 1.0 for m in run["marks"]]
    lat = sorted(x * f for x, f in zip(run["latencies"], factors))
    timed = sum(x * f for x, f in zip(run["durations"], factors))
    ok = sum(1 for x in lat if x != math.inf)
    p, tail, beyond = tail_percentile(lat, tail_cap)
    by_kind: dict[str, list[float]] = {}
    for kind, x, f in zip(run["kinds"], run["latencies"], factors):
        by_kind.setdefault(kind, []).append(x * f)
    return {
        "by_kind": {k: {"ops": len(v), "p50_ms": statistics.median(v) * 1000}
                    for k, v in sorted(by_kind.items())},
        "ops_per_s": ok / timed if timed else 0.0,
        "timed_s": timed,
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_tail_ms": tail * 1000,
        "tail": {"percentile": p, "beyond": beyond, "samples": len(lat)},
        "fail_frac": (len(lat) - ok) / len(lat) if lat else 0.0,
    }


def run_workload(args) -> int:
    from checks import CheckError
    from workloads import WORKLOADS

    ak = load_library()
    cls = WORKLOADS[args.workload]
    workdir = OUT / "work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(exist_ok=True)

    reference = None
    if args.trace:
        # Untraced reference in its own process, so nothing the library
        # might cache carries over into the traced replay.
        ref_path = OUT / f"reference-{args.workload}.json"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--trace", "0", "--record", str(ref_path)]
        cmd += ["--ops", str(args.ops)] if args.ops else ["--seconds", str(args.seconds / 2)]
        if args.known_defects:
            cmd.append("--known-defects")
        child = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if child.returncode != 0:
            sys.stderr.write(child.stdout + child.stderr)
            return child.returncode
        reference = json.loads(ref_path.read_text(encoding="utf-8"))

    speed = Speed()
    try:
        w, setup = set_up(ak, cls, args, str(workdir), speed)
    except CheckError as exc:
        print(f"perfbench: wrong output during set-up: {exc}", file=sys.stderr)
        return 1
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = measure(w, math.inf, reference["ops"], speed, tracer)
        tracer.uninstall()
        if run["wrong"] is None and run["digest"] != reference["digest"]:
            run["wrong"] = "traced outputs differ from the untraced run"
        self_by_op = tracer.self_time_by_op()
        over = [i for i, x in enumerate(run["latencies"]) if self_by_op.get(i, 0.0) > x]
        if run["wrong"] is None and over:
            run["wrong"] = f"layer self times exceed the op wall time on op {over[0]}"
    else:
        run = measure(w, args.seconds, args.ops, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    stats = summarize(run, cls.tail_cap, speed) if run["ops"] else None
    unscaled = summarize(run, cls.tail_cap, None) if run["ops"] else None
    setup = setup_median(setup, speed)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "known_defects": args.known_defects,
        "machine": machine(), "ops": run["ops"], "ops_by_kind": dict(Counter(run["kinds"])),
        "failures": run["failures"], "timed_s": run["timed_s"], "digest": run["digest"],
        "wrong": run["wrong"], "speed": speed.record(), "setup": setup, "summary": stats,
        "unscaled": unscaled,
    }
    if tracer is not None:
        units = metric_units("per_layer")
        values, absent = tracer.layer_metrics(run["ops"], list(units))
        # Spans are not split by sampling interval, so self times get the
        # run's mean scale.
        factor = stats["timed_s"] / unscaled["timed_s"]
        values = {k: v * factor if k.endswith(".self_ms") else v for k, v in values.items()}
        values["trace.overhead_frac"] = stats["timed_s"] / reference["summary"]["timed_s"] - 1
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        record["absent"] = absent
        spans_path = OUT / f"spans-{args.workload}.csv.gz"
        tracer.write(str(spans_path))
        record["spans"] = str(spans_path.relative_to(ROOT))
    else:
        values = dict(stats or {}, setup_s=setup["scaled"], peak_rss_mb=peak_rss_mb)
        metrics = {k: {"value": values[k], "unit": u} for k, u in metric_units("end_to_end").items()}
    record["metrics"] = metrics
    record_path = Path(args.record) if args.record else (
        OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8")

    print_human(record, stats, unscaled, record_path)
    correct = run["wrong"] is None and run["ops"] > 0
    print(json.dumps({"correct": correct, "attempted": run["ops"],
                      "failed": sum(run["failures"].values()), "metrics": metrics}))
    return 0 if correct else 1


def print_human(record: dict, stats: dict | None, unscaled: dict | None, record_path: Path) -> None:
    m = record["machine"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"ops={record['ops']} ({m['nproc']} CPUs, {m['cpu_model']}, Python {m['python']})")
    if stats is not None:
        print("# ops by kind: " + ", ".join(
            f"{k}={v['ops']} (p50 {v['p50_ms']:.4g} ms)" for k, v in stats["by_kind"].items()))
        t = stats["tail"]
        print(f"# op_tail_ms is p{t['percentile']:g} with {t['beyond']} of {t['samples']} samples beyond")
        print(f"# fail_frac {stats['fail_frac']:.6g} ratio " + json.dumps(record["failures"]))
    s, sp = record["setup"], record["speed"]
    print(f"# setup: import {s['import']:.4f} s, inputs {s['inputs']:.4f} s, "
          f"warm-up {s['warmup']:.4f} s (median of {SETUP_REPEATS}, unscaled)")
    print(f"# speed: reference {sp['reference_ms']:.4f} ms (median of {sp['samples']} samples), "
          f"times scaled to {sp['scaled_to_ms']:g} ms")
    if unscaled is not None:
        print(f"# unscaled: ops_per_s {unscaled['ops_per_s']:.6g}, op_p50_ms {unscaled['op_p50_ms']:.6g}, "
              f"op_tail_ms {unscaled['op_tail_ms']:.6g}, setup_s {s['total']:.6g}")
    for name, v in record["metrics"].items():
        print(f"{name:48s} {v['value']:.6g} {v['unit']}")
    if record.get("absent"):
        print("# absent from the library (reported as 0): " + ", ".join(record["absent"]))
    if record["wrong"]:
        print(f"# WRONG OUTPUT: {record['wrong']}")
    print(f"# record: {record_path}")


def run_all(args) -> int:
    """Every workload in its own process; prints one table from their records."""
    from workloads import WORKLOADS

    records, code = {}, 0
    for name in WORKLOADS:
        path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.known_defects:
            cmd.append("--known-defects")
        child = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 2)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        code = code or child.returncode
        records[name] = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}

    rows: dict[str, dict[str, str]] = {}
    for name, rec in records.items():
        for metric, v in rec.get("metrics", {}).items():
            rows.setdefault(f"{metric} ({v['unit']})", {})[name] = f"{v['value']:.6g}"
        if rec.get("summary") and not args.trace:
            t = rec["summary"]["tail"]
            rows.setdefault("fail_frac (ratio)", {})[name] = f"{rec['summary']['fail_frac']:.6g}"
            rows.setdefault("op_tail_ms percentile", {})[name] = f"p{t['percentile']:g}/{t['samples']}"
    print("\n" + f"{'metric':52s}" + "".join(f"{n:>16s}" for n in records))
    for label, cells in rows.items():
        print(f"{label:52s}" + "".join(f"{cells.get(n, '-'):>16s}" for n in records))
    correct = code == 0 and all(r.get("wrong", "missing") is None for r in records.values())
    print(json.dumps({"correct": correct, "workloads": {
        n: {"metrics": r.get("metrics"), "attempted": r.get("ops")} for n, r in records.items()}}))
    return code or (0 if correct else 1)


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="run exactly this many ops instead of --seconds")
    parser.add_argument("--known-defects", action="store_true",
                        help="add the 1,200-loop game that overflows Zielonka's recursion today")
    parser.add_argument("--record", help="where to write the run record (default under .perfbench/)")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
