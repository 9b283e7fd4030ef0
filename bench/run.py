"""kkfree benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload boxes|fat|free-search|all \
        --seed N --seconds S --trace 0|1

Closed loop with one client: the workload's op script runs again and again,
each time in a fresh worker process (bench/worker.py), until the next run
would end past ``--seconds``.  Runs alternate PYTHONHASHSEED=0 and 1.  Every
run's op outputs are checked; their stdout, output-file digests and (traced)
counters must be identical across runs, which is the determinism gate.

``--trace 0`` reports the end-to-end metrics: the op script's wall time
(each op's median over the script runs, summed), the set-up time, the peak
RSS, the ops per script and the share of K_{k,k} verdicts that came back
decided.  The two times are at the reference speed (see reference.py):
each raw time is scaled by REFERENCE_NOMINAL_S over the time of a fixed
loop run around it, which cancels most of the machine's own speed drift.  Raw
times go to stderr and to the run record.  ``--trace 1`` alternates traced
and untraced runs and reports per-layer self times and counters, plus the
tracing overhead (traced minus untraced wall time at the reference speed).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A machine record (cores, Python,
load average, a fixed pure-Python calibration loop timed before and after)
goes to stderr and to .bench_work/<workload>/last_run.json.

``--record-digests`` runs the default seed and stores the output digests in
bench/reference_digests.json; later runs at the default seed must match them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from statistics import median
from time import perf_counter

import tracing
from reference import (REFERENCE_LOOPS, REFERENCE_NOMINAL_S,
                       reference_loop_s)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
PACKAGE = os.path.join(ROOT, "src", "kkfree", "__init__.py")
WORKLOADS = ("boxes", "fat", "free-search")
DEFAULT_SEED = 1            # workloads.DEFAULT_SEED; that module imports kkfree
# Seed kept out of every run made while the benchmark or a change was
# written; a later change confirms its claim on it.
HELD_OUT_SEED = 7919
RUN_LIMIT_S = 150           # start no script run past this point


def calibration_s() -> float:
    """The machine record's loop: ten reference loops in one go."""
    return reference_loop_s(10 * REFERENCE_LOOPS)


def machine_record() -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg": os.getloadavg()}


def run_script(workload: str, seed: int, trace: bool, hashseed: int,
               work: str, timeout: float) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--work", work]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1), cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _outputs(res: dict) -> dict:
    """What a script run printed and wrote; must repeat exactly."""
    return {"inputs": res["input_digests"],
            "ops": [(o["name"], o["rc"], o["stdout"], o["digests"], o["verdict"])
                    for o in res["ops"]]}


def _counters(res: dict) -> dict:
    return {k: v for k, v in res["layers"].items() if not tracing.is_time(k)}


def script_wall(runs: list[dict], at_reference: bool) -> float:
    """Each op's median wall time over the script runs, summed: the wall
    time of a median script run, steadier than the median of the totals
    when single ops hit a slow spell of the machine.  ``at_reference``
    scales each op's time to the reference speed first."""
    def seconds(op):
        if at_reference:
            return op["seconds"] * REFERENCE_NOMINAL_S / op["ref"]
        return op["seconds"]
    return sum(median(seconds(r["ops"][i]) for r in runs)
               for i in range(len(runs[0]["ops"])))


def setup_at_reference(run: dict) -> float:
    """Set-up time scaled by the reference loop timed right after it."""
    return run["setup_s"] * REFERENCE_NOMINAL_S / run["setup_ref"]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload's script for ``seconds`` and aggregate."""
    wl_dir = os.path.join(WORK, workload)
    work = os.path.join(wl_dir, "current")
    # (traced, PYTHONHASHSEED) per script run, cycled
    pattern = ([(False, 0), (True, 1), (True, 0), (False, 1)] if trace
               else [(False, 0), (False, 1)])
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine_record(),
              "calibration_before_s": calibration_s()}
    spans = os.path.join(wl_dir, "spans.jsonl")
    if os.path.exists(spans):
        os.remove(spans)
    runs = []
    start = perf_counter()
    while True:
        traced, hashseed = pattern[len(runs) % len(pattern)]
        t0 = perf_counter()
        res = run_script(workload, seed, traced, hashseed, work,
                         RUN_LIMIT_S + 25 - (t0 - start))
        last = perf_counter() - t0
        res["hashseed"] = hashseed
        if traced and not os.path.exists(spans):
            shutil.copy(os.path.join(work, "spans.jsonl"), spans)
        runs.append(res)
        elapsed = perf_counter() - start
        if len(runs) >= len(pattern) and (elapsed + last > seconds
                                          or elapsed + last > RUN_LIMIT_S):
            break
    shutil.rmtree(work, ignore_errors=True)
    record["calibration_after_s"] = calibration_s()
    record["loadavg_after"] = os.getloadavg()

    problems = sorted({p for r in runs for p in r["problems"]})
    outputs = [_outputs(r) for r in runs]
    if any(o != outputs[0] for o in outputs):
        problems.append("determinism: op outputs differ between script runs "
                        "(repeats, PYTHONHASHSEED 0/1, traced/untraced)")
    counters = [_counters(r) for r in runs if r["trace"]]
    if any(c != counters[0] for c in counters):
        problems.append("determinism: traced counters differ between runs")

    ops = [o for r in runs for o in r["ops"]]
    verdicts = [o["verdict"] for o in runs[0]["ops"] if o["verdict"]]
    unknown = sum(v == "unknown" for v in verdicts)
    plain = [r for r in runs if not r["trace"]]
    summary = {
        "wall_s": script_wall(plain, True),
        "setup_s": median(setup_at_reference(r) for r in plain),
        "raw_wall_s": script_wall(plain, False),
        "raw_setup_s": median(r["setup_s"] for r in plain),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        "ops": len(runs[0]["ops"]),
        "ops_failed": sum(o["failed"] for o in runs[0]["ops"]),
        "kkk_verdicts": len(verdicts),
        "kkk_unknown_frac": unknown / len(verdicts) if verdicts else 0.0,
    }
    summary["kkk_decided_frac"] = 1.0 - summary["kkk_unknown_frac"]
    out = {"correct": not problems, "attempted": len(ops),
           "failed": sum(o["failed"] for o in ops), "problems": problems,
           "summary": summary, "runs": len(runs)}
    if trace:
        layers = tracing.median_layer_metrics(
            [r["layers"] for r in runs if r["trace"]])
        # at the reference speed, like wall_s: raw traced and untraced runs
        # differ by the machine's drift more than by the tracing
        traced_wall = script_wall([r for r in runs if r["trace"]], True)
        layers["trace.wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = summary["wall_s"]
        layers["trace.overhead_s"] = traced_wall - summary["wall_s"]
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / summary["wall_s"]
        out["layers"] = layers
    record.update(out)
    record["script_runs"] = [
        {**{k: r[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb",
                              "trace", "hashseed")},
         "op_seconds": [o["seconds"] for o in r["ops"]],
         "op_ref": [o["ref"] for o in r["ops"]]}
        for r in runs]
    with open(os.path.join(wl_dir, "last_run.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    sys.stderr.write("machine: " + json.dumps(
        {**record["machine"], "loadavg_after": record["loadavg_after"],
         "calibration_before_s": record["calibration_before_s"],
         "calibration_after_s": record["calibration_after_s"]}) + "\n")
    return out


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(out: dict, trace: bool, prefix: str = "") -> dict:
    """The result object; a per-layer metric the run never touched is 0."""
    declared = declared_metrics(trace)
    values = out["layers"] if trace else out["summary"]
    extra = set(values) - set(declared) if trace else set()
    if extra:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    metrics = {prefix + k: {"value": values.get(k, 0) if trace else values[k],
                            "unit": unit}
               for k, unit in declared.items()}
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def print_summary(workload: str, out: dict) -> None:
    s = out["summary"]
    lines = [f"[{workload}] {out['runs']} script runs, "
             f"correct={out['correct']}",
             f"  wall_s            {s['wall_s']:.4f} s at reference speed "
             f"(raw {s['raw_wall_s']:.4f} s)",
             f"  setup_s           {s['setup_s']:.4f} s at reference speed "
             f"(raw {s['raw_setup_s']:.4f} s)",
             f"  peak_rss_mb       {s['peak_rss_mb']:.1f} MB",
             f"  ops               {s['ops']} count",
             f"  ops_failed        {s['ops_failed']} count",
             f"  kkk_unknown_frac  {s['kkk_unknown_frac']:.4f} ratio "
             f"(of {s['kkk_verdicts']} verdicts)"]
    for p in out["problems"]:
        lines.append(f"  PROBLEM: {p}")
    if "layers" in out:
        units = declared_metrics(True)
        for k, v in sorted(out["layers"].items()):
            lines.append(f"  {k:34s} {v:.6g} {units.get(k, '')}")
    sys.stderr.write("\n".join(lines) + "\n")


def record_digests() -> int:
    """Store the default seed's output digests as the reference."""
    path = os.path.join(HERE, "reference_digests.json")
    if os.path.exists(path):
        os.remove(path)
    ref = {}
    for wl in WORKLOADS:
        res = run_script(wl, DEFAULT_SEED, False, 0,
                         os.path.join(WORK, wl, "current"), RUN_LIMIT_S)
        if res["problems"]:
            sys.stderr.write("\n".join(res["problems"]) + "\n")
            return 1
        ref[wl] = {"setup": res["input_digests"],
                   **{o["name"]: o["digests"] for o in res["ops"]}}
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; "
                        f"held-out seed {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args()
    if not os.path.exists(PACKAGE):
        sys.stderr.write(f"error: kkfree sources not found at "
                         f"{os.path.relpath(PACKAGE, ROOT)}\n")
        return 2
    if args.record_digests:
        return record_digests()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in names:
        out = measure(wl, args.seed, args.seconds, bool(args.trace))
        print_summary(wl, out)
        line = result_line(out, bool(args.trace),
                           prefix=f"{wl}." if len(names) > 1 else "")
        combined["correct"] = combined["correct"] and line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update(line["metrics"])
    print(json.dumps(combined, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
