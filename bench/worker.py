"""One run of one workload's op script, in a fresh process.

Usage (started by run.py, one process per script run):

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --work DIR

Set-up (importing kkfree, building the seeded instances, saving them) is
timed from process start.  The ops then run one after another through
``kkfree.cli.main``; after the last one the outputs are checked, and the
result is printed as one JSON line.
"""

T_START = __import__("time").perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from kkfree import cli  # noqa: E402
from kkfree.incidence import incidences_bruteforce  # noqa: E402
from kkfree import instances as kk_instances  # noqa: E402

import tracing  # noqa: E402
from reference import REFERENCE_LOOPS, reference_loop_s  # noqa: E402
import workloads  # noqa: E402

REFERENCE_DIGESTS = os.path.join(HERE, "reference_digests.json")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digests(directory: str, names) -> dict[str, str]:
    return {name: _sha256(os.path.join(directory, name)) for name in sorted(names)}


def _witness_ok(path: str, out: str) -> bool:
    """Re-check a printed K_{k,k} witness against the oracle."""
    m = re.search(r"points=\[([\d, ]*)\] ranges=\[([\d, ]*)\]", out)
    pts = [int(v) for v in m[1].split(",") if v.strip()]
    rgs = [int(v) for v in m[2].split(",") if v.strip()]
    if not pts or len(pts) != len(rgs) or len(set(pts)) != len(pts) \
            or len(set(rgs)) != len(rgs):
        return False
    inst = kk_instances.load_instance(path)
    graph = incidences_bruteforce([inst.points[i] for i in pts],
                                  [inst.ranges[j] for j in rgs])
    return graph.edge_count == len(pts) * len(rgs)


def _reference(workload: str):
    try:
        with open(REFERENCE_DIGESTS) as fh:
            return json.load(fh).get(workload)
    except FileNotFoundError:
        return None


def run(workload: str, seed: int, trace: bool, work: str) -> dict:
    tracer = tracing.Tracer() if trace else None
    in_dir, out_dir = os.path.join(work, "in"), os.path.join(work, "out")
    os.makedirs(in_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)

    if tracer:
        tracer.install()
    with (tracer.root("setup") if tracer else contextlib.nullcontext()):
        instances = workloads.build_instances(workload, seed)
        files = {}
        for key, inst in instances.items():
            files[key] = os.path.join(in_dir, f"{key}.json")
            # looked up per call, so the traced save is the one that runs
            kk_instances.save_instance(inst, files[key])
    setup_s = perf_counter() - T_START
    for key in workloads.DERIVED.get(workload, ()):
        files[key] = os.path.join(out_dir, f"{key}.json")
    ops = workloads.script(workload, files)

    results = []
    seen: set[str] = set()
    # The machine's current speed, timed before and after every op; run.py
    # scales each op by the mean of the two loops around it.
    setup_ref = ref_before = reference_loop_s(REFERENCE_LOOPS)
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        ctx = tracer.root(f"op:{op.name}") if tracer else contextlib.nullcontext()
        c0, t0 = process_time(), perf_counter()
        with ctx, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(["--out-dir", out_dir, *op.argv])
            except Exception:   # a crash is a failed op, not a dead run
                rc = None
                err.write(traceback.format_exc())
        seconds = perf_counter() - t0
        cpu = process_time() - c0
        ref_after = reference_loop_s(REFERENCE_LOOPS)
        ref = (ref_before + ref_after) / 2
        ref_before = ref_after
        written = set(os.listdir(out_dir)) - seen
        seen |= written
        results.append({"op": op, "rc": rc, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "seconds": seconds,
                        "cpu": cpu, "ref": ref, "written": sorted(written)})
    wall_s = sum(r["seconds"] for r in results)
    cpu_s = sum(r["cpu"] for r in results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    reference = _reference(workload) if seed == workloads.DEFAULT_SEED else None
    input_digests = _digests(in_dir, os.listdir(in_dir))
    problems = []
    if reference is not None and reference.get("setup") != input_digests:
        problems.append("setup: instance files differ from the reference")
    op_records = []
    for r in results:
        op, rc, stdout = r["op"], r["rc"], r["stdout"]
        digests = _digests(out_dir, r["written"])
        verdict = failure = None
        if op.verdict is not None and rc == cli.EXIT_UNKNOWN:
            verdict = "unknown"
        elif rc != op.exit_code:
            failure = f"exit {rc}, expected {op.exit_code}"
        else:
            verdict = op.verdict
            failure = op.check(stdout)
            if failure is None and op.witness \
                    and not _witness_ok(files[op.witness], stdout):
                failure = "witness fails the oracle re-check"
        if failure is None and reference is not None \
                and reference.get(op.name) != digests:
            failure = "output files differ from the reference digests"
        if failure:
            problems.append(f"{op.name}: {failure}")
        op_records.append({"name": op.name, "rc": rc, "seconds": r["seconds"],
                           "ref": r["ref"],
                           "stdout": stdout, "digests": digests,
                           "verdict": verdict, "failed": failure is not None})

    result = {"workload": workload, "seed": seed, "trace": trace,
              "setup_s": setup_s, "setup_ref": setup_ref,
              "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mb, "input_digests": input_digests,
              "ops": op_records, "problems": problems}
    if tracer:
        tracer.write_jsonl(os.path.join(work, "spans.jsonl"))
        result["layers"] = tracing.layer_metrics(tracer.spans)
    return result


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    args = p.parse_args()
    result = run(args.workload, args.seed, bool(args.trace), args.work)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
