"""One run of one workload, in a fresh single-threaded process started by
run.py with a pinned PYTHONHASHSEED.

Set-up (import psgrowth, parse the generated strings) is timed once; then
one warm-up round with full output checks, then timed rounds of the same
job list until --seconds have passed.  With --trace 1 the timed rounds
record spans, and one further untimed round counts calls.  The result goes
to --result as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import INPUTS  # noqa: E402
from spans import Counter, Timer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPAN_METRICS = [
    "words.product_set", "words.product_set_fp", "spaces.graph_build",
    "hypgeom.translation_length", "energy.minimize", "reduction.reduce_tree",
    "reduction.certify", "reduction.median_split", "periodicity.pingpong",
    "periodicity.extract", "treeapprox.approximate", "treeapprox.distortion",
    "growth.growth_report", "growth.diffuse_pipeline", "cli.job",
]
PRODUCT_SPANS = ("words.product_set", "words.product_set_fp")


def reference_loop() -> int:
    """Fixed pure-Python work (integer arithmetic in a loop) that shares no
    code with psgrowth and allocates nothing that grows; timed beside each
    job to see how fast the host runs Python at that moment.  Of the loops
    tried (dict updates, object hashing into a set, random reads of a large
    list, this one) it tracked job times best, and it does not depend on
    the heap left behind by earlier jobs."""
    acc = 0
    for i in range(50000):
        acc = (acc * 31 + i) & 0xFFFF
    return acc


def timed_reference() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


def run_round(jobs, rec, round_no: int, full: bool, sticky: dict, failures: list):
    """One pass over the job list.  Returns the time spent in psgrowth, the
    same with each job divided by the reference loop timed beside it, the
    jobs that failed, how many of those returned a wrong output (rather than
    raising), and the reference-loop times."""
    wall = rel = 0.0
    failed = wrong = 0
    refs = [timed_reference()]
    for name, run, check in jobs:
        rec.begin_job(name, round_no)
        busy = rec.busy
        error = kind = None
        try:
            out = run(rec)
        except Exception:  # a job that raises is a failed job; keep running
            error, kind = traceback.format_exc(limit=3), "raised"
        rec.end_job()
        spent = rec.busy - busy
        refs.append(timed_reference())
        wall += spent
        rel += spent / ((refs[-2] + refs[-1]) / 2)
        if error is None and name in sticky:
            kind = sticky[name]
        elif error is None:
            try:
                check(out, full)
            except Exception:
                error, kind = traceback.format_exc(limit=3), "wrong"
        if kind is None:
            continue
        failed += 1
        wrong += kind == "wrong"
        if full:
            # outputs are deterministic: a fault the full first-round check
            # found stands for every later round
            sticky[name] = kind
        if error is not None and len(failures) < 5:
            failures.append({"job": name, "round": round_no, "error": error})
    return wall, rel, failed, wrong, refs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--src", required=True, help="directory holding the psgrowth package")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    spec = INPUTS[args.workload](args.seed)
    rec = Tracer() if args.trace else Timer()

    start = perf_counter()
    sys.path.insert(0, args.src)
    import psgrowth as psg
    import psgrowth.cli  # noqa: F401  (the CLI jobs call psgrowth.cli.main)

    jobs = WORKLOADS[args.workload](psg, spec, rec, workdir)
    setup_s = perf_counter() - start
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    sticky: dict = {}
    failures: list = []
    attempted = failed = wrong = 0
    walls, rels, refs = [], [], []
    round_no = 0
    clock = None
    while not walls or perf_counter() - clock < args.seconds:
        gc.collect()
        wall, rel, bad, bad_out, ref_times = run_round(jobs, rec, round_no, round_no == 0,
                                                       sticky, failures)
        attempted += len(jobs)
        failed += bad
        wrong += bad_out
        if round_no == 0:
            clock = perf_counter()
        else:
            walls.append(wall)
            rels.append(rel)
            refs.extend(ref_times)
        round_no += 1

    timed = range(1, round_no)
    result.update({
        "attempted": attempted,
        "failed": failed,
        "wrong_outputs": wrong,
        "failures": failures,
        "rounds": len(walls),
        "jobs_per_round": len(jobs),
        "round_wall_s": walls,
        "wall_s": statistics.median(walls),
        "wall_rel": statistics.median(rels),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reference_loop_s": statistics.median(refs),
    })

    if args.trace:
        sums: dict = {}
        for s in rec.spans:
            key = (s["name"], s["round"])
            sums[key] = sums.get(key, 0.0) + s["end"] - s["start"]
        layer = {f"{name}_s": statistics.median(sums.get((name, r), 0.0) for r in timed)
                 for name in SPAN_METRICS}
        layer["words.parse_s"] = sums.get(("words.parse", None), 0.0)

        counter = Counter()
        saved = counter.install(psg)
        try:
            gc.collect()
            run_round(jobs, counter, -1, False, {}, failures)
        finally:
            Counter.uninstall(saved)
        c = counter.counts
        products = counter.total("words.mul", within=PRODUCT_SPANS)
        product_s = layer["words.product_set_s"] + layer["words.product_set_fp_s"]
        distinct = c["words.distinct_elements"]
        layer.update({
            "words.products_formed": products,
            "words.distinct_elements": distinct,
            "words.distinct_per_product": distinct / products if products else 0.0,
            "words.ns_per_product": 1e9 * product_s / products if products else 0.0,
            "words.mul_calls": counter.total("words.mul"),
            "words.inverse_calls": counter.total("words.inverse"),
            "spaces.dist_calls": counter.total("spaces.dist"),
            "spaces.geodesic_calls": counter.total("spaces.geodesic"),
            "spaces.act_calls": counter.total("spaces.act"),
            "spaces.graph_build_peak_mb": counter.graph_build_peak / 2**20,
            "spaces.delta_quadruples": c["spaces.delta_quadruples"],
            "hypgeom.translation_length_calls": counter.total("hypgeom.translation_length"),
            "energy.descent_steps": c["energy.descent_steps"],
            "energy.energy_at_calls": counter.total("energy.energy_at"),
            "reduction.peel_rounds": c["reduction.peel_rounds"],
            "reduction.certify_pairs": c["reduction.certify_pairs"],
            "periodicity.pingpong_products": c["periodicity.pingpong_products"],
            "treeapprox.distortion_pairs": c["treeapprox.distortion_pairs"],
            "cli.report_bytes": c["cli.report_bytes"],
        })
        result["per_layer"] = layer
        spans_path = workdir / "spans.json"
        spans_path.write_text(json.dumps(rec.spans))
        result["spans_file"] = str(spans_path)

    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
