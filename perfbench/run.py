"""psgrowth benchmark: one workload, one run.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a fresh worker
process (one thread, PYTHONHASHSEED derived from --seed); several further
worker processes only set up, so that set-up time is a median.  The last
line of standard output is the result object; the line before it holds
the run's diagnostics (seeds, reference-loop time, steal ticks, failures).
Exits non-zero without a result when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("enumerate", "certify_tree", "graph")
# set-up is sampled in its own processes, some before the workload and some
# after it, so that the samples span the run's changes in host speed
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 2
DEADLINE_S = 170



def metric_units(kind: str) -> dict:
    """Names and units of the end_to_end or per_layer metrics, as declared
    in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def steal_ticks():
    """The host's cumulative steal ticks from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except OSError:
        return None


def run_worker(args, extra: list, result: Path, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", str(ROOT / "src"), "--workdir", str(result.parent / "work"),
           "--result", str(result)] + extra
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(result.read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    sys.path.insert(0, str(HERE))
    import selftest

    if selftest.run():
        print("the reference self-test failed", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "psgrowth" / "__init__.py").is_file():
        print(f"no psgrowth source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    hash_seed = args.seed % 2**32
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    steal_before = steal_ticks()
    def setup_probe(i: int) -> float:
        return run_worker(args, ["--setup-only"], out / f"setup{i}.json", env,
                          deadline)["setup_s"]

    try:
        setups = [setup_probe(i) for i in range(SETUP_PROBES_BEFORE)]
        res = run_worker(args, [], out / "result.json", env, deadline)
        setups.append(res["setup_s"])
        setups += [setup_probe(SETUP_PROBES_BEFORE + i) for i in range(SETUP_PROBES_AFTER)]
    except subprocess.TimeoutExpired:
        print("benchmark run exceeded its deadline", file=sys.stderr)
        return 3
    steal_after = steal_ticks()

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "hash_seed": hash_seed,
        "trace": args.trace,
        "rounds": res["rounds"],
        "jobs_per_round": res["jobs_per_round"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "wrong_outputs": res["wrong_outputs"],
        "failures": res["failures"],
        "reference_loop_s": res["reference_loop_s"],
        "steal_ticks": (steal_after - steal_before
                        if steal_before is not None and steal_after is not None else None),
        "setup_samples_s": setups,
        "wall_s": res["wall_s"],
        "wall_rel": res["wall_rel"],
        "round_wall_s": res["round_wall_s"],
        "spans_file": res.get("spans_file"),
    }
    print(json.dumps({"run_info": info}))

    if args.trace:
        values, units = res["per_layer"], metric_units("per_layer")
    else:
        values = {"wall_s": res["wall_s"], "wall_rel": res["wall_rel"],
                  "peak_rss_mb": res["peak_rss_mb"], "setup_s": statistics.median(setups)}
        units = metric_units("end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    # a job whose output fails its check counts as failed and makes the run
    # incorrect; a job that raises counts as failed only
    print(json.dumps({"correct": res["wrong_outputs"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
