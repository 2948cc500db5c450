"""Run a labelled set of benchmark runs and write one results file.

    python3 perfbench/runset.py --label seed

For each of the seeds 1 to 10, every workload of BENCHMARK.json runs once
untraced for ``run_seconds``, each in a fresh process (``perfbench/run.py``);
then every workload runs once traced, with seed 1, and each workload of
``KNOWN_DEFECTS`` runs once untraced, with seed 1, so that its failure stays
on record until the program is fixed. The results
file ``perfbench/results/BENCH_<label>.json`` holds the environment record,
every run's result and detail record, and per workload and metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (quartile distance over median) next to the metric's bound in
BENCHMARK.json. Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300
SEEDS = range(1, 11)
# workloads outside BENCHMARK.json because the program fails their checks
KNOWN_DEFECTS = {"pairs-k2": "m = 49 Vandermonde solve is singular (ROADMAP item 1)"}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    detail = next((json.loads(x[len("DETAIL "):]) for x in lines if x.startswith("DETAIL ")), {})
    return {"seed": seed, "process_s": elapsed, "result": json.loads(lines[-1]), "detail": detail}


def summarize(values: list, bound) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else None
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["spread_below_third_of_bound"] = spread is not None and spread < bound / 3
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            runs[w].append(run_once(w, seed, seconds, 0))
            res = runs[w][-1]["result"]
            print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    traced = {w: run_once(w, SEEDS[0], seconds, 1) for w in workloads}
    defects = {}
    for w, why in KNOWN_DEFECTS.items():
        run = run_once(w, SEEDS[0], seconds, 0)
        metrics = run["detail"].get("metrics", {})
        defects[w] = {"why": why, "correct": run["result"]["correct"],
                      **{k: metrics[k]["value"] for k in ("fail_frac", "max_rel_err") if k in metrics},
                      "run": run}
        print(f"known defect {w}: correct={run['result']['correct']} " + " ".join(
            f"{k}={defects[w][k]:.4g}" for k in ("fail_frac", "max_rel_err") if k in defects[w]),
              flush=True)

    report = {
        "label": args.label,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "environment": next(iter(runs.values()))[0]["detail"].get("environment"),
        "workloads": {},
    }
    print(f"\n{'workload':<12} {'metric':<22} {'median':>12} {'unit':<6} {'spread':>8} {'bound':>6}")
    for w in workloads:
        names = {}
        for r in runs[w]:
            for k, v in r["detail"].get("metrics", r["result"]["metrics"]).items():
                names.setdefault(k, v["unit"])
        summary = {}
        for name, unit in names.items():
            values = [r["detail"]["metrics"][name]["value"] for r in runs[w]
                      if name in r["detail"].get("metrics", {})]
            summary[name] = {"unit": unit, **summarize(values, bounds.get(name))}
            s = summary[name]
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            bound = "" if s.get("bound") is None else f"{s['bound']:.2f}"
            print(f"{w:<12} {name:<22} {s['median']:>12.5g} {unit:<6} {spread:>8} {bound:>6}")
        report["workloads"][w] = {
            "failed_runs": sum(not r["result"]["correct"] for r in runs[w]),
            "summary": summary,
            "runs": runs[w],
            "traced": traced[w],
        }

    report["known_defects"] = defects

    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
