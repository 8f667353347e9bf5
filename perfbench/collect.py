"""Run the benchmark over several seeds and summarize, or compare two summaries.

    python3 perfbench/collect.py run --seeds 1-10 --out perfbench/BENCH_name.json
    python3 perfbench/collect.py compare perfbench/BENCH_seed.json perfbench/BENCH_name.json

`run` calls perfbench/run.py once per workload of BENCHMARK.json, seed and
trace mode, with the run length of BENCHMARK.json, and writes each metric's
values, median, quartiles and spread (quartile distance over median) with the
environment.  Untraced holevo-sweep runs add their per-size analyze medians.
`compare` prints every metric of two summaries side by side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "seeds": {}, "workloads": {}}
    for trace, seeds in ((0, _seeds(args.seeds)), (1, _seeds(args.trace_seeds))):
        summary["seeds"][f"trace{trace}"] = seeds
        if not seeds:
            continue
        for workload in (w["name"] for w in spec["workloads"]):
            collected: dict[str, list[float]] = {}
            units: dict[str, str] = {}
            attempted = failed = 0
            for seed in seeds:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
                subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
                record = json.loads(
                    (ROOT / ".perfbench_results" / f"{workload}-trace{trace}-seed{seed}.json").read_text()
                )
                attempted += record["attempted"]
                failed += record["failed"]
                for name, metric in {**record["metrics"], **record["instance_medians"]}.items():
                    collected.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
                print(f"{workload} trace={trace} seed={seed} failed={record['failed']}/{record['attempted']}",
                      file=sys.stderr, flush=True)
            summary["environment"] = record["environment"]
            entry = summary["workloads"].setdefault(workload, {})
            entry[f"trace{trace}"] = {
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"unit": units[n], **summarize(v)} for n, v in collected.items()},
            }
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print_summary(summary)
    return 0


def print_summary(summary: dict) -> None:
    for workload, modes in summary["workloads"].items():
        for mode, entry in modes.items():
            print(f"{workload} {mode}: failed {entry['failed']} of {entry['attempted']}")
            for name, m in entry["metrics"].items():
                spread = "" if m["spread"] is None else f"  spread {m['spread']:.3f}"
                print(f"  {name:52s} {m['median']:12.6g} {m['unit']}{spread}")


def compare(args) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (args.base, args.new))
    for workload, modes in b["workloads"].items():
        for mode, entry in modes.items():
            base = a["workloads"].get(workload, {}).get(mode, {}).get("metrics", {})
            print(f"{workload} {mode}")
            for name, m in entry["metrics"].items():
                if name not in base:
                    continue
                old, new = base[name]["median"], m["median"]
                change = f"{(new - old) / old:+8.1%}" if old else "     n/a"
                print(f"  {name:52s} {old:12.6g} -> {new:12.6g} {m['unit']:9s} {change}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run every workload over several seeds")
    p_run.add_argument("--seeds", default="1-10", help="seeds of the untraced runs, e.g. 1-10 or 1,4,7 ('' for none)")
    p_run.add_argument("--trace-seeds", default="1-3", help="seeds of the traced runs ('' for none)")
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=run)
    p_cmp = sub.add_parser("compare", help="print the medians of two summaries side by side")
    p_cmp.add_argument("base")
    p_cmp.add_argument("new")
    p_cmp.set_defaults(func=compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
