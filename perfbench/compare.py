#!/usr/bin/env python3
"""Runs the benchmark over several seeds and compares sets of runs.

Run from the repository root:

  python3 perfbench/compare.py run --workload rcv1-long --seeds 1-10 --out a.jsonl
  python3 perfbench/compare.py pairs --workload rcv1-long --seeds 1-10 --inject 0.15 \
      --out a.jsonl --out-b b.jsonl
  python3 perfbench/compare.py spread a.jsonl
  python3 perfbench/compare.py diff a.jsonl b.jsonl

`run` appends one result line per seed to --out. `pairs` runs each seed
twice, plain into --out and with --inject's busy-wait after every
measured call into --out-b, alternating which runs first, so both sides
of a pair meet the same machine: the sensitivity check. On a service
workload only the generator's calls (the latency phase) are slowed: the
closed loop runs in the unmodified sssj client. `spread`
prints, per metric, the median and the quartile spread
(Q3 - Q1) / median, the statistic the bounds in BENCHMARK.json are
checked against, and flags a spread above a third of the bound.
`diff` compares two sets of runs of the same workload and flags an
end-to-end metric when the second set's median is worse than the
first's by more than the metric's bound, or when at least nine in ten
runs paired by seed got worse and the median paired change is worse by
more than a third of the bound. It exits 1 if any metric is flagged or
any run of the second set failed its checks.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for m in spec["end_to_end"]:
        out[m["name"]] = (m["better"], m.get("bound"))
    for m in spec["per_layer"]:
        out.setdefault(m["name"], (m["better"], None))
    return spec, out


def seeds(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def load(path):
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rows.append(json.loads(line))
    return rows


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, spread


def run_one(spec, args, seed, inject, out):
    cmd = list(spec["command"]) + [
        "--workload", args.workload, "--seed", str(seed),
        "--seconds", str(args.seconds or spec["run_seconds"]),
        "--trace", str(args.trace)]
    if inject:
        cmd += ["--inject", str(inject)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
    if p.returncode != 0 or not last.startswith("{"):
        print(f"seed {seed}: exit {p.returncode}, no result", file=sys.stderr)
        return
    res = json.loads(last)
    res["seed"] = seed
    res["workload"] = args.workload
    res["inject"] = inject
    out.write(json.dumps(res) + "\n")
    out.flush()
    print(f"seed {seed} inject {inject}: correct={res['correct']} " + " ".join(
        f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), file=sys.stderr)


def cmd_run(args):
    spec, _ = bounds()
    with open(args.out, "a") as out:
        for seed in seeds(args.seeds):
            run_one(spec, args, seed, 0, out)


def cmd_pairs(args):
    spec, _ = bounds()
    with open(args.out, "a") as a, open(args.out_b, "a") as b:
        for i, seed in enumerate(seeds(args.seeds)):
            sides = [(0, a), (args.inject, b)]
            for inject, out in sides if i % 2 == 0 else reversed(sides):
                run_one(spec, args, seed, inject, out)


def cmd_spread(args):
    _, bnd = bounds()
    rows = load(args.file)
    bad = [r.get("seed") for r in rows if not r["correct"] or r["failed"]]
    print(f"{len(rows)} runs; runs failing the checks: {bad or 'none'}")
    for name in sorted({k for r in rows for k in r["metrics"]}):
        vals = [r["metrics"][name]["value"] for r in rows if name in r["metrics"]]
        med, spread = stats(vals)
        better, bound = bnd.get(name, ("?", None))
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- spread above bound/3"
        b = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:32s} median {med:14.6g}  spread {spread:7.3f}  bound {b:>5s}{flag}")


def cmd_diff(args):
    _, bnd = bounds()
    a, b = load(args.a), load(args.b)
    flagged = False
    for name in sorted({k for r in a for k in r["metrics"]}):
        better, bound = bnd.get(name, ("?", None))
        if bound is None:
            continue
        va = {r["seed"]: r["metrics"][name]["value"] for r in a if name in r["metrics"]}
        vb = {r["seed"]: r["metrics"][name]["value"] for r in b if name in r["metrics"]}
        if not va or not vb:
            continue
        ma, spread = stats(list(va.values()))
        mb, _ = stats(list(vb.values()))
        sign = -1 if better == "higher" else 1
        change = (mb - ma) / ma if ma else 0.0
        worse = sign * change
        pairs = [s for s in va if s in vb]
        worse_pairs = sum(1 for s in pairs if sign * (vb[s] - va[s]) > 0)
        share = worse_pairs / len(pairs) if pairs else 0.0
        paired = statistics.median(sign * (vb[s] - va[s]) / va[s] for s in pairs) if pairs else 0.0
        mark = ""
        if worse > bound:
            mark = "  REGRESSION (beyond bound)"
        elif len(pairs) >= 10 and share >= 0.9 and paired > bound / 3:
            mark = "  REGRESSION (consistent shift)"
        flagged |= bool(mark)
        print(f"{name:20s} {ma:11.5g} -> {mb:11.5g}  {change:+7.1%}  bound {bound:.2f}"
              f"  spread {spread:.3f}  worse in {worse_pairs}/{len(pairs)}, median paired {paired:+.1%}{mark}")
    failing = [r.get("seed") for r in b if not r["correct"] or r["failed"]]
    if failing:
        print(f"runs failing the checks in the second set: {failing}")
        flagged = True
    sys.exit(1 if flagged else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--inject", type=float, default=0.15)
    p.add_argument("--out", required=True)
    p.add_argument("--out-b", required=True)
    s = sub.add_parser("spread")
    s.add_argument("file")
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    args = ap.parse_args()
    {"run": cmd_run, "pairs": cmd_pairs, "spread": cmd_spread, "diff": cmd_diff}[args.cmd](args)


if __name__ == "__main__":
    main()
