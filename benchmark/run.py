#!/usr/bin/env python3
"""Layer-ladder benchmark for pwss: builds benchmark/ and runs it.

One run (the interface BENCHMARK.json's "command" is called with):

  python3 benchmark/run.py --workload ws_wire --seed 3 --seconds 4 --trace 0

prints every metric as `workload metric value unit`, then, as the last line,
one JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics untraced (--trace 0), the per-layer metrics traced (--trace 1).

  python3 benchmark/run.py                  # all four workloads, untraced
  python3 benchmark/run.py --runs 10 --out set1.jsonl   # seeds 1..10
  python3 benchmark/run.py --compare set1.jsonl set2.jsonl

--out appends one record per run; --compare checks two such result sets
against each end-to-end metric's bound in BENCHMARK.json. See README.md.
"""

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
BUILD = ROOT / "build-bench" / "cmake"
BINARY = BUILD / "pwss_benchmark"
WORKLOADS = ["ws_wire", "uniform_wire", "zipf_write_wire", "ws_bulk"]
BACKENDS = ["m1", "m2"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (a no-op when cached) and builds only the benchmark."""
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "pwss_benchmark", "-j", "2"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def parse_output(text):
    """The binary's records: metric/rung/count lines."""
    out = {"metric": {}, "rung": {}, "count": {}}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "metric" and len(parts) == 4:
            out["metric"][parts[1]] = (float(parts[2]), parts[3])
        elif parts[0] == "rung" and len(parts) == 4:
            out["rung"].setdefault(parts[1], []).append(
                (int(parts[2]), int(parts[3])))
        elif parts[0] == "count" and len(parts) == 3:
            out["count"][parts[1]] = int(parts[2])
    return out


# ---- spans -> per-layer self time -----------------------------------------------


def union_ns(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, end = 0, lo
    for s, e in sorted(intervals):
        s, e = max(s, end), min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


def self_times(spans):
    """{span_id: self ns}: duration minus the time its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent_id"], []).append(
            (s["start_ns"], s["end_ns"]))
    return {s["span_id"]: (s["end_ns"] - s["start_ns"]) -
            union_ns(children.get(s["span_id"], []), s["start_ns"], s["end_ns"])
            for s in spans}


def ladder(raw, spans):
    """Per-layer metrics from the rungs: each layer's cost per op is the
    difference between the rung above it and the rung below it."""
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def us_per_op(rung):
        # A sub-rung's time is what its batch spans cover: its root span's
        # duration minus the root's own self time (the harness's checking).
        # Roots and "rung" records pair up in the order they ran.
        roots = sorted(by_name[rung], key=lambda s: s["start_ns"])
        return statistics.median(
            (r["end_ns"] - r["start_ns"] - own[r["span_id"]]) / 1e3 / ops
            for r, (ops, _) in zip(roots, raw["rung"][rung], strict=True))

    def p50_us(name):
        return statistics.median(s["end_ns"] - s["start_ns"]
                                 for s in by_name[name]) / 1e3

    def mutation_share(rung):
        ops = sum(o for o, _ in raw["rung"][rung])
        return sum(m for _, m in raw["rung"][rung]) / ops

    m = {}
    for b in BACKENDS:
        core = us_per_op(f"{b}.core")
        m[f"{b}.core.us_per_op"] = core
        if f"{b}.net.pipe" in raw["rung"]:
            pipe = us_per_op(f"{b}.driver.pipe")
            m[f"{b}.net.us_per_op"] = us_per_op(f"{b}.net.pipe") - pipe
            m[f"{b}.driver.submit_p50_us"] = p50_us(f"{b}.driver.block.op")
            m[f"{b}.net.rtt_overhead_us"] = (p50_us(f"{b}.net.block.op") -
                                              m[f"{b}.driver.submit_p50_us"])
            if f"{b}.nodur.pipe" in raw["rung"]:
                nodur = us_per_op(f"{b}.nodur.pipe")
                m[f"{b}.store.us_per_mutation"] = (
                    (pipe - nodur) / mutation_share(f"{b}.driver.pipe"))
                m[f"{b}.driver.us_per_op"] = nodur - core
            else:
                m[f"{b}.store.us_per_mutation"] = 0.0
                m[f"{b}.driver.us_per_op"] = pipe - core
        else:
            m[f"{b}.net.us_per_op"] = 0.0
            m[f"{b}.net.rtt_overhead_us"] = 0.0
            m[f"{b}.store.us_per_mutation"] = 0.0
            m[f"{b}.driver.us_per_op"] = us_per_op(f"{b}.driver.run") - core
            m[f"{b}.driver.submit_p50_us"] = p50_us(f"{b}.driver.run.batch")
    m["sort.us_per_op"] = us_per_op("sort")
    m["ref.avl.core_us_per_op"] = us_per_op("ref.avl.core")

    # Diagnostics: every rung's cost per op and every span name's self time.
    diag = {f"rung.{r}.us_per_op": us_per_op(r) for r in raw["rung"]}
    for name, group in sorted(by_name.items()):
        diag[f"self.{name}.ms"] = sum(own[s["span_id"]] for s in group) / 1e6
    return m, diag


# ---- one run --------------------------------------------------------------------


def run_once(spec, workload, seed, seconds, trace):
    """Runs the binary once; returns (result dict, text lines)."""
    rel = Path("build-bench") / f"run-{os.getpid()}"
    work = ROOT / rel
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--dir={rel}"]
        if trace:
            cmd.append(f"--trace={rel / 'trace.jsonl'}")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        raw = parse_output(proc.stdout)
        spans = []
        if trace and proc.returncode == 0:
            with open(work / "trace.jsonl") as f:
                spans = [json.loads(line) for line in f]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = {k: v for k, (v, _) in raw["metric"].items()}
    diag = {}
    if trace and proc.returncode == 0:
        layer, diag = ladder(raw, spans)
        values.update(layer)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    count = raw["count"]
    correct = (proc.returncode == 0 and len(metrics) == len(wanted) and
               count.get("wrong_results", 1) == 0 and
               count.get("validate_failures", 1) == 0)
    lines = [f"{workload} {name} {v:.6g} {raw['metric'][name][1]}"
             for name, v in sorted(values.items()) if name in raw["metric"]]
    lines += [f"{workload} {name} {v:.6g} us" for name, v in sorted(values.items())
              if name not in raw["metric"]]
    lines += [f"{workload} {name} {v:.6g} -" for name, v in sorted(diag.items())]
    lines += [f"{workload} {name} {v} count" for name, v in sorted(count.items())]
    result = {"correct": correct, "attempted": count.get("attempted", 0),
              "failed": count.get("failed", 0), "metrics": metrics}
    if not correct:
        log(f"run.py: {workload} seed {seed}: rc={proc.returncode}, "
            f"{len(metrics)}/{len(wanted)} metrics, counts {count}")
    return result, lines


# ---- result sets ----------------------------------------------------------------


def load_set(path):
    """{(workload, metric): [values]} from a --out file (untraced runs)."""
    values = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            for name, m in rec["metrics"].items():
                values.setdefault((rec["workload"], name), []).append(m["value"])
    return values


def spread(v):
    """Interquartile distance as a share of the median."""
    if len(v) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(v, n=4)
    med = statistics.median(v)
    return (q3 - q1) / med if med else 0.0


def compare(spec, path_a, path_b):
    """Each (end-to-end metric, workload) pair: agree, worse or unresolved
    (README.md "Comparing two result sets"). A is the parent, B the
    change."""
    a, b = load_set(path_a), load_set(path_b)
    worse = 0
    print(f"{'workload':16} {'metric':18} {'median A':>12} {'median B':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        for w in WORKLOADS:
            key = (w, m["name"])
            if key not in a or key not in b:
                continue
            ma, mb = statistics.median(a[key]), statistics.median(b[key])
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (mb - ma) / ma if ma else 0.0
            wide = max(spread(a[key]), spread(b[key]))
            if m["better"] == "lower":
                all_better = max(b[key]) < min(a[key])
            else:
                all_better = min(b[key]) > max(a[key])
            if all_better:
                verdict = "agree"
            elif m["name"] != "setup_s" and wide > m["bound"]:
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict = "worse"
            else:
                verdict = "agree"
            worse += verdict == "worse"
            print(f"{w:16} {m['name']:18} {ma:12.6g} {mb:12.6g} "
                  f"{change:+8.3f} {wide:7.3f} {m['bound']:6.2f}  {verdict}")
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--runs", type=int, default=1,
                    help="without --workload: seeds seed..seed+runs-1")
    ap.add_argument("--out", help="append one JSON record per run")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    seconds = args.seconds or spec["run_seconds"]
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"run.py: build failed: {e}")
        return 1

    if args.workload:
        plan = [(args.workload, args.seed)]
    else:
        plan = [(w, args.seed + i) for i in range(args.runs) for w in WORKLOADS]
    ok = True
    result = None
    for workload, seed in plan:
        start = time.monotonic()
        try:
            result, lines = run_once(spec, workload, seed, seconds, args.trace)
        except (subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
            log(f"run.py: {workload} seed {seed} failed: {e!r}")
            return 1
        print("\n".join(lines), flush=True)
        log(f"run.py: {workload} seed {seed} took {time.monotonic() - start:.1f}s")
        ok = ok and result["correct"]
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": args.trace, **result}) + "\n")
    if args.workload:
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
