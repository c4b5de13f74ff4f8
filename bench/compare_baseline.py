#!/usr/bin/env python3
"""Compare two pwss-bench-v1 JSON Lines files (see bench/bench_util.hpp).

Usage:
    compare_baseline.py BASELINE CURRENT [--threshold=0.10] [--report-only]
                        [--only=REGEX]

Records are keyed by (bench, panel, backend, metric, params); `rev` and
`ts` attribution fields are ignored for matching and tolerated when absent
(older baselines don't carry them). Several records under one key (e.g.
repeated runs appended to the same file) are median-reduced.

Metric direction is inferred from the name: *_per_sec is higher-better,
ns_* / *_ns is lower-better. Counter-shaped metrics (hits_*, misses,
share_*) are NEUTRAL: they describe workload shape (e.g. the per-segment-
depth probe counters from bench_micro's probe_depth panel), not speed, so
they are shown informationally and never flagged as regressions. The exit
code is nonzero when any shared series regressed by more than the
threshold fraction, unless --report-only is given.

--only=REGEX restricts the comparison to series whose formatted key
(bench/panel/backend/metric[params]) matches the regex — the mechanism CI
uses to GATE on a stable metric subset with a generous threshold (big
enough to absorb runner-vs-recording-machine variance, small enough to
catch a hang or an order-of-magnitude regression) while the full table
stays report-only.
"""

import json
import re
import statistics
import sys


def load(path):
    """-> {key: [values]}; key = (bench, panel, backend, metric, params)."""
    series = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as e:
        sys.stderr.write(f"compare_baseline: cannot open {path}: {e}\n")
        sys.exit(2)
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                sys.stderr.write(
                    f"compare_baseline: {path}:{lineno}: skipping "
                    f"unparseable line\n")
                continue
            if rec.get("schema") != "pwss-bench-v1":
                continue
            params = tuple(sorted(rec.get("params", {}).items()))
            key = (rec.get("bench", "?"), rec.get("panel", "?"),
                   rec.get("backend", "?"), rec.get("metric", "?"), params)
            series.setdefault(key, []).append(float(rec["value"]))
    return series


def is_neutral(panel, metric):
    """Workload-shape counters: reported, never gated on.

    The recovery panel (bench_micro) is single-shot, fsync-bound
    wall-clock bandwidth — far too machine-dependent to gate on.
    """
    return (panel == "recovery"
            or metric.startswith("hits_") or metric.startswith("share_")
            or metric == "misses")


def higher_is_better(metric):
    if "per_sec" in metric:
        return True
    if metric.startswith("ns") or metric.endswith("ns") or "ns_" in metric:
        return False
    return True  # unknown metrics default to higher-better


def fmt_key(key):
    bench, panel, backend, metric, params = key
    p = ",".join(f"{k}={v:g}" for k, v in params)
    return f"{bench}/{panel}/{backend}/{metric}" + (f"[{p}]" if p else "")


def main(argv):
    threshold = 0.10
    report_only = False
    only = None
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg.startswith("--only="):
            only = re.compile(arg.split("=", 1)[1])
        elif arg == "--report-only":
            report_only = True
        elif arg in ("-h", "--help"):
            sys.stdout.write(__doc__)
            return 0
        else:
            paths.append(arg)
    if len(paths) != 2:
        sys.stderr.write(__doc__)
        return 2

    base = load(paths[0])
    cur = load(paths[1])
    if only is not None:
        base = {k: v for k, v in base.items() if only.search(fmt_key(k))}
        cur = {k: v for k, v in cur.items() if only.search(fmt_key(k))}
    shared = sorted(set(base) & set(cur))
    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))

    regressions = []
    print(f"{'series':<72} {'baseline':>14} {'current':>14} {'delta':>8}")
    for key in shared:
        b = statistics.median(base[key])
        c = statistics.median(cur[key])
        metric = key[3]
        if b == 0:
            delta = 0.0
        elif higher_is_better(metric):
            delta = (c - b) / b
        else:
            delta = (b - c) / b  # improvement positive for lower-better too
        flag = ""
        if is_neutral(key[1], metric):
            flag = "  (info)"
        elif delta < -threshold:
            flag = "  << REGRESSION"
            regressions.append((key, delta))
        print(f"{fmt_key(key):<72} {b:>14.2f} {c:>14.2f} "
              f"{delta * 100:>+7.1f}%{flag}")
    for key in only_base:
        print(f"{fmt_key(key):<72} {'(baseline only — series dropped?)'}")
    for key in only_cur:
        print(f"{fmt_key(key):<72} {'(new series)'}")

    if not shared:
        sys.stderr.write("compare_baseline: no shared series to compare\n")
        return 0 if report_only else 2
    if regressions:
        print(f"\n{len(regressions)} series regressed beyond "
              f"{threshold * 100:.0f}%")
        return 0 if report_only else 1
    print("\nno regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
