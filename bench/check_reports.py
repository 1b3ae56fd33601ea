#!/usr/bin/env python3
"""Usage: python3 bench/check_reports.py [dir, default bench-out]

Benches declare and evaluate their own gates (obs::BenchReport::gate). This
refuses a report with a missing cryosoc-bench-v1 field, a failed gate or a
quarantined arc, and a trace whose B/E events do not balance per thread."""
import glob, json, os, sys

out = sys.argv[1] if len(sys.argv) > 1 else "bench-out"
fields = ("schema", "bench", "wall_seconds", "threads", "hardware_concurrency",
          "git", "results", "gates", "metrics")
problems = []
reports = sorted(glob.glob(os.path.join(out, "BENCH_*.json")))
traces = sorted(glob.glob(os.path.join(out, "*.trace.json")))
problems += [f"no {kind} in {out}" for kind, found in
             (("BENCH_*.json", reports), ("*.trace.json", traces)) if not found]
for path in reports:
    doc = json.load(open(path))
    problems += [f"{path}: missing {f}" for f in fields if f not in doc]
    if doc.get("schema") != "cryosoc-bench-v1" or doc.get("threads", 0) < 1:
        problems.append(f"{path}: not a cryosoc-bench-v1 report")
    for g in doc.get("gates", []):
        if "skipped" not in g and g.get("pass") is not True:
            problems.append(f"{path}: gate {g['name']} = {g['value']} "
                            f"failed ({g['op']} {g['bound']})")
    if doc.get("metrics", {}).get("counters", {}).get("charlib.failed_arcs"):
        problems.append(f"{path}: bench ran with quarantined arcs")
    print(f"{path}: {len(doc.get('gates', []))} gates")
for path in traces:
    events, depth = json.load(open(path))["traceEvents"], {}
    for ev in events:
        tid = ev["tid"]
        depth[tid] = depth.get(tid, 0) + (1 if ev["ph"] == "B" else -1)
        if depth[tid] < 0:
            problems.append(f"{path}: E before B on thread {tid}")
            break
    if not events or any(depth.values()):
        problems.append(f"{path}: empty trace or unbalanced spans {depth}")
    print(f"{path}: {len(events)} events")
print("\n".join(["FAIL: " + p for p in problems] or ["ok"]))
sys.exit(1 if problems else 0)
