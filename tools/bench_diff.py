#!/usr/bin/env python3
"""Compare perfbench runs of a parent and a change, metric by metric.

    python3 tools/bench_diff.py PARENT CHANGE
    python3 tools/bench_diff.py --self-test

PARENT and CHANGE are captures of `perfbench/run.py` standard output, any
number of runs each, in the order they were made. Every line holding a JSON
object (from its first '{' on) is one run's result; the `# host {...}` line
perfbench prints before it names the run's workload, so one capture may hold
runs of several workloads. Other lines are ignored. Runs are grouped by
workload, and within a workload the i-th parent run is paired with the i-th
change run, as alternating pairs are recorded.

For each workload, and each end-to-end metric of the repository's
BENCHMARK.json, the report gives both medians, the parent's interquartile
range (inclusive quartiles), the change in percent, how many pairs the change
won in the metric's better direction, and a flag when the change's median is
worse than the parent's by more than the metric's bound. It also totals
attempted and failed operations. The report is Markdown; the exit code is 0
whatever the numbers say (2 on bad input), so this is a reading aid, never a
gate.
"""
import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def parse_runs(lines):
    """The result objects of the runs in `lines`, by workload, in order.

    Runs before any `# host` line are filed under the workload None.
    """
    runs = {}
    current = None
    for line in lines:
        brace = line.find("{")
        if brace < 0:
            continue
        try:
            obj = json.loads(line[brace:])
        except json.JSONDecodeError:
            continue
        if line.lstrip().startswith("#"):
            current = obj.get("workload", current)
            continue
        if "metrics" in obj:
            runs.setdefault(current, []).append(obj)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def compare(parent, change, end_to_end):
    """One row per end-to-end metric present in both sets of runs."""
    if len(parent) != len(change):
        raise ValueError("%d parent runs but %d change runs"
                         % (len(parent), len(change)))
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        pv = [r["metrics"][name]["value"] for r in parent
              if name in r["metrics"]]
        cv = [r["metrics"][name]["value"] for r in change
              if name in r["metrics"]]
        if not pv or len(pv) != len(cv):
            continue
        higher = spec.get("better", "lower") == "higher"
        pm, cm = statistics.median(pv), statistics.median(cv)
        q1, q3 = quartiles(pv)
        delta = (cm - pm) / pm if pm else 0.0
        worse = -delta if higher else delta
        won = sum(1 for p, c in zip(pv, cv) if (c > p if higher else c < p))
        bound = spec.get("bound")
        rows.append({
            "name": name, "unit": spec.get("unit", ""),
            "better": "higher" if higher else "lower",
            "parent": pm, "change": cm, "iqr": q3 - q1,
            "delta": delta, "won": won, "pairs": len(pv), "bound": bound,
            "beyond_bound": bound is not None and worse > bound,
        })
    return rows


def compare_workloads(parent, change, end_to_end):
    """(workload, rows, parent runs, change runs) for every workload."""
    names = list(parent) + [w for w in change if w not in parent]
    out = []
    for w in names:
        p, c = parent.get(w, []), change.get(w, [])
        try:
            rows = compare(p, c, end_to_end)
        except ValueError as err:
            raise ValueError("workload %s: %s" % (w, err)) from None
        out.append((w, rows, p, c))
    return out


def totals(runs):
    attempted = sum(r.get("attempted", 0) for r in runs)
    failed = sum(r.get("failed", 0) for r in runs)
    return attempted, failed


def render(workload, rows, parent, change):
    out = ["### %s" % (workload or "(workload not named)"), "",
           "| metric | better | parent median | change median | Δ % "
           "| parent IQR | pairs won | bound | flag |",
           "|---|---|---|---|---|---|---|---|---|"]
    for r in rows:
        bound = "" if r["bound"] is None else "%g %%" % (100 * r["bound"])
        out.append("| %s (%s) | %s | %.6g | %.6g | %+.1f | %.4g | %d/%d "
                   "| %s | %s |" % (
                       r["name"], r["unit"], r["better"], r["parent"],
                       r["change"], 100 * r["delta"], r["iqr"], r["won"],
                       r["pairs"], bound,
                       "BEYOND BOUND" if r["beyond_bound"] else ""))
    out.append("")
    for label, runs in (("parent", parent), ("change", change)):
        attempted, failed = totals(runs)
        out.append("%s: %d runs, %d operations, %d failed"
                   % (label, len(runs), attempted, failed))
    return "\n".join(out)


def self_test():
    def run(**metrics):
        return json.dumps({"correct": True, "attempted": 10, "failed": 0,
                           "metrics": {k: {"value": v, "unit": "u"}
                                       for k, v in metrics.items()}})

    def host(workload):
        return "# host {\"workload\": \"%s\", \"seed\": 1}" % workload

    spec = [{"name": "setup_s", "better": "lower", "bound": 0.25, "unit": "s"},
            {"name": "msgs_per_s", "better": "higher", "bound": 0.25},
            {"name": "absent", "better": "lower", "bound": 0.1}]
    # Two workloads interleaved, as a loop over workloads per seed records
    # them; "b" must never be paired with or pooled into "a".
    parent_text = [host("a"), "setup_s  5 s", "# a note",
                   run(setup_s=5.0, msgs_per_s=100.0),
                   host("b"), run(setup_s=99.0),
                   host("a"), run(setup_s=6.0, msgs_per_s=100.0),
                   host("a"), run(setup_s=7.0, msgs_per_s=100.0),
                   host("a"), run(setup_s=8.0, msgs_per_s=100.0),
                   "not json {"]
    change_text = [host("a"), run(setup_s=4.0, msgs_per_s=60.0),
                   host("a"), run(setup_s=6.5, msgs_per_s=70.0),
                   host("b"), run(setup_s=1.0),
                   host("a"), run(setup_s=5.0, msgs_per_s=80.0),
                   host("a"), run(setup_s=6.0, msgs_per_s=130.0)]
    parent = parse_runs(parent_text)
    change = parse_runs(change_text)
    assert list(parent) == ["a", "b"], parent
    assert len(parent["a"]) == 4 and len(change["a"]) == 4, (parent, change)
    assert len(parent["b"]) == 1 and len(change["b"]) == 1, (parent, change)
    assert list(parse_runs([run(setup_s=1.0)])) == [None]
    report = compare_workloads(parent, change, spec)
    assert [w for w, _, _, _ in report] == ["a", "b"], report
    rows = {r["name"]: r for r in report[0][1]}
    assert set(rows) == {"setup_s", "msgs_per_s"}, rows
    s = rows["setup_s"]
    assert s["parent"] == 6.5 and s["change"] == 5.5, s
    assert abs(s["iqr"] - 1.5) < 1e-12, s  # inclusive quartiles 5.75, 7.25
    assert s["won"] == 3 and s["pairs"] == 4, s
    assert abs(s["delta"] + 1 / 6.5) < 1e-12 and not s["beyond_bound"], s
    m = rows["msgs_per_s"]
    assert m["parent"] == 100.0 and m["change"] == 75.0, m
    assert m["won"] == 1 and not m["beyond_bound"], m  # exactly -25 %
    b = {r["name"]: r for r in report[1][1]}
    assert set(b) == {"setup_s"} and b["setup_s"]["won"] == 1, b
    change["a"][1]["metrics"]["msgs_per_s"]["value"] = 60.0
    m = {r["name"]: r for r in compare(parent["a"], change["a"], spec)}
    assert m["msgs_per_s"]["change"] == 70.0, m
    assert m["msgs_per_s"]["beyond_bound"], m
    del change["b"]
    try:
        compare_workloads(parent, change, spec)
        raise AssertionError("unequal run counts accepted")
    except ValueError as err:
        assert "workload b" in str(err), err
    text = render("a", list(rows.values()), parent["a"], change["a"])
    assert text.startswith("### a\n"), text
    assert "| setup_s (s) | lower | 6.5 | 5.5 | -15.4 |" in text, text
    assert "parent: 4 runs, 40 operations, 0 failed" in text, text
    with open(BENCHMARK) as f:
        assert json.load(f)["end_to_end"], BENCHMARK
    print("bench_diff self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not args.parent or not args.change:
        ap.error("PARENT and CHANGE are required")
    with open(BENCHMARK) as f:
        end_to_end = json.load(f)["end_to_end"]
    with open(args.parent) as f:
        parent = parse_runs(f)
    with open(args.change) as f:
        change = parse_runs(f)
    try:
        report = compare_workloads(parent, change, end_to_end)
    except ValueError as err:
        print("bench_diff: %s" % err, file=sys.stderr)
        return 2
    print("\n\n".join(render(*entry) for entry in report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
