#!/usr/bin/env python3
"""kernel_rule: check the committed BENCH_kernels.json against the SIMD rule.

A SIMD kernel instantiation stays only if it reads >= 1.10x its scalar
kernel at some element count >= kernels::kMinCount (docs/kernels.md, "The
rule"). kernels_bench writes one row per (kernel, width, count, isa); this
tool reads those rows and times nothing. It fails when

  * the document lacks its `host` record or its `detected_isa` field
    (a row that cannot name its host backs no decision),
  * some SIMD (kernel, width, isa) never reaches the bar at any count, or
  * some SIMD row reads under FLOOR: kernels_bench labels each row with
    the tier that runs at its count, so such a row is a count where the
    resolver picks a SIMD form slower than scalar (docs/kernels.md,
    "Short runs").

The rule asks for the bar in each of >= 3 Release runs; the committed file
is one of them, so this check keeps a regenerated file honest, and the
runs behind a keep-or-delete decision are recorded in docs/kernels.md.

Usage:
    tools/kernel_rule.py [FILE] [--self-test]

FILE defaults to BENCH_kernels.json at the repository root. Exits 0 when
the file keeps the rule, 1 otherwise.
"""
import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BAR = 1.10
FLOOR = 0.90
MIN_COUNT = 16  # kernels::kMinCount


def violations(doc):
    """Each way `doc` breaks the rule, as a message; empty when it keeps it."""
    out = []
    if not isinstance(doc.get("host"), dict) or not doc["host"]:
        out.append("no host record")
    if not doc.get("detected_isa"):
        out.append("no detected_isa field")
    best = {}
    for row in doc.get("rows", []):
        if row["isa"] == "scalar" or row["count"] < MIN_COUNT:
            continue
        if row["speedup_vs_scalar"] < FLOOR:
            out.append("%s w%d %s n=%d: %.3fx, under %.2fx"
                       % (row["kernel"], row["width"], row["isa"],
                          row["count"], row["speedup_vs_scalar"], FLOOR))
        key = (row["kernel"], row["width"], row["isa"])
        best[key] = max(best.get(key, 0.0), row["speedup_vs_scalar"])
    for (kernel, width, isa), speedup in sorted(best.items()):
        if speedup < BAR:
            out.append("%s w%d %s: best %.3fx at any count, under %.2fx"
                       % (kernel, width, isa, speedup, BAR))
    return out


def self_test():
    def row(kernel, count, isa, speedup):
        return {"kernel": kernel, "width": 4, "count": count, "isa": isa,
                "ns_per_elem": 0.1, "speedup_vs_scalar": speedup}

    good = {"host": {"cpu_model": "x"}, "detected_isa": "avx2",
            "rows": [row("swap", 16, "scalar", 1.0),
                     row("swap", 16, "avx2", 1.05),
                     row("swap", 64, "avx2", 1.10),
                     row("i32->i64", 64, "avx2", 2.0)]}
    assert violations(good) == [], violations(good)
    slow = dict(good, rows=good["rows"] + [row("i64->i32", 16, "avx2", 1.09),
                                           row("i64->i32", 8, "avx2", 3.0)])
    found = violations(slow)
    assert len(found) == 1 and found[0].startswith("i64->i32 w4 avx2"), found
    short = dict(good, rows=good["rows"] + [row("swap", 16, "avx2", 0.89)])
    found = violations(short)
    assert len(found) == 1 and found[0].startswith("swap w4 avx2 n=16"), found
    assert violations(dict(good, host={})) == ["no host record"]
    no_isa = {k: v for k, v in good.items() if k != "detected_isa"}
    assert violations(no_isa) == ["no detected_isa field"]
    print("kernel_rule self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("file", nargs="?",
                    default=os.path.join(ROOT, "BENCH_kernels.json"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return 0
    with open(args.file) as f:
        found = violations(json.load(f))
    for message in found:
        print("kernel_rule: %s: %s" % (args.file, message))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
