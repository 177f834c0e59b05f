#!/usr/bin/env python3
"""affinity_check: static shard-affinity lint for the broker's thread model.

The broker's performance model hangs on one invariant: a connection's whole
life happens on one worker core. Conn, SendQueue, and the per-worker
BufferPool arena are single-threaded by construction and carry no locks —
so the *only* thing keeping them correct is that no code path ever touches
them from another thread. This tool is the static half of that contract
(src/util/affinity.h's ThreadOwner asserts are the dynamic half): a
structured-grep pass, wire_lint style, over src/**/*.{h,cc} and the
bench baselines (bench/baselines/**/*.{h,cc}).

The vocabulary is one comment tag on a declaration:

    // thread-domain: worker   single-threaded on its owning worker thread
    // thread-domain: any      callable/usable from any thread
    // thread-domain: signal   safe even in async-signal context

Rules:

  A1 required-decl     the symbols in REQUIRED_DECLS (the broker's
                       concurrency-critical surface) must each carry a
                       thread-domain tag — the contract must be written
                       down, not implied.
  A2 domain-value      a thread-domain tag must name a known domain.
  A3 worker-confinement a worker-domain type may be named (in code —
                       comments, strings and #includes don't count) only
                       inside the worker domain: its own .h/.cc pair or a
                       file that itself declares a worker-domain symbol.
                       Anywhere else is a cross-thread leak unless the
                       line carries `// affinity: ok <reason>` or an
                       allowlist entry ('path | pattern | reason', same
                       format as wire_lint_allow.txt).

Usage:
    tools/affinity_check.py [--root ROOT] [--allowlist FILE] [--self-test]

Exits 0 when clean, 1 on findings or stale allowlist entries.
"""

import argparse
import pathlib
import re
import sys
import tempfile

DEFAULT_ALLOWLIST = "tools/affinity_allow.txt"
SCAN_ROOTS = ("src", "bench/baselines")
SCAN_SUFFIXES = {".h", ".cc"}
SKIP_DIR_NAMES = {"CMakeFiles"}

VALID_DOMAINS = {"worker", "any", "signal"}

# The broker's concurrency-critical surface: every one of these must carry
# an explicit thread-domain tag at its declaration.
REQUIRED_DECLS = {
    "Conn", "SendQueue", "Worker", "Shared", "Broker",  # broker core
    "BufferPool",                                       # per-worker arena
    "flight_record", "flight_arm", "flight_armed", "flight_dump",
    "ArtifactCache",                    # process-wide conversion cache
}

RE_TAG = re.compile(r"//\s*thread-domain:\s*(\S+)")
RE_OK_MARKER = re.compile(r"//\s*affinity:\s*ok\b")
RE_CLASS_DECL = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)")
RE_FN_DECL = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
RE_INCLUDE = re.compile(r"^\s*#\s*include\b")


class AllowEntry:
    def __init__(self, path, pattern, reason, lineno):
        self.path = path
        self.pattern = pattern
        self.reason = reason
        self.lineno = lineno
        self.used = False

    def matches(self, rel_path, line):
        return rel_path == self.path and self.pattern in line


def load_allowlist(path):
    entries = []
    if not path.exists():
        return entries
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|", 2)]
        if len(parts) != 3 or not all(parts):
            print(f"{path}:{lineno}: malformed allowlist entry "
                  f"(want 'path | line-pattern | reason')", file=sys.stderr)
            sys.exit(2)
        entries.append(AllowEntry(parts[0], parts[1], parts[2], lineno))
    return entries


def strip_comments_and_strings(line, in_block_comment):
    """Blank out comment and string-literal contents so the usage scan only
    sees code. Returns (code_text, still_in_block_comment)."""
    out = []
    i = 0
    in_string = None
    while i < len(line):
        ch = line[i]
        nxt = line[i + 1] if i + 1 < len(line) else ""
        if in_block_comment:
            if ch == "*" and nxt == "/":
                in_block_comment = False
                i += 2
            else:
                i += 1
            continue
        if in_string:
            if ch == "\\":
                i += 2
                continue
            if ch == in_string:
                in_string = None
            i += 1
            continue
        if ch == "/" and nxt == "/":
            break
        if ch == "/" and nxt == "*":
            in_block_comment = True
            i += 2
            continue
        if ch in "\"'":
            in_string = ch
            out.append(ch)
            i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block_comment


class Symbol:
    def __init__(self, name, domain, rel, lineno):
        self.name = name
        self.domain = domain
        self.rel = rel
        self.lineno = lineno


def decl_name(code):
    """Symbol a thread-domain tag binds to: the class/struct name on the
    line, else the identifier in front of the first '(' (a function)."""
    m = RE_CLASS_DECL.search(code)
    if m:
        return m.group(1)
    m = RE_FN_DECL.search(code)
    if m:
        return m.group(1)
    return None


def iter_source_files(root):
    for top in SCAN_ROOTS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in SCAN_SUFFIXES:
                continue
            if any(part in SKIP_DIR_NAMES for part in path.parts):
                continue
            yield path


def collect_symbols(root, findings):
    """First pass: harvest thread-domain tags into a symbol table and flag
    malformed domains (A2) and dangling tags."""
    symbols = {}
    worker_files = set()
    for path in iter_source_files(root):
        rel = path.relative_to(root).as_posix()
        in_block = False
        pending = None  # (domain, tag_lineno) awaiting its declaration
        for lineno, raw in enumerate(
                path.read_text(errors="replace").splitlines(), 1):
            tag = RE_TAG.search(raw)
            code, in_block = strip_comments_and_strings(raw, in_block)
            if tag:
                domain = tag.group(1)
                if domain not in VALID_DOMAINS:
                    findings.append(
                        (rel, lineno, "domain-value",
                         f"unknown thread-domain '{domain}' (want "
                         f"{'|'.join(sorted(VALID_DOMAINS))})", raw.strip()))
                else:
                    pending = (domain, lineno)
                    if domain == "worker":
                        worker_files.add(rel)
                continue
            if pending is None or not code.strip():
                continue
            name = decl_name(code)
            if name is not None:
                domain, tag_lineno = pending
                symbols[name] = Symbol(name, domain, rel, tag_lineno)
            # Tag consumed whether or not a name was found: it binds to
            # the next declaration only, never across unrelated code.
            pending = None
    return symbols, worker_files


def check_required(symbols, findings):
    for name in sorted(REQUIRED_DECLS):
        if name not in symbols:
            findings.append(
                ("(global)", 0, "required-decl",
                 f"'{name}' has no `// thread-domain:` tag — the broker's "
                 "concurrency-critical surface must declare its thread "
                 "model", name))


def check_confinement(root, symbols, worker_files, allowlist, findings):
    worker_types = {s.name: s for s in symbols.values()
                    if s.domain == "worker"}
    if not worker_types:
        return
    pattern = re.compile(
        r"\b(" + "|".join(re.escape(n) for n in sorted(worker_types)) + r")\b")
    for path in iter_source_files(root):
        rel = path.relative_to(root).as_posix()
        stem_dir = (path.parent / path.stem).as_posix()
        in_block = False
        for lineno, raw in enumerate(
                path.read_text(errors="replace").splitlines(), 1):
            code, in_block = strip_comments_and_strings(raw, in_block)
            if not code.strip() or RE_INCLUDE.match(code):
                continue
            for m in pattern.finditer(code):
                sym = worker_types[m.group(1)]
                decl_path = root / sym.rel
                own_stem = (decl_path.parent / decl_path.stem).as_posix()
                if rel in worker_files or stem_dir == own_stem:
                    continue
                if RE_OK_MARKER.search(raw):
                    break
                excused = False
                for entry in allowlist:
                    if entry.matches(rel, raw):
                        entry.used = True
                        excused = True
                        break
                if excused:
                    break
                findings.append(
                    (rel, lineno, "worker-confinement",
                     f"'{sym.name}' is thread-domain worker "
                     f"(declared {sym.rel}:{sym.lineno}) but is named "
                     "outside the worker domain — cross-thread use would "
                     "break the one-core-per-connection invariant",
                     raw.strip()))
                break  # one finding per line is enough


def run(root, allowlist, allow_path):
    findings = []
    symbols, worker_files = collect_symbols(root, findings)
    check_required(symbols, findings)
    check_confinement(root, symbols, worker_files, allowlist, findings)

    status = 0
    if findings:
        print(f"affinity_check: {len(findings)} finding(s)\n")
        print("\n".join(f"{rel}:{lineno}: {rule}: {msg}\n    {raw}"
                        for rel, lineno, rule, msg, raw in findings))
        status = 1
    stale = [e for e in allowlist if not e.used]
    if stale:
        print("affinity_check: stale allowlist entries "
              "(nothing matches — delete them):")
        for e in stale:
            print(f"  {allow_path}:{e.lineno}: {e.path} | {e.pattern}")
        status = 1
    if status == 0:
        tagged = ", ".join(
            f"{s.name}={s.domain}" for s in sorted(
                symbols.values(), key=lambda s: s.name))
        print(f"affinity_check: clean ({len(symbols)} tagged: {tagged})")
    return status


# --- self-test -----------------------------------------------------------
# Synthetic tree cases, wire_lint style: (path, line, expected-rule-set).
# Lines that share a path are appended in order and each carries the
# file-level verdict.
SELF_TEST_CASES = [
    # Tagged worker class used inside its own .h/.cc pair and inside a
    # worker-domain file: clean.
    ("src/b/widget.h", "// thread-domain: worker", set()),
    ("src/b/widget.h", "class Widget {};", set()),
    ("src/b/widget.cc", "Widget w;", set()),
    ("src/b/engine.h", "// thread-domain: worker", set()),
    ("src/b/engine.h", "class Engine { Widget w_; };", set()),
    # A3: worker type named in a non-worker file.
    ("src/c/leak.cc", "Widget stolen;", {"worker-confinement"}),
    # ...unless the line is marked or comment-only.
    ("src/c/marked.cc", "Widget lent;  // affinity: ok handoff protocol",
     set()),
    ("src/c/comment.cc", "// Widget only in prose here", set()),
    ("src/c/include.cc", '#include "b/widget.h"', set()),
    # A2: unknown domain value.
    ("src/c/badtag.h", "// thread-domain: gpu", {"domain-value"}),
    ("src/c/badtag.h", "class BadTag {};", {"domain-value"}),
    # any/signal tags parse and impose no confinement.
    ("src/c/free.h", "// thread-domain: any", set()),
    ("src/c/free.h", "void helper();", set()),
    ("src/c/sig.h", "// thread-domain: signal", set()),
    ("src/c/sig.h", "void dumper();", set()),
]


def self_test():
    failures = []
    with tempfile.TemporaryDirectory(prefix="affinity_selftest_") as tmp:
        root = pathlib.Path(tmp)
        for rel, line, _ in SELF_TEST_CASES:
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("a") as f:
                f.write(line + "\n")
        findings = []
        symbols, worker_files = collect_symbols(root, findings)
        check_confinement(root, symbols, worker_files, [], findings)
        got = {}
        for rel, _lineno, rule, _msg, _raw in findings:
            got.setdefault(rel, set()).add(rule)
        for rel, line, expected in SELF_TEST_CASES:
            actual = got.get(rel, set())
            if actual != expected:
                failures.append(f"  {rel}: expected {sorted(expected)}, "
                                f"got {sorted(actual)}\n    {line}")
        # The symbol table itself must have come out right.
        expect_syms = {"Widget": "worker", "Engine": "worker",
                       "helper": "any", "dumper": "signal"}
        for name, domain in expect_syms.items():
            sym = symbols.get(name)
            if sym is None or sym.domain != domain:
                failures.append(f"  symbol {name}: expected domain "
                                f"{domain}, got "
                                f"{sym.domain if sym else 'missing'}")
        # required-decl fires on an empty table.
        req = []
        check_required({}, req)
        if len(req) != len(REQUIRED_DECLS):
            failures.append("  required-decl did not fire for every "
                            "missing symbol")
    if failures:
        print(f"affinity_check --self-test: {len(failures)} failure(s)")
        print("\n".join(failures))
        return 1
    print(f"affinity_check --self-test: {len(SELF_TEST_CASES)} cases ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of this script)")
    ap.add_argument("--allowlist", default=None,
                    help=f"allowlist file (default: {DEFAULT_ALLOWLIST})")
    ap.add_argument("--self-test", action="store_true",
                    help="run the checker's own rule tests and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    root = pathlib.Path(args.root).resolve() if args.root else \
        pathlib.Path(__file__).resolve().parent.parent
    allow_path = pathlib.Path(args.allowlist) if args.allowlist else \
        root / DEFAULT_ALLOWLIST
    allowlist = load_allowlist(allow_path)
    return run(root, allowlist, allow_path)


if __name__ == "__main__":
    sys.exit(main())
