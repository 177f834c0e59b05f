#!/usr/bin/env python3
"""wire_lint: static checks for wire-handling hygiene in library code.

The conversion engines run (possibly JIT-generated) code over raw network
buffers, so undisciplined pointer play in src/ is how wire bugs are born.
This linter enforces these rules over src/**/*.{h,cc}, and over the
comparison baselines the benches measure PBIO against
(bench/baselines/**/*.{h,cc}):

  R1 reinterpret-cast   every `reinterpret_cast` must be allowlisted (the
                        allowlist entry documents why the cast is sound) or
                        carry an inline `// wire-lint: ok <reason>`.
  R2 c-cast-deref       C-style pointer-deref casts of multi-byte scalar
                        types (`*(uint32_t*)p` and friends) are raw
                        unaligned loads; use util/endian.h load_uint /
                        store_uint instead. Never allowlisted.
  R3 endian-intrinsic   byte-swap intrinsics (htons/ntohl/__builtin_bswap*)
                        outside util/endian.h bypass the one place where
                        byte order is reasoned about. socket address setup
                        is the allowlisted exception.
  R4 exec-memory        executable-memory APIs (mmap/mprotect/munmap,
                        PROT_EXEC, and the Windows/Darwin equivalents) may
                        appear only in src/vcode/execmem.* — the single
                        audited home of the W^X code buffer.
  R5 fn-ptr-cast        reinterpret_cast that manufactures a callable
                        (function-pointer type, or cast-and-invoke) outside
                        src/vcode turns data into code; never allowlisted
                        and no inline marker can excuse it.
  R6 atomics-audit      every non-seq_cst memory_order_* site must justify
                        its ordering with a `// mo: <reason>` comment on
                        the same line or within the three lines above it
                        (or an allowlist entry). memory_order_consume is
                        banned outright — no marker or allowlist entry can
                        excuse it (its semantics were never implemented by
                        any compiler; it silently promotes to acquire).
  R7 signal-safety      inside a `// wire-lint: signal-safe-begin` ...
                        `signal-safe-end` region (the flight recorder's
                        dump path, which runs in SIGSEGV handlers), only
                        calls on the async-signal-safe allowlist may
                        appear: raw syscalls, atomic loads/stores, and the
                        region's own helpers. No stdio, no malloc, no
                        locks.
  R8 taint-region       inside the body of a WIRE_TAINTED function (see
                        src/util/wire_taint.h and tools/wire_taint.py),
                        a `reinterpret_cast` or a pointer bump (`p += n`,
                        `++p`, `p = p + n` on a declared pointer) must be
                        allowlisted or sit behind a bounds guard — an
                        `if`/`while`/`for` comparison within the four
                        lines above. These are the exact sites where a
                        wire length walks a pointer out of the frame, so
                        the inline `// wire-lint: ok` marker that excuses
                        R1 is deliberately NOT honored here: the guard or
                        the reviewed allowlist entry is the excuse.
                        Structural cousin of wire_taint's dataflow rules:
                        wire_taint proves values, R8 pins the casts and
                        cursor mutations even when dataflow can't see
                        them.
  R9 src-layering       a file under src/ may not include a header that
                        lives under bench/ or tests/ (the baselines, the
                        network model, test fakes): the library never
                        depends on what is only measured or tested
                        against it. Never allowlisted.

Usage:
    tools/wire_lint.py [--root REPO_ROOT] [--allowlist FILE] [--self-test]

Exits 0 when clean, 1 on findings (or on stale allowlist entries, which
would otherwise rot into blanket permissions).
"""

import argparse
import pathlib
import re
import sys
import tempfile

DEFAULT_ALLOWLIST = "tools/wire_lint_allow.txt"
SCAN_ROOTS = ("src", "bench/baselines")
SCAN_SUFFIXES = {".h", ".cc"}
SKIP_DIR_NAMES = {"CMakeFiles"}

RE_OK_MARKER = re.compile(r"//\s*wire-lint:\s*ok\b")
RE_LINE_COMMENT = re.compile(r"//.*$")
RE_REINTERPRET = re.compile(r"\breinterpret_cast\b")
RE_C_CAST_DEREF = re.compile(
    r"\*\s*\(\s*(?:const\s+)?(?:std::)?"
    r"(?:u?int(?:16|32|64)_t|short|long|float|double)\s*(?:const\s*)?\*\s*\)"
)
RE_ENDIAN_INTRINSIC = re.compile(
    r"\b(?:htons|htonl|ntohs|ntohl|__builtin_bswap(?:16|32|64)"
    r"|bswap_(?:16|32|64)|_byteswap_(?:ushort|ulong|uint64))\s*\("
)
RE_EXECMEM = re.compile(
    r"\b(?:mmap|munmap|mprotect)\s*\(|\bPROT_EXEC\b|\bMAP_JIT\b"
    r"|\bVirtual(?:Alloc|Protect|Free)\b|\bpthread_jit_write_protect_np\b"
)
EXECMEM_HOME = "src/vcode/execmem."
# A reinterpret_cast whose target type is written as a function pointer
# (or reference): `reinterpret_cast<int (*)(char)>`.
RE_FNPTR_CAST = re.compile(r"\breinterpret_cast<[^>]*\(\s*[*&][^>]*>")
# Cast-and-invoke through a typedef'd callable: `reinterpret_cast<Fn>(p)(...`.
RE_CAST_INVOKE = re.compile(
    r"\breinterpret_cast<\w[\w:]*>\s*\((?:[^()]|\([^()]*\))*\)\s*\("
)
FNPTR_HOME = "src/vcode/"
# R9: quoted includes, and the trees a library file may not reach into.
RE_INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
NON_LIBRARY_TREES = ("bench", "tests")
# R6: memory_order spellings; seq_cst is the safe default and needs no
# justification. The `// mo:` marker may sit up to MO_MARKER_LOOKBACK raw
# lines above the site (multi-line justifications and aliased constants).
RE_MEMORY_ORDER = re.compile(r"\bmemory_order(?:::|_)"
                             r"(relaxed|acquire|release|acq_rel|consume|seq_cst)\b")
RE_MO_MARKER = re.compile(r"//\s*mo:\s*\S")
MO_MARKER_LOOKBACK = 3
# R7: signal-safe region markers (raw lines, like the ok-marker) and the
# call allowlist. Everything async-signal-safe per signal-safety(7) that
# the dump path legitimately needs, plus the region's own helpers and the
# atomic member functions (lock-free loads/stores compile to plain
# instructions).
# R8: WIRE_TAINTED function-body regions. The annotation token starts a
# pending signature; a `;` before any `{` means declaration (no region),
# a `{` opens the region until its matching brace. Pointer names are
# harvested from `* name` in the signature and from local declarations.
RE_WT_TOKEN = re.compile(r"\bWIRE_TAINTED\b")
RE_PTR_NAME = re.compile(r"\*\s*(?:const\s+)?([A-Za-z_]\w*)\s*(?=[,)=;[])")
RE_PTR_BUMP = re.compile(
    r"\+\+\s*([A-Za-z_]\w*)|([A-Za-z_]\w*)\s*\+\+|([A-Za-z_]\w*)\s*\+="
)
RE_SELF_ADD = re.compile(r"([A-Za-z_]\w*)\s*=\s*\1\s*\+")
RE_BOUNDS_GUARD = re.compile(r"\b(?:if|while|for)\s*\(.*[<>]")
R8_GUARD_LOOKBACK = 4
RE_SIGNAL_SAFE_BEGIN = re.compile(r"//\s*wire-lint:\s*signal-safe-begin\b")
RE_SIGNAL_SAFE_END = re.compile(r"//\s*wire-lint:\s*signal-safe-end\b")
RE_CALL_TOKEN = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
SIGNAL_SAFE_CALLS = {
    # control flow / operators the call regex also catches
    "if", "while", "for", "do", "switch", "return", "sizeof",
    # async-signal-safe libc/syscalls (signal-safety(7))
    "write", "open", "close", "getpid", "clock_gettime", "raise",
    "sigaction", "sigemptyset", "memcpy", "memset", "strlen", "_exit",
    # lock-free atomic member functions
    "load", "store", "fetch_add", "fetch_sub", "exchange",
    "compare_exchange_strong", "compare_exchange_weak",
    # the flight recorder's own signal-safe helpers
    "put_str", "put_u64", "dump_to", "wall_ns", "flight_kind_name",
    "flight_dump", "on_fatal_signal", "on_usr2",
}


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
    """Blank out comment and string-literal contents so rule regexes only
    see code. Returns (code_text, still_in_block_comment)."""
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


def iter_scan_files(root):
    for top in SCAN_ROOTS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in SCAN_SUFFIXES:
                continue
            if any(part in SKIP_DIR_NAMES for part in path.parts):
                continue
            yield path


def include_leaves_library(root, path, header):
    """True when `header`, included from library file `path`, names a file
    under bench/ or tests/ rather than one under src/."""
    if header.split("/", 1)[0] in NON_LIBRARY_TREES + ("..",):
        return True
    if (root / "src" / header).exists() or (path.parent / header).exists():
        return False
    return any((root / tree / header).exists() for tree in NON_LIBRARY_TREES)


def scan_file(root, path, allowlist, findings):
    rel = path.relative_to(root).as_posix()
    in_block = False
    in_signal_safe = False
    wt_pending = False   # saw WIRE_TAINTED, waiting for `{` or `;`
    wt_sig = []          # signature lines accumulated while pending
    wt_depth = 0         # >0 while inside a WIRE_TAINTED body
    wt_ptrs = set()      # pointer names visible in the current body
    raw_lines = path.read_text(errors="replace").splitlines()
    for lineno, raw in enumerate(raw_lines, 1):
        if RE_SIGNAL_SAFE_BEGIN.search(raw):
            in_signal_safe = True
        elif RE_SIGNAL_SAFE_END.search(raw):
            in_signal_safe = False
        code, in_block = strip_comments_and_strings(raw, in_block)
        if not code.strip():
            continue

        # --- R8 region bookkeeping (macro definitions don't open regions)
        line_in_wt = wt_depth > 0
        if wt_depth > 0:
            for pm in RE_PTR_NAME.finditer(code):
                wt_ptrs.add(pm.group(1))
            wt_depth += code.count("{") - code.count("}")
            if wt_depth <= 0:
                wt_depth = 0
        elif code.lstrip().startswith("#"):
            wt_pending = False
            wt_sig = []
        else:
            if RE_WT_TOKEN.search(code) and not wt_pending:
                wt_pending = True
                wt_sig = []
            if wt_pending:
                wt_sig.append(code)
                brace = code.find("{")
                semi = code.find(";")
                if semi != -1 and (brace == -1 or semi < brace):
                    wt_pending = False  # declaration: no body follows
                    wt_sig = []
                elif brace != -1:
                    wt_pending = False
                    line_in_wt = True
                    wt_ptrs = set()
                    for sig in wt_sig:
                        for pm in RE_PTR_NAME.finditer(sig):
                            wt_ptrs.add(pm.group(1))
                    wt_sig = []
                    wt_depth = code.count("{") - code.count("}")
                    if wt_depth < 0:
                        wt_depth = 0

        def report(rule, message, allow_allowlist=True, allow_marker=True):
            if allow_marker and RE_OK_MARKER.search(raw):
                return
            if allow_allowlist:
                for entry in allowlist:
                    if entry.matches(rel, raw):
                        entry.used = True
                        return
            findings.append((rel, lineno, rule, message, raw.strip()))

        inc = RE_INCLUDE.match(raw)
        if (inc and rel.startswith("src/")
                and include_leaves_library(root, path, inc.group(1))):
            report("src-layering",
                   f"library file includes \"{inc.group(1)}\" from "
                   "bench/ or tests/ — src/ must build without the "
                   "baselines and test fakes",
                   allow_allowlist=False, allow_marker=False)
        if RE_REINTERPRET.search(code):
            report("reinterpret-cast",
                   "reinterpret_cast outside the allowlist — add an "
                   "allowlist entry explaining why the cast is sound")
        if line_in_wt:
            r8_guarded = any(
                RE_BOUNDS_GUARD.search(l) for l in
                raw_lines[max(0, lineno - 1 - R8_GUARD_LOOKBACK):lineno])
            if not r8_guarded:
                if RE_REINTERPRET.search(code):
                    report("taint-region-cast",
                           "reinterpret_cast inside a WIRE_TAINTED function "
                           "with no bounds guard in sight — guard the length "
                           "first or allowlist with a taint-aware reason "
                           "(the `// wire-lint: ok` marker does not excuse "
                           "R8)",
                           allow_marker=False)
                bumped = None
                for bm in RE_PTR_BUMP.finditer(code):
                    name = bm.group(1) or bm.group(2) or bm.group(3)
                    if name in wt_ptrs:
                        bumped = name
                        break
                if bumped is None:
                    sm = RE_SELF_ADD.search(code)
                    if sm is not None and sm.group(1) in wt_ptrs:
                        bumped = sm.group(1)
                if bumped is not None:
                    report("taint-region-bump",
                           f"pointer '{bumped}' advanced inside a "
                           "WIRE_TAINTED function with no bounds guard in "
                           "sight — a wire length can walk it out of the "
                           "frame; compare against the remaining bytes "
                           "first or allowlist the site",
                           allow_marker=False)
        if RE_C_CAST_DEREF.search(code):
            report("c-cast-deref",
                   "C-style pointer-deref cast reads raw memory — use "
                   "util/endian.h load_uint/store_uint",
                   allow_allowlist=False)
        if RE_ENDIAN_INTRINSIC.search(code) and rel != "src/util/endian.h":
            report("endian-intrinsic",
                   "byte-swap intrinsic outside util/endian.h — route byte "
                   "order through the endian helpers")
        if RE_EXECMEM.search(code) and not rel.startswith(EXECMEM_HOME):
            report("exec-memory",
                   "executable-memory API outside src/vcode/execmem.* — "
                   "route code-buffer management through ExecBuffer")
        if ((RE_FNPTR_CAST.search(code) or RE_CAST_INVOKE.search(code))
                and not rel.startswith(FNPTR_HOME)):
            report("fn-ptr-cast",
                   "reinterpret_cast to a callable outside src/vcode turns "
                   "data into code — only the JIT module may do this",
                   allow_allowlist=False, allow_marker=False)
        for mo in RE_MEMORY_ORDER.finditer(code):
            order = mo.group(1)
            if order == "seq_cst":
                continue
            if order == "consume":
                report("atomics-audit",
                       "memory_order_consume is banned (never implemented; "
                       "silently promotes to acquire) — use acquire and "
                       "say why",
                       allow_allowlist=False, allow_marker=False)
                continue
            lookback = raw_lines[max(0, lineno - 1 - MO_MARKER_LOOKBACK):
                                 lineno]
            if any(RE_MO_MARKER.search(l) for l in lookback):
                continue
            report("atomics-audit",
                   f"memory_order_{order} without a `// mo: <reason>` "
                   "justification on this line or the three above it")
        if in_signal_safe:
            for call in RE_CALL_TOKEN.finditer(code):
                name = call.group(1)
                if name in SIGNAL_SAFE_CALLS:
                    continue
                report("signal-safety",
                       f"call to '{name}' inside a signal-safe region — "
                       "only async-signal-safe calls (write/open/close, "
                       "atomics, the dump helpers) may run in a signal "
                       "handler")


# --- self-test -----------------------------------------------------------
# Each case is one synthetic source line dropped into a scratch tree at the
# given path; the scan over that tree must produce exactly the expected
# rule hits. This is what keeps regex edits honest.
SELF_TEST_CASES = [
    # R1: bare cast fires; an inline marker excuses it; allowlist excuses it.
    ("src/pbio/r1_hit.cc", "auto* p = reinterpret_cast<char*>(q);",
     {"reinterpret-cast"}),
    ("src/pbio/r1_marker.cc",
     "auto* p = reinterpret_cast<char*>(q);  // wire-lint: ok byte view",
     set()),
    ("src/pbio/r1_allow.cc", "auto* p = reinterpret_cast<char*>(q);",
     set()),  # covered by the synthetic allowlist entry below
    # R2: raw pointer-deref cast, never excusable via allowlist.
    ("src/fmt/r2_hit.cc", "int v = *(const uint32_t*)ptr;",
     {"c-cast-deref"}),
    # R3: byte-swap intrinsic outside the endian header.
    ("src/pbio/r3_hit.cc", "auto x = htonl(v);", {"endian-intrinsic"}),
    ("src/util/endian.h", "auto x = __builtin_bswap32(v);", set()),
    # R4: exec-memory APIs live only in src/vcode/execmem.*.
    ("src/transport/r4_mmap.cc",
     "void* p = mmap(nullptr, n, PROT_READ | PROT_EXEC, MAP_PRIVATE, -1, 0);",
     {"exec-memory"}),
    ("src/util/r4_mprotect.cc", "mprotect(p, n, PROT_READ);",
     {"exec-memory"}),
    ("src/vcode/r4_wrong_file.cc", "mprotect(p, n, PROT_READ | PROT_EXEC);",
     {"exec-memory"}),  # vcode, but not execmem.* — still a finding
    ("src/vcode/execmem.cc", "::mprotect(p, n, PROT_READ | PROT_EXEC);",
     set()),
    ("src/vcode/execmem.h",
     "void* p = ::mmap(nullptr, n, PROT_READ | PROT_WRITE, flags, -1, 0);",
     set()),
    # R5: callable-manufacturing casts outside src/vcode; markers are
    # deliberately powerless against this rule.
    ("src/pbio/r5_fnptr.cc",
     "auto fn = reinterpret_cast<int (*)(char)>(p);  // wire-lint: ok no",
     {"fn-ptr-cast"}),
    ("src/pbio/r5_invoke.cc",
     "return reinterpret_cast<Fn>(buf)(a, b);  // wire-lint: ok no",
     {"fn-ptr-cast"}),
    ("src/vcode/r5_home.cc",
     "auto fn = reinterpret_cast<int (*)(char)>(p);  // wire-lint: ok jit",
     set()),
    # R6: non-seq_cst orderings need a `// mo:` justification; the marker
    # may sit on the line itself or up to three lines above.
    ("src/obs/r6_hit.cc", "x.load(std::memory_order_relaxed);",
     {"atomics-audit"}),
    ("src/obs/r6_marker.cc",
     "x.load(std::memory_order_acquire);  // mo: pairs with the release",
     set()),
    ("src/obs/r6_above.cc", "// mo: counter, atomicity only", set()),
    ("src/obs/r6_above.cc", "x.fetch_add(1, std::memory_order_relaxed);",
     set()),
    ("src/obs/r6_seqcst.cc", "x.store(1, std::memory_order_seq_cst);",
     set()),
    # memory_order_consume is banned outright; no marker can excuse it.
    ("src/obs/r6_consume.cc",
     "p = x.load(std::memory_order_consume);  // mo: no  // wire-lint: ok",
     {"atomics-audit"}),
    # R7: only allowlisted calls inside a signal-safe region. All lines of
    # one synthetic file share its expected set, so each carries the
    # file-level verdict.
    ("src/obs/r7_hit.cc", "// wire-lint: signal-safe-begin",
     {"signal-safety"}),
    ("src/obs/r7_hit.cc", "std::snprintf(buf, n, fmt);",
     {"signal-safety"}),
    ("src/obs/r7_hit.cc", "// wire-lint: signal-safe-end",
     {"signal-safety"}),
    ("src/obs/r7_ok.cc", "// wire-lint: signal-safe-begin", set()),
    ("src/obs/r7_ok.cc", "::write(fd, p, n); idx.load(o);", set()),
    ("src/obs/r7_ok.cc", "// wire-lint: signal-safe-end", set()),
    ("src/obs/r7_ok.cc", "std::printf(after); malloc(n);", set()),
    # R8: inside a WIRE_TAINTED body, a reinterpret_cast with only an
    # inline marker (which excuses R1 but never R8) still fires; a bounds
    # guard within four lines excuses it. All lines of one synthetic file
    # share its expected set (as with R7).
    ("src/pbio/r8_cast.cc",
     "WIRE_TAINTED void f(const uint8_t* p) {", {"taint-region-cast"}),
    ("src/pbio/r8_cast.cc",
     "  auto* q = reinterpret_cast<const char*>(p);  // wire-lint: ok view",
     {"taint-region-cast"}),
    ("src/pbio/r8_cast.cc", "}", {"taint-region-cast"}),
    ("src/pbio/r8_cast_ok.cc",
     "WIRE_TAINTED void g(const uint8_t* p, size_t n) {", set()),
    ("src/pbio/r8_cast_ok.cc", "  if (n < kMax) {", set()),
    ("src/pbio/r8_cast_ok.cc",
     "    auto* q = reinterpret_cast<const char*>(p);  "
     "// wire-lint: ok char view", set()),
    ("src/pbio/r8_cast_ok.cc", "  }", set()),
    ("src/pbio/r8_cast_ok.cc", "}", set()),
    # R8: unguarded pointer bump on a signature pointer; guarded twin ok.
    ("src/pbio/r8_bump.cc",
     "WIRE_TAINTED void h(const uint8_t* p, size_t n) {",
     {"taint-region-bump"}),
    ("src/pbio/r8_bump.cc", "  p += n;", {"taint-region-bump"}),
    ("src/pbio/r8_bump.cc", "}", {"taint-region-bump"}),
    ("src/pbio/r8_bump_ok.cc",
     "WIRE_TAINTED void k(const uint8_t* p, size_t n, size_t avail) {",
     set()),
    ("src/pbio/r8_bump_ok.cc", "  if (n <= avail) {", set()),
    ("src/pbio/r8_bump_ok.cc", "    p += n;", set()),
    ("src/pbio/r8_bump_ok.cc", "  }", set()),
    ("src/pbio/r8_bump_ok.cc", "}", set()),
    # R8 scope: unannotated functions and annotated declarations open no
    # region; a counter bump (non-pointer) inside a region is free.
    ("src/pbio/r8_scope.cc",
     "void plain(const uint8_t* p, size_t n) { p += n; }", set()),
    ("src/pbio/r8_scope.cc",
     "WIRE_TAINTED void decl_only(const uint8_t* p, size_t n);", set()),
    ("src/pbio/r8_scope.cc",
     "void after_decl(uint8_t* q, size_t n) { q += n; }", set()),
    ("src/pbio/r8_counter.cc",
     "WIRE_TAINTED void c(const uint8_t* p, size_t n) {", set()),
    ("src/pbio/r8_counter.cc", "  size_t used = 0; ++used;", set()),
    ("src/pbio/r8_counter.cc", "}", set()),
    # R9: a library file reaching into bench/ or tests/ fires, by prefix or
    # by where the header resolves; library and baseline-side includes of
    # src/ headers do not. Baseline files are scanned like library files.
    ("bench/baselines/b/b.h", "int baseline_b();", set()),
    ("tests/fake.h", "int fake();", set()),
    ("src/pbio/r9_baseline.cc", '#include "baselines/b/b.h"',
     {"src-layering"}),
    ("src/pbio/r9_tests.cc", '#include "tests/fake.h"', {"src-layering"}),
    ("src/pbio/r9_up.cc", '#include "../../tests/fake.h"',
     {"src-layering"}),
    ("src/pbio/r9_ok.cc", '#include "pbio/pbio.h"', set()),
    ("bench/baselines/b/b.cc", '#include "baselines/b/b.h"', set()),
    ("bench/baselines/b/r1_hit.cc", "auto* p = reinterpret_cast<char*>(q);",
     {"reinterpret-cast"}),
    # Comment and string contents never trip rules.
    ("src/pbio/noise_comment.cc",
     "// reinterpret_cast<char*>(q); mprotect(p, n, PROT_EXEC);", set()),
    ("src/pbio/noise_string.cc",
     'const char* s = "mprotect(PROT_EXEC) htonl(";', set()),
]


def self_test():
    failures = []
    with tempfile.TemporaryDirectory(prefix="wire_lint_selftest_") as tmp:
        root = pathlib.Path(tmp)
        for rel, line, _ in SELF_TEST_CASES:
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            # Append: two cases may share a path (none do today, but keep
            # the harness order-independent anyway).
            with path.open("a") as f:
                f.write(line + "\n")
        allowlist = [AllowEntry("src/pbio/r1_allow.cc", "reinterpret_cast",
                                "self-test entry", 1)]
        stale_entry = AllowEntry("src/pbio/nonexistent.cc", "nothing",
                                 "self-test stale entry", 2)
        findings = []
        for path in iter_scan_files(root):
            scan_file(root, path, allowlist + [stale_entry], findings)
        got = {}
        for rel, _lineno, rule, _msg, _raw in findings:
            got.setdefault(rel, set()).add(rule)
        for rel, line, expected in SELF_TEST_CASES:
            actual = got.get(rel, set())
            if actual != expected:
                failures.append(f"  {rel}: expected {sorted(expected)}, "
                                f"got {sorted(actual)}\n    {line}")
        if not allowlist[0].used:
            failures.append("  allowlist entry that matches was not "
                            "marked used")
        if stale_entry.used:
            failures.append("  allowlist entry that matches nothing was "
                            "marked used")
    if failures:
        print(f"wire_lint --self-test: {len(failures)} failure(s)")
        print("\n".join(failures))
        return 1
    print(f"wire_lint --self-test: {len(SELF_TEST_CASES)} cases ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of this script)")
    ap.add_argument("--allowlist", default=None,
                    help=f"allowlist file (default: {DEFAULT_ALLOWLIST})")
    ap.add_argument("--self-test", action="store_true",
                    help="run the linter's own rule tests and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    root = pathlib.Path(args.root).resolve() if args.root else \
        pathlib.Path(__file__).resolve().parent.parent
    allow_path = pathlib.Path(args.allowlist) if args.allowlist else \
        root / DEFAULT_ALLOWLIST
    allowlist = load_allowlist(allow_path)

    findings = []
    for path in iter_scan_files(root):
        scan_file(root, path, allowlist, findings)

    status = 0
    if findings:
        print(f"wire_lint: {len(findings)} finding(s)\n")
        print("\n".join(f"{rel}:{lineno}: {rule}: {msg}\n    {raw}"
                        for rel, lineno, rule, msg, raw in findings))
        status = 1
    stale = [e for e in allowlist if not e.used]
    if stale:
        print("wire_lint: stale allowlist entries "
              "(nothing matches — delete them):")
        for e in stale:
            print(f"  {allow_path}:{e.lineno}: {e.path} | {e.pattern}")
        status = 1
    if status == 0:
        print("wire_lint: clean")
    return status


if __name__ == "__main__":
    sys.exit(main())
