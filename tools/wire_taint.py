#!/usr/bin/env python3
"""wire_taint: annotation-driven wire-taint dataflow analysis over src/.

The comparison baselines under bench/baselines/ are analysed with the
library: they parse the same kind of bytes.

The fifth static-analysis layer (lint -> taint -> plan verifier -> tval ->
concurrency). The existing gauntlet proves the *conversion plans and
emitted code* correct; this tool checks the *parsing code* that builds
those plans from hostile bytes: frame headers, format announcements,
format-service replies, broker first-byte dispatch.

The model is gradual typing for trust. src/util/wire_taint.h provides the
vocabulary:

    WIRE_TAINTED   on a function: it ingests wire bytes. Every parameter
                   is attacker data, every endian load in the body
                   produces a tainted value, and its return value is
                   tainted at call sites inside other tainted functions.
    WIRE_TAINTED   on a parameter: just that parameter is wire data.
    WIRE_SANITIZER on a function: calling it validates its arguments /
                   receiver; its return value is clean. (A function can
                   carry both: decode_meta ingests bytes *and* only
                   returns validated descriptors.)
    WIRE_TRUSTED_CAST(x, why)  expression-level escape hatch.

The annotations ARE the interprocedural fixpoint: each annotated function
is proven locally (tainted value -> sink requires a guard in between),
and rule T1 pins the annotation set to the known wire-ingestion surface
so the summaries can't silently rot. Together that walks the call graph
from every receive buffer to every sink.

Rules:

  T1 required-taint      the functions in REQUIRED_SOURCES (the wire
                         ingestion surface: FrameStream slicing, fmt
                         announcement decode, the receive stream's frame
                         interpreter, format-service requests, broker
                         dispatch, reader frame consumption, record
                         decode) must carry
                         WIRE_TAINTED.
  T2 unsanitized-sink    inside an annotated function, a tainted value
                         reaches a sink — memcpy/memmove/memset size,
                         allocation size (resize/reserve/lease/malloc/
                         new[]), array subscript, pointer arithmetic, or
                         loop bound — with no recognized compare-then-use
                         guard, sanitizer call, std::min/std::clamp, or
                         WIRE_TRUSTED_CAST in between.
  T3 overflow-guard      a bounds guard multiplies a tainted value
                         (`off + count * stride > size`): the arithmetic
                         itself can wrap and the guard then passes. Use
                         the division idiom
                         (`count > (size - off) / stride`) instead.
  T4 dangling-annotation a WIRE_TAINTED/WIRE_SANITIZER token the
                         extractor cannot bind to a function — the
                         annotation would silently check nothing.

Escapes: `// wire-taint: ok <reason>` on the offending line, an entry in
tools/wire_taint_allow.txt ('path | line-pattern | reason'), or
WIRE_TRUSTED_CAST around the expression. T1/T4 have no escapes.

Backends: --backend text (default) binds annotations lexically, the same
toolchain story as affinity_check.py, so the analysis runs anywhere
python3 runs. --backend clang reads the __attribute__((annotate(...)))
markers out of the clang AST via the libclang python bindings when they
are installed; `auto` falls back to text. Both feed the same dataflow
engine; CI pins text for determinism.

Usage:
    tools/wire_taint.py [--root ROOT] [--allowlist FILE] [--backend B]
                        [--self-test] [--canary]

--canary copies the scanned trees to a scratch tree, injects a WIRE_TAINTED function
with an unguarded `memcpy(dst, src, wire_len)`, and fails unless the
analysis catches it: an end-to-end proof the CI job still detects the
bug class it exists for.

Exits 0 when clean, 1 on findings or stale allowlist entries, 2 on
usage/toolchain errors.
"""

import argparse
import pathlib
import re
import shutil
import sys
import tempfile

DEFAULT_ALLOWLIST = "tools/wire_taint_allow.txt"
SCAN_ROOTS = ("src", "bench/baselines")
SCAN_SUFFIXES = {".h", ".cc"}
SKIP_DIR_NAMES = {"CMakeFiles"}

RE_OK_MARKER = re.compile(r"//\s*wire-taint:\s*ok\b")

# The wire ingestion surface: (file prefix, function name) pairs that must
# carry a fn-level WIRE_TAINTED. This is the anchor of the whole analysis —
# every path from a receive buffer into the library enters through one of
# these, so forcing their annotation forces their bodies (and, through the
# annotation discipline, their callees') under the checker.
REQUIRED_SOURCES = [
    ("src/transport/framing", "next_frame"),          # frame slicing
    ("src/transport/framing", "has_complete_frame"),
    ("src/transport/framing", "fill_hint"),
    ("src/transport/wire", "decode_trace_frame"),
    ("src/fmt/meta", "decode_meta"),                  # announcement decode
    ("src/pbio/resolver", "interpret"),               # stream frame protocol
    ("src/pbio/reader", "consume_frame"),             # reader dispatch
    ("src/pbio/format_service", "handle"),            # service requests
    ("src/broker/conn", "dispatch"),                  # broker first byte
    ("src/broker/conn", "on_data_frame"),
    ("src/pbio/message", "decode_record"),            # record decode
]

ANNO_TAINTED = "WIRE_TAINTED"
ANNO_SANITIZER = "WIRE_SANITIZER"
TRUSTED_CAST = "WIRE_TRUSTED_CAST"

# Values produced directly from wire bytes inside an annotated function.
RE_PRODUCER = re.compile(r"\b(?:load_uint|load_int|load_float)\s*\(")
# ByteReader-style out-params: read_uint(&v, n) / read_bytes(&p, n).
RE_OUT_PARAM = re.compile(
    r"\bread_(?:uint|int|float|bytes|record)\s*\([^;]*?&\s*([A-Za-z_]\w*)")
# Taint-clearing clamps.
RE_CLAMP = re.compile(r"\bstd::(?:min|clamp)\s*\(")

# Atom: an identifier or a short member chain (`frame.size()`, `hdr->len`).
ATOM = r"[A-Za-z_]\w*(?:(?:->|\.)[A-Za-z_]\w*(?:\(\))?)*"
RE_ATOM = re.compile(ATOM)

CPP_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default",
    "return", "break", "continue", "goto", "sizeof", "alignof", "new",
    "delete", "const", "constexpr", "static", "inline", "auto", "void",
    "bool", "char", "short", "int", "long", "float", "double", "unsigned",
    "signed", "true", "false", "nullptr", "std", "this", "struct", "class",
    "namespace", "using", "typedef", "template", "typename", "operator",
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t", "int8_t", "int16_t",
    "int32_t", "int64_t", "size_t", "ssize_t", "uintptr_t", "ptrdiff_t",
}

RE_MEM_SINK = re.compile(r"\b(memcpy|memmove|memset)\s*\(")
RE_ALLOC_SINK = re.compile(
    r"(?:\.|->)(resize|reserve|lease)\s*\(|\b(malloc|calloc|alloca)\s*\(")
RE_NEW_ARRAY = re.compile(r"\bnew\s+[\w:<>]+\s*\[")
RE_SUBSCRIPT = re.compile(r"[\w\)\]]\s*\[")
RE_COMPARISON = re.compile(r"[<>]=?|[!=]=")


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
    """Blank out comment and string-literal contents so the extractor only
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
            out.append(" ")
            i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block_comment


def iter_source_files(root):
    for top in SCAN_ROOTS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in SCAN_SUFFIXES:
                continue
            if any(part in SKIP_DIR_NAMES for part in path.parts):
                continue
            yield path


# --- extraction -----------------------------------------------------------

class FuncDef:
    """One function definition: where it lives and its split statements."""

    def __init__(self, name, rel, lineno, params, stmts):
        self.name = name
        self.rel = rel
        self.lineno = lineno
        self.params = params        # [(name, is_ptr)]
        self.stmts = stmts          # [(start_line, end_line, code)]


class FuncRecord:
    """Merged view of one function across declaration and definition."""

    def __init__(self, name):
        self.name = name
        self.fn_tainted = False
        self.fn_sanitizer = False
        self.tainted_params = set()
        self.defs = []              # [FuncDef]
        self.locs = []              # [(rel, lineno)] of every sighting


def subdir_of(rel):
    """Module directory of `rel` under its scan root ("pbio", "cdr")."""
    for top in SCAN_ROOTS:
        if rel.startswith(top + "/"):
            parts = rel[len(top) + 1:].split("/")
            return parts[0] if len(parts) > 1 else ""
    return ""


def split_top_commas(text):
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "(<[{":
            depth += 1
        elif ch in ")>]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_params(sig):
    """Parameter list text -> ([(name, is_ptr)], {names annotated tainted})."""
    params, annotated = [], set()
    flat = sig.strip()
    if not flat or flat == "void":
        return params, annotated
    for chunk in split_top_commas(flat):
        chunk = chunk.split("=", 1)[0].strip()
        if not chunk or chunk == "void":
            continue
        is_anno = ANNO_TAINTED in chunk
        chunk = chunk.replace(ANNO_TAINTED, " ")
        is_ptr = ("*" in chunk or "span<" in re.sub(r"\s+", "", chunk)
                  or "FrameBuf" in chunk or "string_view" in chunk)
        idents = re.findall(r"[A-Za-z_]\w*", chunk)
        name = None
        for cand in reversed(idents):
            if cand not in CPP_KEYWORDS:
                name = cand
                break
        if name is None:
            continue
        params.append((name, is_ptr))
        if is_anno:
            annotated.add(name)
    return params, annotated


def split_statements(body, base_line):
    """Split a function body into statements at top-level ';', '{', '}'.
    body is the text between the outer braces; base_line its first line.
    Returns [(start_line, end_line, code)]."""
    stmts = []
    depth = 0
    start = 0
    line = base_line
    start_line = base_line
    for i, ch in enumerate(body):
        if ch == "\n":
            line += 1
            continue
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth = max(0, depth - 1)
        elif ch in ";{}" and depth == 0:
            code = body[start:i].strip()
            if code:
                stmts.append((start_line, line, code))
            start = i + 1
            start_line = line
    tail = body[start:].strip()
    if tail:
        stmts.append((start_line, line, tail))
    return stmts


RE_CONTAINER = re.compile(
    r"\b(?:namespace|class|struct|union|enum)\b(?![^(]*\()[^(]*$")
RE_EXTERN_C = re.compile(r'\bextern\s*$')


def match_brace(text, open_idx):
    """Index just past the '}' matching text[open_idx] == '{'."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def extract_file(rel, text, line_of, findings):
    """Walk one stripped file and return (defs, decls).

    defs:  [FuncDef-ish tuples before statement split: (name, lineno,
            params, tainted_params, fn_annos, body, body_line)]
    decls: [(name, lineno, tainted_params, fn_annos)]
    Unbindable annotations are reported as dangling-annotation (T4).
    """
    defs, decls = [], []
    i = 0
    seg_start = 0
    pdepth = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "(":
            pdepth += 1
        elif ch == ")":
            pdepth = max(0, pdepth - 1)
        elif pdepth == 0 and ch in ";{}":
            seg = text[seg_start:i]
            if ch == ";":
                process_segment(rel, seg, seg_start, line_of, None,
                                defs, decls, findings)
                seg_start = i + 1
            elif ch == "}":
                seg_start = i + 1
            else:  # "{"
                stripped = seg.strip()
                is_container = (RE_CONTAINER.search(stripped) is not None
                                or RE_EXTERN_C.search(stripped) is not None
                                or not stripped)
                has_call = "(" in seg
                top_assign = re.search(r"=\s*$", stripped) is not None or \
                    ("=" in re.sub(r"\([^)]*\)", "", seg) and not has_call)
                if is_container and "(" not in stripped.split("\n")[-1] \
                        and "=" not in stripped:
                    # namespace/class/struct body: descend (keep walking).
                    process_segment(rel, seg, seg_start, line_of, None,
                                    defs, decls, findings)
                    seg_start = i + 1
                elif not has_call or top_assign:
                    # aggregate initializer or anonymous block: opaque.
                    end = match_brace(text, i)
                    i = end
                    seg_start = i
                    continue
                else:
                    # Function definition: seg is the signature, the body
                    # runs to the matching brace.
                    end = match_brace(text, i)
                    body = text[i + 1:end - 1]
                    process_segment(rel, seg, seg_start, line_of,
                                    (body, line_of(i + 1)),
                                    defs, decls, findings)
                    i = end
                    seg_start = i
                    continue
        i += 1
    return defs, decls


RE_FN_ANNO = re.compile(rf"\b({ANNO_TAINTED}|{ANNO_SANITIZER})\b")


def process_segment(rel, seg, seg_off, line_of, body_info,
                    defs, decls, findings):
    """One declaration segment (text between ;/{/} at top level). Bind any
    annotation tokens and record the function they attach to."""
    annos = set(m.group(1) for m in RE_FN_ANNO.finditer(seg))
    # Find the parameter list: first top-level '(' ... matching ')'.
    depth = 0
    open_idx = close_idx = -1
    for j, ch in enumerate(seg):
        if ch == "(":
            if depth == 0 and open_idx < 0:
                open_idx = j
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and open_idx >= 0 and close_idx < 0:
                close_idx = j
    if open_idx < 0 or close_idx < 0:
        if annos:
            findings.append(
                (rel, line_of(seg_off + seg.find(next(iter(annos)))),
                 "dangling-annotation",
                 f"{'/'.join(sorted(annos))} does not precede a function "
                 "declaration the checker can bind — the annotation would "
                 "silently check nothing", seg.strip()[:80]))
        return
    head = seg[:open_idx].replace(ANNO_TAINTED, " ") \
                         .replace(ANNO_SANITIZER, " ")
    m = re.search(r"([A-Za-z_]\w*)\s*$", head.rstrip().rstrip(":"))
    name = m.group(1) if m else None
    # control-flow keywords never name functions at container level, but a
    # stray `if (` from an unparsed construct must not bind an annotation
    if name in CPP_KEYWORDS and name not in ("operator",):
        name = None
    if name is None:
        if annos:
            findings.append(
                (rel, line_of(seg_off),
                 "dangling-annotation",
                 f"{'/'.join(sorted(annos))} could not be bound to a "
                 "function name", seg.strip()[:80]))
        return
    sig = seg[open_idx + 1:close_idx]
    params, tainted_params = parse_params(sig)
    lineno = line_of(seg_off + open_idx)
    fn_annos = set()
    # A fn-level annotation token must sit outside the parameter parens.
    for m2 in RE_FN_ANNO.finditer(seg):
        if not (open_idx < m2.start() < close_idx):
            fn_annos.add(m2.group(1))
    if body_info is not None:
        body, body_line = body_info
        defs.append((name, lineno, params, tainted_params, fn_annos,
                     body, body_line))
    else:
        if fn_annos or tainted_params:
            decls.append((name, lineno, tainted_params, fn_annos))


def build_records(root, findings):
    """Scan the tree, merge decls+defs per (subdir, name)."""
    records = {}

    def rec(rel, name):
        key = (subdir_of(rel), name)
        if key not in records:
            records[key] = FuncRecord(name)
        return records[key]

    raw_by_rel = {}
    for path in iter_source_files(root):
        rel = path.relative_to(root).as_posix()
        raw_lines = path.read_text(errors="replace").splitlines()
        raw_by_rel[rel] = raw_lines
        stripped = []
        in_block = False
        for raw in raw_lines:
            code, in_block = strip_comments_and_strings(raw, in_block)
            stripped.append(code)
        text = "\n".join(stripped)
        # offset -> 1-based line number
        starts = [0]
        for ln in stripped:
            starts.append(starts[-1] + len(ln) + 1)

        def line_of(off, _starts=starts):
            lo, hi = 0, len(_starts) - 1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if _starts[mid] <= off:
                    lo = mid
                else:
                    hi = mid - 1
            return lo + 1

        defs, decls = extract_file(rel, text, line_of, findings)
        for (name, lineno, params, tparams, fn_annos, body,
             body_line) in defs:
            r = rec(rel, name)
            r.locs.append((rel, lineno))
            r.fn_tainted |= ANNO_TAINTED in fn_annos
            r.fn_sanitizer |= ANNO_SANITIZER in fn_annos
            r.tainted_params |= tparams
            r.defs.append(FuncDef(name, rel, lineno, params,
                                  split_statements(body, body_line)))
        for name, lineno, tparams, fn_annos in decls:
            r = rec(rel, name)
            r.locs.append((rel, lineno))
            r.fn_tainted |= ANNO_TAINTED in fn_annos
            r.fn_sanitizer |= ANNO_SANITIZER in fn_annos
            r.tainted_params |= tparams
    return records, raw_by_rel


# --- dataflow -------------------------------------------------------------

def atoms_in(expr):
    out = []
    for m in RE_ATOM.finditer(expr):
        a = re.sub(r"\s+", "", m.group(0))
        root = re.match(r"[A-Za-z_]\w*", a).group(0)
        if root in CPP_KEYWORDS:
            continue
        out.append((a, root))
    return out


def strip_trusted_casts(code):
    """Replace WIRE_TRUSTED_CAST(...) spans (balanced) with a clean token."""
    out = []
    i = 0
    while True:
        j = code.find(TRUSTED_CAST, i)
        if j < 0:
            out.append(code[i:])
            break
        out.append(code[i:j])
        k = code.find("(", j)
        if k < 0:
            out.append("__wt_trusted__")
            i = j + len(TRUSTED_CAST)
            continue
        depth = 0
        end = len(code)
        for p in range(k, len(code)):
            if code[p] == "(":
                depth += 1
            elif code[p] == ")":
                depth -= 1
                if depth == 0:
                    end = p + 1
                    break
        out.append("__wt_trusted__")
        i = end
    return "".join(out)


def extract_condition(code, kw):
    """Condition text of `kw (...)` in code, or None."""
    m = re.search(rf"\b{kw}\s*\(", code)
    if not m:
        return None
    start = m.end() - 1
    depth = 0
    for p in range(start, len(code)):
        if code[p] == "(":
            depth += 1
        elif code[p] == ")":
            depth -= 1
            if depth == 0:
                return code[start + 1:p]
    return code[start + 1:]


class Flow:
    """Per-function forward taint state (path-insensitive: guards are the
    early-return compare-then-use idiom, so any comparison counts)."""

    def __init__(self, tainted_roots):
        self.tainted = set(tainted_roots)   # roots known wire-derived
        self.guarded = set()                # normalized atoms + roots

    def is_hot(self, atom, root):
        if atom in self.guarded or root in self.guarded:
            return False
        return root in self.tainted

    def hot_atoms(self, expr):
        return [(a, r) for a, r in atoms_in(expr) if self.is_hot(a, r)]

    def guard_expr(self, expr):
        for a, r in atoms_in(expr):
            if r in self.tainted:
                self.guarded.add(a)
                if a == r:
                    self.guarded.add(r)


RE_ASSIGN = re.compile(
    r"(?:^|[;(,]|\s)([A-Za-z_]\w*)\s*([+\-*/|&^]?)=(?![=])")


def analyze_function(record, fdef, records_by_name, raw_lines,
                     allowlist, findings):
    """Run the taint dataflow over one annotated function definition."""
    if record.fn_tainted:
        init = {p for p, _ in fdef.params}
    else:
        init = set(record.tainted_params)
    flow = Flow(init)
    ptr_roots = {p for p, is_ptr in fdef.params if is_ptr}
    sanitizer_names = {n for n, r in records_by_name.items()
                       if r.fn_sanitizer}
    tainted_fn_names = {n for n, r in records_by_name.items()
                        if r.fn_tainted and not r.fn_sanitizer}
    rel = fdef.rel

    def excused(start_line, end_line):
        for ln in range(start_line, min(end_line, len(raw_lines)) + 1):
            raw = raw_lines[ln - 1] if ln - 1 < len(raw_lines) else ""
            if RE_OK_MARKER.search(raw):
                return True
            for entry in allowlist:
                if entry.matches(rel, raw):
                    entry.used = True
                    return True
        return False

    def report(lineno, end_line, rule, msg, code):
        if excused(lineno, end_line):
            return
        findings.append((rel, lineno, rule, msg, code.strip()[:100]))

    for start_line, end_line, raw_code in fdef.stmts:
        code = strip_trusted_casts(raw_code)
        one = re.sub(r"\s+", " ", code)

        # -- ByteReader-style out-params first: `if (!in.read_uint(&v, 4))`
        # both writes v (taint) and may guard it in the same condition.
        for v in RE_OUT_PARAM.findall(one):
            flow.tainted.add(v)
            flow.guarded.discard(v)

        # -- sanitizer calls clean their receiver and arguments
        for sname in sanitizer_names:
            for m in re.finditer(
                    rf"(?:({ATOM})\s*(?:\.|->)\s*)?\b{sname}\s*\(", one):
                recv = m.group(1)
                if recv:
                    a = re.sub(r"\s+", "", recv)
                    root = re.match(r"[A-Za-z_]\w*", a).group(0)
                    flow.guarded.add(a)
                    flow.guarded.add(root)
                start = m.end() - 1
                depth = 0
                for p in range(start, len(one)):
                    if one[p] == "(":
                        depth += 1
                    elif one[p] == ")":
                        depth -= 1
                        if depth == 0:
                            flow.guard_expr(one[start + 1:p])
                            break

        # -- guards: compare-then-use inside `if (...)`
        cond = extract_condition(one, "if")
        if cond is not None and RE_COMPARISON.search(cond):
            # T3 first, against the pre-guard state: multiplying a tainted
            # value inside the guard can wrap before the comparison runs.
            if "*" in cond and "/" not in cond:
                for m in re.finditer(
                        rf"({ATOM})\s*\*|\*\s*({ATOM})", cond):
                    if m.group(2) is not None:
                        # `* atom` is only a multiplication when something
                        # multipliable precedes the star; after `(`, `,` or
                        # an operator it is a dereference (`f(*out)`).
                        before = cond[:m.start()].rstrip()
                        if not before or before[-1] not in ")]" \
                                and not (before[-1].isalnum()
                                         or before[-1] == "_"):
                            continue
                    a = re.sub(r"\s+", "", m.group(1) or m.group(2))
                    root = re.match(r"[A-Za-z_]\w*", a).group(0)
                    if flow.is_hot(a, root):
                        report(start_line, end_line, "overflow-guard",
                               f"guard multiplies tainted '{a}' — the "
                               "product can wrap and the check then "
                               "passes; use the division idiom "
                               "(`count > (size - off) / stride`)", one)
                        break
            flow.guard_expr(cond)
            continue

        # -- loop bounds are consumption, not guards
        loop_cond = None
        if re.match(r"\s*for\s*\(", one):
            inner = extract_condition(one, "for")
            if inner is not None:
                parts = inner.split(";")
                if len(parts) >= 2:
                    loop_cond = parts[1]
        elif re.match(r"\s*(?:}\s*)?while\s*\(", one):
            loop_cond = extract_condition(one, "while")
        if loop_cond is not None:
            for m in RE_ATOM.finditer(loop_cond):
                # A subscript base (`buf[i]`) is a read, not a bound — the
                # subscript rule owns its index expression.
                after = loop_cond[m.end():m.end() + 1]
                if after == "[":
                    continue
                a = re.sub(r"\s+", "", m.group(0))
                r = re.match(r"[A-Za-z_]\w*", a).group(0)
                if r in CPP_KEYWORDS or not flow.is_hot(a, r):
                    continue
                report(start_line, end_line, "unsanitized-sink",
                       f"loop bound uses tainted '{a}' with no prior "
                       "range check", one)
                break

        # -- sink: memcpy/memmove/memset size argument (3rd)
        for m in RE_MEM_SINK.finditer(one):
            start = m.end() - 1
            depth = 0
            end = len(one)
            for p in range(start, len(one)):
                if one[p] == "(":
                    depth += 1
                elif one[p] == ")":
                    depth -= 1
                    if depth == 0:
                        end = p
                        break
            args = split_top_commas(one[start + 1:end])
            if len(args) >= 3:
                for a, _r in flow.hot_atoms(args[2]):
                    report(start_line, end_line, "unsanitized-sink",
                           f"{m.group(1)} size uses tainted '{a}' with "
                           "no prior range check", one)
                    break

        # -- sink: allocation sizes
        for m in RE_ALLOC_SINK.finditer(one):
            fn = m.group(1) or m.group(2)
            start = m.end() - 1
            depth = 0
            end = len(one)
            for p in range(start, len(one)):
                if one[p] == "(":
                    depth += 1
                elif one[p] == ")":
                    depth -= 1
                    if depth == 0:
                        end = p
                        break
            for a, _r in flow.hot_atoms(one[start + 1:end]):
                report(start_line, end_line, "unsanitized-sink",
                       f"{fn}() size uses tainted '{a}' with no prior "
                       "range check", one)
                break
        for m in RE_NEW_ARRAY.finditer(one):
            start = m.end() - 1
            end = one.find("]", start)
            if end > start:
                for a, _r in flow.hot_atoms(one[start + 1:end]):
                    report(start_line, end_line, "unsanitized-sink",
                           f"new[] count uses tainted '{a}' with no "
                           "prior range check", one)
                    break

        # -- sink: array subscript (new T[...] is the allocation rule's)
        for m in RE_SUBSCRIPT.finditer(one):
            start = m.end() - 1
            if re.search(r"\bnew\s+[\w:<>]*$", one[:start]):
                continue
            depth = 0
            end = len(one)
            for p in range(start, len(one)):
                if one[p] == "[":
                    depth += 1
                elif one[p] == "]":
                    depth -= 1
                    if depth == 0:
                        end = p
                        break
            for a, _r in flow.hot_atoms(one[start + 1:end]):
                report(start_line, end_line, "unsanitized-sink",
                       f"subscript uses tainted '{a}' with no prior "
                       "range check", one)
                break

        # -- sink: pointer arithmetic (a `+` chain anchored on a pointer)
        for m in re.finditer(
                rf"({ATOM})((?:\s*\+\s*(?:{ATOM}|\d+))+)", one):
            base = re.sub(r"\s+", "", m.group(1))
            base_root = re.match(r"[A-Za-z_]\w*", base).group(0)
            is_ptrish = (base_root in ptr_roots
                         or base.endswith("data()")
                         or base.endswith("cursor()"))
            if not is_ptrish:
                continue
            for a, _r in flow.hot_atoms(m.group(2)):
                report(start_line, end_line, "unsanitized-sink",
                       f"pointer arithmetic adds tainted '{a}' with no "
                       "prior range check", one)
                break

        # -- gen/kill: assignments, producers, calls
        m = RE_ASSIGN.search(one)
        if m:
            lhs, op = m.group(1), m.group(2)
            rhs = one[m.end():]
            rhs_clean = (RE_CLAMP.search(rhs) is not None
                         or any(re.search(rf"\b{s}\s*\(", rhs)
                                for s in sanitizer_names)
                         or "__wt_trusted__" in rhs)
            rhs_hot = (RE_PRODUCER.search(rhs) is not None
                       or any(re.search(rf"\b{t}\s*\(", rhs)
                              for t in tainted_fn_names)
                       or bool(flow.hot_atoms(rhs)))
            if lhs not in CPP_KEYWORDS:
                if rhs_clean:
                    flow.tainted.discard(lhs)
                    flow.guarded.add(lhs)
                elif rhs_hot:
                    flow.tainted.add(lhs)
                    flow.guarded.discard(lhs)
                elif op == "":
                    flow.tainted.discard(lhs)
                    flow.guarded.discard(lhs)


# --- driver ---------------------------------------------------------------

def check_required(records, required, findings):
    for prefix, name in required:
        ok = False
        for (_sub, rname), r in records.items():
            if rname != name:
                continue
            if any(rel.startswith(prefix) for rel, _ in r.locs):
                if r.fn_tainted:
                    ok = True
                break
        if not ok:
            findings.append(
                (prefix + ".*", 0, "required-taint",
                 f"'{name}' ingests wire bytes but carries no WIRE_TAINTED "
                 "annotation — the taint analysis cannot see this entry "
                 "point", name))


def run(root, allowlist, allow_path, required=None, quiet=False):
    findings = []
    records, raw_by_rel = build_records(root, findings)
    check_required(records, REQUIRED_SOURCES if required is None
                   else required, findings)

    # Name-indexed view for sanitizer/tainted-call resolution: collisions
    # across subdirs are acceptable for *calls* (the names are curated).
    records_by_name = {}
    for (_sub, name), r in records.items():
        prev = records_by_name.get(name)
        if prev is None:
            records_by_name[name] = r
        else:
            merged = FuncRecord(name)
            merged.fn_tainted = prev.fn_tainted or r.fn_tainted
            merged.fn_sanitizer = prev.fn_sanitizer or r.fn_sanitizer
            records_by_name[name] = merged

    analyzed = 0
    for r in records.values():
        if not (r.fn_tainted or r.tainted_params):
            continue
        for fdef in r.defs:
            analyzed += 1
            analyze_function(r, fdef, records_by_name,
                             raw_by_rel.get(fdef.rel, []),
                             allowlist, findings)

    status = 0
    if findings:
        if not quiet:
            print(f"wire_taint: {len(findings)} finding(s)\n")
            print("\n".join(f"{rel}:{lineno}: {rule}: {msg}\n    {raw}"
                            for rel, lineno, rule, msg, raw in findings))
        status = 1
    stale = [e for e in allowlist if not e.used]
    if stale:
        if not quiet:
            print("wire_taint: stale allowlist entries "
                  "(nothing matches — delete them):")
            for e in stale:
                print(f"  {allow_path}:{e.lineno}: {e.path} | {e.pattern}")
        status = 1
    if status == 0 and not quiet:
        n_src = sum(1 for r in records.values()
                    if r.fn_tainted or r.tainted_params)
        n_san = sum(1 for r in records.values() if r.fn_sanitizer)
        print(f"wire_taint: clean ({n_src} tainted function(s), "
              f"{n_san} sanitizer(s), {analyzed} bodies analyzed)")
    return status, findings


# --- clang backend (gated) ------------------------------------------------

def run_clang_backend(root, allowlist, allow_path):
    """Bind annotations from the clang AST instead of lexically. Needs the
    libclang python bindings; this container ships neither the bindings
    nor libclang.so, so the gate errors out with instructions rather than
    pretending. The dataflow engine downstream is identical."""
    try:
        import clang.cindex as cindex  # noqa: F401
    except ImportError:
        print("wire_taint: --backend clang needs the libclang python "
              "bindings (pip install libclang) and a libclang.so; neither "
              "is present. Use --backend text (the default), which binds "
              "the same annotations lexically.", file=sys.stderr)
        return 2
    index = cindex.Index.create()
    annotated = {}
    for path in iter_source_files(root):
        tu = index.parse(str(path), args=["-std=c++20", f"-I{root}/src"])
        for cur in tu.cursor.walk_preorder():
            if cur.kind not in (cindex.CursorKind.FUNCTION_DECL,
                                cindex.CursorKind.CXX_METHOD):
                continue
            annos = [c.displayname for c in cur.get_children()
                     if c.kind == cindex.CursorKind.ANNOTATE_ATTR]
            if annos:
                annotated[cur.spelling] = annos
    # The AST pass only cross-checks annotation binding; the dataflow
    # still runs over the text (same engine, same verdicts).
    status, _ = run(root, allowlist, allow_path)
    print(f"wire_taint: clang backend cross-checked "
          f"{len(annotated)} annotated decls")
    return status


# --- canary ---------------------------------------------------------------

CANARY_REL = "src/pbio/__wire_taint_canary.cc"
CANARY_CODE = """\
#include <cstring>
#include "util/wire_taint.h"
namespace pbio {
WIRE_TAINTED void canary_copy(const unsigned char* src, unsigned char* dst,
                              unsigned long wire_len) {
  std::memcpy(dst, src, wire_len);
}
}  // namespace pbio
"""


def run_canary(root, allowlist, allow_path):
    """Copy the scanned trees to a scratch tree, inject an unguarded
    wire-sized memcpy in a WIRE_TAINTED function, and demand the analysis
    catches it."""
    with tempfile.TemporaryDirectory(prefix="wire_taint_canary_") as tmp:
        troot = pathlib.Path(tmp)
        for top in SCAN_ROOTS:
            shutil.copytree(root / top, troot / top,
                            ignore=shutil.ignore_patterns(*SKIP_DIR_NAMES))
        (troot / CANARY_REL).write_text(CANARY_CODE)
        _status, findings = run(troot, allowlist, allow_path, quiet=True)
        hits = [f for f in findings
                if f[0] == CANARY_REL and f[2] == "unsanitized-sink"]
        if hits:
            print("wire_taint --canary: caught the planted "
                  f"memcpy(dst, src, wire_len) ({hits[0][0]}:{hits[0][1]})")
            return 0
        print("wire_taint --canary: FAILED — the planted unguarded "
              "memcpy in a WIRE_TAINTED function was not detected")
        for f in findings:
            print(f"  (saw) {f[0]}:{f[1]}: {f[2]}: {f[3]}")
        return 1


# --- self-test ------------------------------------------------------------

SELF_TEST_FILES = {
    # T2: unguarded memcpy size (params tainted by fn-level annotation);
    # guarded copy in the same file stays clean.
    "src/a/mem.cc": """\
#include "util/wire_taint.h"
WIRE_TAINTED void f_hit(const uint8_t* src, uint8_t* dst, size_t len) {
  std::memcpy(dst, src, len);
}
WIRE_TAINTED void f_ok(const uint8_t* src, uint8_t* dst, size_t len) {
  if (len > kMax) return;
  std::memcpy(dst, src, len);
}
WIRE_TAINTED void f_memset_value(uint8_t* dst, size_t len, int fill) {
  if (len > kMax) return;
  std::memset(dst, fill, len);
}
""",
    # T2 escapes: trusted cast, inline marker, allowlist (entry below).
    "src/a/escape.cc": """\
#include "util/wire_taint.h"
WIRE_TAINTED void g_cast(uint8_t* dst, const uint8_t* src, size_t len) {
  std::memcpy(dst, src, WIRE_TRUSTED_CAST(len, "caller pre-validated"));
}
WIRE_TAINTED void g_marker(uint8_t* dst, const uint8_t* src, size_t len) {
  std::memcpy(dst, src, len);  // wire-taint: ok proven by caller contract
}
WIRE_TAINTED void g_allow(uint8_t* dst, const uint8_t* src, size_t len) {
  std::memcpy(dst, src, len);
}
""",
    # T2: subscript, allocation, loop bound, pointer arithmetic.
    "src/a/sinks.cc": """\
#include "util/wire_taint.h"
WIRE_TAINTED int s_subscript(const uint8_t* buf, size_t idx) {
  return buf[idx];
}
WIRE_TAINTED void s_alloc(std::vector<uint8_t>& v, size_t n) {
  v.resize(n);
}
WIRE_TAINTED void s_alloc_ok(std::vector<uint8_t>& v, size_t n) {
  if (n > kCap) return;
  v.reserve(n);
}
WIRE_TAINTED void s_loop(size_t count) {
  for (size_t i = 0; i < count; ++i) step();
}
WIRE_TAINTED void s_loop_ok(size_t count) {
  if (count > kMaxCount) return;
  for (size_t i = 0; i < count; ++i) step();
}
WIRE_TAINTED const uint8_t* s_ptr(const uint8_t* base, uint64_t off) {
  return base + off;
}
WIRE_TAINTED const uint8_t* s_ptr_ok(const uint8_t* base, uint64_t off,
                                     size_t size) {
  if (off > size) return nullptr;
  return base + off;
}
""",
    # Producers and kills: load_uint taints, literals kill, min clears,
    # read_uint(&v) out-param taints.
    "src/a/producer.cc": """\
#include "util/wire_taint.h"
WIRE_TAINTED void p_load(const uint8_t* buf, uint8_t* dst) {
  uint64_t n = load_uint(buf, 8);
  std::memcpy(dst, buf, n);
}
WIRE_TAINTED void p_kill(const uint8_t* buf, uint8_t* dst, size_t n) {
  n = 16;
  std::memcpy(dst, buf, n);
}
WIRE_TAINTED void p_min(const uint8_t* buf, uint8_t* dst, size_t n) {
  size_t m = std::min(n, kChunk);
  std::memcpy(dst, buf, m);
}
WIRE_TAINTED void p_out(ByteReader& in, uint8_t* dst, const uint8_t* buf) {
  uint64_t v = 0;
  in.read_uint(&v, 4);
  std::memcpy(dst, buf, v);
}
""",
    # Param-level annotation: only the annotated param is tainted.
    "src/a/param.cc": """\
#include "util/wire_taint.h"
void q_param(uint8_t* dst, const uint8_t* trusted, WIRE_TAINTED size_t n) {
  std::memcpy(dst, trusted, n);
}
void q_other(uint8_t* dst, const uint8_t* trusted, WIRE_TAINTED size_t n,
             size_t safe) {
  if (n > kMax) return;
  std::memcpy(dst, trusted, safe);
}
""",
    # Sanitizers: annotated sanitizer call cleans receiver + args; a
    # sanitizer's return value is clean at its call sites; a tainted
    # function's return value is hot at its call sites.
    "src/a/sani.h": """\
#include "util/wire_taint.h"
WIRE_SANITIZER bool validate_len(size_t len);
WIRE_TAINTED uint64_t peek_len(const uint8_t* buf);
WIRE_TAINTED WIRE_SANITIZER uint64_t checked_len(const uint8_t* buf);
""",
    "src/a/sani.cc": """\
#include "a/sani.h"
WIRE_TAINTED void c_sani(const uint8_t* buf, uint8_t* dst, size_t len) {
  validate_len(len);
  std::memcpy(dst, buf, len);
}
WIRE_TAINTED void c_ret_hot(const uint8_t* buf, uint8_t* dst) {
  uint64_t n = peek_len(buf);
  std::memcpy(dst, buf, n);
}
WIRE_TAINTED void c_ret_clean(const uint8_t* buf, uint8_t* dst) {
  uint64_t n = checked_len(buf);
  std::memcpy(dst, buf, n);
}
""",
    # T3: multiplying wire values inside the guard; the division idiom
    # and a guard-free of '*' stay clean.
    "src/a/ovf.cc": """\
#include "util/wire_taint.h"
WIRE_TAINTED void o_hit(size_t off, size_t count, size_t es, size_t size) {
  if (off + count * es > size) return;
  use(off, count);
}
WIRE_TAINTED void o_div(size_t off, size_t count, size_t es, size_t size) {
  if (off > size || count > (size - off) / es) return;
  use(off, count);
}
WIRE_TAINTED void o_deref(Image* out, uint64_t sum) {
  if (checksum(*out) != sum) return;
  use(out);
}
""",
    # T4: annotation that binds to nothing.
    "src/a/dangle.cc": """\
#include "util/wire_taint.h"
WIRE_TAINTED int not_a_function_decl;
""",
    # Un-annotated functions are not analyzed (no findings even with a
    # would-be sink), and a decl-in-.h annotation reaches the .cc body.
    "src/a/plain.cc": """\
void unannotated(uint8_t* dst, const uint8_t* src, size_t n) {
  std::memcpy(dst, src, n);
}
""",
    "src/a/merge.h": """\
#include "util/wire_taint.h"
WIRE_TAINTED void merged_fn(const uint8_t* buf, uint8_t* dst, size_t n);
""",
    "src/a/merge.cc": """\
#include "a/merge.h"
void merged_fn(const uint8_t* buf, uint8_t* dst, size_t n) {
  std::memcpy(dst, buf, n);
}
""",
    # Guarded member-expression snippet: `frame.size()` checked once
    # covers later uses of the same expression.
    "src/a/snippet.cc": """\
#include "util/wire_taint.h"
WIRE_TAINTED void snip(const FrameBuf& frame, uint8_t* dst) {
  if (frame.size() < kHeader) return;
  std::memcpy(dst, frame.data(), frame.size());
}
""",
    # new[] allocation count; guarded twin stays clean.
    "src/a/newarr.cc": """\
#include "util/wire_taint.h"
WIRE_TAINTED uint8_t* n_hit(size_t count) {
  return new uint8_t[count];
}
WIRE_TAINTED uint8_t* n_ok(size_t count) {
  if (count > kMaxEntries) return nullptr;
  return new uint8_t[count];
}
""",
    # while-loop bound on a wire value.
    "src/a/whileloop.cc": """\
#include "util/wire_taint.h"
WIRE_TAINTED void w_hit(size_t remaining) {
  size_t i = 0;
  while (i < remaining) { step(); ++i; }
}
WIRE_TAINTED void w_ok(size_t remaining, size_t cap) {
  if (remaining > cap) return;
  size_t i = 0;
  while (i < remaining) { step(); ++i; }
}
""",
    # A tainted function's return value flowing into a subscript.
    "src/a/chain.cc": """\
#include "a/sani.h"
WIRE_TAINTED int chain_hit(const uint8_t* buf, const int* tbl) {
  uint64_t k = peek_len(buf);
  return tbl[k];
}
WIRE_TAINTED int chain_ok(const uint8_t* buf, const int* tbl) {
  uint64_t k = peek_len(buf);
  if (k >= kTblLen) return -1;
  return tbl[k];
}
""",
}

# (file, expected rule -> count) — counts keep one hit from masking a
# missing second case in the same file.
SELF_TEST_EXPECT = {
    "src/a/mem.cc": {"unsanitized-sink": 1},
    "src/a/escape.cc": {"unsanitized-sink": 0},
    "src/a/sinks.cc": {"unsanitized-sink": 4},
    "src/a/producer.cc": {"unsanitized-sink": 2},
    "src/a/param.cc": {"unsanitized-sink": 1},
    "src/a/sani.cc": {"unsanitized-sink": 1},
    "src/a/ovf.cc": {"overflow-guard": 1},
    "src/a/dangle.cc": {"dangling-annotation": 1},
    "src/a/plain.cc": {},
    "src/a/merge.cc": {"unsanitized-sink": 1},
    "src/a/snippet.cc": {"unsanitized-sink": 0},
    "src/a/sani.h": {},
    "src/a/merge.h": {},
    "src/a/newarr.cc": {"unsanitized-sink": 1},
    "src/a/whileloop.cc": {"unsanitized-sink": 1},
    "src/a/chain.cc": {"unsanitized-sink": 1},
}

SELF_TEST_REQUIRED = [
    ("src/a/mem", "f_hit"),          # satisfied: annotated above
    ("src/a/mem", "missing_fn"),     # unsatisfied -> required-taint
]


def self_test():
    failures = []
    with tempfile.TemporaryDirectory(prefix="wire_taint_selftest_") as tmp:
        root = pathlib.Path(tmp)
        for rel, content in SELF_TEST_FILES.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
        allowlist = [AllowEntry("src/a/escape.cc", "std::memcpy(dst, src, len);",
                                "self-test entry", 1)]
        stale = AllowEntry("src/a/nothing.cc", "never-matches",
                           "self-test stale entry", 2)
        _status, findings = run(root, allowlist + [stale], pathlib.Path("-"),
                                required=SELF_TEST_REQUIRED, quiet=True)
        got = {}
        for rel, _lineno, rule, _msg, _raw in findings:
            got.setdefault(rel, {}).setdefault(rule, 0)
            got[rel][rule] += 1
        cases = 0
        for rel, expect in SELF_TEST_EXPECT.items():
            cases += max(1, len(expect))
            actual = {k: v for k, v in got.get(rel, {}).items() if v}
            expect = {k: v for k, v in expect.items() if v}
            if actual != expect:
                failures.append(f"  {rel}: expected {expect}, got {actual}")
        # T1 fired exactly for the one unsatisfied required entry.
        cases += 2
        req = [f for f in findings if f[2] == "required-taint"]
        if len(req) != 1 or req[0][4] != "missing_fn":
            failures.append(f"  required-taint: expected exactly "
                            f"missing_fn, got {[f[4] for f in req]}")
        # Allowlist bookkeeping.
        cases += 2
        if not allowlist[0].used:
            failures.append("  matching allowlist entry not marked used")
        if stale.used:
            failures.append("  stale allowlist entry marked used")
        # The canary must fire end-to-end against a synthetic tree too.
        cases += 1
        (root / CANARY_REL).parent.mkdir(parents=True, exist_ok=True)
        (root / CANARY_REL).write_text(CANARY_CODE)
        _s2, f2 = run(root, [], pathlib.Path("-"),
                      required=SELF_TEST_REQUIRED, quiet=True)
        if not any(f[0] == CANARY_REL and f[2] == "unsanitized-sink"
                   for f in f2):
            failures.append("  canary memcpy not detected")
    if failures:
        print(f"wire_taint --self-test: {len(failures)} failure(s)")
        print("\n".join(failures))
        return 1
    print(f"wire_taint --self-test: {cases} cases ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of this script)")
    ap.add_argument("--allowlist", default=None,
                    help=f"allowlist file (default: {DEFAULT_ALLOWLIST})")
    ap.add_argument("--backend", default="auto",
                    choices=["auto", "text", "clang"],
                    help="annotation binding: text (lexical, default), "
                    "clang (libclang AST, needs bindings), auto")
    ap.add_argument("--self-test", action="store_true",
                    help="run the checker's own rule tests and exit")
    ap.add_argument("--canary", action="store_true",
                    help="inject an unguarded wire-length memcpy into a "
                    "scratch copy of src/ and verify it is caught")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    root = pathlib.Path(args.root).resolve() if args.root else \
        pathlib.Path(__file__).resolve().parent.parent
    allow_path = pathlib.Path(args.allowlist) if args.allowlist else \
        root / DEFAULT_ALLOWLIST
    allowlist = load_allowlist(allow_path)

    if args.canary:
        return run_canary(root, allowlist, allow_path)

    backend = args.backend
    if backend == "auto":
        backend = "text"
    if backend == "clang":
        return run_clang_backend(root, allowlist, allow_path)
    status, _ = run(root, allowlist, allow_path)
    return status


if __name__ == "__main__":
    sys.exit(main())
