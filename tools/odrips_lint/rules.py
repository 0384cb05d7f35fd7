"""Per-line token rules and build-integration rules for odrips-lint.

These are the v1 rules (see tools/odrips-lint --help for the catalog),
now reporting through a shared Context so allow-tag usage is tracked
for the stale-allow pass. The index-driven semantic passes live in
odrips_lint.passes.
"""

import os
import re

__all__ = [
    "TOKEN_RULES", "check_tokens", "check_raw_units",
    "check_cmake_targets", "check_tsan_labels",
    "WALL_CLOCK_RE", "STATE_COPY_TYPES", "strip_cmake_comments",
]

# Files that implement the sanctioned abstraction a rule polices.
RULE_EXEMPT_FILES = {
    "raw-rand": {"src/sim/random.hh", "src/sim/random.cc"},
    "wall-clock": set(),
    "raw-units": {"src/sim/units.hh"},
}

# Host time sources. Covers the classic chrono clocks, the C++20
# additions that still read host state (utc_clock, file_clock, and the
# tai/gps clocks derived from utc), POSIX clock calls, and the C
# broken-down-time readers localtime/gmtime (incl. _r/_s variants).
WALL_CLOCK_RE = re.compile(
    r"std::chrono::(system_clock|steady_clock|high_resolution_clock"
    r"|utc_clock|file_clock|tai_clock|gps_clock)"
    r"|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\("
    r"|\blocaltime(?:_r|_s)?\s*\("
    r"|\bgmtime(?:_r|_s)?\s*\("
    r"|(?:\bstd::|\b::|^|[^:\w.])time\s*\(\s*(?:nullptr|NULL|0|&)"
)

RAW_RAND_RE = re.compile(
    r"\bstd::rand\b|\bsrand\s*\(|\brandom_device\b|\bdrand48\b|\blrand48\b"
)

RAW_UNIT_RE = re.compile(
    r"\bdouble\b[^;{}()=]*\b\w*(?:[Ss]econds?|SECONDS?"
    r"|[Jj]oules?|JOULES?|[Ww]atts?|WATTS?)\w*"
)

CONCURRENCY_RE = re.compile(
    r"exec/thread_pool\.hh|exec/parallel_sweep\.hh"
    r"|\bstd::(?:thread|jthread|async)\b"
)

# Intrinsic headers (x86 *mmintrin.h family, x86intrin.h, ARM NEON/ACLE)
# and the identifier families they introduce.
SIMD_RE = re.compile(
    r"\b[a-z0-9]*mmintrin\.h\b|\bx86intrin\.h\b"
    r"|\barm_neon\.h\b|\barm_acle\.h\b"
    r"|\b_mm\d{0,3}_\w+|\b__m(?:64|128|256|512)[id]?\b"
    r"|\bv(?:ld|st)[1-4]q?_\w+"
)

# The one directory allowed to contain raw intrinsics.
SIMD_EXEMPT_PREFIX = "src/arch/"

# Thread-spawning primitives: the type names themselves (but not
# nested members like std::thread::id, which spawn nothing) and
# std::async calls.
RAW_THREAD_RE = re.compile(
    r"\bstd::(?:thread|jthread)\b(?!\s*::)|\bstd::async\s*\(")

# The one directory allowed to own raw threads.
THREAD_EXEMPT_PREFIX = "src/exec/"

# Simulator state types that are NOT trivially copyable: they own heap
# allocations (vectors, unique_ptrs), intrusive event-queue links, or
# registration back-pointers, so a raw byte copy produces a sliced,
# double-freeing aliasing of the original. The serializers under
# src/sim/checkpoint/ are the sanctioned way to copy such state. The
# same list seeds the ckpt-coverage pass's audited-type set.
STATE_COPY_TYPES = (
    "Platform", "StandbySimulator", "StandbyFlows", "EventQueue",
    "Event", "PowerModel", "PowerComponent", "PowerAnalyzer",
    "EnergyAccountant", "Mee", "MeeCache", "MemoryController",
    "ProcessorContext", "ContextRegion", "DirtyLineMap", "Snapshot",
    "SnapshotImage", "StatGroup", "Histogram",
)
STATE_MEMCPY_RE = re.compile(
    r"\b(?:std::)?mem(?:cpy|move)\s*\("
    r"[^;]*\bsizeof\s*\(\s*(?:\w+::)*(?:"
    + "|".join(STATE_COPY_TYPES) + r")\s*\)")
MEMCPY_CALL_RE = re.compile(r"\b(?:std::)?mem(?:cpy|move)\s*\(")

# The one directory allowed to serialize simulator state byte-wise.
CKPT_EXEMPT_PREFIX = "src/sim/checkpoint/"

TOKEN_RULES = {"wall-clock", "raw-rand", "simd-intrinsic", "raw-thread",
               "state-memcpy"}


def check_tokens(ctx, rel):
    """Run the per-line token rules over one file."""
    info = ctx.file(rel)
    if info is None:
        return
    code = info.code
    posix = rel.replace(os.sep, "/")
    for idx, line in enumerate(code):
        if WALL_CLOCK_RE.search(line) and \
                rel not in RULE_EXEMPT_FILES["wall-clock"]:
            ctx.report(rel, idx, "wall-clock",
                       "host time source in simulator code; "
                       "derive time from the event queue")
        if RAW_RAND_RE.search(line) and \
                rel not in RULE_EXEMPT_FILES["raw-rand"]:
            ctx.report(rel, idx, "raw-rand",
                       "unseeded randomness; use the streams "
                       "in sim/random.hh")
        if SIMD_RE.search(line) and \
                not posix.startswith(SIMD_EXEMPT_PREFIX):
            ctx.report(rel, idx, "simd-intrinsic",
                       "SIMD intrinsics outside src/arch/; "
                       "call through the kernels in "
                       "arch/dispatch.hh instead")
        if RAW_THREAD_RE.search(line) and \
                not posix.startswith(THREAD_EXEMPT_PREFIX):
            ctx.report(rel, idx, "raw-thread",
                       "raw thread primitive outside "
                       "src/exec/; use exec::ThreadPool / "
                       "TaskGroup (deterministic sharding, "
                       "TSan-covered)")
        # A call split across lines ("memcpy(\n &dst, ...") is
        # joined with its continuation; matching only lines that
        # hold the call itself avoids double-reporting.
        if MEMCPY_CALL_RE.search(line):
            joined = line
            if idx + 1 < len(code):
                joined = line + " " + code[idx + 1].lstrip()
            if STATE_MEMCPY_RE.search(joined) and \
                    not posix.startswith(CKPT_EXEMPT_PREFIX):
                ctx.report(rel, idx, "state-memcpy",
                           "raw byte copy of a non-trivially-"
                           "copyable simulator type; copy "
                           "state through the serializers in "
                           "sim/checkpoint/")


def check_raw_units(ctx, rel):
    info = ctx.file(rel)
    if info is None or rel in RULE_EXEMPT_FILES["raw-units"]:
        return
    code = info.code
    for idx in range(len(code)):
        line = code[idx]
        # A declaration split after the return type: join the pair so
        # `double\n    windowSeconds()` is still seen.
        if line.rstrip().endswith("double") and idx + 1 < len(code):
            line = line + " " + code[idx + 1].lstrip()
        if RAW_UNIT_RE.search(line):
            ctx.report(rel, idx, "raw-units",
                       "raw double with a seconds/joules/watts "
                       "name in a public header; use the strong "
                       "types from sim/units.hh")


# -- build-integration rules ----------------------------------------------

_CMAKE_QUOTE_AWARE_HASH = re.compile(r'"(?:[^"\\]|\\.)*"|(#)')


def strip_cmake_comments(text):
    """Blank `#` comments out of CMake source, line by line.

    Quoted strings are respected (a ``#`` inside ``"..."`` is not a
    comment); bracket comments are treated like line comments, which is
    exact enough for this repo. Line count is preserved.
    """
    out = []
    for line in text.splitlines():
        cut = len(line)
        for m in _CMAKE_QUOTE_AWARE_HASH.finditer(line):
            if m.group(1):
                cut = m.start(1)
                break
        out.append(line[:cut])
    return "\n".join(out)


def check_cmake_targets(ctx):
    registered = set()
    dir_words = {}
    for path in ctx.cmake_files():
        with open(path, "r", encoding="utf-8") as f:
            text = strip_cmake_comments(f.read())
        for token in re.findall(r"[\w./-]+\.(?:cc|cpp)\b", text):
            registered.add(os.path.basename(token))
        rel_dir = os.path.relpath(os.path.dirname(path), ctx.root)
        dir_words[rel_dir] = set(re.findall(r"[\w-]+", text))
    roots = {"src": ".cc", "tests": ".cc",
             "bench": ".cpp", "examples": ".cpp"}
    for sub, ext in roots.items():
        for rel in ctx.cxx_files([sub]):
            if not rel.endswith(ext):
                continue
            if os.path.basename(rel) in registered:
                continue
            # Helper macros like odrips_bench(name) append the
            # extension themselves; accept a bare-stem mention in
            # the nearest enclosing CMakeLists.txt.
            stem = os.path.splitext(os.path.basename(rel))[0]
            probe = os.path.dirname(rel)
            found = False
            while True:
                if stem in dir_words.get(probe, ()):
                    found = True
                    break
                if probe in ("", "."):
                    break
                probe = os.path.dirname(probe) or "."
            if not found:
                ctx.report(rel, 0, "cmake-target",
                           "source file is not registered in any "
                           "CMakeLists.txt target")


def check_tsan_labels(ctx):
    cmake = os.path.join(ctx.root, "tests", "CMakeLists.txt")
    if not os.path.isfile(cmake):
        return
    with open(cmake, "r", encoding="utf-8") as f:
        text = strip_cmake_comments(f.read())
    for m in re.finditer(r"odrips_test\s*\(([^)]*)\)", text):
        body = m.group(1).split()
        if not body:
            continue
        target = body[0]
        labels = []
        sources = []
        in_labels = False
        for token in body[1:]:
            if token == "LABELS":
                in_labels = True
                continue
            (labels if in_labels else sources).append(token)
        line_idx = text[:m.start()].count("\n")
        uses_threads = False
        for src in sources:
            path = os.path.join(ctx.root, "tests", src)
            if not os.path.isfile(path):
                continue
            with open(path, "r", encoding="utf-8",
                      errors="replace") as f:
                if CONCURRENCY_RE.search(f.read()):
                    uses_threads = True
                    break
        if uses_threads and "odrips_tsan" not in labels:
            ctx.report(os.path.join("tests", "CMakeLists.txt"),
                       line_idx, "tsan-label",
                       f"test target '{target}' exercises the "
                       "thread pool but lacks LABELS odrips_tsan")
