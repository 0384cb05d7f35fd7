"""Index-driven semantic passes for odrips-lint.

  ckpt-coverage   every data member of every checkpoint-covered state
                  type must be serialized by the capture AND restore
                  sides of src/core/checkpoint.cc (directly or through
                  the save/load helpers it calls), or carry an explicit
                  `// ckpt:` annotation. Adding a field without
                  updating Snapshot becomes a lint failure instead of
                  a flaky golden.
  layering        the src/ include graph must respect the layer order
                  arch < sim < {clock,exec,stats} <
                  {power,timing,io,mem,security} <
                  {platform,workload,flows} < core < fleet: no
                  include may point at a higher tier, same-tier
                  sibling includes must stay acyclic, and no
                  file-level include cycle is permitted anywhere.
  unordered-iter  (cross-file half) iterating an unordered container
                  member that was declared in a *header* from another
                  translation unit — the per-file rule cannot see the
                  declaration, the index can.
  fleet-hotloop   functions annotated `// fleet: hotloop` (the fleet
                  campaign's per-device path) must stay free of heap
                  allocation and of unordered-container iteration: a
                  stray push_back or make_unique in the device loop
                  costs throughput at fleet scale and an unordered walk
                  breaks the determinism gate.
  stale-allow     `odrips-lint: allow(...)` comments that no longer
                  suppress any finding, so suppressions cannot rot.
"""

import os
import re

from odrips_lint.rules import STATE_COPY_TYPES

__all__ = ["run_layering", "run_unordered_iter", "run_ckpt_coverage",
           "run_fleet_hotloop", "run_stale_allow", "LAYER_TIERS",
           "CHECKPOINT_FILE"]

CHECKPOINT_FILE = "src/core/checkpoint.cc"

# The include DAG, lowest tier first. A file in src/<dir>/ may include
# its own directory, any lower tier, and same-tier siblings (the
# sibling edges must form a DAG — checked below); it must never include
# a higher tier.
LAYER_TIERS = (
    ("arch",),
    ("sim",),
    ("clock", "exec", "stats"),
    ("power", "timing", "io", "mem", "security"),
    ("platform", "workload", "flows"),
    ("core",),
    ("fleet",),
)

_TIER_OF = {d: i for i, tier in enumerate(LAYER_TIERS) for d in tier}

_IDENT_RE = re.compile(r"[A-Za-z_]\w*\Z")


def _src_dir_of(rel):
    """'src/<d>/...' -> '<d>' when <d> is a known layer, else None."""
    parts = rel.replace(os.sep, "/").split("/")
    if len(parts) >= 3 and parts[0] == "src" and parts[1] in _TIER_OF:
        return parts[1]
    return None


# -------------------------------------------------------------- layering


def run_layering(ctx):
    idx = ctx.index
    src_files = sorted(r for r in idx.files
                       if r.replace(os.sep, "/").startswith("src/"))

    # 1. Per-include tier check + directory edge collection.
    dir_edges = {}
    file_edges = {}
    for rel in src_files:
        d = _src_dir_of(rel)
        info = idx.files[rel]
        edges = []
        for line_idx, inc in info.includes:
            target_dir = inc.split("/")[0] if "/" in inc else None
            resolved = "src/" + inc
            if resolved in idx.files:
                edges.append(resolved)
            if d is None or target_dir not in _TIER_OF:
                continue
            if _TIER_OF[target_dir] > _TIER_OF[d]:
                ctx.report(rel, line_idx, "layering",
                           f"src/{d}/ (tier {_TIER_OF[d]}) must not "
                           f"include \"{inc}\" from src/{target_dir}/ "
                           f"(tier {_TIER_OF[target_dir]}): the layer "
                           "order is arch < sim < {clock,exec,stats} < "
                           "{power,timing,io,mem,security} < "
                           "{platform,workload,flows} < core < fleet")
            if target_dir != d:
                dir_edges.setdefault(d, set()).add(target_dir)
        file_edges[rel] = edges

    # 2. Same-tier sibling edges must form a DAG at directory level.
    for cycle in _find_cycles(dir_edges):
        if len({_TIER_OF[d] for d in cycle}) != 1:
            continue  # a cross-tier cycle already contains an upward
            # include reported above
        anchor = min(cycle)
        rel = next((r for r in src_files if _src_dir_of(r) == anchor),
                   None)
        if rel is not None:
            ctx.report(rel, 0, "layering",
                       "include cycle between same-tier directories: "
                       + " -> ".join(sorted(cycle)) + " -> ...")

    # 3. No file-level include cycles anywhere.
    for cycle in _find_cycles(file_edges):
        anchor = min(cycle)
        path = _cycle_order(file_edges, anchor, set(cycle))
        ctx.report(anchor, 0, "layering",
                   "file include cycle: " + " -> ".join(path)
                   + " -> " + path[0])


def _find_cycles(edges):
    """Strongly connected components with >1 node, or self-loops.

    Returns a deterministic list of node sets. Iterative Tarjan.
    """
    index_of = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for start in sorted(edges):
        if start in index_of:
            continue
        work = [(start, iter(sorted(edges.get(start, ()))))]
        index_of[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index_of:
                    index_of[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                comp = set()
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    comp.add(top)
                    if top == node:
                        break
                if len(comp) > 1 or node in edges.get(node, ()):
                    sccs.append(comp)
    return sccs


def _cycle_order(edges, start, comp):
    """Walk ``comp`` from ``start`` along edges for a readable path."""
    path = [start]
    seen = {start}
    node = start
    while True:
        nxt = next((n for n in sorted(edges.get(node, ()))
                    if n in comp and n not in seen), None)
        if nxt is None:
            return path
        path.append(nxt)
        seen.add(nxt)
        node = nxt


# -------------------------------------------------------- unordered-iter

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s+(\w+)\s*[;{=]"
)
UNORDERED_TYPE_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")
# Ordered/sequence container declarations: a local with one of these
# types shadows any same-named unordered member for this file.
ORDERED_DECL_RE = re.compile(
    r"\b(?:map|set|multimap|multiset|vector|deque|list|array|string"
    r"|span)\s*<[^;{]*>\s+(\w+)\s*[;{=(]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*(?:[\w.\->]*[.>])?(\w+)\s*\)")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*(?:begin|cbegin)\s*\(")


def unordered_members(index):
    """name -> (class qual_name, file, 1-based line) for every
    unordered-container data member in the index."""
    out = {}
    for name in sorted(index.classes):
        for cls in index.classes[name]:
            for m in cls.members:
                if UNORDERED_TYPE_RE.search(m.type_text) and \
                        m.name not in out:
                    out[m.name] = (cls.qual_name, cls.file, m.line + 1)
    return out


def run_unordered_iter(ctx, scan_files):
    members = unordered_members(ctx.index)
    for rel in scan_files:
        info = ctx.file(rel)
        if info is None:
            continue
        local_unordered = set()
        local_ordered = set()
        for line in info.code:
            local_unordered.update(UNORDERED_DECL_RE.findall(line))
            local_ordered.update(ORDERED_DECL_RE.findall(line))
        for idx, line in enumerate(info.code):
            names = [m.group(1) for m in RANGE_FOR_RE.finditer(line)]
            names += [m.group(1) for m in BEGIN_CALL_RE.finditer(line)]
            for name in names:
                if name in local_unordered:
                    ctx.report(rel, idx, "unordered-iter",
                               f"iteration over unordered container "
                               f"'{name}' is order-unstable")
                elif name in members and name not in local_ordered:
                    qual, decl_file, decl_line = members[name]
                    if decl_file == rel:
                        continue  # member decl matched local regex or
                        # is visible to the per-file path already
                    ctx.report(rel, idx, "unordered-iter",
                               f"iteration over unordered member "
                               f"'{qual}::{name}' (declared at "
                               f"{decl_file}:{decl_line}) is "
                               "order-unstable")


# --------------------------------------------------------- ckpt-coverage

_CAPTURE_NAME_RE = re.compile(r"save|capture|write|pack", re.IGNORECASE)
_RESTORE_NAME_RE = re.compile(r"load|restore|read|unpack", re.IGNORECASE)


def _classify_seed(qual_name):
    """capture / restore / None (wrappers like fork() or writeFile()
    call into a classified seed anyway, so they add nothing)."""
    base = qual_name.split("::")[-1]
    cap = bool(_CAPTURE_NAME_RE.search(base))
    res = bool(_RESTORE_NAME_RE.search(base))
    if cap and not res:
        return "capture"
    if res and not cap:
        return "restore"
    return None


def _closure(index, seeds):
    """Transitive closure over the call-position call graph."""
    seen = set()
    queue = list(seeds)
    out = []
    while queue:
        fd = queue.pop()
        key = id(fd)
        if key in seen:
            continue
        seen.add(key)
        out.append(fd)
        for call in sorted(fd.calls):
            for nxt in index.function_bodies(call):
                if id(nxt) not in seen:
                    queue.append(nxt)
    return out


def _type_tokens(type_text):
    return set(re.findall(r"[A-Za-z_]\w*", type_text))


def run_ckpt_coverage(ctx):
    idx = ctx.index
    info = idx.files.get(CHECKPOINT_FILE)
    if info is None:
        return  # tree has no checkpoint subsystem (e.g. fixtures)

    # 1. Seed contexts: every function defined in checkpoint.cc,
    #    classified capture/restore/both by name.
    cap_seeds = []
    res_seeds = []
    for name in sorted(idx.functions):
        for fd in idx.functions[name]:
            if fd.file != CHECKPOINT_FILE:
                continue
            kind = _classify_seed(fd.qual_name)
            if kind == "capture":
                cap_seeds.append(fd)
            elif kind == "restore":
                res_seeds.append(fd)

    # 2. Close each side over the call graph: p.mee->saveState(w) pulls
    #    Mee::saveState's body into the capture side, and so on down.
    cap_idents = set()
    for fd in _closure(idx, cap_seeds):
        cap_idents |= fd.idents
    res_idents = set()
    for fd in _closure(idx, res_seeds):
        res_idents |= fd.idents

    # 3. Covered types: STATE_COPY_TYPES plus every indexed class whose
    #    name appears in checkpoint.cc, then transitively the types of
    #    covered (non-exempt) members. Only definitions under src/
    #    count, and the serialization transport itself
    #    (src/sim/checkpoint/) is not simulated state.
    def eligible(cls):
        posix = cls.file.replace(os.sep, "/")
        return (posix.startswith("src/")
                and not posix.startswith("src/sim/checkpoint/"))

    ckpt_idents = {t.text for t in info.tokens
                   if _IDENT_RE.match(t.text)}
    covered = {}

    def add_type(name):
        for cls in idx.class_defs(name):
            if not eligible(cls) or cls.qual_name in covered:
                continue
            if any(kind in ("skip", "derived", "via")
                   for kind, _ in cls.tags):
                continue  # whole type annotated away at its head
            covered[cls.qual_name] = cls

    for name in STATE_COPY_TYPES:
        add_type(name)
    for name in sorted(idx.classes):
        if name in ckpt_idents:
            add_type(name)
    # Transitive member-type closure (bounded: annotations stop it).
    while True:
        grew = False
        for cls in list(covered.values()):
            for m in cls.members:
                if m.exempt_kind():
                    continue
                for tok in sorted(_type_tokens(m.type_text)):
                    if tok in idx.classes:
                        before = len(covered)
                        add_type(tok)
                        grew = grew or len(covered) != before
        if not grew:
            break

    # 4. Audit every member of every covered type.
    for qual in sorted(covered):
        cls = covered[qual]
        for m in cls.members:
            for kind, arg in m.tags:
                if kind == "invalid":
                    ctx.report(cls.file, m.line, "ckpt-coverage",
                               f"unparseable ckpt annotation on "
                               f"{qual}::{m.name}: \"{arg}\" — use "
                               "'// ckpt: skip(<reason>)', "
                               "'// ckpt: derived' or "
                               "'// ckpt: via(<carrier>)'")
                elif kind == "skip" and not arg:
                    ctx.report(cls.file, m.line, "ckpt-coverage",
                               f"ckpt: skip() on {qual}::{m.name} "
                               "needs a reason")
            if m.exempt_kind():
                continue
            in_cap = m.name in cap_idents
            in_res = m.name in res_idents
            if in_cap and in_res:
                continue
            if not in_cap and not in_res:
                missing = "captured or restored"
            elif not in_cap:
                missing = "captured"
            else:
                missing = "restored"
            ctx.report(cls.file, m.line, "ckpt-coverage",
                       f"state member {qual}::{m.name} is never "
                       f"{missing} by the snapshot path rooted at "
                       "core/checkpoint.cc; serialize it or annotate "
                       "it with '// ckpt: skip(<reason>)' / "
                       "'// ckpt: derived' / '// ckpt: via(<carrier>)'")


# --------------------------------------------------------- fleet-hotloop

HOTLOOP_TAG_RE = re.compile(r"\bfleet:\s*hotloop\b")

# How far below the annotation the function's opening brace may sit
# (doc comment + template/attribute lines + a multi-line signature).
_HOTLOOP_BRACE_WINDOW = 20

# Heap-allocation tokens. `new` covers placement and array forms;
# the member calls are the std container growth surface (push_back on
# a reserved vector still reallocs on overflow, so it is banned too —
# hot-loop state must be sized before the loop).
HEAP_ALLOC_RE = re.compile(
    r"\bnew\b"
    r"|\bmake_(?:unique|shared)\s*<"
    r"|\b(?:malloc|calloc|realloc|strdup|aligned_alloc)\s*\("
    r"|\.\s*(?:push_back|emplace_back|emplace|resize|reserve|insert"
    r"|append|push_front|emplace_front)\s*\(")


def _hotloop_bodies(info):
    """Yield (annotation_line, [body line indexes]) for each
    `// fleet: hotloop` annotation in ``info``.

    The body is the brace-balanced block opened by the first `{` found
    within a few lines of the annotation; an annotation with no
    followable brace yields an empty body (reported by the caller).
    """
    for idx, comment in enumerate(info.comments):
        if not HOTLOOP_TAG_RE.search(comment):
            continue
        open_line = None
        for probe in range(idx, min(idx + _HOTLOOP_BRACE_WINDOW,
                                    len(info.code))):
            if "{" in info.code[probe]:
                open_line = probe
                break
        if open_line is None:
            yield idx, []
            continue
        body = []
        depth = 0
        line = open_line
        while line < len(info.code):
            opened = info.code[line].count("{")
            closed = info.code[line].count("}")
            depth += opened - closed
            body.append(line)
            if depth <= 0 and opened + closed > 0:
                break
            line += 1
        yield idx, body


def run_fleet_hotloop(ctx, scan_files):
    members = unordered_members(ctx.index)
    for rel in scan_files:
        info = ctx.file(rel)
        if info is None:
            continue
        local_unordered = set()
        for line in info.code:
            local_unordered.update(UNORDERED_DECL_RE.findall(line))
        for tag_line, body in _hotloop_bodies(info):
            if not body:
                ctx.report(rel, tag_line, "fleet-hotloop",
                           "'fleet: hotloop' annotation is not followed "
                           "by a function body")
                continue
            for idx in body:
                line = info.code[idx]
                if HEAP_ALLOC_RE.search(line):
                    ctx.report(rel, idx, "fleet-hotloop",
                               "heap allocation inside a 'fleet: "
                               "hotloop' function; size all state "
                               "before the per-device loop")
                names = [m.group(1)
                         for m in RANGE_FOR_RE.finditer(line)]
                names += [m.group(1)
                          for m in BEGIN_CALL_RE.finditer(line)]
                for name in names:
                    if name in local_unordered or name in members:
                        ctx.report(rel, idx, "fleet-hotloop",
                                   f"unordered-container iteration "
                                   f"over '{name}' inside a 'fleet: "
                                   "hotloop' function; hot-loop "
                                   "traversal must be order-stable")


# ----------------------------------------------------------- stale-allow


def run_stale_allow(ctx, scan_files, all_rules):
    """Must run after every other active rule has reported."""
    for rel in scan_files:
        info = ctx.file(rel)
        if info is None:
            continue
        for line_idx, rules in sorted(ctx.allow_tags(rel).items()):
            for rule in sorted(rules):
                if rule == "stale-allow":
                    continue
                if rule not in all_rules:
                    ctx.report(rel, line_idx, "stale-allow",
                               f"allow({rule}) names an unknown rule")
                    continue
                if rule not in ctx.active_rules:
                    continue  # that rule did not run; cannot judge
                if (rel, line_idx, rule) not in ctx.used_allows:
                    ctx.report(rel, line_idx, "stale-allow",
                               f"allow({rule}) no longer suppresses "
                               "any finding; remove the stale "
                               "suppression")
