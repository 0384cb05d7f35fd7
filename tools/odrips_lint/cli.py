"""Driver and CLI for odrips-lint.

Two stages: a whole-repo index (tokenizer + brace-tracking parser, see
odrips_lint.cxxindex) is built first, then the per-line token rules and
the index-driven semantic passes report findings through a shared
Context that centralizes allow()-tag handling — which is what lets the
stale-allow pass know which suppressions still earn their keep.
"""

import argparse
import json
import os
import re
import subprocess
import sys

from odrips_lint import passes, rules
from odrips_lint.cxxindex import Index

ALLOW_RE = re.compile(r"odrips-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

CXX_EXTENSIONS = (".cc", ".hh", ".cpp", ".hpp")

ALL_RULES = {"wall-clock", "raw-rand", "unordered-iter", "raw-units",
             "tsan-label", "cmake-target", "simd-intrinsic",
             "raw-thread", "state-memcpy",
             "ckpt-coverage", "layering", "fleet-hotloop",
             "stale-allow"}


class Context:
    """Shared state for one lint run: index, findings, allow tracking."""

    def __init__(self, root, active_rules):
        self.root = root
        self.active_rules = active_rules
        self.index = Index(root)
        self.findings = []          # (rel, 1-based line, rule, message)
        self._allow_tags = {}       # rel -> {0-based line: set(rule)}
        self.used_allows = set()    # (rel, 0-based line, rule)

    # -- files -----------------------------------------------------------

    def file(self, rel):
        return self.index.add_file(rel)

    def allow_tags(self, rel):
        if rel not in self._allow_tags:
            info = self.file(rel)
            tags = {}
            if info is not None:
                for idx, line in enumerate(info.raw):
                    m = ALLOW_RE.search(line)
                    if m:
                        tags[idx] = {r.strip()
                                     for r in m.group(1).split(",")}
            self._allow_tags[rel] = tags
        return self._allow_tags[rel]

    # -- reporting -------------------------------------------------------

    def report(self, rel, line_idx, rule, message):
        """File a finding at 0-based ``line_idx`` unless an allow tag on
        that line (or the one above) suppresses it; either way, record
        the suppression for the stale-allow pass."""
        for probe in (line_idx, line_idx - 1):
            if probe < 0:
                continue
            tags = self.allow_tags(rel).get(probe)
            if tags and rule in tags:
                self.used_allows.add((rel, probe, rule))
                return
        self.findings.append((rel, line_idx + 1, rule, message))

    # -- tree walking ----------------------------------------------------

    def cxx_files(self, subdirs):
        for sub in subdirs:
            base = os.path.join(self.root, sub)
            if not os.path.isdir(base):
                continue
            for dirpath, dirnames, filenames in os.walk(base):
                dirnames[:] = sorted(d for d in dirnames
                                     if d not in ("fixtures",))
                for name in sorted(filenames):
                    if name.endswith(CXX_EXTENSIONS):
                        full = os.path.join(dirpath, name)
                        yield os.path.relpath(full, self.root)

    def cmake_files(self):
        found = []
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames[:] = sorted(
                d for d in dirnames
                if not d.startswith((".", "build")) and d != "fixtures")
            if "CMakeLists.txt" in filenames:
                found.append(os.path.join(dirpath, "CMakeLists.txt"))
        return sorted(found)


def changed_files(root):
    """Repo-relative paths touched vs HEAD (staged, unstaged, untracked).

    Returns None when git is unavailable (caller falls back to a full
    report)."""
    out = set()
    for cmd in (["git", "-C", root, "diff", "--name-only", "HEAD"],
                ["git", "-C", root, "ls-files", "--others",
                 "--exclude-standard"]):
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=True)
        except (OSError, subprocess.CalledProcessError):
            return None
        out.update(p for p in proc.stdout.splitlines() if p)
    return out


def run(root, scan_paths, active_rules):
    """Build the index and run every active rule; returns the Context."""
    ctx = Context(root, active_rules)

    scan_files = list(ctx.cxx_files(scan_paths))
    # The semantic passes need the whole-src model even when only a
    # subset is being scanned: a .cc's unordered member lives in a
    # header, the checkpoint-covered types live all over src/.
    index_roots = set(scan_paths) | {"src"}
    for rel in ctx.cxx_files(sorted(index_roots)):
        ctx.file(rel)

    if "cmake-target" in active_rules:
        rules.check_cmake_targets(ctx)
    if "tsan-label" in active_rules:
        rules.check_tsan_labels(ctx)
    if rules.TOKEN_RULES & active_rules:
        for rel in scan_files:
            rules.check_tokens(ctx, rel)
    if "raw-units" in active_rules:
        for sub in ("src/timing", "src/power"):
            for rel in ctx.cxx_files([sub]):
                if rel.endswith((".hh", ".hpp")):
                    rules.check_raw_units(ctx, rel)
    if "unordered-iter" in active_rules:
        passes.run_unordered_iter(ctx, scan_files)
    if "fleet-hotloop" in active_rules:
        passes.run_fleet_hotloop(ctx, scan_files)
    if "layering" in active_rules:
        passes.run_layering(ctx)
    if "ckpt-coverage" in active_rules:
        passes.run_ckpt_coverage(ctx)
    # Last: it needs every other rule's allow-usage bookkeeping.
    if "stale-allow" in active_rules:
        passes.run_stale_allow(ctx, scan_files, ALL_RULES)

    # Keep only active-rule findings, dedup identical reports (two
    # iteration patterns on one line file the same finding twice), sort.
    # Distinct messages on one line both survive — e.g. an unparseable
    # annotation next to a coverage gap.
    seen = set()
    out = []
    for f in sorted(ctx.findings):
        if f[2] not in active_rules:
            continue
        if f in seen:
            continue
        seen.add(f)
        out.append(f)
    ctx.findings = out
    return ctx


def main(argv):
    parser = argparse.ArgumentParser(
        prog="odrips-lint",
        description="Static invariant checks for the ODRIPS simulator.")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--rules", default=",".join(sorted(ALL_RULES)),
                        help="comma-separated subset of rules to run")
    parser.add_argument("--format", choices=("human", "json"),
                        default="human",
                        help="output format: human-readable lines "
                             "(default) or machine-readable JSON "
                             "records {file,line,rule,message}")
    parser.add_argument("--changed-only", action="store_true",
                        help="report findings only for files changed "
                             "vs git HEAD (plus untracked files); the "
                             "full index is still built, so cross-file "
                             "passes stay exact")
    parser.add_argument("paths", nargs="*",
                        default=["src", "bench", "tests"],
                        help="subdirectories to scan "
                             "(default: src bench tests)")
    args = parser.parse_args(argv)

    active = {r.strip() for r in args.rules.split(",") if r.strip()}
    unknown = active - ALL_RULES
    if unknown:
        print(f"odrips-lint: unknown rule(s): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2
    if not os.path.isdir(args.root):
        print(f"odrips-lint: no such directory: {args.root}",
              file=sys.stderr)
        return 2

    root = os.path.abspath(args.root)
    ctx = run(root, args.paths or ["src", "bench", "tests"], active)

    findings = ctx.findings
    if args.changed_only:
        changed = changed_files(root)
        if changed is None:
            print("odrips-lint: --changed-only: git unavailable; "
                  "reporting the full tree", file=sys.stderr)
        else:
            changed = {p.replace(os.sep, "/") for p in changed}
            findings = [f for f in findings
                        if f[0].replace(os.sep, "/") in changed]

    if args.format == "json":
        records = [{"file": rel.replace(os.sep, "/"), "line": line,
                    "rule": rule, "message": message}
                   for rel, line, rule, message in findings]
        print(json.dumps(records, indent=1))
    else:
        for rel, line, rule, message in findings:
            print(f"{rel}:{line}: [{rule}] {message}")
    if findings:
        print(f"odrips-lint: {len(findings)} violation(s)",
              file=sys.stderr)
        return 1
    return 0
