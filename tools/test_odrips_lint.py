#!/usr/bin/env python3
"""Self-test for tools/odrips-lint.

Runs the linter against the fixture trees in tools/fixtures/: the `bad`
tree must trip every rule exactly where seeded, the `good` tree (same
shapes, with allow tags / strong types / labels) must come back clean.
Registered as a ctest so the lint rules cannot rot silently.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(TOOLS_DIR, "odrips-lint")
FIXTURES = os.path.join(TOOLS_DIR, "fixtures")


def run_lint(root, *extra):
    proc = subprocess.run(
        [sys.executable, LINT, "--root", root, *extra],
        capture_output=True, text=True)
    return proc


def findings(proc):
    """Parse `path:line: [rule] message` lines into (path, rule) pairs."""
    out = set()
    for line in proc.stdout.splitlines():
        if ": [" not in line:
            continue
        location, rest = line.split(": [", 1)
        rule = rest.split("]", 1)[0]
        path = location.rsplit(":", 1)[0]
        out.add((path.replace(os.sep, "/"), rule))
    return out


def findings_at(proc):
    """Parse output into (path, line, rule) triples."""
    out = set()
    for line in proc.stdout.splitlines():
        if ": [" not in line:
            continue
        location, rest = line.split(": [", 1)
        rule = rest.split("]", 1)[0]
        path, lineno = location.rsplit(":", 1)
        out.add((path.replace(os.sep, "/"), int(lineno), rule))
    return out


class BadTree(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.proc = run_lint(os.path.join(FIXTURES, "bad"))
        cls.found = findings(cls.proc)

    def test_exit_status_flags_violations(self):
        self.assertEqual(self.proc.returncode, 1, self.proc.stdout)

    def test_wall_clock_rule(self):
        self.assertIn(("src/sim/clock_user.cc", "wall-clock"), self.found)

    def test_raw_rand_rule(self):
        self.assertIn(("src/sim/rng_user.cc", "raw-rand"), self.found)

    def test_unordered_iter_rule(self):
        self.assertIn(("src/core/iter.cc", "unordered-iter"), self.found)

    def test_raw_units_rule_timing(self):
        self.assertIn(("src/timing/bad_units.hh", "raw-units"),
                      self.found)

    def test_raw_units_rule_power(self):
        self.assertIn(("src/power/bad_power.hh", "raw-units"), self.found)

    def test_tsan_label_rule(self):
        self.assertIn(("tests/CMakeLists.txt", "tsan-label"), self.found)

    def test_cmake_target_rule(self):
        self.assertIn(("src/core/orphan.cc", "cmake-target"), self.found)

    def test_simd_intrinsic_rule(self):
        self.assertIn(("src/sim/simd_user.cc", "simd-intrinsic"),
                      self.found)

    def test_raw_thread_rule(self):
        self.assertIn(("src/core/thread_user.cc", "raw-thread"),
                      self.found)

    def test_state_memcpy_rule(self):
        self.assertIn(("src/core/state_copy.cc", "state-memcpy"),
                      self.found)

    def test_registered_files_not_flagged(self):
        self.assertNotIn(("src/sim/clock_user.cc", "cmake-target"),
                         self.found)


class GoodTree(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.proc = run_lint(os.path.join(FIXTURES, "good"))

    def test_clean_tree_exits_zero(self):
        self.assertEqual(
            self.proc.returncode, 0,
            f"stdout:\n{self.proc.stdout}\nstderr:\n{self.proc.stderr}")

    def test_no_output_when_clean(self):
        self.assertEqual(self.proc.stdout, "")


class SimdIntrinsicScope(unittest.TestCase):
    """src/arch/ is the sanctioned home for intrinsics."""

    def test_arch_directory_is_exempt(self):
        proc = run_lint(os.path.join(FIXTURES, "good"),
                        "--rules", "simd-intrinsic")
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_same_code_outside_arch_is_flagged(self):
        proc = run_lint(os.path.join(FIXTURES, "bad"),
                        "--rules", "simd-intrinsic")
        found = findings(proc)
        self.assertEqual(found,
                         {("src/sim/simd_user.cc", "simd-intrinsic")})


class RawThreadScope(unittest.TestCase):
    """src/exec/ is the sanctioned home for raw threads; nested member
    types like std::thread::id stay allowed everywhere."""

    def test_exec_directory_and_thread_id_are_exempt(self):
        proc = run_lint(os.path.join(FIXTURES, "good"),
                        "--rules", "raw-thread")
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_spawn_outside_exec_is_flagged(self):
        proc = run_lint(os.path.join(FIXTURES, "bad"),
                        "--rules", "raw-thread")
        found = findings(proc)
        self.assertEqual(found,
                         {("src/core/thread_user.cc", "raw-thread")})


class StateMemcpyScope(unittest.TestCase):
    """src/sim/checkpoint/ is the sanctioned home for byte-wise state
    copies; byte-buffer memcpys (sizeof(double), ...) and allow-tagged
    copies stay permitted everywhere."""

    def test_checkpoint_directory_and_byte_buffers_are_exempt(self):
        proc = run_lint(os.path.join(FIXTURES, "good"),
                        "--rules", "state-memcpy")
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_state_copy_outside_checkpoint_is_flagged(self):
        proc = run_lint(os.path.join(FIXTURES, "bad"),
                        "--rules", "state-memcpy")
        found = findings(proc)
        self.assertEqual(found,
                         {("src/core/state_copy.cc", "state-memcpy")})

    def test_split_call_is_still_caught(self):
        # state_copy.cc seeds one single-line and one two-line call;
        # both must be reported (distinct line numbers).
        proc = run_lint(os.path.join(FIXTURES, "bad"),
                        "--rules", "state-memcpy")
        lines = [l for l in proc.stdout.splitlines() if ": [" in l]
        self.assertEqual(len(lines), 2, proc.stdout)


class RuleSelection(unittest.TestCase):
    def test_single_rule_filters_findings(self):
        proc = run_lint(os.path.join(FIXTURES, "bad"),
                        "--rules", "raw-rand")
        found = findings(proc)
        self.assertEqual(found, {("src/sim/rng_user.cc", "raw-rand")})

    def test_unknown_rule_is_usage_error(self):
        proc = run_lint(os.path.join(FIXTURES, "bad"),
                        "--rules", "no-such-rule")
        self.assertEqual(proc.returncode, 2)


class WallClockV2(unittest.TestCase):
    """The hardened wall-clock rule covers the C++20 host clocks and
    the C broken-down-time readers; near-miss identifiers stay legal."""

    def test_new_time_sources_are_flagged(self):
        proc = run_lint(os.path.join(FIXTURES, "bad"),
                        "--rules", "wall-clock")
        at = findings_at(proc)
        for line in (17, 24, 31, 39):  # file_clock, utc_clock,
            # localtime, gmtime
            self.assertIn(("src/sim/clock_user.cc", line, "wall-clock"),
                          at, proc.stdout)

    def test_near_miss_identifiers_stay_legal(self):
        proc = run_lint(os.path.join(FIXTURES, "good"),
                        "--rules", "wall-clock")
        self.assertEqual(proc.returncode, 0, proc.stdout)


class CkptCoverage(unittest.TestCase):
    """Field-coverage audit of the snapshot path."""

    @classmethod
    def setUpClass(cls):
        cls.bad = run_lint(os.path.join(FIXTURES, "ckpt_bad"),
                           "--rules", "ckpt-coverage")
        cls.bad_at = findings_at(cls.bad)

    def test_capture_only_member_is_flagged_as_unrestored(self):
        self.assertIn(("src/core/state.hh", 18, "ckpt-coverage"),
                      self.bad_at, self.bad.stdout)
        self.assertIn("Meter::total is never restored", self.bad.stdout)

    def test_uncovered_member_is_flagged_on_both_sides(self):
        self.assertIn("Meter::phase is never captured or restored",
                      self.bad.stdout)

    def test_member_type_closure_reaches_subobjects(self):
        self.assertIn("SubBlock::depth", self.bad.stdout)

    def test_state_copy_types_seed_the_covered_set(self):
        # Histogram is audited purely through STATE_COPY_TYPES;
        # checkpoint.cc never names it.
        self.assertIn(("src/stats/histogram.hh", 10, "ckpt-coverage"),
                      self.bad_at, self.bad.stdout)

    def test_covered_member_is_not_flagged(self):
        self.assertNotIn("Meter::count", self.bad.stdout)

    def test_annotated_and_serialized_tree_is_clean(self):
        proc = run_lint(os.path.join(FIXTURES, "ckpt_good"),
                        "--rules", "ckpt-coverage")
        self.assertEqual(proc.returncode, 0, proc.stdout)


class Layering(unittest.TestCase):
    """Include-DAG enforcement over src/."""

    @classmethod
    def setUpClass(cls):
        cls.proc = run_lint(os.path.join(FIXTURES, "bad"),
                            "--rules", "layering")
        cls.at = findings_at(cls.proc)

    def test_upward_include_is_flagged(self):
        self.assertIn(("src/sim/layer_up.hh", 2, "layering"), self.at,
                      self.proc.stdout)

    def test_include_cycle_is_flagged_once_at_anchor(self):
        self.assertIn(("src/core/cycle_a.hh", 1, "layering"), self.at)
        self.assertIn("cycle_a.hh -> src/core/cycle_b.hh",
                      self.proc.stdout)

    def test_downward_include_is_legal(self):
        proc = run_lint(os.path.join(FIXTURES, "good"),
                        "--rules", "layering")
        self.assertEqual(proc.returncode, 0, proc.stdout)


class CrossFileUnorderedIter(unittest.TestCase):
    """Iteration of an unordered member declared in another file."""

    def test_cross_file_iteration_is_flagged_with_decl_site(self):
        proc = run_lint(os.path.join(FIXTURES, "bad"),
                        "--rules", "unordered-iter")
        self.assertIn(("src/core/registry_user.cc", "unordered-iter"),
                      findings(proc), proc.stdout)
        self.assertIn("declared at src/core/registry.hh:11",
                      proc.stdout)

    def test_sorted_key_iteration_is_legal(self):
        proc = run_lint(os.path.join(FIXTURES, "good"),
                        "--rules", "unordered-iter")
        self.assertEqual(proc.returncode, 0, proc.stdout)


class FleetHotloop(unittest.TestCase):
    """Functions annotated `// fleet: hotloop` must be allocation-free
    and order-stable; the good tree's twin of the same shape (growth
    in an unannotated setup function, ordered traversal in the hot
    body) stays legal."""

    @classmethod
    def setUpClass(cls):
        cls.proc = run_lint(os.path.join(FIXTURES, "bad"),
                            "--rules", "fleet-hotloop")
        cls.at = findings_at(cls.proc)

    def test_heap_allocation_in_hot_body_is_flagged(self):
        self.assertIn(("src/fleet/hot_path.cc", 14, "fleet-hotloop"),
                      self.at, self.proc.stdout)
        self.assertIn("heap allocation", self.proc.stdout)

    def test_unordered_iteration_in_hot_body_is_flagged(self):
        self.assertIn(("src/fleet/hot_path.cc", 17, "fleet-hotloop"),
                      self.at, self.proc.stdout)
        self.assertIn("order-stable", self.proc.stdout)

    def test_dangling_annotation_is_flagged(self):
        self.assertIn(("src/fleet/hot_path.cc", 22, "fleet-hotloop"),
                      self.at, self.proc.stdout)
        self.assertIn("not followed", self.proc.stdout)

    def test_rule_scopes_to_annotated_bodies_only(self):
        # The good fixture resizes a vector in its un-annotated setup
        # function and walks an ordered container in the hot body;
        # neither may be reported.
        proc = run_lint(os.path.join(FIXTURES, "good"),
                        "--rules", "fleet-hotloop")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertEqual(proc.stdout, "")


class StaleAllow(unittest.TestCase):
    """allow() comments must keep earning their keep."""

    @classmethod
    def setUpClass(cls):
        cls.proc = run_lint(os.path.join(FIXTURES, "bad"))
        cls.at = findings_at(cls.proc)

    def test_unused_allow_is_flagged(self):
        self.assertIn(("src/sim/stale_allow.hh", 8, "stale-allow"),
                      self.at, self.proc.stdout)

    def test_unknown_rule_allow_is_flagged(self):
        self.assertIn(("src/sim/stale_allow.hh", 14, "stale-allow"),
                      self.at)
        self.assertIn("allow(not-a-rule) names an unknown rule",
                      self.proc.stdout)

    def test_used_allows_are_not_flagged(self):
        # The good tree is all used allows; full run must stay clean.
        proc = run_lint(os.path.join(FIXTURES, "good"))
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_allow_is_not_judged_when_its_rule_did_not_run(self):
        # wall-clock did not run, so allow(wall-clock) cannot be
        # called stale; the unknown-rule allow is still reportable.
        proc = run_lint(os.path.join(FIXTURES, "bad"),
                        "--rules", "stale-allow")
        at = findings_at(proc)
        self.assertNotIn(("src/sim/stale_allow.hh", 8, "stale-allow"),
                         at, proc.stdout)
        self.assertIn(("src/sim/stale_allow.hh", 14, "stale-allow"),
                      at)


class JsonFormat(unittest.TestCase):
    def test_records_have_the_documented_shape(self):
        proc = run_lint(os.path.join(FIXTURES, "ckpt_bad"),
                        "--rules", "ckpt-coverage", "--format", "json")
        self.assertEqual(proc.returncode, 1)
        records = json.loads(proc.stdout)
        self.assertTrue(records)
        for rec in records:
            self.assertEqual(sorted(rec),
                             ["file", "line", "message", "rule"])
            self.assertEqual(rec["rule"], "ckpt-coverage")
        self.assertIn(("src/stats/histogram.hh", 10),
                      {(r["file"], r["line"]) for r in records})

    def test_clean_tree_emits_an_empty_array(self):
        proc = run_lint(os.path.join(FIXTURES, "ckpt_good"),
                        "--rules", "ckpt-coverage", "--format", "json")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertEqual(json.loads(proc.stdout), [])


class CmakeCommentStripping(unittest.TestCase):
    def test_commented_out_registration_does_not_count(self):
        proc = run_lint(os.path.join(FIXTURES, "bad"),
                        "--rules", "cmake-target")
        found = findings(proc)
        self.assertIn(("src/core/commented_out.cc", "cmake-target"),
                      found, proc.stdout)
        self.assertNotIn(("src/core/registry_user.cc", "cmake-target"),
                         found)


class ChangedOnly(unittest.TestCase):
    """--changed-only scopes the report to git-changed files while the
    index still covers the whole tree."""

    def test_findings_filter_to_changed_files(self):
        git = shutil.which("git")
        if git is None:
            self.skipTest("git unavailable")
        with tempfile.TemporaryDirectory() as tmp:
            root = os.path.join(tmp, "tree")
            shutil.copytree(os.path.join(FIXTURES, "ckpt_bad"), root)
            env = {**os.environ,
                   "GIT_CONFIG_GLOBAL": os.devnull,
                   "GIT_CONFIG_SYSTEM": os.devnull}
            for cmd in (["init", "-q"], ["add", "-A"],
                        ["-c", "user.email=lint@test",
                         "-c", "user.name=lint",
                         "commit", "-q", "-m", "seed"]):
                subprocess.run([git, "-C", root, *cmd], check=True,
                               env=env, capture_output=True)
            state = os.path.join(root, "src", "core", "state.hh")
            with open(state, "a", encoding="utf-8") as f:
                f.write("// touched\n")
            proc = run_lint(root, "--rules", "ckpt-coverage",
                            "--changed-only")
            found = findings(proc)
            self.assertIn(("src/core/state.hh", "ckpt-coverage"),
                          found, proc.stdout)
            # histogram.hh is unchanged: its findings are filtered out
            # even though the index (and the audit) still saw it.
            self.assertNotIn(("src/stats/histogram.hh",
                              "ckpt-coverage"), found)


class SeededRegression(unittest.TestCase):
    """Adding a field to a real state header must fail ckpt-coverage
    until it is serialized or annotated — the audit's reason to exist,
    exercised against a temp copy of the real src/ tree."""

    FIELD = "double trulyNewField123 = 0.0;"
    ANCHOR = "    Milliwatts total;"
    HEADER = os.path.join("src", "power", "power_model.hh")
    CKPT = os.path.join("src", "core", "checkpoint.cc")

    @classmethod
    def setUpClass(cls):
        cls.repo = os.path.dirname(TOOLS_DIR)
        cls.tmp = tempfile.mkdtemp(prefix="odrips-lint-regress-")
        shutil.copytree(os.path.join(cls.repo, "src"),
                        os.path.join(cls.tmp, "src"))
        with open(os.path.join(cls.tmp, cls.HEADER),
                  encoding="utf-8") as f:
            cls.header_text = f.read()
        assert cls.ANCHOR in cls.header_text
        with open(os.path.join(cls.tmp, cls.CKPT),
                  encoding="utf-8") as f:
            cls.ckpt_text = f.read()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def _write(self, rel, text):
        with open(os.path.join(self.tmp, rel), "w",
                  encoding="utf-8") as f:
            f.write(text)

    def _with_field(self, suffix=""):
        return self.header_text.replace(
            self.ANCHOR,
            self.ANCHOR + "\n    " + self.FIELD + suffix, 1)

    def _lint(self):
        return run_lint(self.tmp, "--rules", "ckpt-coverage", "src")

    def test_0_baseline_copy_is_clean(self):
        self._write(self.HEADER, self.header_text)
        self._write(self.CKPT, self.ckpt_text)
        proc = self._lint()
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_1_new_field_fails_the_audit(self):
        self._write(self.HEADER, self._with_field())
        proc = self._lint()
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("trulyNewField123", proc.stdout)
        self._write(self.HEADER, self.header_text)

    def test_2_annotated_field_passes(self):
        self._write(self.HEADER,
                    self._with_field(" // ckpt: skip(self-test)"))
        proc = self._lint()
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self._write(self.HEADER, self.header_text)

    def test_3_serialized_field_passes(self):
        self._write(self.HEADER, self._with_field())
        ckpt = self.ckpt_text
        for fn in ("savePower(ckpt::Writer &w, Platform &p)\n{\n",
                   "loadPower(ckpt::Reader &r, Platform &p)\n{\n"):
            self.assertIn(fn, ckpt)
            ckpt = ckpt.replace(
                fn, fn + "    (void)trulyNewField123;\n", 1)
        self._write(self.CKPT, ckpt)
        proc = self._lint()
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self._write(self.HEADER, self.header_text)
        self._write(self.CKPT, self.ckpt_text)

    def test_4_malformed_annotation_is_flagged(self):
        self._write(self.HEADER,
                    self._with_field(" // ckpt: sometimes"))
        proc = self._lint()
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("unparseable ckpt annotation", proc.stdout)
        self._write(self.HEADER, self.header_text)


class RealTree(unittest.TestCase):
    def test_repository_is_clean(self):
        repo = os.path.dirname(TOOLS_DIR)
        proc = run_lint(repo)
        self.assertEqual(
            proc.returncode, 0,
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")


if __name__ == "__main__":
    unittest.main()
