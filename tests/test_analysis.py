"""The invariant linter (repro.analysis): rules, suppressions, CLI.

Each rule gets three fixtures: a violating snippet (the rule fires), the
same snippet with a ``# repro: allow(...)`` suppression (it doesn't),
and clean code (nothing to suppress).  Location-scoped rules are
exercised by writing fixtures under a directory literally named
``repro`` so the module-relative path comes out right.

The meta-test at the bottom runs the real CLI over the shipped tree and
asserts it exits 0 — the tree must stay lint-clean.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    all_rules,
    analyze_paths,
    get_rule,
    render_text,
)
from repro.analysis.cli import main
from repro.analysis.rules import DECLARED_SITES, DeclaredSitesRule

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_module(tmp_path: Path, rel: str, source: str) -> Path:
    """Place *source* at ``<tmp>/repro/<rel>`` so location rules apply."""
    path = tmp_path / "repro" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def lint(tmp_path: Path, rel: str, source: str, rule_id: str):
    path = write_module(tmp_path, rel, source)
    return analyze_paths([path], [get_rule(rule_id)])


class TestRegistry:
    def test_all_rules_registered(self):
        ids = [rule.id for rule in all_rules()]
        for expected in ("R001", "R003", "R004", "R005", "R006", "R007",
                         "R008", "R009", "R010"):
            assert expected in ids

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            get_rule("R999")


class TestR001RawAccess:
    VIOLATION = """\
        def lookup(relation, tid, snapshot):
            return relation.fetch(tid, snapshot)
    """

    def test_fires_outside_scan_layer(self, tmp_path):
        report = lint(tmp_path, "lo/somefile.py", self.VIOLATION, "R001")
        assert [f.rule for f in report.findings] == ["R001"]
        assert "scan" in report.findings[0].message

    def test_suppressed(self, tmp_path):
        source = self.VIOLATION.replace(
            "relation.fetch(tid, snapshot)",
            "relation.fetch(tid, snapshot)  # repro: allow(R001)")
        report = lint(tmp_path, "lo/somefile.py", source, "R001")
        assert report.findings == []
        assert report.suppressed == 1

    def test_allowed_in_scan_layer(self, tmp_path):
        report = lint(tmp_path, "access/scan.py", self.VIOLATION, "R001")
        assert report.findings == []

    def test_database_facade_receiver_is_clean(self, tmp_path):
        source = """\
            def lookup(self, class_name, tid):
                return self.db.fetch(class_name, tid)
        """
        report = lint(tmp_path, "session.py", source, "R001")
        assert report.findings == []

    def test_regex_search_is_clean(self, tmp_path):
        source = """\
            import re
            def find(text):
                return re.search(r"x+", text)
        """
        report = lint(tmp_path, "ql/lexer.py", source, "R001")
        assert report.findings == []

    def test_range_scan_fires(self, tmp_path):
        source = """\
            def walk(index):
                return list(index.range_scan(None, None))
            def probe(index, key):
                return index.search(key)
            def floor(index, key):
                return next(index.range_scan_desc(key), None)
        """
        report = lint(tmp_path, "inversion/filesystem.py", source, "R001")
        assert [f.rule for f in report.findings] == ["R001"] * 3


class TestR003SmgrOnlyIO:
    VIOLATION = """\
        def slurp(path):
            with open(path, "rb") as fh:
                return fh.read()
    """

    def test_fires_outside_smgr(self, tmp_path):
        report = lint(tmp_path, "storage/page.py", self.VIOLATION, "R003")
        assert [f.rule for f in report.findings] == ["R003"]

    def test_suppressed_by_comment_above(self, tmp_path):
        source = """\
            def slurp(path):
                # repro: allow(R003): test fixture justification
                with open(path, "rb") as fh:
                    return fh.read()
        """
        report = lint(tmp_path, "storage/page.py", source, "R003")
        assert report.findings == []
        assert report.suppressed == 1

    def test_allowed_in_smgr_and_external_file_los(self, tmp_path):
        for rel in ("smgr/disk.py", "lo/ufile.py", "lo/nativefs.py",
                    "tools/dump.py", "bench/cli.py"):
            report = lint(tmp_path, rel, self.VIOLATION, "R003")
            assert report.findings == [], rel

    def test_os_open_and_path_open_fire(self, tmp_path):
        source = """\
            import os
            from pathlib import Path
            def bad(p):
                fd = os.open(p, 0)
                return Path(p).open("rb")
        """
        report = lint(tmp_path, "catalog/catalog.py", source, "R003")
        assert [f.rule for f in report.findings] == ["R003", "R003"]

    def test_method_named_open_is_clean(self, tmp_path):
        source = """\
            def reader(db, designator, txn):
                return db.lo.open(designator, txn, "r")
        """
        report = lint(tmp_path, "ql/executor.py", source, "R003")
        assert report.findings == []


class TestR004SimClock:
    VIOLATION = """\
        import time
        def stamp():
            return time.time()
    """

    def test_fires_outside_sim_clock(self, tmp_path):
        report = lint(tmp_path, "txn/manager.py", self.VIOLATION, "R004")
        assert [f.rule for f in report.findings] == ["R004"]

    def test_suppressed(self, tmp_path):
        source = self.VIOLATION.replace(
            "time.time()", "time.time()  # repro: allow(R004)")
        report = lint(tmp_path, "txn/manager.py", source, "R004")
        assert report.findings == []
        assert report.suppressed == 1

    def test_allowed_in_sim_clock(self, tmp_path):
        report = lint(tmp_path, "sim/clock.py", self.VIOLATION, "R004")
        assert report.findings == []

    def test_direct_import_and_datetime_fire(self, tmp_path):
        source = """\
            from time import monotonic
            import datetime
            def t1():
                return monotonic()
            def t2():
                return datetime.datetime.now()
        """
        report = lint(tmp_path, "bench/figures.py", source, "R004")
        assert [f.rule for f in report.findings] == ["R004", "R004"]

    def test_sim_clock_now_is_clean(self, tmp_path):
        source = """\
            def stamp(clock):
                return clock.now()
        """
        report = lint(tmp_path, "txn/manager.py", source, "R004")
        assert report.findings == []


class TestR005TxnScope:
    VIOLATION = """\
        def load(db):
            txn = db.begin()
            do_work(db, txn)
            txn.commit()
    """

    def test_fires_without_guard(self, tmp_path):
        report = lint(tmp_path, "tools/loader.py", self.VIOLATION, "R005")
        assert [f.rule for f in report.findings] == ["R005"]
        assert "leaks an ACTIVE transaction" in report.findings[0].message

    def test_suppressed(self, tmp_path):
        source = self.VIOLATION.replace(
            "txn = db.begin()",
            "txn = db.begin()  # repro: allow(R005)")
        report = lint(tmp_path, "tools/loader.py", source, "R005")
        assert report.findings == []
        assert report.suppressed == 1

    def test_with_block_is_clean(self, tmp_path):
        source = """\
            def load(db):
                with db.begin() as txn:
                    do_work(db, txn)
        """
        report = lint(tmp_path, "tools/loader.py", source, "R005")
        assert report.findings == []

    def test_except_abort_guard_is_clean(self, tmp_path):
        source = """\
            def load(db):
                txn = db.begin()
                try:
                    do_work(db, txn)
                    txn.commit()
                except BaseException:
                    txn.abort()
                    raise
        """
        report = lint(tmp_path, "ql/executor.py", source, "R005")
        assert report.findings == []

    def test_delegation_forms_are_clean(self, tmp_path):
        source = """\
            def begin(self):
                self.txn = self.db.begin()
                return self.txn
            def make(manager):
                return manager.begin()
        """
        report = lint(tmp_path, "session.py", source, "R005")
        assert report.findings == []


class TestR006BareExcept:
    VIOLATION = """\
        def unpin(bufmgr, buf):
            try:
                bufmgr.unpin(buf)
            except Exception:
                pass
    """

    def test_fires_in_core_packages(self, tmp_path):
        report = lint(tmp_path, "storage/buffer.py", self.VIOLATION, "R006")
        assert [f.rule for f in report.findings] == ["R006"]

    def test_suppressed(self, tmp_path):
        source = self.VIOLATION.replace(
            "except Exception:",
            "except Exception:  # repro: allow(R006)")
        report = lint(tmp_path, "storage/buffer.py", source, "R006")
        assert report.findings == []
        assert report.suppressed == 1

    def test_outside_core_packages_is_clean(self, tmp_path):
        report = lint(tmp_path, "bench/cli.py", self.VIOLATION, "R006")
        assert report.findings == []

    def test_bare_except_fires_even_with_body(self, tmp_path):
        source = """\
            def f(x):
                try:
                    return x()
                except:
                    return None
        """
        report = lint(tmp_path, "txn/manager.py", source, "R006")
        assert [f.rule for f in report.findings] == ["R006"]

    def test_narrow_swallow_is_clean(self, tmp_path):
        source = """\
            def f(x):
                try:
                    return x()
                except ValueError:
                    pass
        """
        report = lint(tmp_path, "access/heap.py", source, "R006")
        assert report.findings == []


class TestSuppressionMechanics:
    def test_multiple_rules_in_one_comment(self, tmp_path):
        source = """\
            import time
            def f(relation, tid, snap):
                # repro: allow(R001, R004): fixture
                return relation.fetch(tid, snap) or time.time()
        """
        path = write_module(tmp_path, "lo/x.py", source)
        report = analyze_paths([path], [get_rule("R001"), get_rule("R004")])
        assert report.findings == []
        assert report.suppressed == 2

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        source = """\
            import time
            def f():
                return time.time()  # repro: allow(R001)
        """
        path = write_module(tmp_path, "lo/x.py", source)
        report = analyze_paths([path], [get_rule("R004")])
        assert [f.rule for f in report.findings] == ["R004"]


class TestR007HotPathBytesCopy:
    VIOLATION = """\
        def read_item(self, start, end):
            return bytes(self.buf[start:end])
    """

    def test_fires_in_page(self, tmp_path):
        report = lint(tmp_path, "storage/page.py", self.VIOLATION, "R007")
        assert [f.rule for f in report.findings] == ["R007"]
        assert "memoryview" in report.findings[0].message

    def test_fires_in_access(self, tmp_path):
        report = lint(tmp_path, "access/heap.py", self.VIOLATION, "R007")
        assert [f.rule for f in report.findings] == ["R007"]

    def test_silent_outside_hot_modules(self, tmp_path):
        report = lint(tmp_path, "lo/fchunk.py", self.VIOLATION, "R007")
        assert report.findings == []

    def test_sanctioned_accessor_not_flagged(self, tmp_path):
        source = """\
            def get_item(self, start, end):
                return bytes(self.buf[start:end])
        """
        report = lint(tmp_path, "storage/page.py", source, "R007")
        assert report.findings == []

    def test_whole_object_copy_not_flagged(self, tmp_path):
        source = """\
            def snapshot(self):
                return bytes(self.buf)
        """
        report = lint(tmp_path, "storage/page.py", source, "R007")
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        source = """\
            def read_item(self, start, end):
                # repro: allow(R007): boundary copy, leaves the pin
                return bytes(self.buf[start:end])
        """
        report = lint(tmp_path, "storage/page.py", source, "R007")
        assert report.findings == []
        assert report.suppressed == 1


#: One site of each R010 pattern, as one line of source.
ONE_SITE = {
    "`.cpu is [not] None`": "charged = self.cpu is not None",
    "`VALIDATOR.operation(...)`": "scope = lockdep.VALIDATOR.operation('x')",
    "`delete_item(...)`": "buf.page.delete_item(slot)",
    "`archive_relation(...)` without create=True":
        "archive = db.archiver.archive_relation(name)",
    "`patch_item(..., XMAX_OFFSET, ...)`":
        "buf.page.patch_item(slot, XMAX_OFFSET, patch)",
    "`._deleters`": "self._deleters.clear()",
    "`.known_dead`": "dead = relation.known_dead(blockno, slot, snapshot)",
    "`.visibility_epoch`": "epoch = self.db.clog.visibility_epoch",
    "`db.latch`": "latch = self.db.latch",
    "`.btree_roots`": "roots = self.bufmgr.btree_roots",
    "`._active`": "active = frozenset(self._active)",
    "`._ended = ...`": "self._ended += 1",
    "`._inject(...)`": "self._inject('read', fileid, blockno)",
    "`._check_read(...)`": "self._check_read(fileid, first, count)",
    "`._check_write(...)`": "self._check_write(fileid, runs)",
}


def _entry_id(entry) -> str:
    return entry.pattern.strip("`").split("(")[0].strip(".")


class TestR010DeclaredSites:
    """Every table entry: one site beyond the count fires, an allow
    comment suppresses it, the declared count is clean, and a module
    that lost a site is reported at line 1."""

    ENTRIES = pytest.mark.parametrize("entry", DECLARED_SITES, ids=_entry_id)

    @staticmethod
    def _lint(tmp_path, entry, rel, n, suffix=""):
        source = "\n".join([ONE_SITE[entry.pattern]] * n) + suffix + "\n"
        path = write_module(tmp_path, rel, source)
        return analyze_paths([path], [DeclaredSitesRule((entry,))])

    def test_every_entry_has_a_fixture(self):
        assert set(ONE_SITE) == {entry.pattern for entry in DECLARED_SITES}

    @ENTRIES
    def test_extra_site_fires(self, tmp_path, entry):
        rel, count = next(iter(entry.sites.items()))
        report = self._lint(tmp_path, entry, rel, count + 1)
        assert [(f.rule, f.line) for f in report.findings] \
            == [("R010", count + 1)]
        assert "docs/invariants.md" in report.findings[0].message

    @ENTRIES
    def test_site_in_undeclared_module_fires(self, tmp_path, entry):
        report = self._lint(tmp_path, entry, "lo/elsewhere.py", 1)
        assert [(f.rule, f.line) for f in report.findings] == [("R010", 1)]

    @ENTRIES
    def test_suppressed(self, tmp_path, entry):
        rel, count = next(iter(entry.sites.items()))
        report = self._lint(tmp_path, entry, rel, count + 1,
                            "  # repro: allow(R010): fixture")
        assert report.findings == []
        assert report.suppressed == 1

    @ENTRIES
    def test_declared_count_is_clean(self, tmp_path, entry):
        for rel, count in entry.sites.items():
            report = self._lint(tmp_path, entry, rel, count)
            assert report.findings == [], rel

    @ENTRIES
    def test_missing_site_fires_at_line_one(self, tmp_path, entry):
        rel, count = next(iter(entry.sites.items()))
        report = self._lint(tmp_path, entry, rel, count - 1)
        assert [(f.rule, f.line) for f in report.findings] == [("R010", 1)]
        assert f"{count - 1} of the {count} declared" \
            in report.findings[0].message

    def test_lookalikes_are_not_sites(self, tmp_path):
        source = """\
            archive = self.archive_relation(name, create=True)
            buf.page.patch_item(slot, INFOMASK_OFFSET, patch)
            deleters_limit = self._deleters_limit
            latch = self._latch
            cpu = self.cpu
            same = self.cpu == other
            clog.bump_visibility_epoch()
            roots = self._btree_roots
            placing = self._active_nodes
            ended = self._ended
            self.inject("read", fileid, blockno)
            node._gate("read", fileid, first, count)
            check = self._check_read
            dead = known_dead(blockno, slot, snapshot)
            dead = self.known_deaders
        """
        path = write_module(tmp_path, "lo/elsewhere.py", source)
        report = analyze_paths([path], [get_rule("R010")])
        assert report.findings == []


class TestDriverAndReporters:
    def test_syntax_error_becomes_finding(self, tmp_path):
        path = write_module(tmp_path, "broken.py", "def f(:\n")
        report = analyze_paths([path])
        assert [f.rule for f in report.findings] == ["E999"]

    def test_analyze_paths_walks_directories(self, tmp_path):
        write_module(tmp_path, "txn/a.py", "import time\nt = time.time()\n")
        write_module(tmp_path, "txn/b.py", "x = 1\n")
        report = analyze_paths([tmp_path], [get_rule("R004")])
        assert report.files_checked == 2
        assert len(report.findings) == 1

    def test_text_reporter_format(self, tmp_path):
        path = write_module(tmp_path, "txn/a.py",
                            "import time\nt = time.time()\n")
        report = analyze_paths([path], [get_rule("R004")])
        text = render_text(report)
        assert f"{path}:2:5: R004" in text
        assert "1 finding in 1 file(s) checked" in text

    def test_clean_report_says_ok(self, tmp_path):
        path = write_module(tmp_path, "txn/a.py", "x = 1\n")
        assert render_text(analyze_paths([path])).startswith("OK")


class TestCLI:
    def test_exit_one_on_findings(self, tmp_path, capsys):
        path = write_module(tmp_path, "txn/a.py",
                            "import time\nt = time.time()\n")
        assert main([str(path)]) == 1
        assert "R004" in capsys.readouterr().out

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        path = write_module(tmp_path, "txn/a.py", "x = 1\n")
        assert main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_select_limits_rules(self, tmp_path, capsys):
        path = write_module(tmp_path, "txn/a.py",
                            "import time\nt = time.time()\n")
        assert main(["--select", "R001", str(path)]) == 0
        assert main(["--select", "R004", str(path)]) == 1
        capsys.readouterr()

    def test_select_unknown_rule_is_usage_error(self, tmp_path, capsys):
        path = write_module(tmp_path, "txn/a.py", "x = 1\n")
        assert main(["--select", "R999", str(path)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R003", "R004", "R005", "R006", "R009"):
            assert rule_id in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "does" / "not" / "exist.py")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_tree_without_python_files_is_usage_error(self, tmp_path,
                                                      capsys):
        (tmp_path / "notes.txt").write_text("no modules here\n")
        assert main([str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "no Python files" in captured.err
        assert "OK" not in captured.out


class TestShippedTreeIsClean:
    """The acceptance gate: the linter passes over the real source tree."""

    def test_python_dash_m_exits_zero_on_src_repro(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis",
             str(REPO_ROOT / "src" / "repro")],
            capture_output=True, text=True, cwd=REPO_ROOT)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK" in result.stdout

    def test_every_rule_is_exercised_by_the_tree_or_suppressions(self):
        # The shipped tree carries exactly the suppressions documented in
        # docs/invariants.md and zero findings: adding an exception and
        # losing one both fail here.
        report = analyze_paths([REPO_ROOT / "src" / "repro"])
        assert report.findings == []
        assert report.suppressed == 7
        assert report.files_checked > 80


class TestR008LockOrderInversion:
    """Seeded-inversion fixtures: the analyzer must catch a deliberate
    A->B / B->A pattern, interprocedural chains, and inv_* protocol
    violations inside operation scopes."""

    def test_scoped_inversion_fires(self, tmp_path):
        source = """\
            from repro.txn.lockdep import LockdepMutex

            class Engine:
                def __init__(self):
                    self._pool = LockdepMutex("mutex:buffer")
                    self._clk = LockdepMutex("mutex:clock")

                def forward(self):            # buffer(65) -> clock(90): fine
                    with self._pool:
                        with self._clk:
                            return 1

                def backward(self):           # clock(90) -> buffer(65): inverted
                    with self._clk:
                        with self._pool:
                            return 2
        """
        report = lint(tmp_path, "storage/seeded.py", source, "R008")
        assert [f.rule for f in report.findings] == ["R008"]
        finding = report.findings[0]
        assert "mutex:buffer" in finding.message
        assert "mutex:clock" in finding.message

    def test_interprocedural_inversion_fires(self, tmp_path):
        source = """\
            from repro.txn.lockdep import LockdepMutex

            class Engine:
                def __init__(self):
                    self._pool = LockdepMutex("mutex:buffer")
                    self._tm = LockdepMutex("mutex:txn")

                def _begin(self):
                    with self._tm:            # txn(45) under buffer(65)
                        return 1

                def outer(self):
                    with self._pool:
                        return self._begin()
        """
        report = lint(tmp_path, "storage/seeded.py", source, "R008")
        assert [f.rule for f in report.findings] == ["R008"]
        assert "via" in report.findings[0].message

    def test_correct_order_is_clean(self, tmp_path):
        source = """\
            from repro.txn.lockdep import LockdepMutex

            class Engine:
                def __init__(self):
                    self._tm = LockdepMutex("mutex:txn")
                    self._pool = LockdepMutex("mutex:buffer")

                def ok(self):
                    with self._tm:
                        with self._pool:
                            return 1
        """
        report = lint(tmp_path, "storage/seeded.py", source, "R008")
        assert report.findings == []

    def test_inv_protocol_violation_in_operation_scope(self, tmp_path):
        source = """\
            from repro.txn.lockdep import VALIDATOR

            def bad_rename(locks, txn, a, b):
                with VALIDATOR.operation("seeded"):
                    locks.acquire(txn, ("inv_tree", a), "EXCLUSIVE")
                    locks.acquire(txn, ("inv_entry", b), "EXCLUSIVE")
        """
        report = lint(tmp_path, "inversion/seeded.py", source, "R008")
        assert [f.rule for f in report.findings] == ["R008"]
        assert "inv_entry" in report.findings[0].message
        assert "protocol order" in report.findings[0].message

    def test_inv_order_not_checked_across_operations(self, tmp_path):
        # Two separate operations (strict 2PL: nothing held across the
        # boundary) may touch the family in any order.
        source = """\
            from repro.txn.lockdep import VALIDATOR

            def two_operations(locks, txn, a, b):
                with VALIDATOR.operation("first"):
                    locks.acquire(txn, ("inv_tree", a), "SHARED")
                with VALIDATOR.operation("second"):
                    locks.acquire(txn, ("inv_entry", b), "EXCLUSIVE")
        """
        report = lint(tmp_path, "inversion/seeded.py", source, "R008")
        assert report.findings == []


class TestR009BlockingUnderMutex:
    # Lexical case: `with <latch>:` and `*.locks.acquire` in one function.
    LATCH_VIOLATION = """\
        def insert(db, txn, name):
            with db.latch:
                db.locks.acquire(txn.xid, ("relation", name), "shared")
    """

    def test_fires_inside_latch_block(self, tmp_path):
        report = lint(tmp_path, "db.py", self.LATCH_VIOLATION, "R009")
        assert [f.rule for f in report.findings] == ["R009"]
        assert "holds latch" in report.findings[0].message

    def test_suppressed(self, tmp_path):
        source = self.LATCH_VIOLATION.replace(
            '"shared")', '"shared")  # repro: allow(R009)')
        report = lint(tmp_path, "db.py", source, "R009")
        assert report.findings == []
        assert report.suppressed == 1

    def test_lock_before_latch_is_clean(self, tmp_path):
        source = """\
            def insert(db, txn, name):
                db.locks.acquire(txn.xid, ("relation", name), "shared")
                with db.latch:
                    db.get_class(name).insert(txn, ())
        """
        report = lint(tmp_path, "db.py", source, "R009")
        assert report.findings == []

    def test_private_latch_spelling_and_engine_latch_call(self, tmp_path):
        source = """\
            def bad(self, txn):
                with self._latch:
                    self.lock_manager.acquire(txn.xid, "r", "x")
            def also_bad(db, txn):
                with LockdepMutex("latch", reentrant=True):
                    db.locks.acquire(txn.xid, "r", "x")
        """
        report = lint(tmp_path, "db.py", source, "R009")
        assert [f.rule for f in report.findings] == ["R009", "R009"]

    def test_unrelated_acquire_inside_latch_is_clean(self, tmp_path):
        source = """\
            def fine(self):
                with self._latch:
                    self._mutex.acquire()
        """
        report = lint(tmp_path, "storage/buffer.py", source, "R009")
        assert report.findings == []

    def test_heavy_acquire_under_mutex_fires(self, tmp_path):
        source = """\
            from repro.txn.lockdep import LockdepMutex

            class Engine:
                def __init__(self):
                    self._mutex = LockdepMutex("mutex:txn")

                def bad(self, locks, txn, oid):
                    with self._mutex:
                        locks.acquire(txn, ("relation", oid), "SHARED")
        """
        report = lint(tmp_path, "txn/seeded.py", source, "R009")
        assert [f.rule for f in report.findings] == ["R009"]
        assert "mutex:txn" in report.findings[0].message

    def test_heavy_acquire_under_latch_via_call_fires(self, tmp_path):
        source = """\
            class Scan:
                def _lock_row(self, locks, txn, oid):
                    locks.acquire(txn, ("relation", oid), "SHARED")

                def read(self, db, locks, txn, oid):
                    with db.latch:
                        self._lock_row(locks, txn, oid)
        """
        report = lint(tmp_path, "access/seeded.py", source, "R009")
        assert [f.rule for f in report.findings] == ["R009"]
        assert "via" in report.findings[0].message

    def test_heavy_before_mutex_is_clean(self, tmp_path):
        source = """\
            from repro.txn.lockdep import LockdepMutex

            class Engine:
                def __init__(self):
                    self._mutex = LockdepMutex("mutex:txn")

                def good(self, locks, txn, oid):
                    locks.acquire(txn, ("relation", oid), "SHARED")
                    with self._mutex:
                        return 1
        """
        report = lint(tmp_path, "txn/seeded.py", source, "R009")
        assert report.findings == []


class TestUnusedSuppressions:
    def test_stale_suppression_reported(self, tmp_path):
        source = """\
            def f():
                return 1  # repro: allow(R004): nothing here uses time
        """
        path = write_module(tmp_path, "txn/a.py", source)
        report = analyze_paths([path], [get_rule("R004")])
        assert report.findings == []
        assert [(u.line, u.rule) for u in report.unused_suppressions] \
            == [(2, "R004")]
        text = render_text(report)
        assert "error: suppression for R004" in text
        assert "1 unused suppression(s)" in text

    def test_used_suppression_not_reported(self, tmp_path):
        source = """\
            import time
            def f():
                return time.time()  # repro: allow(R004): fixture
        """
        path = write_module(tmp_path, "txn/a.py", source)
        report = analyze_paths([path], [get_rule("R004")])
        assert report.unused_suppressions == []

    def test_unselected_rule_suppression_not_judged(self, tmp_path):
        # Running --select R001 must not flag every R004 suppression in
        # the tree as stale.
        source = """\
            import time
            def f():
                return time.time()  # repro: allow(R004): fixture
        """
        path = write_module(tmp_path, "txn/a.py", source)
        report = analyze_paths([path], [get_rule("R001")])
        assert report.unused_suppressions == []

    def test_docstring_example_is_not_a_suppression(self, tmp_path):
        source = '''\
            def f():
                """Annotate with  # repro: allow(R004): reason."""
                return 1
        '''
        path = write_module(tmp_path, "txn/a.py", source)
        report = analyze_paths([path], [get_rule("R004")])
        assert report.unused_suppressions == []

    def test_stale_suppression_fails_cli(self, tmp_path, capsys):
        source = """\
            def f():
                return 1  # repro: allow(R004): stale
        """
        path = write_module(tmp_path, "txn/a.py", source)
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "error: suppression" in out
        assert "OK" not in out

    def test_shipped_tree_has_no_stale_suppressions(self):
        report = analyze_paths([REPO_ROOT / "src" / "repro"])
        assert report.unused_suppressions == []


class TestCLISelectValidation:
    def test_empty_selection_is_usage_error(self, tmp_path, capsys):
        path = write_module(tmp_path, "txn/a.py", "x = 1\n")
        assert main(["--select", ",", str(path)]) == 2
        err = capsys.readouterr().err
        assert "selected no rules" in err
        assert "R001" in err and "R008" in err              # known-rule list

    def test_all_unknown_ids_reported_together(self, tmp_path, capsys):
        path = write_module(tmp_path, "txn/a.py", "x = 1\n")
        assert main(["--select", "R008,RXXX,RYYY", str(path)]) == 2
        err = capsys.readouterr().err
        assert "RXXX" in err and "RYYY" in err
        assert "R009" in err                                # known-rule list

