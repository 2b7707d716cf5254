"""The invariant linter (repro.analysis): R005, R010's rows, the CLI.

R010 reads one table, ``DECLARED_SITES``.  Every row gets the same
parametrised fixtures: one site beyond its count fires, the declared
count is clean, a site in an undeclared module fires, and a module that
lost a site is reported at line 1.  The five rows that were rules R001,
R003, R004, R006 and R007 keep those rules' fixture classes as
equivalence data: every fixture that made the rule fire still fires,
every lookalike the rule skipped is still clean, and the verdicts that
changed are the scope widenings, held in ``TestScopeWidenings``.
Fixtures sit under a directory literally named ``repro`` so the
module-relative path comes out right.

The meta-test runs the real CLI over the shipped tree and asserts it
exits 0 — the tree must stay lint-clean.

Lock order (the former R008/R009) is not a static rule: the armed
runtime validator checks it.  Their fixture classes stay, but execute
each fixture and expect :class:`LockOrderError` (or a clean run).
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    all_rules,
    analyze_paths,
    get_rule,
    render_text,
)
from repro.analysis.cli import main
from repro.analysis.rules import DECLARED_SITES, DeclaredSitesRule
from repro.db import Database
from repro.errors import LockOrderError
from repro.txn.lockdep import VALIDATOR, check_edges
from repro.txn.locks import LockManager

REPO_ROOT = Path(__file__).resolve().parent.parent
#: The source tree under test: the checkout's, or a planted copy on
#: ``PYTHONPATH`` (``tests/test_lockdep.py::TestPlantedBugs``).
TREE = Path(repro.__file__).resolve().parent


def write_module(tmp_path: Path, rel: str, source: str) -> Path:
    """Place *source* at ``<tmp>/repro/<rel>`` so declared sites apply."""
    path = tmp_path / "repro" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def lint(tmp_path: Path, rel: str, source: str, rule=None):
    """Lint one fixture module with *rule* (default: R010, every row)."""
    path = write_module(tmp_path, rel, source)
    return analyze_paths([path], [rule or get_rule("R010")])


def row(prefix: str) -> DeclaredSitesRule:
    """R010 with only the row whose pattern starts with *prefix*."""
    return DeclaredSitesRule(tuple(
        entry for entry in DECLARED_SITES if entry.pattern.startswith(prefix)))


RAW_READS, FILE_OPENS, CLOCK_READS, SWALLOWS, SLICE_COPIES = (
    row("`.fetch`"), row("`open("), row("`time.time()"), row("bare"),
    row("`bytes("))


def repeated(source: str, count: int) -> str:
    """*count* copies of a one-function fixture, renamed apart."""
    source = textwrap.dedent(source)
    return "".join(source.replace("def ", f"def f{i}_", 1)
                   for i in range(count))


def rules_fired(report) -> list[str]:
    return [f.rule for f in report.findings]


class RowFixtures:
    """Fixtures of one R010 row, linted with that row alone.  The rule it
    was (``OLD_ID``) is kept only to build the allow comment that once
    suppressed ``VIOLATION`` in module ``REL``."""

    RULE: DeclaredSitesRule
    OLD_ID: str
    REL: str
    VIOLATION: str

    def fired(self, tmp_path, rel, source) -> list[str]:
        return rules_fired(lint(tmp_path, rel, source, self.RULE))

    def test_suppressed(self, tmp_path):
        """The allow comment is plain text now: the fixture fires."""
        comment = f"  # repro: allow({self.OLD_ID})"
        source = "\n".join(line + comment for line in
                           textwrap.dedent(self.VIOLATION).splitlines())
        assert self.fired(tmp_path, self.REL, source) == ["R010"]


class TestRegistry:
    def test_all_rules_registered(self):
        assert [rule.id for rule in all_rules()] == ["R005", "R010"]

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            get_rule("R001")


class TestR001RawAccess(RowFixtures):
    """The raw heap/index read row."""

    RULE, OLD_ID, REL = RAW_READS, "R001", "lo/somefile.py"
    VIOLATION = """\
        def lookup(relation, tid, snapshot):
            return relation.fetch(tid, snapshot)
    """

    def test_fires_outside_scan_layer(self, tmp_path):
        report = lint(tmp_path, self.REL, self.VIOLATION, self.RULE)
        assert rules_fired(report) == ["R010"]
        assert "scan" in report.findings[0].message

    def test_allowed_in_scan_layer(self, tmp_path):
        source = repeated(self.VIOLATION, 5)
        assert self.fired(tmp_path, "access/scan.py", source) == []

    def test_database_facade_receiver_is_clean(self, tmp_path):
        source = """\
            def lookup(self, class_name, tid):
                return self.db.fetch(class_name, tid)
        """
        assert self.fired(tmp_path, "session.py", source) == []

    def test_regex_search_is_clean(self, tmp_path):
        source = """\
            import re
            def find(text, name_re):
                return re.search(r"x+", text) or name_re.search(text)
        """
        assert self.fired(tmp_path, "ql/lexer.py", source) == []

    def test_range_scan_fires(self, tmp_path):
        source = """\
            def walk(index):
                return list(index.range_scan(None, None))
            def probe(index, key):
                return index.search(key)
            def floor(index, key):
                return next(index.range_scan_desc(key), None)
        """
        assert self.fired(tmp_path, "inversion/filesystem.py", source) \
            == ["R010"] * 3


class TestR003SmgrOnlyIO(RowFixtures):
    """The file-open row."""

    RULE, OLD_ID, REL = FILE_OPENS, "R003", "storage/page.py"
    VIOLATION = """\
        def slurp(path):
            with open(path, "rb") as fh:
                return fh.read()
    """

    def test_fires_outside_smgr(self, tmp_path):
        assert self.fired(tmp_path, self.REL, self.VIOLATION) == ["R010"]

    def test_suppressed_by_comment_above(self, tmp_path):
        """The allow comment is plain text now: the fixture fires."""
        source = """\
            def slurp(path):
                # repro: allow(R003): test fixture justification
                with open(path, "rb") as fh:
                    return fh.read()
        """
        assert self.fired(tmp_path, self.REL, source) == ["R010"]

    def test_allowed_in_smgr_and_external_file_los(self, tmp_path):
        for rel, count in self.RULE.table[0].sites.items():
            source = repeated(self.VIOLATION, count)
            assert self.fired(tmp_path, rel, source) == [], rel

    def test_os_open_and_path_open_fire(self, tmp_path):
        source = """\
            import os
            from pathlib import Path
            def bad(p):
                fd = os.open(p, 0)
                handle = os.fdopen(fd, "rb")
                return Path(p).open("rb")
        """
        assert self.fired(tmp_path, "catalog/catalog.py", source) \
            == ["R010"] * 3

    def test_method_named_open_is_clean(self, tmp_path):
        source = """\
            def reader(db, designator, txn):
                return db.lo.open(designator, txn, "r")
        """
        assert self.fired(tmp_path, "ql/executor.py", source) == []


class TestR004SimClock(RowFixtures):
    """The wall-clock row."""

    RULE, OLD_ID, REL = CLOCK_READS, "R004", "txn/manager.py"
    VIOLATION = """\
        import time
        def stamp():
            return time.time()
    """

    def test_fires_outside_sim_clock(self, tmp_path):
        assert self.fired(tmp_path, self.REL, self.VIOLATION) == ["R010"]

    def test_direct_import_and_datetime_fire(self, tmp_path):
        source = """\
            from time import monotonic
            import datetime
            def t1():
                return monotonic()
            def t2():
                return datetime.datetime.now()
        """
        report = lint(tmp_path, "bench/figures.py", source, self.RULE)
        # The import is the site of every call through the bare name.
        assert [(f.rule, f.line) for f in report.findings] \
            == [("R010", 1), ("R010", 6)]

    def test_sim_clock_now_is_clean(self, tmp_path):
        source = """\
            def stamp(clock):
                return clock.now()
        """
        assert self.fired(tmp_path, self.REL, source) == []


class TestR005TxnScope:
    VIOLATION = """\
        def load(db):
            txn = db.begin()
            do_work(db, txn)
            txn.commit()
    """

    @staticmethod
    def lint(tmp_path, rel, source):
        return lint(tmp_path, rel, source, get_rule("R005"))

    def test_fires_without_guard(self, tmp_path):
        report = self.lint(tmp_path, "tools/loader.py", self.VIOLATION)
        assert rules_fired(report) == ["R005"]
        assert "leaks an ACTIVE transaction" in report.findings[0].message

    def test_suppressed(self, tmp_path):
        """The allow comment is plain text now: the fixture fires."""
        source = self.VIOLATION.replace(
            "txn = db.begin()", "txn = db.begin()  # repro: allow(R005)")
        report = self.lint(tmp_path, "tools/loader.py", source)
        assert rules_fired(report) == ["R005"]

    def test_with_block_is_clean(self, tmp_path):
        source = """\
            def load(db):
                with db.begin() as txn:
                    do_work(db, txn)
        """
        assert self.lint(tmp_path, "tools/loader.py", source).findings == []

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
        assert self.lint(tmp_path, "ql/executor.py", source).findings == []

    def test_delegation_forms_are_clean(self, tmp_path):
        source = """\
            def begin(self):
                self.txn = self.db.begin()
                return self.txn
            def make(manager):
                return manager.begin()
        """
        assert self.lint(tmp_path, "session.py", source).findings == []


class TestR006BareExcept(RowFixtures):
    """The swallowed-exception row."""

    RULE, OLD_ID, REL = SWALLOWS, "R006", "storage/buffer.py"
    VIOLATION = """\
        def unpin(bufmgr, buf):
            try:
                bufmgr.unpin(buf)
            except Exception:
                pass
    """

    def test_fires_in_core_packages(self, tmp_path):
        assert self.fired(tmp_path, self.REL, self.VIOLATION) == ["R010"]

    def test_bare_except_fires_even_with_body(self, tmp_path):
        source = """\
            def f(x):
                try:
                    return x()
                except:
                    return None
        """
        assert self.fired(tmp_path, "txn/manager.py", source) == ["R010"]

    def test_narrow_swallow_is_clean(self, tmp_path):
        source = """\
            def f(x):
                try:
                    return x()
                except ValueError:
                    pass
        """
        assert self.fired(tmp_path, "access/heap.py", source) == []


class TestSuppressionMechanics:
    """The comment syntax that once suppressed findings is plain text:
    every finding under it stands."""

    def test_multiple_rules_in_one_comment(self, tmp_path):
        source = """\
            import time
            def f(relation, tid, snap):
                # repro: allow(R001, R004): fixture
                return relation.fetch(tid, snap) or time.time()
        """
        assert rules_fired(lint(tmp_path, "lo/x.py", source)) \
            == ["R010", "R010"]

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        source = """\
            import time
            def f():
                return time.time()  # repro: allow(R001)
        """
        assert rules_fired(lint(tmp_path, "lo/x.py", source)) == ["R010"]


class TestR007HotPathBytesCopy(RowFixtures):
    """The buffer-slice copy row."""

    RULE, OLD_ID, REL = SLICE_COPIES, "R007", "storage/page.py"
    VIOLATION = """\
        def read_item(self, start, end):
            return bytes(self.buf[start:end])
    """

    def test_fires_in_page(self, tmp_path):
        report = lint(tmp_path, self.REL, self.VIOLATION, self.RULE)
        assert rules_fired(report) == ["R010"]
        assert "memoryview" in report.findings[0].message

    def test_fires_in_access(self, tmp_path):
        assert self.fired(tmp_path, "access/heap.py", self.VIOLATION) \
            == ["R010"]

    def test_whole_object_copy_not_flagged(self, tmp_path):
        source = """\
            def snapshot(self, n):
                return bytes(self.buf) + bytes(n)
        """
        assert self.fired(tmp_path, self.REL, source) == []


#: Fixtures the old rules skipped by where they sat (an allowed or
#: exempt package, or a sanctioned function name) and that fire now:
#: the five rows hold in every module, with exact counts.
WIDENED = {
    "raw read in a defining module": (TestR001RawAccess, "access/heap.py"),
    "raw read in the integrity check":
        (TestR001RawAccess, "catalog/integrity.py"),
    "file open in an undeclared smgr module":
        (TestR003SmgrOnlyIO, "smgr/disk.py"),
    "file open in the u-file": (TestR003SmgrOnlyIO, "lo/ufile.py"),
    "file open in a tools module": (TestR003SmgrOnlyIO, "tools/loader.py"),
    "clock read in sim/clock.py": (TestR004SimClock, "sim/clock.py"),
    "swallow outside the core packages": (TestR006BareExcept, "bench/cli.py"),
    "slice copy outside the hot modules":
        (TestR007HotPathBytesCopy, "lo/fchunk.py"),
    "slice copy in get_item": (TestR007HotPathBytesCopy, "storage/page.py"),
}


class TestScopeWidenings:
    @pytest.mark.parametrize("fixtures, rel", WIDENED.values(), ids=WIDENED)
    def test_now_fires(self, tmp_path, fixtures, rel):
        source = fixtures.VIOLATION.replace("read_item", "get_item")
        assert fixtures().fired(tmp_path, rel, source) == ["R010"]


#: One site of each R010 pattern, as source whose last line holds it.
ONE_SITE = {
    "`.fetch`/`.fetch_many`/`.search`/`.range_scan[_desc](...)`":
        "tup = relation.fetch(tid, snapshot)",
    "`open(...)`, `os.open`/`os.fdopen`/`io.open`, `Path(...).open(...)`":
        "handle = open(path, 'rb')",
    "`time.time()`, `time.monotonic()`, `datetime.now()`, ... "
    "(called or imported)": "started = time.monotonic()",
    "bare `except:`, or `except Exception: pass`":
        "try: unpin(buf)\nexcept Exception: pass",
    "`bytes(<buffer>[a:b])`": "data = bytes(view[1:])",
    "`.cpu is [not] None`": "charged = self.cpu is not None",
    "`VALIDATOR.operation(...)`": "scope = lockdep.VALIDATOR.operation('x')",
    "`locks.acquire(...)`":
        "self.db.locks.acquire(txn.xid, ('relation', name), mode)",
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
    return entry.pattern.strip("`").split("(")[0].strip(".").replace("`", "")


def _first_site(entry) -> tuple[str, int]:
    """A declared module and its count; a row with no site is judged in
    a module of its own at count 0."""
    return next(iter(entry.sites.items()), ("lo/elsewhere.py", 0))


class TestR010DeclaredSites:
    """Every table entry: one site beyond the count fires (an allow
    comment on it is inert), the declared count is clean, and a module
    that lost a site is reported at line 1."""

    ENTRIES = pytest.mark.parametrize("entry", DECLARED_SITES, ids=_entry_id)

    @staticmethod
    def _lint(tmp_path, entry, rel, n, suffix=""):
        source = "\n".join([ONE_SITE[entry.pattern]] * n) + suffix + "\n"
        path = write_module(tmp_path, rel, source)
        return analyze_paths([path], [DeclaredSitesRule((entry,))])

    def test_every_entry_has_a_fixture(self):
        assert set(ONE_SITE) == {entry.pattern for entry in DECLARED_SITES}

    def test_every_declared_module_exists(self):
        # R010 judges only the modules it is handed, so a row naming a
        # renamed or deleted module would pass silently.
        missing = [(entry.pattern, rel) for entry in DECLARED_SITES
                   for rel in entry.sites
                   if not (TREE / rel).is_file()]
        assert missing == []

    @ENTRIES
    def test_extra_site_fires(self, tmp_path, entry):
        rel, count = _first_site(entry)
        report = self._lint(tmp_path, entry, rel, count + 1)
        lines = ONE_SITE[entry.pattern].count("\n") + 1
        assert [(f.rule, f.line) for f in report.findings] \
            == [("R010", (count + 1) * lines)]
        assert "docs/invariants.md" in report.findings[0].message

    @ENTRIES
    def test_site_in_undeclared_module_fires(self, tmp_path, entry):
        report = self._lint(tmp_path, entry, "lo/elsewhere.py", 1)
        assert rules_fired(report) == ["R010"]

    @ENTRIES
    def test_suppressed(self, tmp_path, entry):
        """An allow comment on the extra site is inert: it fires."""
        rel, count = _first_site(entry)
        report = self._lint(tmp_path, entry, rel, count + 1,
                            "  # repro: allow(R010): fixture")
        assert rules_fired(report) == ["R010"]

    @ENTRIES
    def test_declared_count_is_clean(self, tmp_path, entry):
        for rel, count in entry.sites.items():
            report = self._lint(tmp_path, entry, rel, count)
            assert report.findings == [], rel

    @pytest.mark.parametrize(
        "entry", [entry for entry in DECLARED_SITES if entry.sites],
        ids=_entry_id)
    def test_missing_site_fires_at_line_one(self, tmp_path, entry):
        rel, count = _first_site(entry)
        report = self._lint(tmp_path, entry, rel, count - 1)
        assert [(f.rule, f.line) for f in report.findings] == [("R010", 1)]
        assert f"{count - 1} of the {count} declared" \
            in report.findings[0].message

    def test_lookalikes_are_not_sites(self, tmp_path):
        source = """\
            import re
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
            tup = self.db.fetch(class_name, tid)
            found = re.search(r"x+", text) or name_pattern.search(text)
            handle = db.lo.open(designator, txn, "r")
            stamp = self.clock.now()
            try:
                value = int(text)
            except ValueError:
                pass
            data = bytes(view) + bytes(8)
        """
        path = write_module(tmp_path, "lo/elsewhere.py", source)
        assert analyze_paths([path], [get_rule("R010")]).findings == []


class TestDriverAndReporters:
    def test_syntax_error_becomes_finding(self, tmp_path):
        path = write_module(tmp_path, "broken.py", "def f(:\n")
        report = analyze_paths([path])
        assert rules_fired(report) == ["E999"]

    def test_analyze_paths_walks_directories(self, tmp_path):
        write_module(tmp_path, "txn/a.py", "import time\nt = time.time()\n")
        write_module(tmp_path, "txn/b.py", "x = 1\n")
        report = analyze_paths([tmp_path])
        assert report.files_checked == 2
        assert len(report.findings) == 1

    def test_text_reporter_format(self, tmp_path):
        path = write_module(tmp_path, "txn/a.py",
                            "import time\nt = time.time()\n")
        text = render_text(analyze_paths([path]))
        assert f"{path}:2:5: R010" in text
        assert "1 finding in 1 file(s) checked" in text

    def test_clean_report_says_ok(self, tmp_path):
        path = write_module(tmp_path, "txn/a.py", "x = 1\n")
        assert render_text(analyze_paths([path])).startswith("OK")


class TestCLI:
    def test_exit_one_on_findings(self, tmp_path, capsys):
        path = write_module(tmp_path, "txn/a.py",
                            "import time\nt = time.time()\n")
        assert main([str(path)]) == 1
        assert "R010" in capsys.readouterr().out

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        path = write_module(tmp_path, "txn/a.py", "x = 1\n")
        assert main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    @staticmethod
    def usage_error(argv, capsys) -> str:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    def test_select_unknown_rule_is_usage_error(self, tmp_path, capsys):
        # The CLI takes paths and --doc only: --select is gone.
        path = write_module(tmp_path, "txn/a.py", "x = 1\n")
        assert "unrecognized arguments" in self.usage_error(
            ["--select", "R010", str(path)], capsys)

    def test_list_rules(self, capsys):
        assert "unrecognized arguments" in self.usage_error(
            ["--list-rules"], capsys)

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
    """The acceptance gate: the linter passes over the source tree under
    test (a planted copy, when one is on ``PYTHONPATH``)."""

    def test_python_dash_m_exits_zero_on_src_repro(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(TREE)],
            capture_output=True, text=True, cwd=REPO_ROOT)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK" in result.stdout

    def test_every_rule_is_exercised_by_the_tree_or_suppressions(self):
        # Zero findings with every declared count met exactly: a new
        # site and a lost one both fail here.
        report = analyze_paths([TREE])
        assert report.findings == []
        assert report.files_checked > 80


class TestUnusedSuppressions:
    """The allow comment is gone: none is left to go stale."""

    def test_shipped_tree_has_no_stale_suppressions(self):
        comments = [path for path in TREE.rglob("*.py")
                    if "repro: allow" in path.read_text()]
        assert comments == []


class TestCLISelectValidation:
    def test_empty_selection_is_usage_error(self, tmp_path, capsys):
        path = write_module(tmp_path, "txn/a.py", "x = 1\n")
        assert "unrecognized arguments" in TestCLI.usage_error(
            ["--select", ",", str(path)], capsys)


def run_fixture(source: str) -> dict:
    """Execute *source* and return its namespace, so a fixture's lock
    pattern runs against the armed runtime validator."""
    namespace: dict = {}
    exec(compile(textwrap.dedent(source), "<fixture>", "exec"), namespace)
    return namespace


@pytest.fixture
def clean_graph():
    """Reset the validator's observed-edge graph around the test: a
    deliberate violation records its bad edge before raising."""
    VALIDATOR.reset()
    yield
    VALIDATOR.reset()


@pytest.mark.armed
@pytest.mark.usefixtures("clean_graph")
class TestR008LockOrderInversion:
    """Seeded-inversion fixtures for lock order.  R008 is no longer a
    static rule: the armed runtime validator is the lock-order check, so
    each fixture is executed and must raise :class:`LockOrderError` at
    the inverted acquisition (or run clean)."""

    def test_scoped_inversion_fires(self):
        engine = run_fixture("""\
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
        """)["Engine"]()
        assert engine.forward() == 1
        with pytest.raises(LockOrderError) as exc:
            engine.backward()
        assert "mutex:buffer" in str(exc.value)
        assert "mutex:clock" in str(exc.value)

    def test_interprocedural_inversion_fires(self):
        engine = run_fixture("""\
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
        """)["Engine"]()
        with pytest.raises(LockOrderError) as exc:
            engine.outer()
        # The acquirer's stack names the call the lock was reached through.
        assert "in _begin" in str(exc.value)
        assert "in outer" in str(exc.value)

    def test_correct_order_is_clean(self):
        engine = run_fixture("""\
            from repro.txn.lockdep import LockdepMutex

            class Engine:
                def __init__(self):
                    self._tm = LockdepMutex("mutex:txn")
                    self._pool = LockdepMutex("mutex:buffer")

                def ok(self):
                    with self._tm:
                        with self._pool:
                            return 1
        """)["Engine"]()
        assert engine.ok() == 1
        assert VALIDATOR.edges().get("mutex:txn -> mutex:buffer", 0) >= 1
        assert check_edges(VALIDATOR.edges()) == []

    def test_inv_protocol_violation_in_operation_scope(self):
        bad_rename = run_fixture("""\
            from repro.txn.lockdep import VALIDATOR
            from repro.txn.locks import LockMode

            def bad_rename(locks, txn, a, b):
                with VALIDATOR.operation("seeded"):
                    locks.acquire(txn, ("inv_tree", a), LockMode.EXCLUSIVE)
                    locks.acquire(txn, ("inv_entry", b), LockMode.EXCLUSIVE)
        """)["bad_rename"]
        locks = LockManager()
        with pytest.raises(LockOrderError) as exc:
            bad_rename(locks, 7, 1, 2)
        assert "inv_entry" in str(exc.value)
        assert "path-locking protocol" in str(exc.value)
        locks.release_all(7)

    def test_inv_order_not_checked_across_operations(self):
        # Two separate operations (strict 2PL: nothing held across the
        # boundary) may touch the family in any order.
        two_operations = run_fixture("""\
            from repro.txn.lockdep import VALIDATOR
            from repro.txn.locks import LockMode

            def two_operations(locks, txn, a, b):
                with VALIDATOR.operation("first"):
                    locks.acquire(txn, ("inv_tree", a), LockMode.SHARED)
                with VALIDATOR.operation("second"):
                    locks.acquire(txn, ("inv_entry", b), LockMode.EXCLUSIVE)
        """)["two_operations"]
        locks = LockManager()
        two_operations(locks, 8, 1, 2)
        locks.release_all(8)
        assert VALIDATOR.as_dict()["violations"] == 0


@pytest.fixture
def latched_db():
    """A database with one class ``T`` and an open transaction."""
    db = Database(charge_cpu=False)
    try:
        db.create_class("T", [("n", "int4")])
        txn = db.begin()
        yield db, txn
        txn.abort()
    finally:
        db.close()


@pytest.mark.armed
@pytest.mark.usefixtures("clean_graph")
class TestR009BlockingUnderMutex:
    """A heavyweight lock wait under the latch or a mutex.  R009 is no
    longer a static rule: each fixture is executed against the armed
    runtime validator, which raises at the blocking acquisition."""

    LATCH_VIOLATION = """\
        from repro.txn.locks import LockMode

        def insert(db, txn, name):
            with db.latch:
                db.locks.acquire(txn.xid, ("relation", name), LockMode.SHARED)
    """

    def test_fires_inside_latch_block(self, latched_db):
        db, txn = latched_db
        insert = run_fixture(self.LATCH_VIOLATION)["insert"]
        with pytest.raises(LockOrderError) as exc:
            insert(db, txn, "T")
        assert "blocking-under-mutex" in str(exc.value)
        assert "scoped lock latch" in str(exc.value)

    def test_lock_before_latch_is_clean(self, latched_db):
        db, txn = latched_db
        insert = run_fixture("""\
            from repro.txn.locks import LockMode

            def insert(db, txn, name):
                db.locks.acquire(txn.xid, ("relation", name), LockMode.SHARED)
                with db.latch:
                    return db.get_class(name).insert(txn, (1,))
        """)["insert"]
        insert(db, txn, "T")
        assert VALIDATOR.as_dict()["violations"] == 0

    def test_heavy_acquire_under_mutex_fires(self):
        engine = run_fixture("""\
            from repro.txn.lockdep import LockdepMutex
            from repro.txn.locks import LockMode

            class Engine:
                def __init__(self):
                    self._mutex = LockdepMutex("mutex:txn")

                def bad(self, locks, txn, oid):
                    with self._mutex:
                        locks.acquire(txn, ("relation", oid), LockMode.SHARED)
        """)["Engine"]()
        locks = LockManager()
        with pytest.raises(LockOrderError) as exc:
            engine.bad(locks, 1, "T")
        assert "mutex:txn" in str(exc.value)
        locks.release_all(1)

    def test_heavy_acquire_under_latch_via_call_fires(self, latched_db):
        db, txn = latched_db
        scan = run_fixture("""\
            from repro.txn.locks import LockMode

            class Scan:
                def _lock_row(self, locks, txn, oid):
                    locks.acquire(txn, ("relation", oid), LockMode.SHARED)

                def read(self, db, locks, txn, oid):
                    with db.latch:
                        self._lock_row(locks, txn, oid)
        """)["Scan"]()
        with pytest.raises(LockOrderError) as exc:
            scan.read(db, db.locks, txn.xid, "T")
        # The acquirer's stack names the call the lock was reached through.
        assert "in _lock_row" in str(exc.value)
        assert "in read" in str(exc.value)

    def test_heavy_before_mutex_is_clean(self):
        engine = run_fixture("""\
            from repro.txn.lockdep import LockdepMutex
            from repro.txn.locks import LockMode

            class Engine:
                def __init__(self):
                    self._mutex = LockdepMutex("mutex:txn")

                def good(self, locks, txn, oid):
                    locks.acquire(txn, ("relation", oid), LockMode.SHARED)
                    with self._mutex:
                        return 1
        """)["Engine"]()
        locks = LockManager()
        assert engine.good(locks, 1, "T") == 1
        locks.release_all(1)
        assert VALIDATOR.as_dict()["violations"] == 0
