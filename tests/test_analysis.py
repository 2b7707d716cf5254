"""The invariant linter (repro.analysis): R010's rows, the CLI.

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
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import analyze_paths, render_text
from repro.analysis.cli import main
from repro.analysis.rules import DECLARED_SITES

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


def lint(tmp_path: Path, rel: str, source: str, table=DECLARED_SITES):
    """Lint one fixture module against *table* (default: every row)."""
    path = write_module(tmp_path, rel, source)
    return analyze_paths([path], table)


def row(prefix: str) -> tuple:
    """The table of the one row whose pattern starts with *prefix*."""
    return tuple(
        entry for entry in DECLARED_SITES if entry.pattern.startswith(prefix))


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
    """Fixtures of one R010 row (``TABLE``), linted with that row alone;
    ``VIOLATION`` is a site that fires in module ``REL``."""

    TABLE: tuple
    REL: str
    VIOLATION: str

    def fired(self, tmp_path, rel, source) -> list[str]:
        return rules_fired(lint(tmp_path, rel, source, self.TABLE))


class TestR001RawAccess(RowFixtures):
    """The raw heap/index read row."""

    TABLE, REL = RAW_READS, "lo/somefile.py"
    VIOLATION = """\
        def lookup(relation, tid, snapshot):
            return relation.fetch(tid, snapshot)
    """

    def test_fires_outside_scan_layer(self, tmp_path):
        report = lint(tmp_path, self.REL, self.VIOLATION, self.TABLE)
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

    TABLE, REL = FILE_OPENS, "storage/page.py"
    VIOLATION = """\
        def slurp(path):
            with open(path, "rb") as fh:
                return fh.read()
    """

    def test_fires_outside_smgr(self, tmp_path):
        assert self.fired(tmp_path, self.REL, self.VIOLATION) == ["R010"]

    def test_allowed_in_smgr_and_external_file_los(self, tmp_path):
        for rel, count in self.TABLE[0].sites.items():
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

    TABLE, REL = CLOCK_READS, "txn/manager.py"
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
        report = lint(tmp_path, "bench/figures.py", source, self.TABLE)
        # The import is the site of every call through the bare name.
        assert [(f.rule, f.line) for f in report.findings] \
            == [("R010", 1), ("R010", 6)]

    def test_sim_clock_now_is_clean(self, tmp_path):
        source = """\
            def stamp(clock):
                return clock.now()
        """
        assert self.fired(tmp_path, self.REL, source) == []


class TestR006BareExcept(RowFixtures):
    """The swallowed-exception row."""

    TABLE, REL = SWALLOWS, "storage/buffer.py"
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


class TestR007HotPathBytesCopy(RowFixtures):
    """The buffer-slice copy row."""

    TABLE, REL = SLICE_COPIES, "storage/page.py"
    VIOLATION = """\
        def read_item(self, start, end):
            return bytes(self.buf[start:end])
    """

    def test_fires_in_page(self, tmp_path):
        report = lint(tmp_path, self.REL, self.VIOLATION, self.TABLE)
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
    "`.begin()` outside a `with` item": "txn = db.begin()",
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
        return analyze_paths([path], (entry,))

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
            with db.begin() as txn, self.db.begin():
                begin = db.begin
        """
        path = write_module(tmp_path, "lo/elsewhere.py", source)
        assert analyze_paths([path]).findings == []


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
