"""The line counter (``tests/loc.py``) on a module of known counts, in a scratch git repository."""

import subprocess

import pytest

import loc

# 7 code lines (4, 9, 14, 15, 17, 18, 20), 8 docstring/comment lines (1, 2, 6, 7, 10, 11, 12, 21), 6 blank.
FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment leaves the line code

# a comment line
# another

class A:
    """Class doc.

    With a blank line inside."""

    x = """not a docstring,
spanning two lines"""

    def f(self):
        return os.sep

    def g(self):
        """One line."""
'''


def test_fixture_counts():
    assert loc.count_lines(FIXTURE) == {"code": 7, "doc": 8, "blank": 6, "total": 21}


@pytest.fixture
def repo(tmp_path):
    """A git repository whose one commit holds the fixture as ``src/paeff/fixture.py`` and ``tests/test_fixture.py``."""
    for path in ("src/paeff/fixture.py", "tests/test_fixture.py"):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(FIXTURE, encoding="utf-8")

    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=loc", "-c", "user.email=loc@example.invalid",
                        *args], check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "fixture")
    return tmp_path


def tables(lines):
    """Each table of a report, keyed by its directory: the header's sides and the rows by module."""
    blank = lines.index("")
    return {table[1].split()[0]: (table[0].split(), {line.split()[0]: line.split()[1:] for line in table[2:]})
            for table in (lines[:blank], lines[blank + 1:])}


def test_a_revision_against_itself_reads_0(repo):
    assert loc.counts_at("HEAD", "src/paeff", repo) == {"fixture.py": loc.count_lines(FIXTURE)}
    assert loc.counts_at("HEAD", "tests", repo) == {"test_fixture.py": loc.count_lines(FIXTURE)}
    got = tables(loc.report("HEAD", repo=repo))
    assert list(got) == ["src/paeff", "tests"]
    for _, rows in got.values():
        assert rows["total"] == ["7", "8", "6", "21", "7", "8", "6", "21", "0", "0", "0", "0"]


def test_the_working_tree_against_a_revision(repo):
    with open(repo / "src" / "paeff" / "fixture.py", "a", encoding="utf-8") as fh:
        fh.write("\nY = 1  # one more code line after a blank one\n")
    (repo / "src" / "paeff" / "new.py").write_text("# only a comment\n", encoding="utf-8")
    (repo / "tests" / "test_fixture.py").unlink()
    got = tables(loc.report("HEAD", repo=repo))
    (sides, rows), (_, test_rows) = got["src/paeff"], got["tests"]
    assert sides == ["HEAD", "working", "tree", "difference"]
    assert rows["fixture.py"] == ["7", "8", "6", "21", "8", "8", "7", "23", "+1", "0", "+1", "+2"]
    assert rows["new.py"] == ["0", "0", "0", "0", "0", "1", "0", "1", "0", "+1", "0", "+1"]
    assert rows["total"] == ["7", "8", "6", "21", "8", "9", "7", "24", "+1", "+1", "+1", "+3"]
    assert test_rows["test_fixture.py"] == ["7", "8", "6", "21", "0", "0", "0", "0", "-7", "-8", "-6", "-21"]
    assert test_rows["total"] == test_rows["test_fixture.py"]
