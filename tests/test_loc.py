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
    """A git repository whose one commit holds the fixture as ``src/paeff/fixture.py``."""
    (tmp_path / "src" / "paeff").mkdir(parents=True)
    (tmp_path / "src" / "paeff" / "fixture.py").write_text(FIXTURE, encoding="utf-8")

    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=loc", "-c", "user.email=loc@example.invalid",
                        *args], check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "fixture")
    return tmp_path


def test_a_revision_against_itself_reads_0(repo):
    assert loc.counts_at("HEAD", repo) == {"fixture.py": loc.count_lines(FIXTURE)}
    *_, total = loc.report("HEAD", repo=repo)
    assert total.split() == ["total", "7", "8", "6", "21", "7", "8", "6", "21", "0", "0", "0", "0"]


def test_the_working_tree_against_a_revision(repo):
    with open(repo / "src" / "paeff" / "fixture.py", "a", encoding="utf-8") as fh:
        fh.write("\nY = 1  # one more code line after a blank one\n")
    (repo / "src" / "paeff" / "new.py").write_text("# only a comment\n", encoding="utf-8")
    lines = loc.report("HEAD", repo=repo)
    assert lines[0].split() == ["HEAD", "working", "tree", "difference"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert rows["fixture.py"] == ["7", "8", "6", "21", "8", "8", "7", "23", "+1", "0", "+1", "+2"]
    assert rows["new.py"] == ["0", "0", "0", "0", "0", "1", "0", "1", "0", "+1", "0", "+1"]
    assert rows["total"] == ["7", "8", "6", "21", "8", "9", "7", "24", "+1", "+1", "+1", "+3"]
