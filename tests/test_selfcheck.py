"""The built-in selfcheck: every invariant it lists holds."""

from paeff import selfcheck


def test_all_checks_pass():
    results = selfcheck.run_all()
    assert len(results) == 22
    assert [r.name for r in results if not r.passed] == []
