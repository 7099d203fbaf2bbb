"""tools/check_skips.py on two JUnit XML reports written as pytest writes
them: one whose skips are all the known absent datasets, and one with a
skip of another reason."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("check_skips", os.path.join(ROOT, "tools", "check_skips.py"))
check_skips = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_skips)

MNIST = (
    '<testcase classname="tests.test_acceptance.TestCriterion1Training" name="test_mnist" time="0.001">'
    '<skipped type="pytest.skip" message="MNIST IDX files unavailable">'
    "tests/test_acceptance.py:70: MNIST IDX files unavailable</skipped></testcase>"
)
SKLEARN = (
    '<testcase classname="tests.test_acceptance.TestCriterion1Training" name="test_surrogate" time="0.001">'
    "<skipped type=\"pytest.skip\" message=\"could not import 'sklearn.datasets': No module named 'sklearn'\">"
    "tests/test_acceptance.py:124: could not import 'sklearn.datasets': No module named 'sklearn'"
    "</skipped></testcase>"
)
PASSED = '<testcase classname="tests.test_grids.TestTypes" name="test_grid_shape_checked" time="0.001" />'
OTHER = (
    '<testcase classname="tests.test_search.TestGreedy" name="test_wide" time="0.001">'
    '<skipped type="pytest.skip" message="needs a GPU">'
    "tests/test_search.py:10: needs a GPU</skipped></testcase>"
)


def write_report(tmp_path, cases):
    path = tmp_path / "report.xml"
    path.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites name="pytest tests">'
        f'<testsuite name="pytest" errors="0" failures="0" skipped="0" tests="{len(cases)}">'
        + "".join(cases)
        + "</testsuite></testsuites>"
    )
    return str(path)


def test_known_skips_pass(tmp_path, capsys):
    path = write_report(tmp_path, [MNIST] * 3 + [SKLEARN] * 6 + [PASSED])
    assert check_skips.main([path]) == 0
    assert capsys.readouterr().out.strip() == "3 skipped: MNIST IDX files absent, 6 skipped: sklearn does not import"


def test_another_skip_fails_and_is_named(tmp_path, capsys):
    path = write_report(tmp_path, [MNIST, SKLEARN, OTHER, PASSED])
    assert check_skips.main([path]) == 1
    out = capsys.readouterr().out
    assert "unexpected skip: tests.test_search.TestGreedy::test_wide: needs a GPU" in out
