"""tools/diff_report.py's measure of how far a differing output file moved."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "diff_report.py"
spec = importlib.util.spec_from_file_location("diff_report", TOOL)
diff_report = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_report)


def test_moved_reports_the_largest_relative_change_among_the_numbers():
    old = b'# config: {"seed": 1}\nu,p\n1,0.5\n2,-3e-05\n'
    new = b'# config: {"seed": 1}\nu,p\n1,0.5000000001\n2,-3.3e-05\n'
    assert diff_report.moved(old, new) == "largest relative change 0.091"
    assert diff_report.moved(b'{"a": 0}', b'{"a": 0.0}') == "largest relative change 0"
    assert diff_report.moved(b'{"a": 1.0}', b'{"a": null}') == "more than its numbers changed"
    assert diff_report.moved(b"1,2\n", b"1,2,3\n") == "more than its numbers changed"
