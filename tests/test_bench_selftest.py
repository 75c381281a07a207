"""The benchmark harness's self-test, run as part of the suite.

perfbench/ wraps biotfv's public functions by name to time each layer, so
a renamed or re-nested function fails here, not only in a benchmark run.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_self_test_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest

    assert selftest.main(tmp_path) == 0, capsys.readouterr().out
