import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"

# 14 raw lines; the code lines are 5, 6, 8, 10, 12, 13 and 14: docstrings,
# comments and blank lines do not count, a multi-line expression counts
# every line it spans, and so does a string that is not a docstring
MODULE = '''\
"""A module docstring
over two lines."""

# a comment line
x = (1 +
     2)

def f():
    """A function docstring."""
    return [x,
            # a comment inside brackets
            x]
y = """a string,
not a docstring"""
'''


def test_counts_raw_and_code_lines(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    out = subprocess.run([sys.executable, str(SCRIPT), str(path)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "raw lines: 14\ncode lines: 7\n"
