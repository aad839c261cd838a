import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))

from record_memory import deep_bytes  # noqa: E402


def test_deep_bytes_counts_a_shared_part_once():
    part = [1000, 2000]
    first, second = {"a": part}, {"a": part}
    seen = set()
    assert deep_bytes(first, seen) == (sys.getsizeof(first) + sys.getsizeof(part)
                                       + 2 * sys.getsizeof(1000))
    assert deep_bytes(second, seen) == sys.getsizeof(second)


def test_reports_the_total_4_sweep():
    out = subprocess.run([sys.executable, str(SCRIPTS / "record_memory.py"),
                          "--total", "4"], check=True, capture_output=True,
                         text=True, timeout=120).stdout.splitlines()
    assert out[0] == "sweep over |X|+|Y| <= 4: 75 records"
    assert out[1].startswith("peak RSS (VmHWM) of a fresh interpreter: ")
    rows = {line.split(" | ")[0][3:-1]: line.split(" | ")[2].rstrip(" |")
            for line in out if line.startswith("| `")}
    assert rows["id"] == rows["digest"] == "75"
    assert rows["thm3"] == rows["thm4"] == "2"
    # one list object per distinct list of extension runs
    assert rows["extension_runs"] == "36"
    assert out[-1] == ("checks 2, classes 5, empty 1, map 8, opens 13, run 27, "
                       "runs 36, stepwise 10, thm3 2, thm4 2")
