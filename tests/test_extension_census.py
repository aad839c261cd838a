import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_reports_the_total_4_runs():
    out = subprocess.run([sys.executable, str(SCRIPTS / "extension_census.py"),
                          "--total", "4"], check=True, capture_output=True,
                         text=True, timeout=120).stdout.splitlines()
    assert out[:5] == [
        "two-valued runs over |X|+|Y| <= 4: 75 maps, 74 normal",
        "runs: 376, raises: 1",
        "every run succeeds <=> normal: on 75 of 75 maps",
        "exact extension: 375 of 375 successful runs; none: 1 of 1 raises",
        "distinct successful walks: 67; 46 repeat, 10 compute every step, "
        "11 take no step",
    ]
    assert out[5].startswith("seconds in tietze_extend: ")
    # the same bytes as the step-by-step walk before the closed form
    assert out[6] == ("sha256: 36a00aeb8a8ef6dbefd5c67e35f8b5ad9b27241373756ee3"
                      "1bffacd859551b17")
    assert len(out) == 7
