"""tools/parity.py on one checkout against itself: every field pairs up,
no value differs and every residual is 0."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_checkout_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "parity.py"), str(ROOT),
         str(ROOT), "--points", "2"],
        capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = {line.split()[0]: line.split()[1:]
            for line in proc.stdout.splitlines()[1:-1]}
    assert proc.stdout.splitlines()[-1].startswith("parity holds")
    # The default run's checks and the four cases outside the catalog.
    assert rows["report.cases[].points[].checks[].residual"][:3] == [
        "270", "0", "0.000e+00"]
    assert rows["extra[].report.points[].checks[].residual"][0] == "216"
    assert rows["exit_code"] == ["1", "0", "-"]
    # Every ExtrinsicData array of the 18 points: 5 + 4 cases x 2.
    for name in ("b", "nabla_b", "nabla_r", "r_perp", "gamma_perp"):
        assert rows[f"extrinsic.{name}"] == ["18", "0", "0.000e+00"]
    for row in rows.values():
        assert row[1] == "0" and row[2] in ("-", "0.000e+00"), row
