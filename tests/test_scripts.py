"""Smoke tests of the experiment scripts: each runs to completion on a small
input and prints the figures it promises."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_headline_numbers_prints_every_chsh_block():
    out = _run_script("headline_numbers.py", "--pairs", "400")
    blocks, current = [], None
    for line in out.splitlines():
        if line and not line.startswith(" "):
            current = [line]
            blocks.append(current)
        elif current is not None:
            current.append(line)
    chsh_blocks = [block for block in blocks if "CHSH" in block[0]]
    assert len(chsh_blocks) == 3
    for block in chsh_blocks:
        for state in ("psi_plus", "phi_minus"):
            assert any(line.split()[:1] == [state] and "S_hat=" in line for line in block), (state, block)


def test_evasion_sweep_runs():
    out = _run_script("evasion_sweep.py", "--trials", "200")
    assert "evasion probability at detection rate d = 0.25" in out


def test_code_lines_total_is_the_sum_of_its_modules():
    rows = [line.split() for line in _run_script("code_lines.py").splitlines()]
    counts = {name: int(count) for name, count in rows}
    total = counts.pop("total")
    assert {"quantum", "protocol", "stream"} <= counts.keys()
    assert all(count > 0 for count in counts.values())
    assert total == sum(counts.values())
