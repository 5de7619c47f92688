"""The scripts in scripts/ run end to end at small sizes and print their
numeric lines; each runs as its own process, the way a user starts it."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NUMBER = r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?"


def run_script(name, *args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def numbers(line, pattern):
    match = re.fullmatch(pattern.format(n=f"({NUMBER})"), line.strip())
    assert match, line
    return [float(g) for g in match.groups()]


def test_route_agreement():
    lines = run_script("route_agreement.py", "--periods-nm", "100")
    assert lines[0].split() == ["L", "(nm)", "n_p", "cut=n_p", "cut=2n_p"]
    assert len(lines) == 2
    period, n_p, half, full = numbers(lines[1], r"{n}\s+{n}\s+{n}\s+{n}")
    assert period == 100.0 and n_p >= 4
    # the full-reach ladder sits closer to the small-spacing route
    assert 0.0 < full < half < 1.0


def test_cyclotron_period():
    lines = run_script("cyclotron_period.py", "--steps", "20", "--n-x", "8", "--n-p", "4")
    (expected,) = numbers(lines[0], r"expected period\s+{n} s")
    (measured,) = numbers(lines[1], r"measured period\s+{n} s")
    (rel,) = numbers(lines[2], r"relative error\s+{n}")
    assert len(lines) == 3
    assert abs(rel - abs(measured - expected) / expected) < 1e-3 * rel
    assert rel < 0.05


def test_mc_convergence():
    lines = run_script("mc_convergence.py", "--counts", "200", "400")
    (reference,) = numbers(lines[0], r"grid-route value at the target: {n}")
    assert lines[1].split() == ["n", "estimate", "stderr", "gap/stderr"]
    rows = [numbers(lines[2], r"{n}\s+{n}\s+{n}\s+{n}"),
            numbers(lines[3], r"{n}\s+{n}\s+{n}\s+{n}\s+stderr ratio vs prev: {n}")]
    assert len(lines) == 4
    assert [row[0] for row in rows] == [200, 400]
    assert reference > 0 and all(row[2] > 0 for row in rows)
    # printed to two decimals
    assert abs(rows[1][4] - rows[0][2] / rows[1][2]) < 0.01


MODULE = '''"""Module docstring
over two lines."""

# a comment
import os


def f(x):
    """One-line docstring."""
    y = (x +
         1)  # a trailing comment
    s = """a string
that is code"""
    return y, s


class C:
    """Docstring
    of a class."""

    z = 1
'''


def test_src_lines(tmp_path):
    # code lines: import, def, the two of y, the two of s, return, class, z
    (tmp_path / "sub").mkdir()
    (tmp_path / "mod.py").write_text(MODULE)
    (tmp_path / "sub" / "one.py").write_text("x = 1\n\n")
    lines = run_script("src_lines.py", str(tmp_path))
    assert [line.split() for line in lines] == [
        ["file", "code", "lines"],
        ["mod.py", "9", str(len(MODULE.splitlines()))],
        ["sub/one.py", "1", "2"],
        ["total", "10", str(len(MODULE.splitlines()) + 2)],
    ]
