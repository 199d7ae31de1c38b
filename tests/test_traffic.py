"""tools/traffic.py: what a stub package's workloads and criteria never run."""

import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "traffic.py"


def test_reports_unrun_functions_and_statements(tmp_path):
    (tmp_path / "src" / "srlab").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "srlab" / "__init__.py").write_text("")
    (tmp_path / "src" / "srlab" / "mod.py").write_text(
        'def used(flag=False):\n'           # 1
        '    """Doc."""\n'                  # 2
        '    if flag:\n'                    # 3
        '        x = 1\n'                   # 4: never run
        '        return x + 1\n'            # 5: never run, joined with 4
        '    return 0\n'                    # 6
        '\n\n'
        'def unused():\n'                   # 9: never called; its body is not listed
        '    return 2\n'
        '\n\n'
        'def criterion_only(path):\n'       # 13
        '    if path is None:\n'            # 14
        '        raise ValueError\n'        # 15: never run
        '    return path\n')
    (tmp_path / "perfbench" / "workloads.py").write_text(
        "from types import SimpleNamespace\n"
        "from srlab import mod\n"
        "WORKLOADS = {'w': SimpleNamespace(inputs=lambda seed: {'seed': seed},\n"
        "                                  run=lambda inp, workdir: mod.used())}\n")
    (tmp_path / "tests" / "test_acceptance.py").write_text(
        "from srlab import mod\n"
        "def test_criterion_2_later(tmp_path):\n"
        "    (tmp_path / 'out').write_text('x')\n"
        "    assert mod.criterion_only(tmp_path) == tmp_path\n"
        "def test_criterion_1_first():\n"
        "    print('PASS criterion 1')\n")
    proc = subprocess.run([sys.executable, str(_PATH), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "function mod.py:9 unused",
        "statement mod.py:4-5",
        "statement mod.py:15",
        "1 functions and 3 statements never run"]
    assert sorted(p.name for p in (tmp_path / "tests").iterdir()) == ["test_acceptance.py"]
