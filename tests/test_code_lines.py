"""tools/code_lines.py counts a repository's src/ and refuses a root without one."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def code_lines(*args, cwd):
    return subprocess.run([sys.executable, str(SCRIPT), *args], cwd=cwd,
                          capture_output=True, text=True)


def test_a_root_without_src_is_refused_by_name(tmp_path):
    done = code_lines("nosuch_dir", cwd=tmp_path)
    assert done.returncode == 2
    assert "nosuch_dir/src is not a directory" in done.stderr
    assert "total" not in done.stdout


def test_help_prints_a_usage_line(tmp_path):
    done = code_lines("--help", cwd=tmp_path)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: code_lines.py")
    assert "total" not in done.stdout


def test_a_root_is_counted_file_by_file(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "m.py").write_text(
        '"""Doc."""\n\n# note\nx = 1  # one\n')
    done = code_lines(str(tmp_path), cwd=tmp_path)
    assert done.returncode == 0
    assert done.stdout.splitlines() == ["     4      1  pkg/m.py",
                                        "     4      1  total"]
