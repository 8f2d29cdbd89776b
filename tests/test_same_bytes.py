"""The verdicts of tools/same_bytes.py, without running its chain."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "same_bytes.py"


@pytest.fixture(scope="module")
def same_bytes():
    spec = importlib.util.spec_from_file_location("same_bytes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_unexpected_differences_count(same_bytes, capsys):
    parent = {"a.json": "1", "b.csv": "2", "c.json": "3", "gone.svg": "4"}
    change = {"a.json": "1", "b.csv": "9", "c.json": "8", "new.svg": "5"}
    assert same_bytes.compare(parent, change, {"c.json", "nosuch"}) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "equal     1  a.json"
    assert out[1] == "DIFFERS   parent 2  change 9  b.csv"
    assert out[2] == "DIFFERS   parent 3  change 8  c.json (expected)"
    assert out[3] == "DIFFERS   parent 4  change -  gone.svg"
    assert out[4] == "DIFFERS   parent -  change 5  new.svg"
    assert out[5] == "note: --expect nosuch names no file of the chain"


def test_digests_key_files_by_relative_path(same_bytes, tmp_path):
    (tmp_path / "arch1").mkdir()
    (tmp_path / "arch1" / "model.json").write_bytes(b"")
    assert same_bytes.digests(tmp_path) == {
        "arch1/model.json":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}
