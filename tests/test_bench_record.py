"""scripts/bench_record.py: reading one benchmark process's result line and
listing the uncommitted files a record was measured with."""
import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


@pytest.fixture
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(stdout, returncode):
    def run(args, **kwargs):
        return subprocess.CompletedProcess(args, returncode, stdout, "")
    return run


@pytest.mark.parametrize("stdout", [
    "round 1\nTraceback (most recent call last):\nValueError: boom\n",
    "round 1\n[1, 2]\n",
])
def test_a_last_line_that_is_not_a_result_is_an_error(bench_record, monkeypatch, stdout):
    monkeypatch.setattr(bench_record.subprocess, "run", fake_run(stdout, 3))
    with pytest.raises(SystemExit) as exc:
        bench_record.run_workload(["python3", "run.py"], "train", 5, 1.0)
    assert str(exc.value) == "error: workload train seed 5: last line is not a result (exit 3)"


def test_the_last_line_is_the_result(bench_record, monkeypatch):
    monkeypatch.setattr(bench_record.subprocess, "run",
                        fake_run('progress\n{"failed": 0}\n', 0))
    assert bench_record.run_workload(["python3", "run.py"], "train", 5, 1.0) == {
        "failed": 0, "exit_code": 0}


def test_uncommitted_changes_include_untracked_files(bench_record, monkeypatch):
    outputs = {("diff", "--name-only", "HEAD"): "src/structran/model.py",
               ("ls-files", "--others", "--exclude-standard"): "new.py\nnotes/a.txt"}
    monkeypatch.setattr(bench_record, "git", lambda *args: outputs[args])
    assert bench_record.uncommitted_changes() == [
        "src/structran/model.py", "new.py", "notes/a.txt"]


def test_uncommitted_changes_are_unknown_without_git(bench_record, monkeypatch):
    monkeypatch.setattr(bench_record, "git", lambda *args: None)
    assert bench_record.uncommitted_changes() is None
