"""``scripts/ab.py``: the A/B summary and the worktree lifecycle."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", SCRIPT)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

END_TO_END = [
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _line(jobs_per_s, setup_s, attempted=100, failed=0):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
        },
    }


def test_summary_medians_iqr_and_win_counts():
    parent = [_line(100, 1.0), _line(110, 1.0), _line(120, 1.0), _line(130, 1.0)]
    change = [_line(105, 0.9), _line(110, 1.0), _line(115, 1.1), _line(140, 0.8)]
    s = ab.summarize(parent, change, END_TO_END)
    jobs = s["metrics"]["jobs_per_s"]
    assert (jobs["parent_median"], jobs["change_median"]) == (115, 112.5)
    # inclusive quartiles of 100, 110, 120, 130: 107.5 and 122.5
    assert jobs["parent_iqr"] == 15.0
    # pair 1 ties and counts for neither side
    assert (jobs["wins"], jobs["losses"], jobs["ties"]) == (2, 1, 1)
    setup = s["metrics"]["setup_s"]
    # lower is better here: 0.9 and 0.8 win, 1.1 loses
    assert (setup["wins"], setup["losses"], setup["ties"]) == (2, 1, 1)
    assert setup["parent_iqr"] == 0.0
    assert not jobs["worse"] and not setup["worse"]
    assert s["correct"] == {"parent": True, "change": True}


@pytest.mark.parametrize(
    "change_jobs, change_setup, worse",
    [
        (74.0, 1.0, {"jobs_per_s"}),  # higher is better: 74 < 100 * 0.75
        (76.0, 1.0, set()),
        (100.0, 1.26, {"setup_s"}),  # lower is better: 1.26 > 1.0 * 1.25
        (100.0, 1.24, set()),
    ],
)
def test_summary_flags_metrics_beyond_their_bound(
    change_jobs, change_setup, worse
):
    parent = [_line(100.0, 1.0)] * 3
    change = [_line(change_jobs, change_setup)] * 3
    s = ab.summarize(parent, change, END_TO_END)
    assert {n for n, row in s["metrics"].items() if row["worse"]} == worse


def test_summary_failed_share_and_correctness():
    parent = [_line(100, 1.0, attempted=100, failed=0)] * 2
    change = [
        _line(100, 1.0, attempted=100, failed=0),
        _line(100, 1.0, attempted=300, failed=4),
    ]
    s = ab.summarize(parent, change, END_TO_END)
    assert s["fail_frac"] == {"parent": 0.0, "change": 0.01}
    assert s["fail_frac_rises"]
    assert s["correct"] == {"parent": True, "change": False}


def test_summary_skips_pairs_without_a_result():
    parent = [_line(100, 1.0), None]
    change = [_line(120, 1.0), _line(50, 9.0)]
    s = ab.summarize(parent, change, END_TO_END)
    assert s["metrics"]["jobs_per_s"]["change_median"] == 120
    assert s["correct"]["parent"] is False


def _git(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), *args],
        check=True, capture_output=True, text=True,
    ).stdout


def test_worktree_is_removed_when_the_body_raises(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "f.txt").write_text("x\n")
    _git(repo, "add", "f.txt")
    _git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "c")
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(ab.tempfile, "tempdir", str(temp))
    with pytest.raises(RuntimeError, match="boom"):
        with ab.worktree("HEAD", repo) as tree:
            assert (tree / "f.txt").read_text() == "x\n"
            assert len(_git(repo, "worktree", "list").splitlines()) == 2
            raise RuntimeError("boom")
    assert len(_git(repo, "worktree", "list").splitlines()) == 1
    assert list(temp.iterdir()) == []
