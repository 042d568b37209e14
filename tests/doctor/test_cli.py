"""``repro doctor`` on a serve state directory, through the CLI.

The state directory is the one a real :class:`ServeScheduler` leaves
behind, so the doctor's journal and event-log readers run on the bytes
the daemon's writers produced.
"""

import json
import shutil
import time

import pytest

from repro.cli import main
from repro.fleet import read_events
from repro.serve import ServeScheduler, StateStore, parse_submission


@pytest.fixture(scope="module")
def served_state(tmp_path_factory):
    """A state directory holding one finished evaluate campaign."""
    root = tmp_path_factory.mktemp("serve") / "state"
    scheduler = ServeScheduler(StateStore(root), slots=1)
    scheduler.start()
    try:
        submission = parse_submission(
            {"kind": "evaluate", "server": "Xeon-E5462", "seed": 0}, "alice"
        )
        campaign_id = scheduler.submit(submission).campaign.campaign_id
        deadline = time.monotonic() + 120
        while scheduler.status(campaign_id)["status"] != "done":
            assert time.monotonic() < deadline, scheduler.status(campaign_id)
            time.sleep(0.05)
    finally:
        scheduler.drain(timeout_s=30)
    return root


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


def test_audit_of_a_served_state_dir_is_clean(served_state, tmp_path, capsys):
    root = tmp_path / "state"
    shutil.copytree(served_state, root)
    code, out = _run(capsys, "doctor", "audit", "--serve-state", str(root))
    assert code == 0, out.out
    assert "across 4 store(s), 0 corrupt" in out.out
    events = read_events(root / "events.jsonl")
    assert events[-1]["kind"] == "doctor_audit" and events[-1]["ok"]


def test_repair_compacts_a_corrupt_journal_record(
    served_state, tmp_path, capsys
):
    root = tmp_path / "state"
    shutil.copytree(served_state, root)
    journal = root / "journal.jsonl"
    clean = journal.read_bytes()
    with journal.open("ab") as fh:
        fh.write(b"{corrupt\n")
    code, out = _run(capsys, "doctor", "audit", "--serve-state", str(root))
    assert code == 1 and "corrupt_record" in out.out
    code, out = _run(capsys, "doctor", "repair", "--serve-state", str(root))
    assert code == 0 and "-> compacted" in out.out
    assert journal.read_bytes() == clean
    records = [json.loads(line) for line in clean.splitlines()]
    assert [r["kind"] for r in records] == ["submit", "done", "drain"]


@pytest.mark.parametrize(
    "command",
    [["audit"], ["repair"], ["gc"], ["evict", "--max-entries", "0"]],
)
def test_missing_state_dir_is_a_usage_error(tmp_path, capsys, command):
    missing = tmp_path / "nope"
    code, out = _run(
        capsys, "doctor", *command, "--serve-state", str(missing)
    )
    assert code == 2
    assert "not a directory" in out.err
    assert not missing.exists()
