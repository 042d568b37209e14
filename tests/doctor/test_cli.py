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
from repro.doctor.jsonl import JsonlWriter, has_live_writer
from repro.fleet import read_events
from repro.fleet.spec import campaign_to_dict, demo_campaign
from repro.serve import ServeScheduler, StateStore, parse_submission


def _serve_one(root, spec):
    """Run one submission through a real scheduler, then drain it."""
    scheduler = ServeScheduler(StateStore(root), slots=1)
    scheduler.start()
    try:
        submission = parse_submission(spec, "alice")
        campaign_id = scheduler.submit(submission).campaign.campaign_id
        deadline = time.monotonic() + 120
        while scheduler.status(campaign_id)["status"] != "done":
            assert time.monotonic() < deadline, scheduler.status(campaign_id)
            time.sleep(0.05)
    finally:
        scheduler.drain(timeout_s=30)
    return root


@pytest.fixture(scope="module")
def served_state(tmp_path_factory):
    """A state directory holding one finished evaluate campaign."""
    root = tmp_path_factory.mktemp("serve") / "state"
    return _serve_one(
        root, {"kind": "evaluate", "server": "Xeon-E5462", "seed": 0}
    )


@pytest.fixture(scope="module")
def served_fleet_state(tmp_path_factory):
    """A state directory holding one finished fleet campaign."""
    root = tmp_path_factory.mktemp("serve-fleet") / "state"
    return _serve_one(
        root, {"kind": "fleet", "campaign": campaign_to_dict(demo_campaign())}
    )


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


def test_audit_of_a_served_fleet_campaign_is_clean(
    served_fleet_state, tmp_path, capsys
):
    # The done record's status digest is the fleet results digest, not
    # the document's; the audit must check the document digest.
    root = tmp_path / "state"
    shutil.copytree(served_fleet_state, root)
    code, out = _run(capsys, "doctor", "audit", "--serve-state", str(root))
    assert code == 0, out.out
    assert "digest_mismatch" not in out.out
    code, out = _run(capsys, "doctor", "repair", "--serve-state", str(root))
    assert code == 0, out.out
    assert list(root.glob("results/*.json"))
    assert not (root / "quarantine").exists()


def test_fleet_result_from_before_document_digest_is_unverifiable(
    served_fleet_state, tmp_path, capsys
):
    # A done record journaled before ``document_digest`` existed holds
    # only the results digest the document embeds: the audit warns and
    # repair leaves the healthy result alone.
    root = tmp_path / "state"
    shutil.copytree(served_fleet_state, root)
    journal = root / "journal.jsonl"
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    for record in records:
        if record["kind"] == "done":
            del record["document_digest"]
    journal.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    )
    code, out = _run(capsys, "doctor", "audit", "--serve-state", str(root))
    assert code == 0, out.out
    assert "[warn] serve-results c-000001: unverifiable_result" in out.out
    assert "digest_mismatch" not in out.out
    code, out = _run(capsys, "doctor", "repair", "--serve-state", str(root))
    assert code == 0, out.out
    assert list(root.glob("results/*.json"))
    assert not (root / "quarantine").exists()


def test_audit_leaves_a_live_event_log_to_its_writer(
    served_state, tmp_path, capsys
):
    # An unlocked second writer could truncate away a daemon's appends.
    root = tmp_path / "state"
    shutil.copytree(served_state, root)
    events = root / "events.jsonl"
    before = events.read_bytes()
    writer = JsonlWriter(events)
    try:
        assert has_live_writer(events)
        code, out = _run(
            capsys, "doctor", "audit", "--serve-state", str(root)
        )
        assert code == 0, out.out
        assert events.read_bytes() == before
    finally:
        writer.close()


def test_flipped_byte_in_a_fleet_result_is_a_digest_mismatch(
    served_fleet_state, tmp_path, capsys
):
    root = tmp_path / "state"
    shutil.copytree(served_fleet_state, root)
    (path,) = root.glob("results/*.json")
    data = bytearray(path.read_bytes())
    # One digit of the report: the JSON stays valid and the embedded
    # status digest is untouched.
    at = data.index(b'"report"')
    at += next(i for i, b in enumerate(data[at:]) if chr(b).isdigit())
    data[at] = ord("7") if data[at] != ord("7") else ord("3")
    path.write_bytes(bytes(data))
    json.loads(data)
    code, out = _run(capsys, "doctor", "audit", "--serve-state", str(root))
    assert code == 1
    assert "digest_mismatch" in out.out


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
