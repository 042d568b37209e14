"""The safe-write layer: degrade on capacity faults, crash on bugs."""

import errno

import pytest

from repro.doctor import safewrite
from repro.errors import ReproError, StorageDegradedError


@pytest.fixture(autouse=True)
def _disarm():
    yield
    safewrite.clear_disk_fault()


class TestInjector:
    def test_budget_counts_guarded_writes_then_fails(self, tmp_path):
        dest = tmp_path / "doc.json"
        safewrite.inject_disk_full(budget=2)
        assert safewrite.fault_active()
        safewrite.write_atomic(tmp_path / "t1", dest, b"one")
        safewrite.write_atomic(tmp_path / "t2", dest, b"two")
        with pytest.raises(StorageDegradedError):
            safewrite.write_atomic(tmp_path / "t3", dest, b"three")
        # Deterministic: the *third* write failed, the first two landed.
        assert dest.read_bytes() == b"two"

    def test_clear_disk_fault_restores_writes(self, tmp_path):
        safewrite.inject_disk_full(0)
        safewrite.clear_disk_fault()
        assert not safewrite.fault_active()
        safewrite.write_atomic(
            tmp_path / "t", tmp_path / "doc.json", b"ok"
        )
        assert (tmp_path / "doc.json").read_bytes() == b"ok"

    @pytest.mark.parametrize(
        "raw, budget",
        [("3", 3), ("", None), ("junk", None), ("-2", 0), (" 1 ", 1)],
    )
    def test_env_budget_parsing(self, raw, budget, monkeypatch):
        monkeypatch.setenv(safewrite.ENV_FAULT_BUDGET, raw)
        assert safewrite._load_env_budget() == budget


class TestIsDegrading:
    def test_capacity_and_media_errnos_degrade(self):
        for code in (errno.ENOSPC, errno.EDQUOT, errno.EIO):
            assert safewrite.is_degrading(OSError(code, "disk"))

    def test_other_errors_do_not(self):
        assert not safewrite.is_degrading(OSError(errno.EACCES, "perm"))
        assert not safewrite.is_degrading(ValueError("nope"))

    def test_storage_degraded_error_shape(self):
        # A ReproError so the CLI reports it, a RuntimeError so generic
        # handlers catch it — but deliberately NOT an OSError, so the
        # repo's best-effort ``except OSError`` paths never swallow a
        # degradation signal by accident.
        exc = StorageDegradedError("path", OSError(errno.ENOSPC, "full"))
        assert isinstance(exc, ReproError)
        assert isinstance(exc, RuntimeError)
        assert not isinstance(exc, OSError)
        assert safewrite.is_degrading(exc)


class TestWriteAtomic:
    def test_failure_cleans_temp_and_keeps_old_content(self, tmp_path):
        dest = tmp_path / "doc.json"
        tmp = tmp_path / "doc.tmp"
        safewrite.write_atomic(tmp, dest, b"old")
        safewrite.inject_disk_full(0)
        with pytest.raises(StorageDegradedError):
            safewrite.write_atomic(tmp, dest, b"new")
        assert dest.read_bytes() == b"old"  # never a mix
        assert not tmp.exists()  # no corpse for readers to trip over

    def test_non_capacity_oserror_propagates_untouched(self, tmp_path):
        missing = tmp_path / "no-such-dir"
        with pytest.raises(OSError) as info:
            safewrite.write_atomic(
                missing / "t", missing / "doc.json", b"x"
            )
        assert not isinstance(info.value, StorageDegradedError)
