"""Exception hierarchy contracts."""

import pickle

import pytest

from repro import errors

#: Constructor arguments for the classes whose ``__init__`` is not the
#: plain ``(message)`` of :class:`Exception`.
_CUSTOM_ARGS = {
    "InvalidProcessCountError": ("bt", 3, "a square number"),
    "InsufficientMemoryError": ("cg.C.1", 8400.0, 7592.0),
    "InvalidSampleError": (float("inf"), 7, "power must be finite"),
    "StorageDegradedError": (
        "cache/ab/abcd.bin",
        OSError(28, "No space left on device"),
    ),
    "JournalBusyError": ("state/journal.jsonl",),
}


def _public_attrs(exc):
    return {k: v for k, v in vars(exc).items() if not k.startswith("_")}


@pytest.mark.parametrize("name", errors.__all__)
def test_pickle_round_trip(name):
    cls = getattr(errors, name)
    exc = cls(*_CUSTOM_ARGS.get(name, (f"{name} raised",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert _public_attrs(back) == _public_attrs(exc)


def test_pickle_round_trip_keeps_keyword_arguments():
    exc = errors.InvalidSampleError(value=-1.0, index=0, reason="negative")
    back = pickle.loads(pickle.dumps(exc))
    assert str(back) == str(exc)
    assert (back.value, back.index, back.reason) == (-1.0, 0, "negative")


def test_all_derive_from_repro_error():
    for name in errors.__all__:
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError)


def test_configuration_error_is_value_error():
    assert issubclass(errors.ConfigurationError, ValueError)


def test_invalid_process_count_payload():
    exc = errors.InvalidProcessCountError("bt", 3, "a square number")
    assert exc.program == "bt"
    assert exc.nprocs == 3
    assert "bt" in str(exc)
    assert "3" in str(exc)
    assert isinstance(exc, errors.WorkloadError)
    assert isinstance(exc, ValueError)


def test_insufficient_memory_payload():
    exc = errors.InsufficientMemoryError("cg.C.1", 8400.0, 7592.0)
    assert exc.required_mb == 8400.0
    assert exc.available_mb == 7592.0
    assert "cg.C.1" in str(exc)


def test_catch_all_via_base():
    with pytest.raises(errors.ReproError):
        raise errors.MeterError("over range")
