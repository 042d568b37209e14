"""Nested-span tracing with monotonic timing.

A :class:`Tracer` records :class:`SpanRecord` entries — name, start
offset, duration, depth, parent — from ``with tracer.span("name")``
blocks or ``@tracer.wrap()``-decorated functions.  Timing uses
``time.perf_counter`` relative to the tracer's epoch, so records are
ordered and subtract cleanly even when the wall clock steps.

Structural fields (index, name, depth, parent, attrs) are deterministic
for a deterministic program: spans are numbered in the order they
*start*, per thread of execution.  Only the timing fields vary run to
run, which is what lets tests assert on exported trees.

Export is one JSON object per line (:meth:`Tracer.export_jsonl`), the
same shape :func:`load_jsonl` reads back and :func:`format_tree` pretty
prints::

    fleet.campaign campaign=demo-e5462 — 58.1 ms
      fleet.job job=Xeon-E5462/ep.C.1/... — 3.2 ms
        sim.run program=ep.C.1 — 2.9 ms
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ConfigurationError

__all__ = [
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "load_jsonl",
    "format_tree",
]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span."""

    index: int
    name: str
    depth: int
    parent: "int | None"
    start_s: float
    duration_s: float
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "name": self.name,
            "depth": self.depth,
            "parent": self.parent,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SpanRecord":
        return cls(
            index=int(data["index"]),
            name=str(data["name"]),
            depth=int(data["depth"]),
            parent=None if data.get("parent") is None else int(data["parent"]),
            start_s=float(data["start_s"]),
            duration_s=float(data["duration_s"]),
            attrs=dict(data.get("attrs", {})),
        )


class Tracer:
    """Collects nested spans; one instance per traced activity.

    Thread-safe: each thread nests its own span stack, records land in
    one shared list ordered by span *start*.
    """

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._records: list["SpanRecord | None"] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Record the enclosed block as one span named ``name``.

        Keyword arguments become the span's ``attrs`` (labels: program
        name, server, job id...).  Exceptions propagate; the span is
        still recorded with an ``error`` attr naming the exception type.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self._records)
            self._records.append(None)  # reserve the start-order slot
        stack.append(index)
        start = time.perf_counter()
        error: "str | None" = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if error is not None:
                attrs = {**attrs, "error": error}
            record = SpanRecord(
                index=index,
                name=name,
                depth=len(stack),
                parent=parent,
                start_s=start - self._epoch,
                duration_s=duration,
                attrs=attrs,
            )
            with self._lock:
                self._records[index] = record

    def wrap(
        self, name: "str | None" = None, **attrs: Any
    ) -> Callable[[Callable], Callable]:
        """Decorator form of :meth:`span`; defaults to the function name.

        >>> tracer = Tracer()
        >>> @tracer.wrap()
        ... def work():
        ...     return 7
        >>> work()
        7
        >>> [r.name for r in tracer.records()]
        ['work']
        """

        def decorate(fn: Callable) -> Callable:
            span_name = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(span_name, **attrs):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    def records(self) -> tuple[SpanRecord, ...]:
        """Completed spans in start order (open spans are excluded)."""
        with self._lock:
            return tuple(r for r in self._records if r is not None)

    def clear(self) -> None:
        """Forget every record and restart the epoch."""
        with self._lock:
            self._records.clear()
            self._epoch = time.perf_counter()

    def export_jsonl(self, path: "str | Path") -> Path:
        """Write every completed span as one JSON object per line."""
        from repro.doctor.jsonl import encode

        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            b"".join(encode(record.to_dict()) for record in self.records())
        )
        return path

    def format_tree(self) -> str:
        """Pretty-print this tracer's spans (see :func:`format_tree`)."""
        return format_tree(self.records())


def load_jsonl(path: "str | Path") -> list[SpanRecord]:
    """Read spans back from a :meth:`Tracer.export_jsonl` file.

    ``ConfigurationError`` when the file is unreadable, a line is not a
    record (a torn final line included) or a record is not a span.
    """
    from repro.doctor.jsonl import read_records

    records = []
    for data in read_records(path, strict=True):
        try:
            records.append(SpanRecord.from_dict(data))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"not a span-JSONL line in {path}: {data!r:.80}"
            ) from exc
    return records


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds * 1e6:.0f} us"


def format_tree(records: Iterable[SpanRecord]) -> str:
    """Render spans as an indented tree with durations.

    Roots (``parent is None``) start at column zero; each nesting level
    indents two spaces.  Attrs render as ``key=value`` pairs after the
    name.  Records may arrive in any order; output is in start order.
    """
    ordered = sorted(records, key=lambda r: r.index)
    if not ordered:
        return "(no spans)"
    lines = []
    for record in ordered:
        attrs = " ".join(f"{k}={v}" for k, v in record.attrs.items())
        label = f"{record.name} {attrs}".rstrip()
        lines.append(
            "  " * record.depth
            + f"{label} — {_format_duration(record.duration_s)}"
        )
    return "\n".join(lines)


_tracer_lock = threading.Lock()
_tracer: "Tracer | None" = None


def get_tracer() -> Tracer:
    """The process-wide tracer (created on first use)."""
    global _tracer
    with _tracer_lock:
        if _tracer is None:
            _tracer = Tracer()
        return _tracer


def set_tracer(tracer: "Tracer | None") -> None:
    """Replace (or with ``None`` drop) the process-wide tracer."""
    global _tracer
    with _tracer_lock:
        _tracer = tracer
