"""Outside-in layer tracing for the benchmark's traced runs.

The program is not instrumented for this: the benchmark wraps the public
functions behind each per-layer metric, from its own files, and records
one span per call (layer, duration, self time, pid, thread, round tag and
a few counts read from the call's arguments or result).

A function bound by name in several modules (``from x import f``) is
patched in every module that holds it, each binding with its own wrapper,
so the per-binding call counts show a binding that was missed as zero.
Each wrapper carries its binding's ``__module__`` and ``__qualname__``, so
a wrapped function sent to a process pool still pickles by reference.

Spans stay in memory in the process that installed the wrappers.  Forked
pool workers and the traced serve daemon never run ``atexit`` hooks when
they are killed, so they append every span to a per-process JSONL file as
it ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: (layer, defining module, attribute, count extractor) for every wrapped
#: callable.  ``Class.method`` entries are patched on the class.
TARGETS = (
    ("hardware.calibration", "repro.hardware.calibration", "calibrate_server", None),
    ("core", "repro.core.evaluation", "evaluate_server", None),
    ("core", "repro.core.regression", "collect_hpcc_training", "dataset"),
    ("core", "repro.core.regression", "collect_npb_features", "npb"),
    ("core", "repro.core.regression", "train_power_model", None),
    ("core", "repro.core.regression", "verify_on_npb", None),
    ("engine", "repro.engine.simulator", "Simulator.run", "run"),
    ("engine", "repro.engine.batch", "run_batch", "batch"),
    ("engine", "repro.engine.experiment", "Campaign.run", None),
    ("metering", "repro.metering.csvlog", "write_power_csv", "rows"),
    ("metering", "repro.metering.csvlog", "read_power_csv", None),
    ("metering", "repro.metering.csvlog", "merge_power_csvs", None),
    ("metering", "repro.metering.analysis", "extract_window", None),
    ("metering", "repro.metering.analysis", "trimmed_stats", None),
    ("metering", "repro.metering.analysis", "trimmed_mean", None),
    ("metering", "repro.metering.stream", "StreamingWindow.push_many", "rows"),
    ("metering", "repro.metering.stream", "StreamingWindow.finalize", None),
    ("metering", "repro.metering.stream", "StreamingTrim.push_many", None),
    ("metering", "repro.metering.stream", "StreamingTrim.finalize", None),
    ("metering", "repro.metering.stream", "StreamingFeatures.push_pmu_many", None),
    ("metering", "repro.metering.stream", "StreamingFeatures.push_power_many", None),
    ("metering", "repro.metering.stream", "StreamingFeatures.finalize", None),
    ("metering", "repro.metering.stream", "StreamingFeatures.pmu_mean", None),
    ("stats", "repro.stats.linreg", "fit_ols", None),
    ("stats", "repro.stats.linreg", "forward_stepwise", None),
    ("fleet.cache", "repro.fleet.cache", "job_cache_key", None),
    ("fleet.cache", "repro.fleet.cache", "ResultCache.get", "hit"),
    ("fleet.cache", "repro.fleet.cache", "ResultCache.put", "put"),
    ("fleet.cache", "repro.fleet.cache", "ResultCache.__len__", None),
    ("fleet.runner", "repro.fleet.runner", "FleetRunner.run_jobs", "outcome"),
    ("fleet.worker", "repro.fleet.worker", "execute_chunk", None),
    ("fleet.worker", "repro.fleet.worker", "execute_job", None),
    ("fleet.events", "repro.fleet.events", "EventLog.emit", "event"),
    ("serve", "repro.serve.scheduler", "ServeScheduler.submit", None),
    ("serve.journal", "repro.serve.state", "StateStore.journal_submit", None),
    ("serve.journal", "repro.serve.state", "StateStore.journal_done", None),
    ("serve.journal", "repro.serve.state", "StateStore.save_result", None),
    ("io", "repro.io", "evaluation_to_dict", None),
    ("io", "repro.fleet.runner", "FleetOutcome.results_digest", None),
    ("io", "repro.fleet.runner", "FleetOutcome.report", None),
)


def _counts(kind, args, kwargs, result) -> "dict | None":
    """Work counts of one call, read from its arguments or result."""
    if kind == "run":
        return {"runs": 1, "samples": int(result.times_s.size)}
    if kind == "batch":
        runs = [r for r in result if not isinstance(r, Exception)]
        return {"runs": len(runs), "samples": sum(int(r.times_s.size) for r in runs)}
    if kind == "dataset":
        return {"observations": result.n_observations}
    if kind == "npb":
        return {"observations": len(result[0])}
    if kind == "rows":
        times = args[1] if len(args) > 1 else kwargs.get("times_s")
        return {"rows": len(times)}
    if kind == "hit":
        return {"hit": int(result is not None)}
    if kind == "put":
        size = 0
        if result is not None:
            for path in (Path(result), Path(result).with_suffix(".bin")):
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
        return {"bytes": size}
    if kind == "outcome":
        computed = sum(1 for r in result.records if r.ok and not r.cached)
        attempts = sum(r.attempts for r in result.records)
        return {
            "attempts": attempts,
            "computed": computed,
            "retries": sum(max(0, r.attempts - 1) for r in result.records),
        }
    if kind == "event":
        event = args[1] if len(args) > 1 else kwargs.get("kind")
        counts = {"event." + str(event): 1}
        if event == "job_retry":
            counts["backoff_s"] = float(kwargs.get("backoff_s") or 0.0)
        return counts
    return None


class Recorder:
    """Collects spans for one process tree.

    ``tag`` marks the round a span belongs to; forked workers inherit the
    tag that was current when their pool started.  Spans are kept only
    while ``active`` is true.
    """

    def __init__(self, span_dir: Path, write_through: bool = False):
        self.span_dir = Path(span_dir)
        self.span_dir.mkdir(parents=True, exist_ok=True)
        self.owner_pid = os.getpid()
        self.write_through = write_through
        self.active = False
        self.tag = "setup"
        self.spans: "list[dict]" = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._files: "dict[int, object]" = {}
        #: Span keys of every wrapped binding, set by :func:`install`.
        self.keys: "list[str]" = []

    def stack(self) -> list:
        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            local.pid = os.getpid()
            local.stack = []
        return local.stack

    def record(self, span: dict) -> None:
        pid = os.getpid()
        if pid == self.owner_pid and not self.write_through:
            self.spans.append(span)
            return
        span["th"] = threading.current_thread().name
        line = json.dumps(span) + "\n"
        with self._lock:
            fh = self._files.get(pid)
            if fh is None:
                fh = open(self.span_dir / f"spans-{pid}.jsonl", "a")
                self._files[pid] = fh
            fh.write(line)
            fh.flush()

    def read_spans(self) -> "list[dict]":
        """Spans kept in memory plus every span file written so far."""
        return self.spans + read_span_files(self.span_dir)


def read_span_files(span_dir: Path) -> "list[dict]":
    """Every span other processes appended under ``span_dir``."""
    spans = []
    for path in sorted(Path(span_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            try:
                spans.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # a span torn by a killed process
    return spans


_RECORDER: "Recorder | None" = None
#: (object, attribute, original value, span key) of every patched binding.
_PATCHES: "list[tuple[object, str, object, str]]" = []


def _wrapper(layer: str, key: str, fn, counts_kind, module: str, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _RECORDER
        if rec is None or not rec.active:
            return fn(*args, **kwargs)
        stack = rec.stack()
        frame = [0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        result = ok = None
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dur
            span = {
                "k": key,
                "l": layer,
                "t0": t0,
                "d": dur,
                "s": dur - frame[0],
                "p": os.getpid(),
                "r": rec.tag,
            }
            if counts_kind is not None and ok:
                span["c"] = _counts(counts_kind, args, kwargs, result)
            rec.record(span)

    if "." not in name:
        wrapper.__module__ = module
        wrapper.__qualname__ = name
        wrapper.__name__ = name
    return wrapper


def install(recorder: Recorder) -> None:
    """Patch every target in every loaded ``repro`` module.

    Wrapped calls record into ``recorder`` while it is active.
    """
    global _RECORDER
    import importlib

    if _RECORDER is not None:
        raise RuntimeError("layer wrappers are already installed")
    for _layer, module_name, _attr, _kind in TARGETS:
        importlib.import_module(module_name)
    _RECORDER = recorder
    loaded = [
        (name, module)
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for layer, module_name, attr, kind in TARGETS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            _patch(cls, method, original, attr,
                   _wrapper(layer, attr, original, kind, module_name, attr))
            continue
        original = getattr(owner, attr)
        for name, module in loaded:
            for binding, value in list(vars(module).items()):
                if value is original:
                    key = f"{attr}@{name}"
                    _patch(module, binding, original, key,
                           _wrapper(layer, key, original, kind, name, binding))
    recorder.keys = [key for _obj, _attr, _original, key in _PATCHES]


def _patch(obj, attr: str, original, key: str, wrapper) -> None:
    _PATCHES.append((obj, attr, original, key))
    setattr(obj, attr, wrapper)


def uninstall() -> None:
    """Restore every patched binding."""
    global _RECORDER
    while _PATCHES:
        obj, attr, original, _key = _PATCHES.pop()
        setattr(obj, attr, original)
    _RECORDER = None



def _name(key: str) -> str:
    return key.split("@", 1)[0]


#: Function names whose time makes up each summed layer metric: self
#: time, or the whole call for the groups in ``_INCLUSIVE``.
_TIME_GROUPS = {
    "core.evaluate_self_s": ("evaluate_server",),
    "core.collect_s": ("collect_hpcc_training", "collect_npb_features"),
    "engine.run_s": ("Simulator.run", "run_batch"),
    "metering.csv_s": ("write_power_csv", "read_power_csv", "merge_power_csvs"),
    "metering.window_trim_s": ("extract_window", "trimmed_stats", "trimmed_mean"),
    "fleet.cache.get_s": ("ResultCache.get",),
    "fleet.cache.put_s": ("ResultCache.put",),
    "fleet.cache.len_s": ("ResultCache.__len__",),
    "fleet.cache.key_s": ("job_cache_key",),
    "fleet.worker.busy_s": ("execute_chunk", "execute_job"),
    "fleet.events.emit_s": ("EventLog.emit",),
    "hardware.calibrate_s": ("calibrate_server",),
}

#: Groups timed inclusively (their spans contain other wrapped calls that
#: belong to the same measured work).
_INCLUSIVE = {"core.collect_s", "engine.run_s", "fleet.worker.busy_s", "hardware.calibrate_s"}

_CALL_GROUPS = {
    "core.evaluate_calls": ("evaluate_server",),
    "stats.fit_calls": ("fit_ols", "forward_stepwise"),
    "fleet.cache.get_calls": ("ResultCache.get",),
    "fleet.cache.put_calls": ("ResultCache.put",),
    "fleet.cache.len_calls": ("ResultCache.__len__",),
    "fleet.cache.key_calls": ("job_cache_key",),
    "fleet.events.emit_calls": ("EventLog.emit",),
}


def summarize(spans: "list[dict]") -> dict:
    """Per-layer metrics of one set of spans, over every process."""
    out: dict = {name: 0.0 for name in (*_TIME_GROUPS, *_CALL_GROUPS)}
    counts: dict = {}
    self_by_layer: dict = {}
    for span in spans:
        name = _name(span["k"])
        layer = span["l"]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + span["s"]
        for metric, names in _TIME_GROUPS.items():
            if name in names:
                out[metric] += span["d"] if metric in _INCLUSIVE else span["s"]
        for metric, names in _CALL_GROUPS.items():
            if name in names:
                out[metric] += 1
        for key, value in (span.get("c") or {}).items():
            counts[(layer, key)] = counts.get((layer, key), 0.0) + value
    out["core.observations"] = counts.get(("core", "observations"), 0.0)
    out["engine.runs"] = counts.get(("engine", "runs"), 0.0)
    out["engine.trace_samples"] = counts.get(("engine", "samples"), 0.0)
    out["metering.samples"] = counts.get(("metering", "rows"), 0.0)
    out["metering.stream_s"] = sum(
        span["s"] for span in spans if _name(span["k"]).startswith("Streaming")
    )
    out["stats.fit_s"] = self_by_layer.get("stats", 0.0)
    gets = out["fleet.cache.get_calls"]
    out["fleet.cache.hit_ratio"] = (
        counts.get(("fleet.cache", "hit"), 0.0) / gets if gets else 0.0
    )
    out["fleet.cache.put_bytes"] = counts.get(("fleet.cache", "bytes"), 0.0)
    attempts = counts.get(("fleet.runner", "attempts"), 0.0)
    out["fleet.runner.attempts"] = attempts
    out["fleet.runner.retries"] = counts.get(("fleet.runner", "retries"), 0.0)
    out["fleet.runner.useful_ratio"] = (
        counts.get(("fleet.runner", "computed"), 0.0) / attempts if attempts else 0.0
    )
    sleep = counts.get(("fleet.events", "backoff_s"), 0.0)
    out["fleet.runner.retry_sleep_s"] = sleep
    out["fleet.runner.dispatch_s"] = max(
        0.0, self_by_layer.get("fleet.runner", 0.0) - sleep
    )
    out["fleet.pool_replaced"] = counts.get(("fleet.events", "event.pool_replaced"), 0.0)
    out["io.result_doc_s"] = self_by_layer.get("io", 0.0)
    out["serve.submit_total_s"] = self_by_layer.get("serve", 0.0)
    out["serve.journal_total_s"] = self_by_layer.get("serve.journal", 0.0)
    out.update({f"self.{layer}": value for layer, value in self_by_layer.items()})
    return out


def self_time(spans: "list[dict]") -> float:
    """Summed self time of ``spans``: the wall time they cover, counted once."""
    return sum(span["s"] for span in spans)


def binding_calls(spans: "list[dict]", keys: "list[str]") -> "dict[str, int]":
    """Call count of every wrapped binding, zero for bindings never called."""
    calls = {key: 0 for key in keys}
    for span in spans:
        calls[span["k"]] = calls.get(span["k"], 0) + 1
    return calls


@contextlib.contextmanager
def paused():
    """Stop recording inside the block (benchmark bookkeeping, not program)."""
    recorder = _RECORDER
    was_active = recorder is not None and recorder.active
    if was_active:
        recorder.active = False
    try:
        yield
    finally:
        if was_active:
            recorder.active = True
