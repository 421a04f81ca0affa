"""In-memory spans around every call into svcascade's public functions.

`Tracer.install()` replaces each public module-level function of the
package, and every other binding of it (names imported into another
module, such as `triage.compute_eer`, and values of module-level dicts,
such as `cli.HANDLERS`), with a wrapper that records a span: name, start,
end, parent and a few attributes.  `uninstall()` restores the originals.
The program's own files are not modified.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
import types

PACKAGE = "svcascade"
MODULES = ("config", "synthcorpus", "frontend", "dvector", "ge2e", "scoring",
           "metrics", "fusion", "triage", "cli")
BENCH = "bench"  # layer name of the benchmark's own spans


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "failed")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: dict = {}
        self.failed = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_bytes(path) -> int:
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))
    return os.path.getsize(path)


# Attribute extractors, keyed by span name: (args, kwargs, result) -> dict.
# They read only what the derived per-layer metrics need; an extractor that
# no longer fits the program's signatures records `hook_error` instead of
# stopping the run.
def _forward_batch(args, kwargs, result):
    frames = args[1] if len(args) > 1 else kwargs["frames"]
    return {"batch": int(frames.shape[0]), "frames": int(frames.shape[1])}


def _path_bytes(args, kwargs, result):
    return {"bytes": _file_bytes(args[0])}


def _second_path_bytes(args, kwargs, result):
    return {"bytes": _file_bytes(args[1])}


def _eer(args, kwargs, result):
    return {"trials": int(result.num_targets + result.num_nontargets)}


def _score_trials(args, kwargs, result):
    ti_params, trials = args[1], args[3]
    utts = set()
    for t in trials:
        utts.update(t.enroll_utterance_ids)
        utts.add(t.test_utterance_id)
    return {"utterances": len(utts) * (1 if ti_params is None else 2)}


def _sweep_bands(args, kwargs, result):
    return {"cells": len(result)}


def _triage_decide(args, kwargs, result):
    return {"decisions": 1, "triggered": int(result.name == "TRIGGER")}


def _apply_triage(args, kwargs, result):
    return {"decisions": len(result), "triggered": sum(int(t.triggered) for t in result)}


def _stack(args, kwargs, result):
    return {"frames": int(result.frames.shape[0])}


def _cli_run(args, kwargs, result):
    return {"exit_code": int(result)}


HOOKS = {
    "dvector.forward_batch": _forward_batch,
    "dvector.save_checkpoint": _path_bytes,
    "dvector.load_checkpoint": _path_bytes,
    "metrics.compute_eer": _eer,
    "scoring.score_trials": _score_trials,
    "scoring.load_scores": _path_bytes,
    "synthcorpus.save_corpus": _second_path_bytes,
    "synthcorpus.load_corpus": _path_bytes,
    "synthcorpus.save_trials": _second_path_bytes,
    "synthcorpus.load_trials": _path_bytes,
    "triage.sweep_bands": _sweep_bands,
    "triage.triage_decide": _triage_decide,
    "triage.apply_triage": _apply_triage,
    "frontend.stack_and_normalize": _stack,
    "cli.run": _cli_run,
}


class Tracer:
    """Records spans: the benchmark's own through `span()`, and calls into
    the package while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []  # (namespace, key, original)

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span of the benchmark's own code, such as a pass or a decision."""
        span = self._open(f"{BENCH}.{name}")
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            self._close(span)

    def _wrap(self, func, name: str):
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                tracer._close(span)
            if hook is not None:
                try:
                    span.attrs = hook(args, kwargs, result)
                except Exception:  # the program's signature moved; keep running
                    span.attrs = {"hook_error": 1}
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__doc__ = func.__doc__
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        wrappers: dict = {}
        for mod in modules:
            for key, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not key.startswith("_")
                        and obj.__module__.startswith(PACKAGE + ".")):
                    owner = obj.__module__.rsplit(".", 1)[1]
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(obj, f"{owner}.{obj.__name__}")
        for mod in modules:
            namespace = vars(mod)
            for key, obj in list(namespace.items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patched.append((namespace, key, obj))
                    namespace[key] = wrappers[obj]
                elif isinstance(obj, dict) and not key.startswith("__"):
                    for k, v in list(obj.items()):
                        if isinstance(v, types.FunctionType) and v in wrappers:
                            self._patched.append((obj, k, v))
                            obj[k] = wrappers[v]

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.  Calls
    are single-threaded and properly nested, so children never overlap."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def descendants(spans: list[Span], root: int) -> list[int]:
    """Indices of the spans below `root`; children follow their parents."""
    inside = {root}
    found = []
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
            found.append(i)
        elif spans[i].start >= spans[root].end:
            break
    return found
