"""Span tracing of rolecomms at its module boundaries, from outside the package.

`install` swaps module attributes that `run_benchmark`, `_run_chunk` and
`run_game` look up at call time for wrappers that record one span per call;
`uninstall` puts the originals back. Nothing under `src/` changes, and an
untraced run never sees a wrapper.

Spans live in flat arrays (name id, start, end, parent, game seed) and are
aggregated after each round. Worker processes of the pool are forked with
the wrappers in place; each chunk they play ships its spans back with its
rows, and the parent merges them.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

from stats import self_times


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.seed_of = array("q")
        self.stack = [-1]
        self.seed = -1
        self.counters: dict[str, float] = {}
        self.home_pid = os.getpid()

    def clear(self) -> None:
        # in place: the wrappers hold references to these containers
        for arr in (self.name, self.start, self.end, self.parent, self.seed_of):
            del arr[:]
        del self.stack[1:]
        self.counters.clear()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.seed_of.append(self.seed)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def wrap(self, name: str, fn, seed_arg: int | None = None, on_result=None):
        """A stand-in for fn that records a span per call.

        seed_arg: position of the game-seed argument; spans opened during
        the call carry that seed. on_result(tracer, result) updates counters.
        """
        nid = self.name_id(name)
        open_span = self._open
        end = self.end
        stack = self.stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seed_arg is not None:
                outer_seed = tracer.seed
                tracer.seed = args[seed_arg]
            idx = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
                if seed_arg is not None:
                    tracer.seed = outer_seed
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def export(self) -> tuple:
        return (
            list(self.names),
            self.name,
            self.start,
            self.end,
            self.parent,
            self.seed_of,
            dict(self.counters),
        )

    def merge(self, payload: tuple) -> None:
        """Append spans recorded in another process; their roots stay roots."""
        names, name, start, end, parent, seed_of, counters = payload
        remap = [self.name_id(n) for n in names]
        offset = len(self.start)
        self.name.extend(array("i", (remap[i] for i in name)))
        self.start.extend(start)
        self.end.extend(end)
        self.parent.extend(array("i", (p + offset if p >= 0 else -1 for p in parent)))
        self.seed_of.extend(seed_of)
        for key, value in counters.items():
            self.add(key, value)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, and every duration."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        selfs = self_times(durations, self.parent)
        out: dict[str, dict] = {}
        for nid, dur, own in zip(self.name, durations, selfs):
            entry = out.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += own
            entry["durations"].append(dur)
        return out

    def spans_dump(self) -> dict:
        return {
            "names": list(self.names),
            "columns": ["name", "start", "end", "parent", "seed"],
            "name": list(self.name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "seed": list(self.seed_of),
        }


class _Shipped:
    """A worker chunk's rows together with the spans recorded while playing it."""

    def __init__(self, rows, payload):
        self.rows = rows
        self.payload = payload


def _count_steps(tracer: Tracer, outcome) -> None:
    tracer.add("table_sim.run_game.steps", outcome.steps)


def _count_inference(tracer: Tracer, inferred) -> None:
    if inferred is None:
        tracer.add("table_sim.infer_obstacle.none", 1)
    elif inferred.saturated:
        tracer.add("table_sim.infer_obstacle.saturated", 1)


def _count_csv_bytes(tracer: Tracer, lines) -> None:
    # write_trajectory_csv joins the lines with "\n" and ends with "\n"
    tracer.add("table_sim.trajectory_csv_lines.bytes", sum(map(len, lines)) + len(lines))


def _pool_class(tracer: Tracer):
    class TracedPool(ProcessPoolExecutor):
        """Counts the parent's waits on the pool and merges shipped spans."""

        def map(self, fn, *iterables, **kwargs):
            with tracer.span("bench.pool_wait"):
                results = super().map(fn, *iterables, **kwargs)

            def unpack():
                while True:
                    with tracer.span("bench.pool_wait"):
                        try:
                            item = next(results)
                        except StopIteration:
                            return
                    # its own span, so that merging is not counted as aggregation
                    with tracer.span("trace.merge"):
                        tracer.merge(item.payload)
                    yield item.rows

            return unpack()

        def __exit__(self, *exc):
            with tracer.span("bench.pool_wait"):
                return super().__exit__(*exc)

    return TracedPool


def _chunk_wrapper(tracer: Tracer, original):
    traced = tracer.wrap("bench.run_chunk", original)

    @functools.wraps(original)
    def run_chunk(args):
        if os.getpid() == tracer.home_pid:
            return traced(args)
        tracer.clear()
        start = time.perf_counter()
        rows = traced(args)
        tracer.add("bench.worker_busy_s", time.perf_counter() - start)
        return _Shipped(rows, tracer.export())

    return run_chunk


def install(tracer: Tracer, bench, table_sim) -> list[tuple]:
    """Swap the traced module attributes; returns what `uninstall` restores."""
    swaps = [
        (bench, "run_benchmark", "bench.run_benchmark", {}),
        (bench, "_env_sequence_hash", "bench.env_hash", {}),
        (bench, "report_json", "bench.report_json", {}),
        (bench, "report_csv", "bench.report_csv", {}),
        (bench, "evaluate_asserts", "bench.evaluate_asserts", {}),
        (bench, "run_game", "table_sim.run_game", {"seed_arg": 4, "on_result": _count_steps}),
        (table_sim, "run_game", "table_sim.run_game", {"seed_arg": 4, "on_result": _count_steps}),
        (bench, "generate_environment", "table_sim.generate_environment", {"seed_arg": 0}),
        (table_sim, "generate_environment", "table_sim.generate_environment", {"seed_arg": 0}),
        (table_sim, "infer_obstacle", "table_sim.infer_obstacle", {"on_result": _count_inference}),
        # the game loop's private copy of the field law; the name outlives a rename
        (table_sim, "_field_velocity", "potential_field.field_eval", {}),
        (table_sim, "corrupt", "table_sim.corrupt", {}),
        (table_sim, "gaussian", "numerics.gaussian", {}),
        (table_sim, "closest_observed_index", "table_sim.closest_observed_index", {}),
        (table_sim, "trajectory_csv_lines", "table_sim.trajectory_csv_lines", {"on_result": _count_csv_bytes}),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in swaps]
    saved += [(bench, "_run_chunk", bench._run_chunk), (bench, "ProcessPoolExecutor", bench.ProcessPoolExecutor)]
    for module, attr, name, kwargs in swaps:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), **kwargs))
    bench._run_chunk = _chunk_wrapper(tracer, bench._run_chunk)
    bench.ProcessPoolExecutor = _pool_class(tracer)
    return saved


def uninstall(saved: list[tuple]) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)
