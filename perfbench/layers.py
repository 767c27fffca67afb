"""Layer attribution for the benchmark, applied from outside ``src/``.

The benchmark never edits the program.  It wraps the public entry
points of each layer at import time, in the process it launches:

- :class:`Tracer` times every wrapped call as a span on a per-thread
  stack.  A span's *self time* is its duration minus the spans nested
  in it, so the self times of one process never overlap and, with the
  unattributed remainder ``other.self_s``, sum to its wall time.
- :class:`SetupProbe` (untraced runs) records only the moment of the
  first call into a simulating layer, which ends set-up; with ``stop``
  it then kills the run's whole process group, for set-up-only runs.

Wrappers are installed by an import hook: a target module is patched
right after it executes, before any other module can import names from
it, so nothing is imported early and the untraced run imports exactly
what the plain CLI imports.  :meth:`Hooks.uninstall` puts every
original back, including names other modules imported.

Each process writes its own record (``trace-<pid>.json``); forked
campaign workers write theirs after every outermost span, because they
leave through ``os._exit`` and would lose anything kept for exit.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

#: (module, attribute path, layer, hook kind).  ``layer`` None marks a
#: count-only probe that opens no span.
TARGETS: tuple[tuple[str, str, str | None, str | None], ...] = (
    ("repro.workloads.base", "os_background_trace", "workloads.gen", "os_trace"),
    ("repro.workloads.specjbb", "SpecJbbWorkload.generate", "workloads.gen", "generate"),
    ("repro.workloads.specjbb", "SpecJbbWorkload.generate_chunks", "workloads.gen", "chunks"),
    ("repro.workloads.ecperf", "EcperfWorkload.generate", "workloads.gen", "generate"),
    ("repro.workloads.ecperf", "EcperfWorkload.generate_chunks", "workloads.gen", "chunks"),
    ("repro.memsys.hierarchy", "MemoryHierarchy.run_trace", "memsys.coherent", "coherent"),
    ("repro.memsys.fastpath_coherence", "run_trace_kernel", None, "fast"),
    ("repro.memsys.fastpath_coherence", "KernelSession.begin", None, "fast"),
    ("repro.memsys.multisim", "simulate_miss_curve", "memsys.miss_curve", "miss_curve"),
    ("repro.memsys.stream", "simulate_miss_curve_stream", "memsys.miss_curve", "miss_curve"),
    ("repro.cpu.inorder", "InOrderCpuModel.cpi_for_machine", "cpu.model", None),
    ("repro.figures.common", "run_figure", "figures.self", None),
    ("repro.figures.common", "FigureResult.render", "figures.render", None),
    ("repro.figures.common", "figure_checks", "figures.render", None),
    ("repro.harness.runner", "run_tasks", "harness.self", None),
    ("repro.harness.traceplane", "TracePlane.refs_for", "harness.plane", None),
    ("repro.harness.traceplane", "TracePlane.publish", "harness.plane", "publish"),
    ("repro.harness.cache", "ResultCache.get", "harness.cache", "cache_op"),
    ("repro.harness.cache", "ResultCache.put", "harness.cache", "cache_op"),
    ("repro.loadplane.engine", "simulate_loadplane", "loadplane.sim", "loadplane"),
    ("repro.campaign.scheduler", "run_campaign", "campaign.parent", "campaign"),
    ("repro.campaign.studies", "loadplane_cell", "campaign.cell", None),
)

#: Layers whose first call ends set-up: the ones that simulate.
SIMULATING = ("workloads.", "memsys.", "cpu.", "loadplane.")

_END = object()


class Hooks:
    """Patch :data:`TARGETS` as their modules load; undo on request.

    ``make_wrapper(raw, layer, kind)`` returns the replacement for one
    target function, or None to leave it alone.  ``extra`` maps a
    module name to a callback run on the module right after it loads
    (the seed override uses it).
    """

    def __init__(self, make_wrapper, extra: dict | None = None) -> None:
        self._make_wrapper = make_wrapper
        self._extra = dict(extra or {})
        self._by_module: dict[str, list[tuple[str, str | None, str | None]]] = {}
        for module, path, layer, kind in TARGETS:
            self._by_module.setdefault(module, []).append((path, layer, kind))
        self._patched: list[tuple[object, str, object, object]] = []
        self._finder: _PatchFinder | None = None

    @property
    def modules(self) -> set[str]:
        return set(self._by_module) | set(self._extra)

    def install(self) -> None:
        self._finder = _PatchFinder(self.modules, self._on_load)
        sys.meta_path.insert(0, self._finder)
        for name in sorted(self.modules):
            module = sys.modules.get(name)
            if module is not None:  # already imported: patch in place
                self._on_load(module, rebind=True)

    def uninstall(self) -> None:
        """Restore every original, including copies other modules hold."""
        if self._finder is not None and self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)
        self._finder = None
        originals = {}
        for owner, name, raw, wrapped in reversed(self._patched):
            setattr(owner, name, raw)
            originals[id(_function_of(wrapped))] = _function_of(raw)
        _rebind(originals)
        self._patched.clear()

    def wrappers(self) -> list[object]:
        return [wrapped for _, _, _, wrapped in self._patched]

    def _on_load(self, module, rebind: bool = False) -> None:
        """Patch one freshly loaded target module.

        A module patched right after it executes needs no rebinding:
        nobody can have imported its names yet.  ``rebind`` handles
        modules that were loaded before :meth:`install`.
        """
        rebound = {}
        for path, layer, kind in self._by_module.get(module.__name__, ()):
            owner = module
            *parents, name = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = owner.__dict__[name]
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = self._make_wrapper(func, layer, kind)
            if wrapper is None:
                continue
            functools.update_wrapper(wrapper, func)
            wrapped = classmethod(wrapper) if isinstance(raw, classmethod) else wrapper
            setattr(owner, name, wrapped)
            self._patched.append((owner, name, raw, wrapped))
            rebound[id(func)] = wrapper
        if rebind and rebound:
            _rebind(rebound)
        callback = self._extra.get(module.__name__)
        if callback is not None:
            callback(module)


def _function_of(obj):
    return obj.__func__ if isinstance(obj, classmethod) else obj


def _rebind(replacements: dict[int, object]) -> None:
    """Point names other loaded ``repro`` modules imported at the new object."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            new = replacements.get(id(value))
            if new is not None and new is not value:
                setattr(module, attr, new)


class _PatchFinder(importlib.abc.MetaPathFinder):
    """Finds target modules normally and patches them once executed."""

    def __init__(self, names: set[str], on_load) -> None:
        self._names = names
        self._on_load = on_load

    def find_spec(self, fullname, path, target=None):
        if fullname not in self._names:
            return None
        # Ask the finders behind this one, so stacked hooks all apply.
        spec = None
        later = sys.meta_path[sys.meta_path.index(self) + 1 :] if self in sys.meta_path else []
        for finder in later or [importlib.machinery.PathFinder]:
            find = getattr(finder, "find_spec", None)
            spec = find(fullname, path, target) if find is not None else None
            if spec is not None:
                break
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        on_load = self._on_load

        def exec_and_patch(module):
            exec_module(module)
            on_load(module)

        spec.loader.exec_module = exec_and_patch
        return spec


# -- untraced runs: when does set-up end? -----------------------------------


class SetupProbe:
    """Records when, and after how much CPU, the first simulating call came.

    Each process writes ``first-<pid>.txt`` at its first call: the
    ``time.monotonic()`` stamp (system-wide on Linux, so the launching
    benchmark can subtract its own pre-launch reading) and the CPU
    seconds spent on the way there.  A forked worker's CPU count starts
    from what its parent had spent when it forked.  After the first
    call each wrapper is a plain pass-through, unless ``stop`` is set:
    then the first call kills the caller's process group (the launched
    run with its workers), since only set-up was to be measured.
    """

    def __init__(self, out_dir: str | Path, stop: bool = False) -> None:
        self.out_dir = Path(out_dir)
        self.stop = stop
        self.fired = False
        self._inherited_cpu = 0.0
        self._cpu_at_fork = 0.0
        os.register_at_fork(before=self._before_fork, after_in_child=self._after_fork)

    def _before_fork(self) -> None:
        self._cpu_at_fork = self._inherited_cpu + time.process_time()

    def _after_fork(self) -> None:
        self._inherited_cpu = self._cpu_at_fork

    def wrap(self, raw, layer, kind):
        """``Hooks`` wrapper factory: probes on simulating layers only."""
        if layer is None or not layer.startswith(SIMULATING):
            return None
        probe = self

        def wrapper(*args, **kwargs):
            if not probe.fired:
                probe.fire()
            return raw(*args, **kwargs)

        return wrapper

    def fire(self) -> None:
        self.fired = True
        stamp = time.monotonic()
        cpu = self._inherited_cpu + time.process_time()
        path = self.out_dir / f"first-{os.getpid()}.txt"
        path.write_text(f"{stamp!r} {cpu!r}", encoding="utf-8")
        if self.stop:
            os.killpg(0, signal.SIGKILL)


def first_call(out_dir: str | Path) -> tuple[float, float] | None:
    """(monotonic stamp, CPU seconds) of the earliest first call of a run."""
    stamps = [
        tuple(float(x) for x in path.read_text(encoding="utf-8").split())
        for path in Path(out_dir).glob("first-*.txt")
    ]
    return min(stamps) if stamps else None


# -- traced runs: spans, self time, counts ----------------------------------


class Tracer:
    """Span accounting around every target, one record per process."""

    def __init__(self, out_dir: str | Path) -> None:
        self.out_dir = Path(out_dir)
        self._main_pid = os.getpid()
        self._lock = threading.Lock()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._local = threading.local()
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.traces: dict[str, int] = {}
        self._plane_refs: set[str] = set()

    # -- records ---------------------------------------------------------

    def record(self) -> dict:
        return {
            "pid": os.getpid(),
            "role": "main" if os.getpid() == self._main_pid else "worker",
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "traces": dict(self.traces),
        }

    def write(self) -> Path:
        path = self.out_dir / f"trace-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.record()), encoding="utf-8")
        os.replace(tmp, path)
        return path

    # -- span stack ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def _enter(self, layer: str) -> list:
        frame = [layer, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _leave(self, frame: list) -> tuple[float, float]:
        """Close a span; returns (duration, self time)."""
        duration = time.perf_counter() - frame[1]
        stack = self._stack()
        stack.pop()
        own = duration - frame[2]
        with self._lock:
            self.self_s[frame[0]] = self.self_s.get(frame[0], 0.0) + own
        if stack:
            stack[-1][2] += duration
        return duration, own

    def _flush_worker(self) -> None:
        """A worker's outermost span ended: persist its record now."""
        if not self._stack() and os.getpid() != self._main_pid:
            self.write()

    def _outermost(self, layer: str) -> bool:
        return all(frame[0] != layer for frame in self._stack())

    # -- wrappers ---------------------------------------------------------

    def wrap(self, raw, layer, kind):
        """``Hooks`` wrapper factory: a span, or a count-only probe."""
        tracer = self
        if layer is None:  # count-only probe: did the compiled kernel serve?

            def probe(*args, **kwargs):
                result = raw(*args, **kwargs)
                if result is not None and result is not False:
                    tracer._count("memsys.coherent_fast")
                return result

            return probe
        signature = inspect.signature(raw)

        def wrapper(*args, **kwargs):
            span_layer = layer
            if kind == "miss_curve":
                kind_arg = signature.bind(*args, **kwargs).arguments["kind"]
                span_layer = f"{layer}.{kind_arg}"
            outermost = tracer._outermost(span_layer)
            cpu0 = time.process_time() if kind == "campaign" else 0.0
            frame = tracer._enter(span_layer)
            try:
                result = raw(*args, **kwargs)
            finally:
                duration, own = tracer._leave(frame)
            tracer._after(kind, span_layer, outermost, duration, own,
                          time.process_time() - cpu0, signature, args, kwargs, result)
            tracer._flush_worker()
            return result

        return wrapper

    def _after(self, kind, layer, outermost, duration, own, cpu,
               signature, args, kwargs, result) -> None:
        """Counts for one finished span (``own`` is its self time)."""
        if kind in ("generate", "chunks", "os_trace") and outermost:
            self._trace_counts(kind, signature, args, kwargs, result)
        elif kind == "coherent" and outermost:
            self._count("memsys.coherent_calls")
        elif kind == "miss_curve" and outermost:
            sizes = signature.bind(*args, **kwargs).arguments["sizes"]
            self._count("memsys.miss_curve_configs", len(sizes))
        elif kind == "publish":
            if result.location not in self._plane_refs:
                self._plane_refs.add(result.location)
                self._count("harness.plane_bytes", result.nbytes)
        elif kind == "cache_op":
            self._count("harness.cache_ops")
        elif kind == "loadplane":
            self._count("loadplane.events", result.events)
        elif kind == "campaign":
            busy = min(max(cpu, 0.0), own)
            self._count("campaign.busy_s", busy)
            self._count("campaign.wait_s", own - busy)
        if layer == "campaign.cell":
            self._count("campaign.cell_s", duration)

    def _trace_counts(self, kind, signature, args, kwargs, result) -> None:
        bound = signature.bind(*args, **kwargs).arguments
        if kind == "os_trace":
            refs = len(result)
            key = f"os/{bound['n_refs']}/{len(bound.get('shared_lines') or ())}"
        else:
            workload = bound["self"]
            sim = bound["sim"]
            scale = getattr(workload, "warehouses", getattr(workload, "injection_rate", None))
            key = (
                f"{type(workload).__name__}/{scale}/{bound['n_procs']}/"
                f"{sim!r}/{getattr(bound['rng_factory'], 'seed', None)}"
            )
            if kind == "chunks":
                refs = sum(result.lengths)
                result.per_cpu = [self._timed_chunks(it) for it in result.per_cpu]
            else:
                refs = sum(len(t) for t in result.per_cpu)
        if kind != "chunks":
            self._count("workloads.refs", refs)
        with self._lock:
            self.traces[key] = refs

    def _timed_chunks(self, chunks):
        """Chunk iterator whose every pull is a ``workloads.gen`` span."""
        iterator = iter(chunks)
        while True:
            frame = self._enter("workloads.gen")
            try:
                chunk = next(iterator, _END)
            finally:
                self._leave(frame)
            if chunk is _END:
                return
            self._count("workloads.refs", len(chunk))
            self._flush_worker()
            yield chunk


def read_records(out_dir: str | Path) -> list[dict]:
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(Path(out_dir).glob("trace-*.json"))
    ]


def layer_metrics(records: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run from its process records.

    Self times of the launching process plus ``other.self_s`` sum to
    ``wall_s``.  Worker processes (campaign cells) run beside it, so
    their times are reported on their own and stay out of that sum.
    """
    main = [r for r in records if r["role"] == "main"]
    main_self = sum(sum(r["self_s"].values()) for r in main)

    def self_s(layer: str) -> float:
        return sum(r["self_s"].get(layer, 0.0) for r in records)

    def count(key: str) -> float:
        return sum(r["counts"].get(key, 0) for r in records)

    def per_s(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    gen_s = self_s("workloads.gen")
    sim_s = self_s("loadplane.sim")
    calls = count("memsys.coherent_calls")
    return {
        "workloads.gen_s": gen_s,
        "workloads.refs": count("workloads.refs"),
        "workloads.refs_per_s": per_s(count("workloads.refs"), gen_s),
        "memsys.coherent_s": self_s("memsys.coherent"),
        "memsys.coherent_calls": calls,
        "memsys.coherent_fast_ratio": per_s(count("memsys.coherent_fast"), calls),
        "memsys.miss_curve_s.instr": self_s("memsys.miss_curve.instr"),
        "memsys.miss_curve_s.data": self_s("memsys.miss_curve.data"),
        "memsys.miss_curve_configs": count("memsys.miss_curve_configs"),
        "cpu.model_s": self_s("cpu.model"),
        "figures.self_s": self_s("figures.self"),
        "figures.render_s": self_s("figures.render"),
        "harness.self_s": self_s("harness.self"),
        "harness.plane_s": self_s("harness.plane"),
        "harness.plane_bytes": count("harness.plane_bytes"),
        "harness.cache_s": self_s("harness.cache"),
        "harness.cache_ops": count("harness.cache_ops"),
        "loadplane.sim_s": sim_s,
        "loadplane.events": count("loadplane.events"),
        "loadplane.events_per_s": per_s(count("loadplane.events"), sim_s),
        "campaign.parent_busy_s": count("campaign.busy_s"),
        "campaign.wait_s": count("campaign.wait_s"),
        "campaign.cell_s": count("campaign.cell_s"),
        "other.self_s": wall_s - main_self,
    }


def distinct_trace_refs(records: list[dict]) -> int:
    """References in the run's traces, each distinct trace counted once."""
    merged: dict[str, int] = {}
    for record in records:
        merged.update(record["traces"])
    return sum(merged.values())
