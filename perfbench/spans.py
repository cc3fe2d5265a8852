"""Span recording around calls into the isactwin modules, from outside them.

A `Tracer` replaces each timed function with a wrapper that appends one span
(name, start, end, parent index) to an in-memory list.  A module that
imported the function by name (``from .raytrace import trace_paths``) holds
its own reference, so `Tracer.install` patches every ``isactwin`` module
attribute that is the original object, not only the defining one.
`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter

# (span name, defining module, attribute path).  The span name is the layer
# (the module under src/isactwin/) followed by the function's own name.
TARGETS = [
    ("raytrace.trace_paths", "isactwin.raytrace", "trace_paths"),
    ("channel.beamformed_gains", "isactwin.channel", "beamformed_gains"),
    ("channel.synthesize_channel", "isactwin.channel", "synthesize_channel"),
    ("channel.mrt_beamformer", "isactwin.channel", "mrt_beamformer"),
    ("localization.build_fingerprint_db", "isactwin.localization", "build_fingerprint_db"),
    ("localization.compute_mdp", "isactwin.localization", "compute_mdp"),
    ("localization.add_fingerprint_noise", "isactwin.localization", "add_fingerprint_noise"),
    ("localization.localize", "isactwin.localization", "localize"),
    ("localization.save_db", "isactwin.localization", "save_db"),
    ("localization.load_db", "isactwin.localization", "load_db"),
    ("agent.step_state", "isactwin.agent", "step_state"),
    ("agent.observe", "isactwin.agent", "observe"),
    ("agent.waypoint_control", "isactwin.agent", "waypoint_control"),
    ("simcore.validate_scenario", "isactwin.simcore", "validate_scenario"),
    ("simcore.init_world", "isactwin.simcore", "init_world"),
    ("simcore.sim_step", "isactwin.simcore", "sim_step"),
    ("simcore.Bus.publish", "isactwin.simcore", "Bus.publish"),
    ("simcore.TraceWriter.write_record", "isactwin.simcore", "TraceWriter.write_record"),
    ("scene.load_scene", "isactwin.scene", "load_scene"),
    ("scene.floor_grid", "isactwin.scene", "floor_grid"),
    ("network.build_network", "isactwin.network", "build_network"),
    ("network.allocate_resources", "isactwin.network", "allocate_resources"),
]


def _resolve(module_name: str, attr_path: str):
    """(owner object, attribute name, original) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{module_name}.{attr_path} not found; the benchmark's span list is stale")
    return owner, attr, vars(owner)[attr]


def _package_modules(package: str) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Patches:
    """Attribute replacements that can all be undone, newest first."""

    def __init__(self):
        self._undo = []   # (owner, attribute name, original value)

    def replace_everywhere(self, module_name: str, attr_path: str, make_wrapper) -> int:
        """Replace a function at its definition and at every by-name import.

        Returns the number of places patched.
        """
        owner, attr, original = _resolve(module_name, attr_path)
        wrapper = make_wrapper(original)
        places = [(owner, attr)]
        if "." not in attr_path:
            for mod in _package_modules(module_name.split(".")[0]):
                for name, value in vars(mod).items():
                    if value is original and (mod, name) != (owner, attr):
                        places.append((mod, name))
        for obj, name in places:
            self._undo.append((obj, name, original))
            setattr(obj, name, wrapper)
        return len(places)

    def restore(self):
        while self._undo:
            obj, name, original = self._undo.pop()
            setattr(obj, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()


class StepClock(Patches):
    """The untraced run's only instrument: the interval of each call to the
    workload's step function, and a hook (the speed probe) after each call."""

    def __init__(self, module_name: str, attr_path: str, after=lambda: None):
        super().__init__()
        self.target = (module_name, attr_path)
        self.after = after
        self.calls: list = []   # (start, end) of each call

    def install(self):
        self.replace_everywhere(*self.target, self._wrap)
        return self

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.calls.append((t0, time.perf_counter()))
                self.after()
        return wrapper


class Tracer(Patches):
    """Records spans of every call to the functions in `TARGETS`.

    Spans are lists ``[name, start, end, parent]`` with times from
    ``time.perf_counter`` and ``parent`` the index of the enclosing span
    (-1 at the top).  Work counts that the program returns (paths per trace,
    MDP overflow) or that follow from the arguments (complex multiply-
    accumulates of `beamformed_gains`) go into `counts`.  `measure(start,
    end)` turns a span into the duration that `durations` and `self_times`
    report; the benchmark passes `SpeedProbe.scaled`.
    """

    def __init__(self, measure=lambda start, end: end - start):
        super().__init__()
        self.measure = measure
        self.spans: list = []
        self.counts: Counter = Counter()
        self.installed: dict = {}   # span name -> places patched
        self._stack: list = []

    def install(self):
        for name, module_name, attr_path in TARGETS:
            self.installed[name] = self.replace_everywhere(
                module_name, attr_path, functools.partial(self._wrap, name))
        return self

    @contextlib.contextmanager
    def around_op(self):
        """Install the wrappers for one op of the benchmark, inside an "op" span."""
        with self, self.span("op"):
            yield

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        return wrapper

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def durations(self, name: str) -> list:
        return [self.measure(s[1], s[2]) for s in self.spans if s[0] == name]

    def self_times(self, name: str) -> list:
        """Span durations of `name` minus the time their direct children cover.

        Calls are single-threaded and nested, so the children of one span do
        not overlap and their durations simply add up.
        """
        wanted = {i for i, s in enumerate(self.spans) if s[0] == name}
        child = dict.fromkeys(wanted, 0.0)
        for s in self.spans:
            if s[3] in wanted:
                child[s[3]] += self.measure(s[1], s[2])
        return [self.measure(self.spans[i][1], self.spans[i][2]) - child[i] for i in sorted(wanted)]

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_paths(counts, args, kwargs, result):
    counts["raytrace.paths"] += len(result)


def _count_cmac(counts, args, kwargs, result):
    # |H w|^2 over the grid contracts L paths into N x K cells per receive
    # antenna: L * N * K * N_R complex multiply-accumulates (computed, not measured).
    paths = _arg(args, kwargs, 0, "paths")
    rx_array = _arg(args, kwargs, 2, "rx_array")
    n = len(_arg(args, kwargs, 5, "subcarriers"))
    k = len(_arg(args, kwargs, 6, "symbols"))
    counts["channel.cmac"] += len(paths) * n * k * rx_array.num_elements


def _count_overflow(counts, args, kwargs, result):
    counts["localization.mdp_overflow"] += result.overflow


_COUNTERS = {
    "raytrace.trace_paths": _count_paths,
    "channel.beamformed_gains": _count_cmac,
    "localization.compute_mdp": _count_overflow,
}
