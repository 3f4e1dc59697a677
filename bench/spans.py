"""Span tracing of uwbphy's layers from outside the package.

`Tracer.install` rebinds each traced function's name in every loaded
`uwbphy.*` module that holds it (for example both `channel.add_awgn`
and `harness.add_awgn`) to a wrapper that records a span per call:
name, start, end, enclosing span and the CLI invocation it belongs to,
plus a work count computed from the call's argument and return array
sizes. `Tracer.uninstall` puts every original back. Spans stay in
memory until the run writes them out.
"""

import importlib
import inspect
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps

import numpy as np


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _awgn_normals(fn, args, kwargs, result):
    signal = _bound(fn, args, kwargs)["signal"]
    return 0 if result is signal else len(signal)


def _calibration_normals(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    if math.isinf(a["ebn0_db"]) and a["ebn0_db"] > 0:
        return 0
    cfg = a["cfg"]
    width = int(round(cfg.integration_window * cfg.sample_rate))
    return 2 * int(a["n_calibration_frames"]) * width


def _signal_len(fn, args, kwargs, result):
    return len(_bound(fn, args, kwargs)["signal"])


def _array_size(fn, args, kwargs, result):
    return int(np.size(_bound(fn, args, kwargs)["x"]))


def _taps(fn, args, kwargs, result):
    return len(result.taps)


def _result_len(fn, args, kwargs, result):
    return len(result)


def _samples_read(fn, args, kwargs, result):
    """Samples the demodulator's window statistics touch: one template
    window per frame (BPAM), two (PPM), or one integration window
    (OOK)."""
    cfg = _bound(fn, args, kwargs)["cfg"]
    frames = len(result)
    scheme = cfg.mod.scheme
    if scheme == "ook":
        return frames * int(round(cfg.integration_window * cfg.sample_rate))
    per_frame = len(cfg.template) * (2 if scheme == "ppm" else 1)
    return frames * per_frame


# Traced functions as `module.function` under `uwbphy`, each with the
# computed work count its span records (None: calls only).
TRACED = {
    "waveform.sample_pulse": None,
    "transmitter.place_pulse_train": _result_len,
    "channel.draw_channel": _taps,
    "channel.apply_channel": _signal_len,
    "channel.add_awgn": _awgn_normals,
    "channel.quantize_array": _array_size,
    "receiver.demodulate": _samples_read,
    "receiver.calibrate_ook_threshold": _calibration_normals,
    "harness.run_sweep": None,
    "reconfig.run_session": None,
    "reconfig.apply_reconfiguration": None,
    "cli.main": None,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    invocation: int
    count: int


class Tracer:
    def __init__(self, traced=TRACED):
        self.traced = traced
        self.spans = []
        self.invocation = 0
        self.absent = []
        self.uncounted = set()
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, counter):
        spans = self.spans
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1,
                        self.invocation, 0)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span.count = counter(fn, args, kwargs, result)
                except (KeyError, TypeError, AttributeError):
                    # the signature or return type moved on: the count
                    # is reported as missing, the call is unaffected
                    self.uncounted.add(name)
            return result

        return wrapper

    def install(self):
        """Rebind every traced function in every loaded uwbphy module.
        A function that no longer exists is recorded in `absent`."""
        self.absent = []
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "uwbphy" or n.startswith("uwbphy.")
        ]
        for name, counter in self.traced.items():
            module_name, _, attr = name.rpartition(".")
            try:
                home = importlib.import_module(f"uwbphy.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(home, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def dump(self):
        return [
            [s.name, s.start, s.end, s.parent, s.invocation, s.count]
            for s in self.spans
        ]


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval that its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for j in sorted(children[i], key=lambda j: spans[j].start):
            lo = max(spans[j].start, reach)
            hi = min(spans[j].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(spans, kbits):
    """Per-layer metrics of a traced run, normalised per 1000
    simulated bits. Layers that never ran (or are absent) read 0."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for s, t in zip(spans, self_times(spans)):
        self_s[s.name] += t
        calls[s.name] += 1
        counts[s.name] += s.count

    def per_kbit(x):
        return x / kbits if kbits else 0.0

    m = {}
    for name in TRACED:
        m[f"{name}.self_ms_per_kbit"] = per_kbit(1e3 * self_s[name])
    m["channel.add_awgn.normals_drawn"] = per_kbit(counts["channel.add_awgn"])
    m["receiver.calibrate_ook_threshold.normals_drawn"] = per_kbit(
        counts["receiver.calibrate_ook_threshold"])
    m["channel.apply_channel.samples_in"] = per_kbit(
        counts["channel.apply_channel"])
    draws = calls["channel.draw_channel"]
    m["channel.draw_channel.taps_mean"] = (
        counts["channel.draw_channel"] / draws if draws else 0.0)
    m["channel.quantize_array.samples_in"] = per_kbit(
        counts["channel.quantize_array"])
    m["transmitter.place_pulse_train.samples_out"] = per_kbit(
        counts["transmitter.place_pulse_train"])
    m["receiver.demodulate.samples_read"] = per_kbit(
        counts["receiver.demodulate"])
    produced = counts["channel.add_awgn"]
    m["receiver.read_ratio"] = (
        counts["receiver.demodulate"] / produced if produced else 0.0)
    m["waveform.sample_pulse.calls"] = per_kbit(calls["waveform.sample_pulse"])
    m["reconfig.apply_reconfiguration.calls"] = per_kbit(
        calls["reconfig.apply_reconfiguration"])
    return m
