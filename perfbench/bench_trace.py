"""In-memory span tracer over the public functions of the sqcomm modules.

The tracer wraps each listed function and rebinds every alias of it in the
``sqcomm.*`` module namespaces (``harness``, ``reductions`` and ``cli`` import
names directly, so patching only the defining module would miss their calls).
Each call records a span (name, parent span, start, end) in flat lists; the
spans are turned into per-layer metrics and written out only after the run.
A layer's self time is its spans' durations minus the time their child spans
cover.
"""

from __future__ import annotations

import contextlib
import fnmatch
import functools
import sys
import time

import numpy as np

# layer -> (module, name patterns); patterns match functions defined in that module
LAYERS = {
    "sq_access.build": ("sq_access", ["build_sq_vector", "build_sq_matrix"]),
    "sq_access.sample": ("sq_access", ["sq_sample", "sq_sample_many"]),
    "comm_sim.session_build": ("comm_sim", ["open_session*", "make_replay_session"]),
    "comm_sim.setup": ("comm_sim", ["coord_b_setup", "coord_a_setup"]),
    "comm_sim.access": ("comm_sim", ["coord_b_sample", "coord_b_query", "coord_a_access"]),
    "comm_sim.lincomb": ("comm_sim", ["lincomb_*_access", "lincomb_*_phi"]),
    "comm_sim.law_enum": ("comm_sim", ["protocol_distribution"]),
    "linalg_oracle.svd": ("linalg_oracle", ["svd_factors", "pseudoinverse", "pinv_solve",
                                            "threshold_svd", "top_singular", "params"]),
    "linalg_oracle.eigh": ("linalg_oracle", ["expm_hermitian", "expm_apply"]),
    "linalg_oracle.transform": ("linalg_oracle", ["hadamard_apply", "dsp_distribution"]),
    "reductions.build": ("reductions", ["gen_*", "build_*"]),
    "reductions.decide": ("reductions", ["decide_*"]),
    "reductions.law": ("reductions", ["dense_solution_law", "hamiltonian_evolved_law"]),
    "reductions.identity_batch": ("reductions", ["hamiltonian_identity_errors_batch"]),
    "harness.experiment": ("harness", ["run"]),
    "harness.stats": ("harness", ["chi_square", "tv_distance"]),
    "harness.report_bytes": ("harness", ["report_json_bytes", "report_csv_bytes"]),
    "verify.suite": ("verify", ["run_suite"]),
}

SUITE_EXPERIMENTS = ["protocol_exactness", "bit_fit", "oversampling",
                     "sparse_regression", "dense_regression", "clustering",
                     "pca_recsys", "hamiltonian"]

_REJECTION_KINDS = ("sq_sample_via_rejection", "sq_row_sample_via_rejection")

# metric name -> (layer, statistic): "calls", "self_s" (both per traced pass),
# "total_s" (outermost span time per pass) or "us_per_call" (outermost span
# time per outermost call, children included)
LAYER_METRICS = {
    "sq_access.build.calls": ("sq_access.build", "calls"),
    "sq_access.build.self_s": ("sq_access.build", "self_s"),
    "sq_access.sample.calls": ("sq_access.sample", "calls"),
    "sq_access.sample.us_per_call": ("sq_access.sample", "us_per_call"),
    "comm_sim.session_build.calls": ("comm_sim.session_build", "calls"),
    "comm_sim.session_build.self_s": ("comm_sim.session_build", "self_s"),
    "comm_sim.setup.self_s": ("comm_sim.setup", "self_s"),
    "comm_sim.access.calls": ("comm_sim.access", "calls"),
    "comm_sim.access.us_per_call": ("comm_sim.access", "us_per_call"),
    "comm_sim.lincomb.calls": ("comm_sim.lincomb", "calls"),
    "comm_sim.lincomb.self_s": ("comm_sim.lincomb", "self_s"),
    "comm_sim.law_enum.self_s": ("comm_sim.law_enum", "self_s"),
    "linalg_oracle.svd.calls": ("linalg_oracle.svd", "calls"),
    "linalg_oracle.svd.self_s": ("linalg_oracle.svd", "self_s"),
    "linalg_oracle.eigh.calls": ("linalg_oracle.eigh", "calls"),
    "linalg_oracle.eigh.self_s": ("linalg_oracle.eigh", "self_s"),
    "linalg_oracle.transform.self_s": ("linalg_oracle.transform", "self_s"),
    "reductions.build.self_s": ("reductions.build", "self_s"),
    "reductions.decide.self_s": ("reductions.decide", "self_s"),
    "reductions.law.self_s": ("reductions.law", "self_s"),
    "reductions.identity_batch.self_s": ("reductions.identity_batch", "self_s"),
    "harness.stats.self_s": ("harness.stats", "self_s"),
    "harness.report_bytes.self_s": ("harness.report_bytes", "self_s"),
    "verify.suite_s": ("verify.suite", "total_s"),
}

# metrics computed from hooks rather than from span statistics
HOOK_METRICS = {
    "comm_sim.rejection.accept_ratio": "1",
    "comm_sim.rejection.samples": "count",
    "comm_sim.rejection.rounds": "count",
    "comm_sim.rejection.timeouts": "count",
    "comm_sim.messages": "count",
    "comm_sim.transcript_entries": "count",
    "comm_sim.bits_total": "bits",
}

_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "us_per_call": "us"}


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {name: _UNITS[stat] for name, (_, stat) in LAYER_METRICS.items()}
    units.update(HOOK_METRICS)
    units.update({f"harness.experiment_s.{e}": "s" for e in SUITE_EXPERIMENTS})
    units["trace.overhead_ratio"] = "1"
    return units


# Layers whose per-layer metric the benchmark table says should move an
# end-to-end metric on a workload; the traced run asserts each recorded calls
# there, so a rename in the package fails the run instead of reading zero.
MUST_MOVE = {
    "verify_protocols": ["sq_access.sample", "comm_sim.access", "comm_sim.lincomb",
                         "harness.experiment", "harness.report_bytes"],
    "verify_reductions": ["sq_access.build", "comm_sim.session_build",
                          "linalg_oracle.svd", "linalg_oracle.eigh",
                          "reductions.identity_batch", "harness.experiment",
                          "harness.stats", "harness.report_bytes"],
    "access_stream": ["sq_access.build", "comm_sim.session_build", "sq_access.sample",
                      "comm_sim.access"],
}


class CoverageError(AssertionError):
    """A layer the workload must exercise recorded no calls."""


class Tracer:
    """Wraps the layer functions while installed; keeps spans in flat lists."""

    def __init__(self):
        from sqcomm import comm_sim, sq_access  # the package loads every sqcomm.* module

        self._comm_sim = comm_sim
        self._sq_access = sq_access
        self.names: list = []               # span name per code
        self._codes: dict = {}
        self.layer_of: list = []            # layer per code
        self.code: list = []                # per span
        self.parent: list = []
        self.start: list = []
        self.end: list = []
        self._stack = [-1]
        self._patched: list = []
        self.sessions: list = []
        self.meter_totals = {"messages": 0, "entries": 0, "bits": 0}
        self.rejection_samples = 0
        self.rejection_rounds = 0
        self.rejection_timeouts = 0
        self.targets = self._resolve()
        self._originals = {fn.__name__: fn for _, fn in self.targets}

    # --- wrapping ------------------------------------------------------------

    def _resolve(self) -> list:
        """(layer, function) pairs; raises if a pattern matches nothing."""
        targets = []
        for layer, (module_name, patterns) in LAYERS.items():
            module = sys.modules[f"sqcomm.{module_name}"]
            for pattern in patterns:
                found = [fn for name, fn in sorted(vars(module).items())
                         if fnmatch.fnmatchcase(name, pattern) and callable(fn)
                         and getattr(fn, "__module__", None) == module.__name__]
                if not found:
                    raise CoverageError(f"no sqcomm.{module_name} function matches {pattern!r}")
                targets.extend((layer, fn) for fn in found)
        return targets

    def _code_for(self, name: str, layer: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return code

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench"):
        """A span opened by the benchmark itself, such as the root of a pass."""
        sid = self._open(self._code_for(name, layer))
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, code: int) -> int:
        sid = len(self.code)
        self.code.append(code)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer: str, fn):
        qualname = f"{fn.__module__.removeprefix('sqcomm.')}.{fn.__name__}"
        code = self._code_for(qualname, layer)
        tracer = self

        if layer == "harness.experiment":
            @functools.wraps(fn)
            def wrapper(config, *args, **kwargs):
                sid = tracer._open(tracer._code_for(
                    f"harness.experiment.{config.experiment}", layer))
                try:
                    return fn(config, *args, **kwargs)
                finally:
                    tracer._close(sid)
            return wrapper

        on_result = None
        if layer == "comm_sim.session_build":
            on_result = self.sessions.append
        if fn.__name__.startswith("lincomb_") and fn.__name__.endswith("_access"):
            return self._wrap_lincomb(fn, code)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _wrap_lincomb(self, fn, code: int):
        """Span plus rejection accounting: samples returned and rounds spent."""
        tracer = self
        timeout = self._sq_access.Timeout

        @functools.wraps(fn)
        def wrapper(session, coeffs, request, *args, **kwargs):
            kind = request if isinstance(request, str) else request[0]
            sid = tracer._open(code)
            try:
                result = fn(session, coeffs, request, *args, **kwargs)
            except timeout:
                if kind in _REJECTION_KINDS:
                    tracer._count_timeout(fn, session, coeffs, request)
                raise
            finally:
                tracer._close(sid)
            if kind in _REJECTION_KINDS:
                tracer.rejection_samples += 1
                tracer.rejection_rounds += result[0].rounds
            return result
        return wrapper

    def _count_timeout(self, fn, session, coeffs, request) -> None:
        self.rejection_timeouts += 1
        if fn.__name__ == "lincomb_b_access":
            # a timed-out draw spent its whole round cap (the cap is public)
            args = (request,) if isinstance(request, str) else request
            delta = args[1] if len(args) > 1 else self._comm_sim.DEFAULT_REJECTION_DELTA
            phi = self._originals["lincomb_b_phi"](session, coeffs)
            self.rejection_rounds += self._sq_access.rejection_round_cap(phi, delta)

    def drain_sessions(self) -> None:
        """Add the transcripts of the sessions built so far to the totals and
        drop the sessions; called after each traced pass, once the originals
        are back, so the sessions do not pile up."""
        for session in self.sessions:
            report = self._comm_sim.meter_report(session)
            self.meter_totals["messages"] += report.n_messages
            self.meter_totals["bits"] += report.total_bits
            self.meter_totals["entries"] += len(session.meter.entries)
        self.sessions.clear()

    def __enter__(self):
        wrappers = {id(fn): self._wrap(layer, fn) for layer, fn in self.targets}
        for module_name, module in list(sys.modules.items()):
            if module_name != "sqcomm" and not module_name.startswith("sqcomm."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    # --- results ---------------------------------------------------------------

    def arrays(self) -> dict:
        code = np.asarray(self.code, dtype=np.int32)
        parent = np.asarray(self.parent, dtype=np.int64)
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return {"code": code, "parent": parent, "start": start, "dur": dur,
                "self": dur - covered}

    def layer_stats(self) -> dict:
        """Per layer: calls, self seconds, and the calls and seconds of its
        outermost spans (those whose parent is in another layer)."""
        a = self.arrays()
        layer_ids = {layer: i for i, layer in enumerate(sorted(set(self.layer_of)))}
        span_layer = np.asarray([layer_ids[x] for x in self.layer_of],
                                dtype=np.int64)[a["code"]]
        parent_layer = np.where(a["parent"] >= 0, span_layer[np.maximum(a["parent"], 0)], -1)
        outer = parent_layer != span_layer
        size = len(layer_ids)
        calls = np.bincount(span_layer, minlength=size)
        self_s = np.bincount(span_layer, weights=a["self"], minlength=size)
        outer_calls = np.bincount(span_layer[outer], minlength=size)
        total_s = np.bincount(span_layer[outer], weights=a["dur"][outer], minlength=size)
        per_name_total = np.bincount(a["code"], weights=a["dur"], minlength=len(self.names))
        stats = {layer: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                         "outer_calls": int(outer_calls[i]), "total_s": float(total_s[i])}
                 for layer, i in layer_ids.items()}
        stats["_by_name_total_s"] = dict(zip(self.names, map(float, per_name_total)))
        return stats

    def write(self, path) -> None:
        a = self.arrays()
        np.savez(path, names=np.asarray(self.names), code=a["code"], parent=a["parent"],
                 start=a["start"], dur=a["dur"])


def check_coverage(workload: str, stats: dict) -> None:
    for layer in MUST_MOVE[workload]:
        if stats.get(layer, {}).get("calls", 0) <= 0:
            raise CoverageError(f"{workload}: layer {layer} recorded no calls")


def per_layer_metrics(tracer: Tracer, stats: dict, passes: int) -> dict:
    """Per-pass layer metrics from the layer stats and hooks of `passes` traced passes."""
    values = {}
    for name, (layer, stat) in LAYER_METRICS.items():
        s = stats.get(layer, {"calls": 0, "self_s": 0.0, "outer_calls": 0, "total_s": 0.0})
        if stat == "us_per_call":
            values[name] = 1e6 * s["total_s"] / s["outer_calls"] if s["outer_calls"] else 0.0
        elif stat == "calls":
            values[name] = s["calls"] / passes
        else:
            values[name] = s[stat] / passes
    by_name = stats["_by_name_total_s"]
    for experiment in SUITE_EXPERIMENTS:
        values[f"harness.experiment_s.{experiment}"] = (
            by_name.get(f"harness.experiment.{experiment}", 0.0) / passes)
    rounds = tracer.rejection_rounds
    values["comm_sim.rejection.accept_ratio"] = (
        tracer.rejection_samples / rounds if rounds else 0.0)
    values["comm_sim.rejection.samples"] = tracer.rejection_samples / passes
    values["comm_sim.rejection.rounds"] = rounds / passes
    values["comm_sim.rejection.timeouts"] = tracer.rejection_timeouts / passes
    totals = tracer.meter_totals
    values["comm_sim.messages"] = totals["messages"] / passes
    values["comm_sim.transcript_entries"] = totals["entries"] / passes
    values["comm_sim.bits_total"] = totals["bits"] / passes
    return values
