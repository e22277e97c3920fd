"""Span tracing of the package's public functions, from the benchmark's side.

``Tracer.install`` replaces each wrapped function by a recording wrapper in
every loaded ``realshadows`` module that binds it (modules import each other's
functions by name, so patching only the defining module would miss calls).
A span records name, start, end, parent and a few work counts taken from the
call's arguments or result.  Self time is a span's duration minus that of its
direct children.  Spans stay in memory; per-unit metrics are derived from
them after each unit.

A wrapped name that the package no longer has (renamed or deleted by a later
change) is skipped and listed in ``missing``; metrics that depend on it are
reported as absent instead of crashing the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import Counter

MODULES = ("sampling", "engine", "channels", "variance", "commutant", "bases", "cli")

#: Functions wrapped per module.  linalg and pauli are leaf helpers: their time
#: is part of their callers' self time.
WRAPPED = {
    "sampling": (
        "sample_transform_arrays", "sample_transforms", "sample_transform",
        "haar_unitaries", "haar_orthogonals", "haar_unitary", "haar_orthogonal",
        "haar_state_vector", "random_pure_state", "real_clifford_1q",
    ),
    "engine": (
        "collect_records", "simulate_measurement", "per_shot_estimates", "estimate",
        "median_of_means", "run_experiment", "build_state", "build_observable",
        "write_reports_csv", "_has_invisible_component",
    ),
    "channels": (
        "channel_for", "apply_channel", "pseudo_inverse", "visible_projector",
        "visible_dimension", "mc_channel",
    ),
    "variance": (
        "predict_variance", "var_global_real", "var_global_unitary", "var_global_alpha",
        "var_local_pauli_exact", "bound_local", "random_symmetric_observable",
        "ratio_instance", "ratio_sweep", "write_ratio_csv",
    ),
    "commutant": ("commutant_basis", "twirl_project", "closed_form_twirl", "mc_twirl"),
    "bases": ("basis_from_tag", "computational_basis", "sh_basis", "random_basis", "reality"),
    "cli": (
        "main", "cmd_estimate", "cmd_validate_channel", "cmd_validate_twirl",
        "cmd_validate_variance", "cmd_ratio_sweep",
    ),
}

#: The span whose allocations the memory unit measures with tracemalloc.
MEMORY_SPAN = "engine.collect_records"


def _batch_count(_args, result):
    return {"count": int(result.shape[0])}


def _collect_info(_args, result):
    arrays = [v for v in vars(result).values() if hasattr(v, "nbytes")]
    return {"shots": len(result), "bytes": sum(int(a.nbytes) for a in arrays)}


def _estimate_info(args, result):
    records, observable = args["records"], args["observable"]
    scope = records.spec.scope
    local_pauli = type(observable).__name__ == "PauliString" and scope == "local"
    return {"shots": int(result.shape[0]), "path": "pauli_local" if local_pauli else "dense"}


def _samples_info(args, _result):
    return {"samples": int(args["samples"])}


#: Work counts recorded per span; a failing extractor leaves the span without them.
EXTRACTORS = {
    "sampling.sample_transform_arrays": _batch_count,
    "sampling.haar_unitaries": _batch_count,
    "sampling.haar_orthogonals": _batch_count,
    "engine.collect_records": _collect_info,
    "engine.per_shot_estimates": _estimate_info,
    "channels.mc_channel": _samples_info,
    "commutant.mc_twirl": _samples_info,
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "info", "peak")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info: dict | None = None
        self.peak: int | None = None

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.errors: Counter = Counter()
        self.missing: list[str] = []
        self.measure_memory = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, tuple[object, object]] = {}
        for module, names in WRAPPED.items():
            mod = sys.modules.get(f"realshadows.{module}")
            for fname in names:
                original = getattr(mod, fname, None)
                name = f"{module}.{fname}"
                if callable(original):
                    self._wrappers[name] = (original, self._wrap(name, original))
                else:
                    self.missing.append(name)

    def wrapped(self, name: str) -> bool:
        return name in self._wrappers

    def _wrap(self, name: str, fn):
        extract = EXTRACTORS.get(name)
        signature = inspect.signature(fn) if extract else None
        module = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            memory = self.measure_memory and name == MEMORY_SPAN
            if memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if memory:
                    span.peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if extract is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.info = extract(bound.arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    span.info = None
            return result

        return traced

    def install(self) -> None:
        """Bind every wrapper in place of its original in all package modules."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "realshadows" or key.startswith("realshadows."))
        ]
        by_id = {id(orig): wrapper for orig, wrapper in self._wrappers.values()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, value))

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, value = self._undo.pop()
            setattr(mod, attr, value)

    def reset(self) -> None:
        self.spans.clear()
        self.errors.clear()


def _sum(spans) -> float:
    return sum(s.duration for s in spans)


def _info_sum(spans, field: str) -> int | None:
    values = [s.info.get(field) if s.info else None for s in spans]
    if not values or any(v is None for v in values):
        return None
    return sum(values)


def _rate(seconds: float, work: int | None, scale: float) -> float | None:
    return None if not work else seconds / work * scale


def unit_metrics(tracer: Tracer, unit_wall: float) -> dict[str, float | None]:
    """Per-layer metrics of one traced unit; None marks an absent metric."""
    spans = tracer.spans
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    self_time = [s.duration - _sum(children.get(i, ())) for i, s in enumerate(spans)]
    named: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        named.setdefault(span.name, []).append(i)

    def of(*names):
        return [spans[i] for n in names for i in named.get(n, ())]

    def total_ms(name):
        calls = of(name)
        return _sum(calls) * 1e3 if calls else None

    def calls(name):
        return len(of(name)) if tracer.wrapped(name) else None

    m: dict[str, float | None] = {}
    for module in MODULES:
        m[f"{module}.self_ms"] = 1e3 * sum(t for s, t in zip(spans, self_time) if s.module == module)
        m[f"{module}.calls"] = sum(1 for s in spans if s.module == module)
        m[f"{module}.errors"] = tracer.errors[module]

    collect = named.get("engine.collect_records", [])
    born = sum(
        spans[i].duration - _sum(c for c in children.get(i, ()) if c.module == "sampling")
        for i in collect
    )
    shots = _info_sum([spans[i] for i in collect], "shots")
    m["engine.born_us_per_shot"] = _rate(born, shots, 1e6)
    m["engine.born_share"] = born / unit_wall if collect else None
    nbytes = _info_sum([spans[i] for i in collect], "bytes")
    m["engine.records_mib"] = None if not nbytes else nbytes / 2**20

    estimates = of("engine.per_shot_estimates")
    m["engine.estimate_us_per_shot_obs"] = _rate(_sum(estimates), _info_sum(estimates, "shots"), 1e6)
    for path in ("pauli_local", "dense"):
        part = [s for s in estimates if s.info and s.info.get("path") == path]
        m[f"engine.estimate_{path}_us"] = _rate(_sum(part), _info_sum(part, "shots"), 1e6)
    m["engine.per_shot_estimates_calls"] = calls("engine.per_shot_estimates")
    m["engine.build_observable_calls"] = calls("engine.build_observable")
    m["engine.invisible_check_calls"] = calls("engine._has_invisible_component")
    m["engine.build_state_ms"] = total_ms("engine.build_state")

    transforms = of("sampling.sample_transform_arrays")
    m["sampling.transform_us_per_shot"] = _rate(
        _sum(transforms), _info_sum(transforms, "count"), 1e6
    )
    haar = of("sampling.haar_unitaries", "sampling.haar_orthogonals")
    m["sampling.haar_us_per_matrix"] = _rate(_sum(haar), _info_sum(haar, "count"), 1e6)

    for name in ("channels.pseudo_inverse", "channels.visible_projector", "variance.predict_variance"):
        m[f"{name}_ms"] = total_ms(name)
        m[f"{name}_calls"] = calls(name)
    for name in ("channels.mc_channel", "commutant.mc_twirl"):
        runs = of(name)
        m[f"{name}_us_per_sample"] = _rate(_sum(runs), _info_sum(runs, "samples"), 1e6)
    m["commutant.twirl_project_ms"] = total_ms("commutant.twirl_project")
    ratio = of("variance.ratio_instance")
    m["variance.ratio_instance_us"] = _rate(_sum(ratio), len(ratio), 1e6)
    m["bases.basis_from_tag_ms"] = total_ms("bases.basis_from_tag")
    writes = of("engine.write_reports_csv", "variance.write_ratio_csv")
    m["cli.artifact_write_ms"] = _sum(writes) * 1e3 if writes else None

    m["trace.self_sum_ms"] = 1e3 * sum(self_time)
    m["trace.unit_wall_ms"] = 1e3 * unit_wall
    return m


def memory_metrics(tracer: Tracer) -> dict[str, float | None]:
    peaks = [s.peak for s in tracer.spans if s.peak is not None]
    return {"engine.collect_peak_mib": max(peaks) / 2**20 if peaks else None}
