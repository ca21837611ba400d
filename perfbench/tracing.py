"""Span tracing around the library's public functions, installed from outside.

``install`` rebinds each traced function to a wrapper in its own module and
in every module that imported it by name (``kernels.apply_matrix`` is
``counting.apply_matrix``), so no library file changes.  Each call records
a span ``[label, start, end, parent span, op id]`` in memory; the spans are
written out after the run, and the per-layer metrics are derived from them:
``calls``, ``busy_s`` (summed span time) and ``self_s`` (span time minus
the time covered by its child spans).
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

from bilinear_kernels import (cli, counting, extraction, groups, kernels, spectral,
                              structures, tensorlab)
from bilinear_kernels.rng import Lcg

LAYERS = ("rng", "cli", "structures", "counting", "spectral", "kernels", "extraction",
          "tensorlab", "groups", "bench")
# The spectral transform caches, held before install() rebinds their names.
SPECTRAL_CACHES = tuple(getattr(spectral, name) for name in (
    "root_table", "dft_matrix", "idft_matrix", "scaled_dft_matrix", "scaled_idft_matrix"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.amounts: dict[str, int] = defaultdict(int)
        self.cells: dict[int, str] = {}
        self.contexts: list = []

    def wrap(self, label: str, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                note(self, idx, args, result)
            return result
        return traced

    def run_op(self, op_id: int, op):
        """Run one benchmark op as the root span ``bench.op``."""
        self.op = op_id
        return self.wrap("bench.op", op)()

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("label,start_us,end_us,parent,op\n")
            for label, start, end, parent, op in self.spans:
                fh.write(f"{label},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f},"
                         f"{parent},{op}\n")


# ---------------------------------------------------------------------------
# What is traced, and the work counts noted at each boundary
# ---------------------------------------------------------------------------

def _add(key, amount_of):
    def note(tracer, idx, args, result):
        tracer.amounts[key] += amount_of(args, result)
    return note


def _kernel_cell(tracer, idx, args, result):
    M = args[0]
    tracer.cells[idx] = f"{M.kind.value}.n{M.n}"


TARGETS = (
    (Lcg, "complex_vector", "rng.complex_vector",
     _add("rng.complex_vector.values", lambda a, r: a[1])),
    (cli, "random_structured", "cli.random_structured", None),
    (cli, "random_pattern", "cli.random_pattern", None),
    (structures, "structured", "structures.structured", None),
    (structures, "naive_matvec", "structures.naive_matvec", None),
    (structures, "dense_parts", "structures.dense_parts", None),
    (structures, "basis", "structures.basis", None),
    (counting, "variables", "counting.variables", None),
    (counting, "as_vector", "counting.as_vector", None),
    (counting, "to_scalars", "counting.to_scalars", None),
    (counting, "apply_matrix", "counting.apply_matrix",
     _add("counting.apply_matrix.bytes",
          lambda a, r: a[0].nbytes + a[1].values.nbytes + r.values.nbytes)),
    (counting, "vmul", "counting.vmul", None),
    (spectral, "dft_matrix", "spectral.dft_matrix", None),
    (spectral, "idft_matrix", "spectral.idft_matrix", None),
    (spectral, "scaled_dft_matrix", "spectral.scaled_dft_matrix", None),
    (spectral, "scaled_idft_matrix", "spectral.scaled_idft_matrix", None),
    (kernels, "structured_matvec", "kernels.structured_matvec", _kernel_cell),
    (kernels, "formula_count", "kernels.formula_count", None),
    # The recorder's pointwise product runs inside counting.vmul; its own
    # span keeps the extraction lane's work out of vmul's self time.
    (extraction._Recorder, "pointwise", "extraction.pointwise", None),
    (extraction, "extract_decomposition", "extraction.extract_decomposition",
     _add("extraction.terms", lambda a, r: len(r.terms))),
    (extraction, "level_decomposition", "extraction.level_decomposition", None),
    (tensorlab, "structure_tensor", "tensorlab.structure_tensor",
     _add("tensorlab.tensor_bytes", lambda a, r: r.entries.nbytes)),
    (tensorlab, "verify_decomposition", "tensorlab.verify_decomposition", None),
    (tensorlab, "flattening_ranks", "tensorlab.flattening_ranks", None),
    (groups, "blocked_simultaneous", "groups.blocked_simultaneous", None),
)


def install(tracer: Tracer) -> None:
    """Rebind every target, wherever the library holds it by name, and count
    every CountContext created from now on."""
    modules = [m for name, m in sys.modules.items()
               if name == "bilinear_kernels" or name.startswith("bilinear_kernels.")]
    for owner, attr, label, note in TARGETS:
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(label, orig, note)
        setattr(owner, attr, wrapped)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, name, wrapped)

    init = counting.CountContext.__init__

    def counted_init(ctx, *args, **kwargs):
        init(ctx, *args, **kwargs)
        tracer.contexts.append(ctx)
    counting.CountContext.__init__ = counted_init


def spectral_cache_info() -> tuple[int, int]:
    """(entries, misses) summed over the spectral transform caches."""
    infos = [cache.cache_info() for cache in SPECTRAL_CACHES]
    return sum(i.currsize for i in infos), sum(i.misses for i in infos)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

SPAN_STATS = {
    "rng.complex_vector": ("calls", "busy_s"),
    "structures.naive_matvec": ("calls", "busy_s", "self_s"),
    "structures.dense_parts": ("calls", "busy_s", "self_s"),
    "structures.structured": ("calls", "busy_s", "self_s"),
    "counting.apply_matrix": ("calls", "busy_s", "self_s"),
    "counting.vmul": ("calls", "busy_s", "self_s"),
    "counting.as_vector": ("calls", "busy_s", "self_s"),
    "counting.to_scalars": ("calls", "busy_s", "self_s"),
    "kernels.structured_matvec": ("self_s",),
    "extraction.extract_decomposition": ("calls", "busy_s"),
    "extraction.level_decomposition": ("calls", "busy_s"),
    "tensorlab.structure_tensor": ("busy_s",),
    "tensorlab.verify_decomposition": ("busy_s",),
    "tensorlab.flattening_ranks": ("busy_s",),
    "groups.blocked_simultaneous": ("calls", "busy_s"),
}
AMOUNTS = ("rng.complex_vector.values", "counting.apply_matrix.bytes", "extraction.terms",
           "tensorlab.tensor_bytes")
COUNTERS = ("bilinear_mults", "scalar_mults", "additions", "divisions")


def layer_metrics(tracer: Tracer, kernel_cells) -> dict[str, float]:
    """Every per-layer metric of the traced run, by name."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for label, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    cell_times: dict[str, list[float]] = defaultdict(list)
    for idx, (label, start, end, parent, _) in enumerate(spans):
        dur = end - start
        calls[label] += 1
        busy[label] += dur
        own[label] += dur - covered[idx]
        layer_self[label.split(".", 1)[0]] += dur - covered[idx]
        if idx in tracer.cells:
            cell_times[tracer.cells[idx]].append(dur)

    out: dict[str, float] = {}
    for label, stats in SPAN_STATS.items():
        table = {"calls": calls, "busy_s": busy, "self_s": own}
        for stat in stats:
            out[f"{label}.{stat}"] = table[stat][label]
    for key in AMOUNTS:
        out[key] = tracer.amounts[key]
    for name in COUNTERS:
        out[f"counting.{name}"] = sum(getattr(ctx, name) for ctx in tracer.contexts)
    out["spectral.cache.entries"], out["spectral.cache.misses"] = spectral_cache_info()
    for kind, n in kernel_cells:
        times = cell_times[f"{kind}.n{n}"]
        out[f"kernels.{kind}.n{n}.p50_us"] = statistics.median(times) * 1e6 if times else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out
