"""Outside-in per-layer tracing for the traced run.

The solver looks up its collaborators (the ``dist`` kernels, the update
helpers, the step-size and weight rules, the residual check and the
classifier) as globals of ``qcqpd.core`` at call time.  :meth:`Tracer.patch`
swaps each of those globals for a timing wrapper and restores the
originals on exit, so nothing under ``src/`` changes.  A name the module no
longer has is recorded as absent and skipped; its work then shows up in the
self time of ``solve``.

Spans are aggregated as they close rather than stored: for each span name
the tracer keeps its call count and its self time (duration minus the time
of the spans opened inside it), so the self times of all spans opened
inside a ``solve`` span add up to that span's duration.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter

import numpy as np

# qcqpd.core global -> layer metric prefix.
WRAPPED = {
    "dist_matvec": "dist.matvec",
    "dist_dot": "dist.dot",
    "dist_transpose_matvec": "dist.transpose_matvec",
    "compute_step_size": "core.step_size",
    "update_epsilons": "core.weights",
    "update_weights": "core.weights",
    "gradient_x": "core.updates",
    "gradient_u": "core.updates",
    "dual_predictor": "core.updates",
    "dual_corrector": "core.updates",
    "primal_predictor_x": "core.updates",
    "primal_corrector_x": "core.updates",
    "primal_predictor_u": "core.updates",
    "primal_corrector_u": "core.updates",
    "compute_residuals": "diagnostics.residuals",
    "classify_termination": "diagnostics.classify",
    "compute_norms": "model.compute_norms",
}
# Kernels whose matrix argument is streamed once per call.
_MATRIX_KERNELS = ("dist_matvec", "dist_transpose_matvec")
SOLVE_SPAN = "core.solve"


def matrix_bytes(M):
    """Bytes of the stored matrix: the dense buffer, or CSC data plus indices."""
    if type(M) is np.ndarray:
        return M.nbytes
    return M.data.nbytes + M.indices.nbytes + M.indptr.nbytes


def matrix_flops(M):
    """Multiply-adds of one product with ``M``, counted as two flops each."""
    return 2 * (M.size if type(M) is np.ndarray else M.nnz)


class Tracer:
    """Self time and call counts per span name, plus computed kernel traffic."""

    def __init__(self):
        # name -> [self seconds, span seconds, calls, matrix bytes, flops]
        self._slots = {}
        self._open = []  # inner-span seconds of each open span
        self._matrices = {}  # id -> (matrix, bytes, flops); the reference pins the id
        self.absent = []

    def _timed(self, name, fn, streams_matrix=False):
        """``fn`` wrapped in a span called ``name``.

        With ``streams_matrix`` the first argument is a matrix, and its
        stored bytes and flops are added to the span's traffic per call.
        """
        slot = self._slots.setdefault(name, [0.0, 0.0, 0, 0, 0])
        open_spans = self._open
        matrices = self._matrices

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if streams_matrix:
                M = args[0]
                entry = matrices.get(id(M))
                if entry is None or entry[0] is not M:
                    entry = matrices[id(M)] = (M, matrix_bytes(M), matrix_flops(M))
                slot[3] += entry[1]
                slot[4] += entry[2]
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                slot[0] += dur - open_spans.pop()
                slot[1] += dur
                slot[2] += 1
                if open_spans:
                    open_spans[-1] += dur

        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self._timed(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def patch(self, module):
        """Wrap every :data:`WRAPPED` global of ``module`` for the duration."""
        saved = {}
        self.absent = [attr for attr in WRAPPED if not hasattr(module, attr)]
        try:
            for attr in WRAPPED:
                if attr in self.absent:
                    continue
                saved[attr] = getattr(module, attr)
                setattr(module, attr, self._timed(attr, saved[attr], attr in _MATRIX_KERNELS))
            yield self
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def self_s(self):
        """Self seconds per span name."""
        return {name: slot[0] for name, slot in self._slots.items()}

    def span_s(self, name):
        """Summed duration of the spans called ``name``."""
        return self._slots.get(name, [0.0, 0.0, 0])[1]

    def calls(self):
        """Closed spans per span name."""
        return {name: slot[2] for name, slot in self._slots.items()}

    def matrix_bytes(self):
        """Stored matrix bytes streamed by the matrix kernels, summed over calls."""
        return sum(slot[3] for slot in self._slots.values())

    def flops(self):
        """Flops of the matrix kernels, summed over calls."""
        return sum(slot[4] for slot in self._slots.values())

    def layer_seconds(self):
        """Self seconds summed per layer metric prefix, ``core.self`` included."""
        own = self.self_s()
        out = dict.fromkeys(WRAPPED.values(), 0.0)
        for attr, layer in WRAPPED.items():
            out[layer] += own.get(attr, 0.0)
        out["core.self"] = own.get(SOLVE_SPAN, 0.0)
        return out
