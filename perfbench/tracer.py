"""In-memory span tracer for the traced benchmark run.

`Tracer.install` wraps the library functions listed in TARGETS.  A
module-level function is replaced in every `ellt` module that binds it,
so callers that imported it by name (`tmodel.kernel_and_image`,
`sheafside.matrix_rank`, `curvefield.poly_gcd`, ...) are traced too; a
method is replaced on its class.  `Tracer.restore` puts every original
back.  Each call records a span (name, start, end, parent span, job id)
and feeds per-group totals: calls, time of outermost calls, and self time
(duration minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import Counter

# (module, attribute path, group): a group is the layer metric the span feeds
TARGETS = (
    ("curvefield", "QuotientWindow.__init__", "curvefield.quotient_window"),
    ("curvefield", "CycCache.rr_basis", "curvefield.rr_basis"),
    ("curvefield", "CycCache.t_star", "curvefield.t_star"),
    ("curvefield", "CycCache.validate_coordinate", "curvefield.validate_coordinate"),
    ("curvefield", "CycCache.psi", "curvefield.psi"),
    ("curvefield", "expand_at_e", "curvefield.expand"),
    ("curvefield", "residue_along", "curvefield.residue"),
    ("curvefield", "residue_at_e", "curvefield.residue"),
    ("eatheory", "EllipticGroupData.window", "eatheory.window"),
    ("eatheory", "_EllipticAssembly.block_matrix", "eatheory.block_matrix"),
    ("eatheory", "EATheory.__init__", "eatheory.construct"),
    ("tmodel", "QWindow.__init__", "tmodel.qwindow"),
    ("exactcore", "rref", "exactcore.rref"),
    ("exactcore", "kernel_and_image", "exactcore.rref"),
    ("exactcore", "matrix_rank", "exactcore.rank"),
    ("exactcore", "series_reciprocal", "exactcore.series"),
    ("exactcore", "LaurentSeries.__mul__", "exactcore.series"),
    ("exactcore", "LaurentSeries.__pow__", "exactcore.series"),
    ("exactcore", "poly_gcd", "exactcore.poly_gcd"),
    ("sheafside", "sections", "sheafside.sections"),
    ("sheafside", "_span_rows", "sheafside.span_rows"),
    ("sheafside", "ma_eval", "sheafside.ma_eval"),
    ("affinegroups", "affine_sphere_module", "affinegroups.assembly"),
    ("affinegroups", "AffineGroup.euler_class", "affinegroups.assembly"),
    ("affinegroups", "_AffineAssembly.__init__", "affinegroups.assembly"),
    ("affinegroups", "_AffineAssembly.block_matrix", "affinegroups.assembly"),
    ("affinegroups", "AffineGroup.phi", "affinegroups.phi"),
    ("cli", "_make_theory", "cli.theory_build"),
    ("cli", "load_config", "cli.config"),
    ("cli", "_write_output", "cli.write"),
)

# spans kept for the trace file; totals keep counting past this
MAX_SPANS = 200_000

ORIGINAL = "__perfbench_original__"
PACKAGE = "ellt"


def library_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def leftover_wrappers() -> list[str]:
    """Names of library attributes that are still tracing wrappers."""
    found = []
    for module in library_modules():
        for name, value in vars(module).items():
            if hasattr(value, ORIGINAL):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found += [f"{module.__name__}.{name}.{k}"
                          for k, v in vars(value).items() if hasattr(v, ORIGINAL)]
    return found


class Tracer:
    def __init__(self):
        self.job = None
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls = Counter()
        self.outer = Counter()  # seconds in calls not nested in the same group
        self.self_time = Counter()
        self.counts = Counter()  # hook counters: hits, repeats, entries
        self._stack: list[list] = []
        self._depth = Counter()
        self._seen_divisors: set = set()
        self._patches: list[tuple] = []
        self._ids = itertools.count()
        self.origin = time.perf_counter()

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        modules = library_modules()
        for module_name, path, group in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            name = f"{module_name}.{path}"
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, self._wrap(name, group, owner.__dict__[attr]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, group, original)
            for other in modules:
                if other.__dict__.get(attr) is original:
                    self._patch(other, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(wrapper, ORIGINAL)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording ------------------------------------------------------

    def _wrap(self, name: str, group: str, fn):
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth
        hook = getattr(self, "_hook_" + group.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [next(self._ids), group, clock(), 0.0, set()]
            stack.append(frame)
            depth[group] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[group] -= 1
                self._close(name, group, frame, end)
            if hook is not None:
                hook(args, frame)
            return result

        setattr(wrapper, ORIGINAL, fn)
        return wrapper

    def _close(self, name: str, group: str, frame: list, end: float) -> None:
        span_id, _, start, child_time, _ = frame
        duration = end - start
        self.calls[group] += 1
        self.self_time[group] += duration - child_time
        if self._depth[group] == 0:
            self.outer[group] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
            parent[4].add(group)
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start - self.origin, end - self.origin,
                               parent[0] if parent is not None else None, self.job))
        else:
            self.dropped += 1

    def _hook_eatheory_window(self, args, frame) -> None:
        if "curvefield.quotient_window" not in frame[4]:
            self.counts["window_hits"] += 1

    def _hook_tmodel_qwindow(self, args, frame) -> None:
        matrix = args[0].matrix
        if matrix is not None:
            self.counts["matrix_entries"] += matrix.rows * matrix.cols

    def _hook_curvefield_rr_basis(self, args, frame) -> None:
        key = tuple(sorted(args[1].coeffs.items()))
        if key in self._seen_divisors:
            self.counts["rr_basis_repeats"] += 1
        self._seen_divisors.add(key)

    # -- results --------------------------------------------------------

    def layer_metrics(self, jobs: int) -> dict:
        """Per-job layer figures, keyed by metric name, as (value, unit)."""
        per_job = max(jobs, 1)

        def ms(group):
            return (1000.0 * self.outer[group] / per_job, "ms/job")

        def count(group):
            return (self.calls[group] / per_job, "count/job")

        def ratio(part, whole):
            return (part / whole if whole else 0.0, "ratio")

        return {
            "curvefield.quotient_window_ms": ms("curvefield.quotient_window"),
            "curvefield.quotient_windows": count("curvefield.quotient_window"),
            "eatheory.block_matrix_ms": ms("eatheory.block_matrix"),
            "eatheory.window_calls": count("eatheory.window"),
            "eatheory.window_hit_ratio": ratio(self.counts["window_hits"],
                                               self.calls["eatheory.window"]),
            "tmodel.qwindow_self_ms": (1000.0 * self.self_time["tmodel.qwindow"] / per_job,
                                       "ms/job"),
            "tmodel.qwindows": count("tmodel.qwindow"),
            "tmodel.matrix_entries": (self.counts["matrix_entries"] / per_job, "count/job"),
            "exactcore.rref_ms": ms("exactcore.rref"),
            "curvefield.rr_basis_ms": ms("curvefield.rr_basis"),
            "curvefield.rr_basis_calls": count("curvefield.rr_basis"),
            "curvefield.rr_basis_repeat_ratio": ratio(self.counts["rr_basis_repeats"],
                                                      self.calls["curvefield.rr_basis"]),
            "curvefield.t_star_ms": ms("curvefield.t_star"),
            "sheafside.sections_ms": ms("sheafside.sections"),
            "sheafside.span_rows_ms": ms("sheafside.span_rows"),
            "sheafside.ma_eval_ms": ms("sheafside.ma_eval"),
            "exactcore.rank_ms": ms("exactcore.rank"),
            "eatheory.construct_ms": ms("eatheory.construct"),
            "curvefield.validate_coordinate_ms": ms("curvefield.validate_coordinate"),
            "cli.theory_build_ms": ms("cli.theory_build"),
            "cli.theories_built": count("cli.theory_build"),
            "cli.config_ms": ms("cli.config"),
            "cli.write_ms": ms("cli.write"),
            "curvefield.expand_ms": ms("curvefield.expand"),
            "exactcore.series_ms": ms("exactcore.series"),
            "curvefield.residue_ms": ms("curvefield.residue"),
            "curvefield.psi_ms": ms("curvefield.psi"),
            "affinegroups.assembly_ms": ms("affinegroups.assembly"),
            "affinegroups.phi_ms": ms("affinegroups.phi"),
            "exactcore.poly_gcd_ms": ms("exactcore.poly_gcd"),
            "exactcore.poly_gcd_calls": count("exactcore.poly_gcd"),
            "trace.spans": ((len(self.spans) + self.dropped) / per_job, "count/job"),
        }

    def write(self, path: str) -> None:
        """Spans as JSON: times in seconds from tracer creation."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent", "job"],
                       "dropped": self.dropped, "spans": self.spans}, fh)
            fh.write("\n")
