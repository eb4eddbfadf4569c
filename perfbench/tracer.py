"""Outside-in tracer for targetcal's public functions.

The tracer replaces each traced function with a wrapper in every targetcal
module that holds it by name, so calls made through `from .data import
check_full_rank` style imports are caught as well as module-qualified ones.
Each call records a span (name, start, end, parent); a span's self time is
its duration minus the time covered by its child spans. Nothing under
`src/` is modified: uninstall() puts every original binding back.

`self_check()` runs a tiny fixed input under both the tracer and a
`sys.setprofile` hook that counts calls by code object. The profiler sees
every call however the function was reached, so a binding the tracer missed
shows up as a count mismatch and fails the run instead of under-reporting.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

PROBLEM_TYPES = ("sampling", "transport", "fusion", "ate")
ESTIMATOR_KINDS = ("UNADJ", "GCOMP", "TMLE", "AUG_T", "AUG_F", "CAL_T", "CAL_F", "CBPS")
ERROR_CLASSES = ("NotConvergedError", "RankDeficientError", "SingularJacobianError")

# (module, function, span name). Several functions may share a span name;
# their times are summed.
SPANS = (
    ("targetcal.sim", "generate", "sim.generate"),
    ("targetcal.sim", "true_tau", "sim.true_tau"),
    ("targetcal.data", "build_balance_matrix", "data.build_balance_matrix"),
    ("targetcal.data", "target_moments", "data.target_moments"),
    ("targetcal.data", "check_full_rank", "data.check_full_rank"),
    ("targetcal.data", "standardized_mean_differences", "data.standardized_mean_differences"),
    ("targetcal.data", "effective_sample_size", "data.effective_sample_size"),
    ("targetcal.data", "read_csv_columns", "data.read_csv_columns"),
    ("targetcal.data", "export_scores", "data.export_scores"),
    ("targetcal.glm", "fit_logistic", "glm.fit_logistic"),
    ("targetcal.glm", "fit_linear", "glm.fit_linear"),
    ("targetcal.solver", "solve_entropy_dual", "solver.solve"),
    ("targetcal.estimators", "compute_tau", "estimators.compute_tau"),
    ("targetcal.inference", "estimate_with_ci", "inference.estimate_with_ci"),
    ("targetcal.inference", "sandwich_variance_transport", "inference.sandwich"),
    ("targetcal.inference", "sandwich_variance_fusion", "inference.sandwich"),
    ("targetcal.inference", "influence_variance", "inference.influence_variance"),
    ("targetcal.inference", "descriptive_variance", "inference.descriptive_variance"),
    ("targetcal.cli", "main", "cli.main"),
)

# Constraint assemblies whose returned problems are tagged with their type,
# so each solve can be attributed to sampling, transport, fusion or ate.
ASSEMBLIES = (
    ("targetcal.solver", "assemble_sampling", "sampling"),
    ("targetcal.solver", "assemble_transport", "transport"),
    ("targetcal.solver", "assemble_fusion", "fusion"),
    ("targetcal.solver", "assemble_ate_benchmark", "ate"),
)


def layer_metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for t in PROBLEM_TYPES:
        names += [f"solver.solve.{t}.calls", f"solver.solve.{t}.self_s",
                  f"solver.solve.{t}.iterations_p50"]
    names += ["solver.solve.failed", "solver.solve.failed_self_s",
              "solver.solve.converged_ratio", "solver.runtime_warnings",
              "runtime_warnings.other",
              "glm.fit_logistic.calls", "glm.fit_logistic.self_s",
              "glm.fit_logistic.separated", "glm.fit_logistic.not_converged",
              "glm.fit_linear.calls", "glm.fit_linear.self_s",
              "data.check_full_rank.calls", "data.check_full_rank.self_s",
              "data.standardized_mean_differences.calls",
              "data.standardized_mean_differences.self_s",
              "data.build_balance_matrix.self_s",
              "data.read_csv_columns.self_s", "data.export_scores.self_s",
              "inference.sandwich.self_s", "inference.influence_variance.self_s",
              "inference.descriptive_variance.self_s"]
    names += [f"inference.estimate_with_ci.{k}.s" for k in ESTIMATOR_KINDS]
    names += [f"inference.estimate_with_ci.failed.{e}" for e in ERROR_CLASSES]
    names += ["inference.estimate_with_ci.failed.other",
              "sim.generate.calls", "sim.generate.self_s", "sim.true_tau.s",
              "estimators.compute_tau.self_s", "cli.main.self_s", "trace.overhead_s"]
    return names


def _targetcal_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "targetcal" or name.startswith("targetcal."))]


class Tracer:
    """Records spans around targetcal's public functions while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, self_s, error, attrs]
        self.missing = []        # traced functions the program no longer has
        self.originals = {}      # original function -> span base name
        self._stack = []         # open span indices
        self._child_time = []    # per open span: time covered by its children
        self._bindings = []      # (module, attribute, original) to restore
        self._tags = {}          # id(problem) -> (problem, type)
        self.warning_counts = Counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("targetcal.cli")  # loads every targetcal module
        for modname, fname, span in SPANS:
            fn = getattr(sys.modules[modname], fname, None)
            if fn is None:
                self.missing.append(f"{modname}.{fname}")
                continue
            self.originals[fn] = span
            self._rebind(fn, self._span_wrapper(fn, span))
        for modname, fname, ptype in ASSEMBLIES:
            fn = getattr(sys.modules[modname], fname, None)
            if fn is None:
                self.missing.append(f"{modname}.{fname}")
                continue
            self._rebind(fn, self._tag_wrapper(fn, ptype))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def _rebind(self, original, wrapper) -> None:
        """Point every targetcal module attribute bound to `original` at `wrapper`."""
        for module in _targetcal_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._bindings.append((module, attr, original))

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, base):
        tracer = self
        namer = {
            "solver.solve": self._solve_name,
            "inference.estimate_with_ci": self._estimate_name,
        }.get(base, lambda args, kwargs: base)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._enter(namer(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(index, error=type(exc).__name__)
                raise
            tracer._exit(index, result=result)
            return result

        return wrapper

    def _tag_wrapper(self, fn, ptype):
        tags = self._tags

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            for problem in result if isinstance(result, tuple) else (result,):
                tags[id(problem)] = (problem, ptype)
            return result

        return wrapper

    def _solve_name(self, args, kwargs) -> str:
        problem = args[0] if args else kwargs.get("problem")
        tagged = self._tags.pop(id(problem), None)
        ptype = tagged[1] if tagged is not None and tagged[0] is problem else "untagged"
        return f"solver.solve.{ptype}"

    @staticmethod
    def _estimate_name(args, kwargs) -> str:
        kind = args[3] if len(args) > 3 else kwargs.get("kind")
        return f"inference.estimate_with_ci.{getattr(kind, 'value', kind)}"

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0, None, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._child_time.append(0.0)
        return index

    def _exit(self, index: int, result=None, error: str | None = None) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        self._stack.pop()
        children = self._child_time.pop()
        duration = end - span[1]
        span[2] = end
        span[4] = duration - children
        span[5] = error
        if self._child_time:
            self._child_time[-1] += duration
        if result is not None:
            if span[0].startswith("solver.solve."):
                span[6] = result.iterations
            elif span[0] == "glm.fit_logistic":
                span[6] = (result.separated, result.converged)

    # -- warnings -----------------------------------------------------------

    @contextlib.contextmanager
    def count_warnings(self):
        """Count numpy overflow/invalid-value warnings by the module that
        raised them, instead of printing the first of each."""
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            warnings.showwarning = self._on_warning
            yield self

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        text = str(message)
        if not ("overflow" in text or "invalid value" in text):
            return
        key = "solver" if Path(filename).name == "solver.py" else "other"
        self.warning_counts[key] += 1

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        calls = Counter()
        self_s = defaultdict(float)
        incl = defaultdict(float)
        iterations = defaultdict(list)
        failed_by_class = Counter()
        separated = not_converged = 0
        solve_failed = 0
        solve_failed_s = 0.0
        for name, start, end, _parent, own, error, attrs in self.spans:
            calls[name] += 1
            self_s[name] += own
            incl[name] += end - start
            if name.startswith("solver.solve."):
                if error is None:
                    iterations[name].append(attrs)
                else:
                    solve_failed += 1
                    solve_failed_s += own
            elif name == "glm.fit_logistic" and attrs is not None:
                separated += attrs[0]
                not_converged += not attrs[1]
            elif name.startswith("inference.estimate_with_ci.") and error is not None:
                key = error if error in ERROR_CLASSES else "other"
                failed_by_class[key] += 1

        out = {}
        solves = 0
        for t in PROBLEM_TYPES:
            name = f"solver.solve.{t}"
            solves += calls[name]
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.iterations_p50"] = (
                statistics.median(iterations[name]) if iterations[name] else 0
            )
        out["solver.solve.failed"] = solve_failed
        out["solver.solve.failed_self_s"] = solve_failed_s
        out["solver.solve.converged_ratio"] = (solves - solve_failed) / solves if solves else 0
        out["solver.runtime_warnings"] = self.warning_counts["solver"]
        out["runtime_warnings.other"] = self.warning_counts["other"]
        for name in ("glm.fit_logistic", "glm.fit_linear", "data.check_full_rank",
                     "data.standardized_mean_differences", "sim.generate"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["glm.fit_logistic.separated"] = separated
        out["glm.fit_logistic.not_converged"] = not_converged
        for name in ("data.build_balance_matrix", "data.read_csv_columns",
                     "data.export_scores", "inference.sandwich",
                     "inference.influence_variance", "inference.descriptive_variance",
                     "estimators.compute_tau", "cli.main"):
            out[f"{name}.self_s"] = self_s[name]
        for kind in ESTIMATOR_KINDS:
            out[f"inference.estimate_with_ci.{kind}.s"] = incl[
                f"inference.estimate_with_ci.{kind}"
            ]
        for key in ERROR_CLASSES + ("other",):
            out[f"inference.estimate_with_ci.failed.{key}"] = failed_by_class[key]
        out["sim.true_tau.s"] = incl["sim.true_tau"]
        return out

    def span_records(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "self_s": own, "error": err}
            for n, s, e, p, own, err, _ in self.spans
        ]


def self_check(exercise) -> dict:
    """Trace `exercise()`, a tiny fixed input, and compare the tracer's call
    counts with counts taken by a profiler hook on the original functions'
    code objects.

    Raises RuntimeError on any mismatch, on a solve whose problem type was
    not tagged (unless an assembly is missing from the program, which the
    result lists), or when the input leaves a traced function uncalled.
    """
    tracer = Tracer()
    tracer.install()
    codes = {fn.__code__: fn for fn in tracer.originals}
    profiled = Counter()

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code in codes:
            profiled[codes[frame.f_code]] += 1

    try:
        sys.setprofile(hook)
        try:
            with tracer.count_warnings():
                exercise()
        finally:
            sys.setprofile(None)
    finally:
        tracer.uninstall()

    traced = Counter(span[0] for span in tracer.spans)
    by_base = Counter()
    for fn, base in tracer.originals.items():
        by_base[base] += profiled[fn]
    problems = []
    for base in sorted(set(tracer.originals.values())):
        seen = sum(c for name, c in traced.items()
                   if name == base or name.startswith(base + "."))
        if seen != by_base[base]:
            problems.append(f"{base}: traced {seen} calls, profiler counted {by_base[base]}")
    for fn in tracer.originals:
        if profiled[fn] == 0:
            problems.append(f"{fn.__module__}.{fn.__name__} was never called by the self-check")
    if traced["solver.solve.untagged"] and not tracer.missing:
        problems.append(f"{traced['solver.solve.untagged']} solves had no problem type")
    if problems:
        raise RuntimeError("tracer self-check failed: " + "; ".join(problems))
    return {"calls_checked": sum(by_base.values()), "functions": len(tracer.originals),
            "missing": tracer.missing}
