"""Span recorder for the traced benchmark run, and the per-layer metrics
computed from its spans.

``Tracer.install`` wraps the public functions and methods of each
glmbandit module from outside: every module attribute bound to a wrapped
function is replaced, so by-name imports such as ``policies.mle_fit`` or
``validation.weighted_norm`` record spans too. ``Tracer.uninstall``
restores the originals. Spans are kept in memory and written out at the
end of the run.

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections.abc import Callable, Iterable

from glmbandit import design, environment, harness, links, mle, policies, rng, validation


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: int, end: int, parent: int, attrs: dict | None = None):
        self.name = name
        self.start = start  # perf_counter_ns
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 for a root
        self.attrs = attrs


def _link_elems(args, kwargs, result) -> dict:
    return {"elems": int(getattr(args[0], "size", 1))}


def _mle_counts(args, kwargs, result) -> dict:
    return {
        "rows": int(len(args[1])),
        "iters": int(result.iterations),
        "nonconverged": int(not result.converged),
    }


def _replications(fn: Callable) -> Callable:
    signature = inspect.signature(fn)

    def count(args, kwargs, result) -> dict:
        return {"reps": int(signature.bind(*args, **kwargs).arguments["replications"])}

    return count


MODULE_FUNCTIONS = [
    (rng, "stream", None),
    (design, "min_eigenvalue", None),
    (design, "weighted_norm", None),
    (design, "weighted_norms", None),
    (mle, "mle_fit", _mle_counts),
    (environment, "sample_context_batch", None),
    (harness, "simulate", None),
    (harness, "aggregate", None),
    (harness, "emit_csv", None),
    (validation, "theorem1_coverage", _replications(validation.theorem1_coverage)),
    (validation, "znorm_bound_check", _replications(validation.znorm_bound_check)),
    (validation, "proposition1_growth", _replications(validation.proposition1_growth)),
    (validation, "run_ucb_glm_instrumented", _replications(validation.run_ucb_glm_instrumented)),
    (validation, "lemma4_event_coverage", None),
    (validation, "width_sum_check", None),
]

METHODS = [
    (design.DesignState, ("update", "inverse")),
    (environment.Environment, ("sample_contexts", "sample_reward", "mean_reward", "arm_means")),
] + [
    (cls, ("select", "update"))
    for cls in (
        policies.UcbGlmPolicy,
        policies.EpsilonGreedyPolicy,
        policies.SupCbGlmPolicy,
        policies.UniformRandomPolicy,
        policies.OraclePolicy,
        policies._GlmFitPolicy,
    )
]

LINK_FIELDS = ("mu", "mu_dot", "mu_ddot")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Callable, object, str, object]] = []

    def wrap(self, name: str, fn: Callable, counters: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counters is not None:
                span.attrs = counters(args, kwargs, result)
            return result

        return traced

    def _patch(self, setter: Callable, owner: object, attr: str, value: object) -> None:
        self._patches.append((setter, owner, attr, getattr(owner, attr)))
        setter(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "glmbandit"]
        for module, attr, counters in MODULE_FUNCTIONS:
            original = getattr(module, attr)
            short = module.__name__.rsplit(".", 1)[-1]
            traced = self.wrap(f"{short}.{attr}", original, counters)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(setattr, mod, name, traced)
        for cls, names in METHODS:
            short = cls.__module__.rsplit(".", 1)[-1]
            for name in names:
                if name in vars(cls):
                    traced = self.wrap(f"{short}.{cls.__name__}.{name}", vars(cls)[name])
                    self._patch(setattr, cls, name, traced)
        for link in (links.IDENTITY, links.LOGISTIC, links.PROBIT):
            for name in LINK_FIELDS:
                traced = self.wrap(f"links.{name}", getattr(link, name), _link_elems)
                # LinkFunction is a frozen dataclass.
                self._patch(object.__setattr__, link, name, traced)

    def uninstall(self) -> None:
        for setter, owner, attr, original in reversed(self._patches):
            setter(owner, attr, original)
        self._patches.clear()


def write_spans(spans: list[Span], path) -> None:
    with open(path, "w") as fh:
        fh.write("id,name,start_ns,end_ns,parent,attrs\n")
        for i, s in enumerate(spans):
            attrs = ";".join(f"{k}={v}" for k, v in (s.attrs or {}).items())
            fh.write(f"{i},{s.name},{s.start},{s.end},{s.parent},{attrs}\n")


# Span arithmetic -------------------------------------------------------------


def self_times(spans: list[Span]) -> list[int]:
    """Duration of each span minus the union of its children's intervals."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0, s.start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def has_ancestor(spans: list[Span], i: int, names: Iterable[str]) -> bool:
    j = spans[i].parent
    while j >= 0:
        if spans[j].name in names:
            return True
        j = spans[j].parent
    return False


def outer_time(spans: list[Span], names: set[str]) -> int:
    """Time inside spans named in ``names``, counting nested ones once."""
    return sum(
        s.end - s.start
        for i, s in enumerate(spans)
        if s.name in names and not has_ancestor(spans, i, names)
    )


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts (as floats) and times (in seconds) from one traced run."""
    selfs = self_times(spans)
    idx_by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        idx_by_name.setdefault(s.name, []).append(i)

    def named(pred: Callable[[str], bool]) -> list[int]:
        return [i for name, ids in idx_by_name.items() if pred(name) for i in ids]

    def count(ids) -> float:
        return float(len(ids))

    def total(ids) -> float:
        return sum(spans[i].end - spans[i].start for i in ids) / 1e9

    def self_s(ids) -> float:
        return sum(selfs[i] for i in ids) / 1e9

    def attr(ids, key) -> float:
        return float(sum(spans[i].attrs[key] for i in ids))

    def exact(name: str) -> list[int]:
        return idx_by_name.get(name, [])

    link_ids = named(lambda n: n.startswith("links."))
    fits = exact("mle.mle_fit")
    in_fit = {"mle.mle_fit"}
    min_eigs = exact("design.min_eigenvalue")
    wnorms = exact("design.weighted_norm") + exact("design.weighted_norms")
    selects = named(lambda n: n.startswith("policies.") and n.endswith(".select"))
    updates = named(lambda n: n.startswith("policies.") and n.endswith(".update"))
    lemma4 = {
        "validation.run_ucb_glm_instrumented",
        "validation.lemma4_event_coverage",
        "validation.width_sum_check",
    }
    mc_entries = named(
        lambda n: n in ("validation.theorem1_coverage", "validation.znorm_bound_check",
                        "validation.proposition1_growth", "validation.run_ucb_glm_instrumented")
    )
    return {
        "links.calls": count(link_ids),
        "links.elems": attr(link_ids, "elems"),
        "links.self_s": self_s(link_ids),
        "mle.fits": count(fits),
        "mle.rows": attr(fits, "rows"),
        "mle.newton_iters": attr(fits, "iters"),
        "mle.link_passes": count([i for i in link_ids if has_ancestor(spans, i, in_fit)]),
        "mle.fisher_eigs": count([i for i in min_eigs if has_ancestor(spans, i, in_fit)]),
        "mle.nonconverged": attr(fits, "nonconverged"),
        "mle.self_s": self_s(fits),
        "design.updates": count(exact("design.DesignState.update")),
        "design.update_s": total(exact("design.DesignState.update")),
        "design.wnorm_calls": count(wnorms),
        "design.wnorm_s": total(wnorms),
        "design.min_eig_calls": count(min_eigs),
        "design.min_eig_s": total(min_eigs),
        "design.inverse_s": total(exact("design.DesignState.inverse")),
        "policies.selects": count(selects),
        "policies.select_self_s": self_s(selects),
        "policies.update_self_s": self_s(updates),
        "environment.context_draws": count(exact("environment.sample_context_batch")),
        "environment.contexts_s": outer_time(
            spans, {"environment.Environment.sample_contexts", "environment.sample_context_batch"}
        ) / 1e9,
        "environment.rewards_s": total(exact("environment.Environment.sample_reward")),
        "environment.regret_s": total(exact("environment.Environment.arm_means")),
        "harness.loop_self_s": self_s(exact("harness.simulate")),
        "harness.aggregate_s": total(exact("harness.aggregate")),
        "harness.emit_s": total(exact("harness.emit_csv")),
        "validation.theorem1_s": total(exact("validation.theorem1_coverage")),
        "validation.znorm_s": total(exact("validation.znorm_bound_check")),
        "validation.prop1_s": total(exact("validation.proposition1_growth")),
        "validation.lemma4_s": outer_time(spans, lemma4) / 1e9,
        "validation.mc_reps": attr(mc_entries, "reps"),
        "rng.streams": count(exact("rng.stream")),
        "rng.stream_s": total(exact("rng.stream")),
    }


def shares(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Share of a traced repetition's wall time inside each group of layers.

    Groups overlap where one layer calls another: ``environment`` includes
    the link calls made inside it.
    """
    link_names = {f"links.{name}" for name in LINK_FIELDS}
    env = {f"environment.Environment.{m}" for m in ("sample_contexts", "sample_reward", "arm_means")}
    groups = {
        "mle+links": {"mle.mle_fit"} | link_names,
        "environment": env | {"environment.sample_context_batch"},
        "harness.emit": {"harness.emit_csv"},
    }
    return {key: outer_time(spans, names) / 1e9 / wall_s for key, names in groups.items()}


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}
