"""Spans recorded around the program's public functions, from outside.

The tracer swaps each traced function for a wrapper under every name a
``scalarplan`` module binds it to, because the modules import by name: the
solver calls ``solver.extract_opt_policy``, extraction calls
``extract.solve_lp``, and so on.  ``LambdaOracle.eval`` is a method and is
wrapped on its class.  Wrappers record only inside a root span opened by the
benchmark, so the correctness checks that call the same functions are not
counted.  Spans stay in memory; ``layer_metrics`` derives self times from
them at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, INSTANCE, ATTRS = range(6)


def _search_attrs(attrs, args, kwargs, result):
    attrs["mode"] = result.mode
    attrs["backups"] = result.stats.backups
    attrs["expansions"] = result.stats.expansions


def _lp_attrs(attrs, args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    attrs["rows"] = len(lp.rows)
    attrs["cols"] = lp.n_vars
    attrs["pivots"] = result.pivots


# (defining module, attribute, span name, hook that reads counts off the result)
TARGETS = (
    ("scalarplan.model", "load_model", "model.load_model", None),
    ("scalarplan.model", "finite_penalty_transform", "model.finite_penalty_transform", None),
    ("scalarplan.model", "evaluate_policy", "model.evaluate_policy", None),
    ("scalarplan.heuristics", "make_heuristic", "heuristics.make_heuristic", None),
    ("scalarplan.search", "solve_lambda_ssp", "search.solve_lambda_ssp", _search_attrs),
    ("scalarplan.search", "warm_restart", "search.warm_restart", None),
    ("scalarplan.scalarise", "LambdaOracle.eval", "scalarise.eval", None),
    ("scalarplan.scalarise", "exact_line_search", "scalarise.exact_line_search", None),
    ("scalarplan.scalarise", "coordinate_search", "scalarise.coordinate_search", None),
    ("scalarplan.scalarise", "subgradient_fallback", "scalarise.subgradient_fallback", None),
    ("scalarplan.extract", "extract_opt_policy", "extract.extract_opt_policy", None),
    ("scalarplan.extract", "flat_dual_solve", "extract.flat_dual_solve", None),
    ("scalarplan.linalg", "solve_lp", "linalg.solve_lp", _lp_attrs),
    ("scalarplan.linalg", "solve_linear_system", "linalg.solve_linear_system", None),
)


class Tracer:
    """In-memory span list: [name, start, end, parent index, instance, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = []      # targets the program no longer defines

    @contextmanager
    def root(self, name: str, instance: str):
        """Open a top-level span; wrapped calls inside it become its children."""
        idx = len(self.spans)
        span = [name, 0.0, 0.0, None, instance, {}]
        self.spans.append(span)
        self._stack.append(idx)
        span[START] = time.perf_counter()
        try:
            yield span[ATTRS]
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            idx = len(spans)
            span = [name, 0.0, 0.0, parent, spans[parent][INSTANCE], {}]
            spans.append(span)
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[ATTRS]["error"] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(span[ATTRS], args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Swap every target for its wrapper; restore the originals on exit."""
        undo = []
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "scalarplan" or k.startswith("scalarplan."))]
        self.missing = []
        try:
            for mod_name, attr, name, hook in TARGETS:
                owner = sys.modules[mod_name]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name, None)
                    if owner is None or attr not in vars(owner):
                        self.missing.append(name)
                        continue
                    original = vars(owner)[attr]
                    setattr(owner, attr, self._wrap(original, name, hook))
                    undo.append((owner, attr, original))
                    continue
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(original, name, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, inst, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst,
                                     **attrs}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _group(spans, i, in_fallback):
    """Self-time bucket of span ``i``; every bucket is a layer or the solver."""
    name = spans[i][NAME]
    parent = spans[i][PARENT]
    if name == "solve":
        return "solver.self_s"
    if name in ("oracle", "setup"):
        return f"{name}.self_s"
    if name.startswith("scalarise."):
        return "scalarise.fallback_self_s" if in_fallback[i] else "scalarise.coordinate_self_s"
    if name == "search.solve_lambda_ssp":
        return f"search.{spans[i][ATTRS].get('mode', 'plain')}.s"
    if name == "linalg.solve_lp":
        owner = spans[parent][NAME]
        if owner == "extract.extract_opt_policy":
            return "extract.lp_s"
        if owner == "extract.flat_dual_solve":
            return "oracle.lp_s"
        return "linalg.other_lp_s"
    return {
        "model.load_model": "model.load_s",
        "model.finite_penalty_transform": "model.load_s",
        "model.evaluate_policy": "model.evaluate_self_s",
        "heuristics.make_heuristic": "heuristics.build_s",
        "search.warm_restart": "search.warm_restart_s",
        "extract.extract_opt_policy": "extract.self_s",
        "extract.flat_dual_solve": "oracle.build_s",
        "linalg.solve_linear_system": "linalg.linear_solve_s",
    }.get(name, f"other.{name}")


def layer_metrics(spans):
    """Per-layer figures from the span list.

    Times and counts are means per traced ``solve_cssp`` call, except
    ``model.load_s`` (per set-up of the workload's documents), ``oracle.*``
    (per ``oracle_solve`` call) and ``extract.lp_rows``/``lp_cols`` (per
    extraction LP).  Returns (metrics, self-time accounting,
    per-solve search counts keyed by solve span index).
    """
    selfs = _self_times(spans)
    root_of = [0] * len(spans)
    in_fallback = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        root_of[i] = i if p is None else root_of[p]
        in_fallback[i] = s[NAME] == "scalarise.subgradient_fallback" or (
            p is not None and in_fallback[p])

    roots = {"solve": 0, "oracle": 0, "setup": 0}
    for s in spans:
        if s[PARENT] is None:
            roots[s[NAME]] = roots.get(s[NAME], 0) + 1
    tot = {}
    account = {}   # root kind -> bucket -> summed self time

    def add(key, value=1.0):
        tot[key] = tot.get(key, 0.0) + value

    solve_counts = {}
    last_extract_failed = {}
    for i, s in enumerate(spans):
        kind = spans[root_of[i]][NAME]
        bucket = _group(spans, i, in_fallback)
        account.setdefault(kind, {})
        account[kind][bucket] = account[kind].get(bucket, 0.0) + selfs[i]
        dur = s[END] - s[START]
        name, attrs = s[NAME], s[ATTRS]
        if name in ("model.load_model", "model.finite_penalty_transform"):
            add("model.load_s", dur)
        elif kind != "solve" and name == "linalg.solve_lp" \
                and spans[s[PARENT]][NAME] == "extract.flat_dual_solve":
            add("oracle.lp_s", dur)
            add("oracle.lp_pivots", attrs["pivots"])
        if kind != "solve":
            continue
        counts = solve_counts.setdefault(root_of[i], [0, 0, 0])
        if name == "model.evaluate_policy":
            add("model.evaluate_s", dur)
            add("model.evaluate_calls")
        elif name == "heuristics.make_heuristic":
            add("heuristics.build_s", dur)
            add("heuristics.calls")
        elif name == "search.solve_lambda_ssp":
            mode = attrs.get("mode", "plain")
            add(f"search.{mode}.calls")
            add(f"search.{mode}.s", dur)
            add(f"search.{mode}.backups", attrs.get("backups", 0))
            add(f"search.{mode}.expansions", attrs.get("expansions", 0))
            counts[0] += 1
            counts[1] += attrs.get("backups", 0)
            counts[2] += attrs.get("expansions", 0)
            if mode == "strong" and last_extract_failed.get(root_of[i]):
                add("solver.ladder_rungs")
        elif name == "search.warm_restart":
            add("search.warm_restart_s", dur)
            add("search.warm_restarts")
        elif name == "scalarise.eval":
            add("scalarise.oracle_calls")
            if in_fallback[i]:
                add("scalarise.fallback_oracle_calls")
        elif name == "scalarise.exact_line_search":
            add("scalarise.line_searches")
        elif name == "scalarise.subgradient_fallback":
            add("scalarise.fallback_runs")
            last_extract_failed[root_of[i]] = False   # a new ladder follows
        elif name == "extract.extract_opt_policy":
            add("extract.calls")
            ok = "error" not in attrs
            add("extract.ok", 1.0 if ok else 0.0)
            last_extract_failed[root_of[i]] = not ok
        elif name == "linalg.solve_lp" and spans[s[PARENT]][NAME] == "extract.extract_opt_policy":
            add("extract.lp_calls")
            add("extract.lp_rows", attrs["rows"])
            add("extract.lp_cols", attrs["cols"])
            add("extract.lp_pivots", attrs["pivots"])
            add("extract.lp_s", dur)
        elif name == "linalg.solve_linear_system":
            add("linalg.linear_solves")
            add("linalg.linear_solve_s", dur)

    for bucket, value in account.get("solve", {}).items():
        if bucket in ("solver.self_s", "scalarise.coordinate_self_s",
                      "scalarise.fallback_self_s", "extract.self_s"):
            tot[bucket] = value

    metrics = {}
    for key, value in tot.items():
        if key == "model.load_s":
            base = roots["setup"]
        elif key.startswith("oracle."):
            base = roots["oracle"]
        elif key in ("extract.lp_rows", "extract.lp_cols"):
            base = tot["extract.lp_calls"]
        elif key in ("extract.ok", "extract.lp_calls"):
            continue
        else:
            base = roots["solve"]
        metrics[key] = value / max(base, 1)
    metrics["extract.ok_ratio"] = tot.get("extract.ok", 0.0) / max(tot.get("extract.calls", 0), 1)
    return metrics, account, solve_counts
