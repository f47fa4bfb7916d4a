"""Span tracer that wraps the program's functions from outside.

Tracer.install() replaces functions of the graphstates modules with
wrappers at module-attribute level: at the module that defines a function
and at every module that imported the same function object by name (for
example entanglement.measure_via_lc or orbits.canonical_form), so calls
through any of those names are seen.  Class attributes Graph.__post_init__
and cli._Parser.parse_args are wrapped the same way.  uninstall() puts every
original back.

Each call records a span (name, start, end, parent) in flat arrays kept in
memory; summary() turns them into per-function self times and counts, and
save() writes them out.  A span's self time is its duration minus the
durations of its direct children.  Helpers that are not wrapped (the private
ones, and graphs.bits_of and graphs.as_mask, which are too small and hot to
span) count toward their caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from array import array

import numpy as np

MODULES = ("gf2", "graphs", "stabilizer", "measurement", "entanglement",
           "orbits", "oracle", "cli")
SKIP = frozenset({"graphs.bits_of", "graphs.as_mask"})
PRIVATE = frozenset({
    "entanglement._cross_rank",       # one cut-rank evaluation
    "entanglement._bounds_parts",     # one bounds query
    "entanglement._can_disentangle",  # one persistency-search node
    "orbits._orbit_rows",             # one orbit walk
    "cli._build_parser",
})
METHODS = (("graphs", "Graph", "__post_init__"), ("cli", "_Parser", "parse_args"))


def _early_exit(args, result) -> int:
    return int(result == args[0].n // 2)


def _no_search(args, result) -> int:
    lower, _, cover = result
    return int(lower == cover)


# Per-call outcomes added up by name: the scan reached floor(n/2) and stopped,
# the bounds query needed no search, members listed, amplitudes computed.
TALLIES = {
    "entanglement.lower_bound_max_rank": _early_exit,
    "entanglement._bounds_parts": _no_search,
    "orbits.lc_orbit": lambda args, result: len(result),
    "oracle.graph_state": lambda args, result: int(result.size),
}


class Tracer:
    def __init__(self) -> None:
        self.modules = {m: importlib.import_module(f"graphstates.{m}") for m in MODULES}
        self.names: list[str] = []       # span name by name id
        self.sites: list[str] = []       # "module.attr" by site id
        self.site_calls: list[int] = []
        self.site_name: list[int] = []   # name id by site id
        self.tallies: list[int] = []     # by name id
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(owner, attr, original, span name, site name) for every wrap."""
        found = []
        for mod_name, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home not in self.modules:
                    continue
                name = f"{home}.{obj.__qualname__}"
                public = not obj.__name__.startswith("_")
                if (public and name not in SKIP) or name in PRIVATE:
                    found.append((mod, attr, obj, name, f"{mod_name}.{attr}"))
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(self.modules[mod_name], cls_name)
            fn = getattr(cls, attr)
            found.append((cls, attr, fn, f"{mod_name}.{cls_name}.{attr}",
                          f"{mod_name}.{cls_name}.{attr}"))
        return found

    def install(self) -> "Tracer":
        if self.sites:
            raise RuntimeError("a Tracer installs once")
        ids: dict[str, int] = {}
        for owner, attr, fn, name, site in self._targets():
            if name not in ids:
                ids[name] = len(self.names)
                self.names.append(name)
                self.tallies.append(0)
            self.sites.append(site)
            self.site_calls.append(0)
            self.site_name.append(ids[name])
            wrapper = self._wrap(fn, ids[name], len(self.sites) - 1, TALLIES.get(name))
            own = attr in vars(owner)
            self._patches.append((owner, attr, vars(owner).get(attr), own))
            setattr(owner, attr, wrapper)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name_id: int, site_id: int, tally):
        start, end, names, parents = self.start, self.end, self.name, self.parent
        stack, site_calls, tallies = self._stack, self.site_calls, self.tallies
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                site_calls[site_id] += 1
                gen = fn(*args, **kwargs)
                while True:  # one span per resumption
                    i = len(names)
                    names.append(name_id)
                    parents.append(stack[-1])
                    end.append(0.0)
                    stack.append(i)
                    start.append(clock())
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end[i] = clock()
                        stack.pop()
                    yield item
            return functools.wraps(fn)(gen_wrapper)

        def wrapper(*args, **kwargs):
            site_calls[site_id] += 1
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if tally is not None:
                tallies[name_id] += tally(args, result)
            return result
        return functools.wraps(fn)(wrapper)

    # -- results ----------------------------------------------------------

    def _arrays(self):
        def copy(arr, dtype):
            return np.frombuffer(arr, dtype=dtype).copy() if len(arr) else np.zeros(0, dtype)
        return (copy(self.name, np.int64), copy(self.parent, np.int64),
                copy(self.start, np.float64), copy(self.end, np.float64))

    def summary(self) -> dict:
        """Per span name: calls, self seconds and tally; per site: calls."""
        name, parent, start, end = self._arrays()
        dur = end - start
        rooted = parent >= 0
        child_time = np.bincount(parent[rooted], weights=dur[rooted], minlength=len(dur))
        self_s = np.bincount(name, weights=dur - child_time, minlength=len(self.names))
        calls = [0] * len(self.names)
        for name_id, n in zip(self.site_name, self.site_calls):
            calls[name_id] += n
        functions = {n: {"calls": calls[i], "self_s": float(self_s[i]),
                         "tally": self.tallies[i]}
                     for i, n in enumerate(self.names)}
        return {"functions": functions,
                "sites": dict(zip(self.sites, self.site_calls)),
                "spans": len(dur)}

    def count_with_child(self, parent_name: str, child_name: str,
                         without: str | None = None) -> int:
        """Spans of parent_name with a direct child span of child_name and,
        if given, none of `without`."""
        name, parent, _, _ = self._arrays()
        ids = {n: i for i, n in enumerate(self.names)}

        def has_child(child: str):
            mask = np.zeros(len(name), dtype=bool)
            if child in ids:
                p = parent[name == ids[child]]
                mask[p[p >= 0]] = True
            return mask

        if parent_name not in ids:
            return 0
        hit = (name == ids[parent_name]) & has_child(child_name)
        if without is not None:
            hit &= ~has_child(without)
        return int(np.count_nonzero(hit))

    def save(self, path) -> None:
        name, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


# ---------------------------------------------------------------------------
# per-layer metrics: (metric, unit, kind, span or site names)
#   calls  calls of the named functions       self   their self seconds
#   site   calls through the named sites      tally  sum of their tallies
#   share  tally of the one name / its calls  module self seconds of a layer

LAYER_METRICS = [
    ("graphs.canonical_calls", "count", "calls", ["graphs.canonical_form"]),
    ("graphs.canonical_s", "s", "self", ["graphs.canonical_form"]),
    ("graphs.enumerate_s", "s", "self", ["graphs.enumerate_connected"]),
    ("graphs.graph_constructions", "count", "calls", ["graphs.Graph.__post_init__"]),
    ("graphs.graph_validate_s", "s", "self", ["graphs.Graph.__post_init__"]),
    ("graphs.local_complement_calls", "count", "calls", ["graphs.local_complement"]),
    ("graphs.local_complement_s", "s", "self", ["graphs.local_complement"]),
    ("graphs.min_vertex_cover_s", "s", "self", ["graphs.min_vertex_cover"]),
    ("entanglement.search_nodes", "count", "site", ["entanglement.measure_via_lc"]),
    ("entanglement.search_s", "s", "self", ["entanglement._can_disentangle"]),
    ("entanglement.search_skip_ratio", "ratio", "share", ["entanglement._bounds_parts"]),
    ("entanglement.lower_bound_calls", "count", "calls", ["entanglement.lower_bound_max_rank"]),
    ("entanglement.lower_bound_s", "s", "self", ["entanglement.lower_bound_max_rank"]),
    ("entanglement.lower_bound_early_exit_ratio", "ratio", "share",
     ["entanglement.lower_bound_max_rank"]),
    ("entanglement.cut_rank_evals", "count", "calls", ["entanglement._cross_rank"]),
    ("entanglement.rank_index_s", "s", "self", ["entanglement.rank_index"]),
    ("gf2.rank_calls", "count", "calls", ["gf2.gf2_rank_of_rows"]),
    ("gf2.rank_s", "s", "self", ["gf2.gf2_rank_of_rows", "gf2.gf2_rank"]),
    ("measurement.measure_via_lc_calls", "count", "calls", ["measurement.measure_via_lc"]),
    ("measurement.measure_via_lc_s", "s", "self", ["measurement.measure_via_lc"]),
    ("measurement.measure_pauli_calls", "count", "calls", ["measurement.measure_pauli"]),
    ("measurement.measure_pauli_s", "s", "self", ["measurement.measure_pauli"]),
    ("stabilizer.local_complement_clifford_s", "s", "self",
     ["stabilizer.local_complement_clifford"]),
    ("orbits.lc_equivalent_calls", "count", "calls", ["orbits.lc_equivalent"]),
    ("orbits.lc_equivalent_s", "s", "self", ["orbits.lc_equivalent"]),
    ("orbits.rank_list_s", "s", "self", ["orbits.schmidt_rank_list"]),
    ("orbits.lc_orbit_s", "s", "self", ["orbits.lc_orbit"]),
    ("orbits.orbit_walk_s", "s", "self", ["orbits._orbit_rows"]),
    ("orbits.orbit_members", "count", "tally", ["orbits.lc_orbit"]),
    ("oracle.graph_state_calls", "count", "calls", ["oracle.graph_state"]),
    ("oracle.graph_state_s", "s", "self", ["oracle.graph_state"]),
    ("oracle.apply_projector_s", "s", "self", ["oracle.apply_projector"]),
    ("oracle.reduced_rank_s", "s", "self", ["oracle.reduced_rank"]),
    ("oracle.partial_trace_s", "s", "self",
     ["oracle.verify_partial_trace_form", "oracle.reduced_density"]),
    # computed as the sum of 2^n over graph_state calls, not timed
    ("oracle.amplitudes_computed", "count", "tally", ["oracle.graph_state"]),
    ("cli.parse_s", "s", "self", ["cli._build_parser", "cli._Parser.parse_args"]),
    ("cli.self_s", "s", "self", ["cli.main"]),
] + [(f"{m}.layer_self_s", "s", "module", [m]) for m in MODULES]


def layer_metrics(tracer: Tracer, canonical_cache=None) -> dict:
    """{metric: [value, unit]} for LAYER_METRICS, the canonical-form cache
    counts (from cache_info(), absent caches count 0) and the rank-filter
    reject share of lc_equivalent calls."""
    summary = tracer.summary()
    funcs, sites = summary["functions"], summary["sites"]

    def total(names, field):
        return sum(funcs[n][field] for n in names if n in funcs)

    out = {}
    for metric, unit, kind, names in LAYER_METRICS:
        if kind == "calls":
            value = total(names, "calls")
        elif kind == "self":
            value = total(names, "self_s")
        elif kind == "site":
            value = sum(sites.get(s, 0) for s in names)
        elif kind == "tally":
            value = total(names, "tally")
        elif kind == "share":
            calls = total(names, "calls")
            value = total(names, "tally") / calls if calls else 0.0
        else:  # module
            value = sum(f["self_s"] for n, f in funcs.items()
                        if n.partition(".")[0] == names[0])
        out[metric] = [value, unit]
    hits, misses = (canonical_cache.hits, canonical_cache.misses) if canonical_cache else (0, 0)
    out["graphs.canonical_cache_hits"] = [hits, "count"]
    out["graphs.canonical_cache_misses"] = [misses, "count"]
    calls = total(["orbits.lc_equivalent"], "calls")
    rejected = tracer.count_with_child("orbits.lc_equivalent", "orbits.schmidt_rank_list",
                                       without="orbits._orbit_rows")
    out["orbits.rank_filter_reject_ratio"] = [rejected / calls if calls else 0.0, "ratio"]
    out["trace_spans"] = [summary["spans"], "count"]
    return out
