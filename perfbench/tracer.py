"""Traced run of one orthodontia CLI invocation, and the per-layer metrics
computed from its spans.

As a child process::

    python3 perfbench/tracer.py SPANS_PATH REQUEST_ID -- CLI_ARGS...

imports the program, wraps each traced function in every place it is
bound (module globals, including the modules that took it with ``from
... import``, dicts such as the CLI's suite table, and class attributes),
runs ``orthodontia.cli.main(CLI_ARGS)`` with its stdout untouched, and
writes the spans it kept in memory to SPANS_PATH.json and SPANS_PATH.bin.

A span is (name, parent span, request, start, end).  The request is the
CLI invocation, or the verify permutation task the span runs under.
Nothing finer than the functions in TRACED is wrapped: Permutation.__call__
alone runs 2.2M times in `verify --n 7`.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (layer, function, stats, [(module, attribute path), ...])
# stats: "c" calls, "s" self_s, "t" total_s, "m" memo_hit_ratio.
# total_s is kept only for functions that call into other traced layers.
TRACED = (
    ("polynomial", "add", "cs", [("orthodontia.polynomial", "Polynomial.__add__"),
                                 ("orthodontia.polynomial", "Polynomial.__radd__")]),
    ("polynomial", "sub", "cs", [("orthodontia.polynomial", "Polynomial.__sub__"),
                                 ("orthodontia.polynomial", "Polynomial.__rsub__")]),
    ("polynomial", "mul", "cs", [("orthodontia.polynomial", "Polynomial.__mul__"),
                                 ("orthodontia.polynomial", "Polynomial.__rmul__")]),
    ("polynomial", "mul_monomial", "cs", [("orthodontia.polynomial", "Polynomial.mul_monomial")]),
    ("polynomial", "swap_variables", "cs", [("orthodontia.polynomial", "Polynomial.swap_variables")]),
    ("polynomial", "exact_divide_linear", "cs", [("orthodontia.polynomial", "exact_divide_linear")]),
    ("polynomial", "eq", "cs", [("orthodontia.polynomial", "Polynomial.__eq__")]),
    ("polynomial", "format", "cs", [("orthodontia.polynomial", "Polynomial.__str__"),
                                    ("orthodontia.polynomial", "Polynomial.to_json"),
                                    ("orthodontia.polynomial", "Polynomial.monomials"),
                                    ("orthodontia.polynomial", "Polynomial.sorted_terms")]),
    ("operators", "divided_difference", "cst", [("orthodontia.operators", "divided_difference")]),
    ("operators", "demazure", "cst", [("orthodontia.operators", "demazure")]),
    ("operators", "isobaric", "cst", [("orthodontia.operators", "isobaric")]),
    ("operators", "demazure_lascoux", "cst", [("orthodontia.operators", "demazure_lascoux")]),
    ("grothendieck", "schubert_recursive", "cstm", [("orthodontia.grothendieck", "schubert_recursive")]),
    ("grothendieck", "grothendieck_recursive", "cstm",
     [("orthodontia.grothendieck", "grothendieck_recursive")]),
    ("grothendieck", "warm_caches", "t", [("orthodontia.grothendieck", "warm_caches")]),
    ("grothendieck", "orthodontia_schubert", "cst", [("orthodontia.grothendieck", "orthodontia_schubert")]),
    ("grothendieck", "orthodontia_grothendieck", "cst",
     [("orthodontia.grothendieck", "orthodontia_grothendieck")]),
    ("grothendieck", "monk_terms", "cst", [("orthodontia.grothendieck", "monk_terms")]),
    ("grothendieck", "primary_column_data", "cst", [("orthodontia.grothendieck", "primary_column_data")]),
    ("grothendieck", "sigma", "cst", [("orthodontia.grothendieck", "sigma")]),
    ("grothendieck", "sort_permutation", "cst", [("orthodontia.grothendieck", "sort_permutation")]),
    ("grothendieck", "is_sorted_permutation", "cst",
     [("orthodontia.grothendieck", "is_sorted_permutation")]),
    ("grothendieck", "os_predecessor", "cst", [("orthodontia.grothendieck", "os_predecessor")]),
    ("diagram", "rothe_diagram", "cst", [("orthodontia.diagram", "rothe_diagram")]),
    ("diagram", "orthodontia", "cs", [("orthodontia.diagram", "orthodontia"),
                                      ("orthodontia.diagram", "orthodontia_trace")]),
    ("diagram", "missing_tooth", "cs", [("orthodontia.diagram", "missing_tooth")]),
    ("diagram", "upper_closure", "cs", [("orthodontia.diagram", "upper_closure")]),
    ("diagram", "diagram_monomial", "cs", [("orthodontia.diagram", "diagram_monomial")]),
    ("permutation", "construct", "cs", [("orthodontia.permutation", "Permutation.__init__")]),
    ("permutation", "inverse", "cs", [("orthodontia.permutation", "Permutation.inverse")]),
    ("permutation", "right_multiply_adjacent", "cs",
     [("orthodontia.permutation", "Permutation.right_multiply_adjacent")]),
    ("permutation", "symmetric_group", "cs", [("orthodontia.permutation", "symmetric_group")]),
    ("analysis", "check_divisibility", "cst", [("orthodontia.analysis", "check_divisibility")]),
    ("analysis", "degree_report", "cst", [("orthodontia.analysis", "degree_report")]),
    ("analysis", "check_conjecture", "cst", [("orthodontia.analysis", "check_conjecture")]),
    ("analysis", "support_vectors", "cst", [("orthodontia.analysis", "support_vectors")]),
    ("cli", "main", "", [("orthodontia.cli", "main")]),
    ("cli", "verify_task", "", [("orthodontia.cli", "_verify_task")]),
    ("cli", "cache_load", "t", [("orthodontia.cli", "_load_cache")]),
    ("cli", "cache_append", "t", [("orthodontia.cli", "_append_cache")]),
) + tuple(
    ("cli", f"suite.{suite}", "t", [("orthodontia.cli", f"_check_{suite}")])
    for suite in ("main", "divisibility", "degree", "sorted", "monk", "conjecture")
)

LAYERS = ("polynomial", "operators", "grothendieck", "diagram", "permutation", "analysis", "cli")
# Functions whose results are polynomials: their term counts add up to polynomial.terms_out.
TERMS_OUT = frozenset({"polynomial.add", "polynomial.sub", "polynomial.mul", "polynomial.mul_monomial",
                       "polynomial.swap_variables", "polynomial.exact_divide_linear"})
MEMO = frozenset({"grothendieck.schubert_recursive", "grothendieck.grothendieck_recursive"})
GENERATORS = frozenset({"permutation.symmetric_group"})
TASK = "cli.verify_task"

_STAT_UNITS = {"c": ("calls", "count", "lower"), "s": ("self_s", "s", "lower"),
               "t": ("total_s", "s", "lower"), "m": ("memo_hit_ratio", "ratio", "higher")}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer in LAYERS:
        for lay, function, stats, _ in TRACED:
            if lay == layer:
                specs += [(f"{layer}.{function}.{_STAT_UNITS[s][0]}", *_STAT_UNITS[s][1:]) for s in stats]
                if function == "monk_terms":
                    specs.append(("grothendieck.monk_terms.overflow", "count", "lower"))
        specs.append((f"{layer}.self_s", "s", "lower"))
        if layer == "polynomial":
            specs.append(("polynomial.terms_out", "count", "lower"))
        if layer == "cli":
            specs += [("cli.records_computed", "count", "lower"),
                      ("cli.records_cached", "count", "higher")]
    specs += [("trace.overhead_ratio", "ratio", "lower"),
              ("trace.unaccounted_s", "s", "lower")]
    return specs


# ---------------------------------------------------------------------------
# in the traced child


class Recorder:
    """Spans of one process, kept in flat arrays until the process ends."""

    def __init__(self, request: int):
        self.names = [f"{layer}.{function}" for layer, function, _, _ in TRACED]
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("h")
        self.span_parent = array("i")
        self.span_request = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")   # 1 when no enclosing span has the same name
        self.stack = [-1]
        self.depth = [0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.request = request
        self.base_request = request
        self.tasks = 0
        self.terms_out = 0
        self.words: dict[str, set] = {name: set() for name in MEMO}
        self.errors: dict[str, int] = {}
        self.missing: list[str] = []

    def wrap(self, fn, name: str, calls: list[int] | None = None):
        nid = self.name_ids[name]
        perf = time.perf_counter
        stack, depth = self.stack, self.depth
        calls = self.calls if calls is None else calls
        ends = self.span_end
        add_name, add_parent, add_request = self.span_name.append, self.span_parent.append, self.span_request.append
        add_start, add_end, add_outer = self.span_start.append, ends.append, self.span_outer.append
        words = self.words.get(name)
        counts_terms = name in TERMS_OUT
        is_task = name == TASK
        recorder = self

        def wrapper(*args, **kwargs):
            if words is not None:
                words.add(getattr(args[0], "word", args[0]))
            if is_task:
                recorder.tasks += 1
                recorder.request = recorder.base_request + recorder.tasks
            calls[nid] += 1
            idx = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_request(recorder.request)
            add_outer(depth[nid] == 0)
            add_end(0.0)
            depth[nid] += 1
            stack.append(idx)
            add_start(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                recorder.error(name, exc)
                raise
            finally:
                ends[idx] = perf()
                stack.pop()
                depth[nid] -= 1
                if is_task:
                    recorder.request = recorder.base_request
            if counts_terms:
                terms = getattr(result, "terms", None)
                if terms is not None:
                    recorder.terms_out += len(terms)
            return result

        return wrapper

    def wrap_generator(self, fn, name: str):
        """Count calls; time each resumption as a span, so lazy work lands in this layer."""
        nid = self.name_ids[name]
        uncounted = [0] * len(self.names)

        def generator_wrapper(*args, **kwargs):
            self.calls[nid] += 1
            resume = self.wrap(fn(*args, **kwargs).__next__, name, uncounted)
            while True:
                try:
                    item = resume()
                except StopIteration:
                    return
                yield item

        return generator_wrapper

    def error(self, name: str, exc: BaseException) -> None:
        key = f"{name}:{type(exc).__name__}"
        self.errors[key] = self.errors.get(key, 0) + 1

    def install(self) -> None:
        """Replace every binding of each traced function with its wrapper."""
        wrapped = {}   # id(original) -> wrapper, for module-level functions
        for layer, function, _, targets in TRACED:
            name = f"{layer}.{function}"
            for module_name, path in targets:
                owner = sys.modules.get(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                wrap = self.wrap_generator if name in GENERATORS else self.wrap
                if parents:
                    setattr(owner, attr, wrap(original, name))
                else:
                    wrapped[id(original)] = wrap(original, name)
        for key, module in list(sys.modules.items()):
            if key != "orthodontia" and not key.startswith("orthodontia."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if id(v) in wrapped:
                            value[k] = wrapped[id(v)]

    def dump(self, path: str, meta: dict) -> None:
        arrays = (self.span_name, self.span_parent, self.span_request,
                  self.span_start, self.span_end, self.span_outer)
        with open(path + ".bin", "wb") as handle:
            for a in arrays:
                a.tofile(handle)
        meta.update(
            dumped=time.perf_counter(),
            names=self.names,
            spans=len(self.span_end),
            calls=dict(zip(self.names, self.calls)),
            distinct_words={name: len(words) for name, words in self.words.items()},
            errors=self.errors,
            terms_out=self.terms_out,
            missing=self.missing,
        )
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump(meta, handle)


def child_main(argv: list[str]) -> int:
    spans_path, request = argv[0], int(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: tracer.py SPANS_PATH REQUEST_ID -- CLI_ARGS...")
    import orthodontia.cli

    imported = time.perf_counter()
    recorder = Recorder(request)
    recorder.install()
    main = orthodontia.cli.main
    started = time.perf_counter()
    try:
        code = main(argv[3:])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        # also when main raises: the spans of a failed invocation are kept
        sys.stdout.flush()
        recorder.dump(spans_path, {"imported": imported, "installed": started,
                                   "returned": time.perf_counter()})
    return code


# ---------------------------------------------------------------------------
# in the benchmark process


def spans_written(path: Path) -> bool:
    return Path(str(path) + ".json").is_file() and Path(str(path) + ".bin").is_file()


def read_spans(path: Path) -> tuple[dict, tuple[array, ...]]:
    meta = json.loads(Path(str(path) + ".json").read_text())
    count = meta["spans"]
    arrays = tuple(array(code) for code in "hiqddb")
    with open(str(path) + ".bin", "rb") as handle:
        for a in arrays:
            a.fromfile(handle, count)
    return meta, arrays


def per_layer_metrics(span_files: list[Path], children: list, untraced_wall: float,
                      records_emitted: int) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics from the spans of a traced unit, and notes for the report.

    `children` holds the traced children (launched, exited) in the order
    of `span_files`; `untraced_wall` is the wall time of the same unit
    run without the tracer.  Self time is a span's duration minus the
    durations of its direct children; total_s sums the spans with no
    enclosing span of the same name, so recursion is not counted twice.

    trace.unaccounted_s is the traced wall time less each child's set-up
    (launch to CLI imported), its exit (CLI returned to process end:
    flushing, writing spans, interpreter teardown) and the durations of
    the top-level spans.  It is the tracer's own installation plus the
    gaps between children.
    """
    specs = metric_specs()
    values = {name: 0.0 for name, _, _ in specs}
    self_by_name: dict[str, float] = {}
    total_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    distinct: dict[str, int] = {}
    requests = set()
    spans = 0
    setup = exit = roots = 0.0
    overflow = 0
    missing: set[str] = set()
    for path, child in zip(span_files, children):
        meta, (name, parent, request, start, end, outer) = read_spans(path)
        names = meta["names"]
        n = meta["spans"]
        spans += n
        covered = [0.0] * n   # time under each span's direct children
        self_s = [0.0] * len(names)
        total_s = [0.0] * len(names)
        root_s = 0.0
        for i in range(n):
            duration = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                covered[p] += duration
            else:
                root_s += duration
            if outer[i]:
                total_s[name[i]] += duration
        for i in range(n):
            self_s[name[i]] += end[i] - start[i] - covered[i]
        requests.update(request)
        for nid, key in enumerate(names):
            self_by_name[key] = self_by_name.get(key, 0.0) + self_s[nid]
            total_by_name[key] = total_by_name.get(key, 0.0) + total_s[nid]
        for key, count in meta["calls"].items():
            calls[key] = calls.get(key, 0) + count
        for key, count in meta["distinct_words"].items():
            distinct[key] = distinct.get(key, 0) + count
        values["polynomial.terms_out"] += meta["terms_out"]
        overflow += meta["errors"].get("grothendieck.monk_terms:RankOverflowError", 0)
        missing.update(meta["missing"])
        setup += meta["imported"] - child.launched
        exit += child.exited - meta["returned"]
        roots += root_s

    for layer, function, stats, _ in TRACED:
        key = f"{layer}.{function}"
        for s in stats:
            stat = _STAT_UNITS[s][0]
            if s == "c":
                value = calls.get(key, 0)
            elif s == "s":
                value = self_by_name.get(key, 0.0)
            elif s == "t":
                value = total_by_name.get(key, 0.0)
            else:
                value = 1.0 - distinct.get(key, 0) / calls[key] if calls.get(key) else 0.0
            values[f"{key}.{stat}"] = value
        values[f"{layer}.self_s"] += self_by_name.get(key, 0.0)
    values["grothendieck.monk_terms.overflow"] = overflow
    computed = sum(calls.get(f"cli.suite.{s}", 0) for s in
                   ("main", "divisibility", "degree", "sorted", "monk", "conjecture"))
    values["cli.records_computed"] = computed
    values["cli.records_cached"] = records_emitted - computed
    traced_wall = children[-1].exited - children[0].launched
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    values["trace.unaccounted_s"] = traced_wall - setup - exit - roots
    notes = {
        "trace.overhead_ratio": f"traced wall {traced_wall:.6g} s / untraced wall {untraced_wall:.6g} s",
        "trace.unaccounted_s": (f"traced wall - set-up {setup:.6g} s - exit {exit:.6g} s "
                                f"- top-level spans {roots:.6g} s; {spans} spans in {len(requests)} requests"),
    }
    if missing:
        notes["trace.unaccounted_s"] += "; not found in the program, so not traced: " + ", ".join(sorted(missing))
    return values, notes


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
