"""Run one conescope CLI command with its layers wrapped, and write a trace.

    python3 perfbench/traced.py TRACE.json --config cfg.json --command ray ...

The wrappers live here, in the benchmark, and are installed before the CLI
runs; the program is not changed. A function imported by name into other
modules (`free_reduce`, `shortlex_key`, `leading_term`, the diagnostics the
CLI imports) is replaced wherever a conescope module binds it, so every
caller's lookup finds the wrapper.

A timed layer records calls, total time and self time: its span minus the
part covered by the spans of timed layers it called. Coarse layers (one to
a few thousand calls per command) also keep each span as (name, start ns,
end ns, parent span index). Counted layers record calls only. The trace
file holds, per layer name, `calls`, `self_s` and `total_s`, plus summed
`values` and the kept spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Layer:
    __slots__ = ("calls", "self_ns", "total_ns")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self.values: dict[str, int] = {}
        self.spans: list = []
        self.missing: list[str] = []
        self._frames: list[list[int]] = []
        self._open_spans: list[int] = []

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    def add(self, key: str, amount: int) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def counted(self, name: str, fn):
        layer = self.layer(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def timed(self, name: str, fn, span: bool = False, measure=None):
        layer = self.layer(name)
        frames, spans, open_spans = self._frames, self.spans, self._open_spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer.calls += 1
            frame = [0]
            frames.append(frame)
            if span:
                index = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                layer.self_ns += elapsed - frame[0]
                layer.total_ns += elapsed
                if frames:
                    frames[-1][0] += elapsed
                if span:
                    open_spans.pop()
                    spans[index] = (name, start, start + elapsed, parent)
            if measure is not None:
                measure(result)
            return result
        return wrapper

    def to_json(self) -> dict:
        return {
            "layers": {name: {"calls": l.calls, "self_s": l.self_ns / 1e9,
                              "total_s": l.total_ns / 1e9}
                       for name, l in sorted(self.layers.items())},
            "values": dict(sorted(self.values.items())),
            "spans": self.spans,
            "missing": self.missing,
        }


def _replace_everywhere(original, wrapped) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name == "conescope" or module_name.startswith("conescope."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each conescope layer."""
    import conescope.cli  # noqa: F401  (imports every module)
    modules = {name: sys.modules[f"conescope.{name}"]
               for name in ("words", "groups", "magnus", "orders", "geometry",
                            "automata", "dot", "cli")}

    def function(module: str, attr: str, wrap) -> None:
        original = getattr(modules[module], attr, None)
        if original is None:
            tracer.missing.append(f"{module}.{attr}")
            return
        _replace_everywhere(original, wrap(original))

    def method(module: str, cls_name: str, attr: str, wrap,
               subclasses: bool = False) -> None:
        base = getattr(modules[module], cls_name, None)
        classes = [base] if base is not None else []
        if subclasses and base is not None:
            classes = [c for c in vars(modules[module]).values()
                       if isinstance(c, type) and issubclass(c, base)]
        found = [c for c in classes if attr in vars(c)]
        if not found:
            tracer.missing.append(f"{module}.{cls_name}.{attr}")
        for cls in found:
            setattr(cls, attr, wrap(vars(cls)[attr]))

    def timed(name, span=False, measure=None):
        return lambda fn: tracer.timed(name, fn, span=span, measure=measure)

    def counted(name):
        return lambda fn: tracer.counted(name, fn)

    # groups and words: the kernel and ball enumeration
    method("groups", "GroupModel", "ball",
           timed("groups.ball", span=True,
                 measure=lambda b: tracer.add("groups.ball_elements", len(b))))
    method("groups", "Ball", "sorted_elements", timed("groups.sort", span=True))
    method("groups", "Element", "__eq__", counted("groups.element_eq"))
    method("groups", "GroupModel", "multiply", timed("groups.multiply"))
    method("groups", "GroupModel", "normal_form", counted("groups.normal_form"))
    method("groups", "GroupModel", "word_length", timed("groups.word_length"),
           subclasses=True)
    function("words", "free_reduce", timed("words.free_reduce"))
    function("words", "shortlex_key", timed("words.shortlex_key"))

    # orders: oracle calls, and the sign functions behind the oracle cache
    method("orders", "OrderOracle", "sign", counted("orders.sign"))
    eval_wrap = timed("orders.sign_eval")

    def wrap_init(init):
        @functools.wraps(init)
        def wrapper(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.sign_fn = eval_wrap(self.sign_fn)
        return wrapper
    method("orders", "OrderOracle", "__init__", wrap_init, subclasses=True)
    function("orders", "verify_order_axioms", timed("orders.axioms", span=True))
    function("magnus", "leading_term", timed("magnus.leading_term"))

    # geometry: diagnostics
    function("geometry", "max_of_ball", timed("geometry.max_of_ball", span=True))
    function("geometry", "r_components",
             timed("geometry.r_components", span=True))
    for attr in ("tree_swamp_certificate", "product_column_swamp"):
        function("geometry", attr, timed("geometry.swamp", span=True))
    function("geometry", "verify_separation",
             timed("geometry.separation", span=True,
                   measure=lambda r: tracer.add("geometry.separation_explored",
                                                r.explored)))
    for attr in ("cofinal_positive_path", "product_positive_path"):
        function("geometry", attr, timed("geometry.path", span=True))

    # automata, dot export and the CLI
    function("automata", "reachable_evaluations",
             timed("automata.reachable", span=True,
                   measure=lambda s: tracer.add("automata.reached_elements",
                                                len(s))))
    function("automata", "language_sample",
             timed("automata.language", span=True,
                   measure=lambda s: tracer.add("automata.language_words",
                                                len(s.words))))
    function("automata", "quasigeodesic_check", timed("automata.qg", span=True))
    function("automata", "verify_cone_dfa", timed("automata.verify", span=True))
    function("dot", "export_dot", timed("dot.export", span=True))
    method("cli", "Runner", "run", timed("cli.run", span=True))


def main(argv: list[str]) -> int:
    trace_path, cli_args = Path(argv[0]), argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    import conescope
    if Path(conescope.__file__).resolve().parent != ROOT / "src" / "conescope":
        print(f"perfbench: conescope imported from {conescope.__file__}",
              file=sys.stderr)
        return 4
    tracer = Tracer()
    install(tracer)
    code = conescope.cli.main(cli_args)
    trace_path.write_text(json.dumps(tracer.to_json()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
