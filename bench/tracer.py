"""Run the knotpoly CLI once with every public function wrapped in a timer.

    python3 bench/tracer.py OUT.json knotpoly-args...

The CLI's stdout is left byte for byte as the program writes it; the
per-layer counters go to OUT.json as one flat {metric: value} object.
Wrapping is done from here, from outside the program: each module's
public functions, and every name another knotpoly module bound to the same
object by `from .x import y`, are replaced by a timing wrapper.  Counters
named `*.max_*` and `*.size` are maxima, every other counter is a sum.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from time import perf_counter

# Several public names counted under one metric name.
GROUPS = {
    "exactpoly.gcd_in": "exactpoly.gcd",
    "exactpoly.poly_gcd": "exactpoly.gcd",
}
# Class methods that are layers of their own, by class and metric name.
METHODS = {
    ("exactpoly", "MultiPoly"): {
        "exactpoly.mul": ("__mul__", "__rmul__"),
        "exactpoly.addsub": ("__add__", "__radd__", "__sub__", "__rsub__"),
    },
    ("exactpoly", "RationalFunction"): {
        "exactpoly.rational_function": (
            "__init__", "__add__", "__radd__", "__sub__", "__rsub__",
            "__neg__", "__mul__", "__rmul__", "__truediv__",
            "__rtruediv__", "__pow__", "reciprocal"),
    },
}


def _coeff_bits(c) -> int:
    if type(c) is int:
        return c.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Tracer:
    """Calls, self time and total time per metric name, plus work counts.

    Self time is a call's duration minus the time spent in wrapped calls
    it made; total time includes them.
    """

    def __init__(self):
        self.counters = {}
        self._stack = []

    def bump(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def wrap(self, name: str, fn, before=None, after=None):
        """A wrapper of fn that times every call under name."""
        counters, stack = self.counters, self._stack
        for suffix in ("calls", "self_s", "total_s"):
            counters.setdefault(f"{name}.{suffix}", 0)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                counters[f"{name}.calls"] += 1
                counters[f"{name}.self_s"] += elapsed - frame[0]
                counters[f"{name}.total_s"] += elapsed
            if after is not None:
                after(result)
            return result

        return timed

    # -- work counts ------------------------------------------------------

    def operand_sizes(self, name: str):
        def record(args):
            for poly in args[:2]:
                terms = getattr(poly, "terms", None)
                if terms:
                    self.peak(f"{name}.max_terms", len(terms))
                    self.peak(f"{name}.max_coeff_bits",
                              max(map(_coeff_bits, terms.values())))
        for suffix in ("max_terms", "max_coeff_bits"):
            self.counters.setdefault(f"{name}.{suffix}", 0)
        return record

    def mul_work(self):
        sizes = self.operand_sizes("exactpoly.mul")
        self.counters.setdefault("exactpoly.mul.term_products", 0)

        def record(args):
            a, b = args[0], args[1]
            self.bump("exactpoly.mul.term_products",
                      len(a.terms) * len(getattr(b, "terms", (0,))))
            sizes(args)
        return record

    def fold_letters(self, name: str):
        self.counters.setdefault(f"{name}.letters", 0)

        def record(args):
            self.bump(f"{name}.letters",
                      sum(abs(exp) for _, exp in args[0].letters))
        return record

    def report_counts(self, name: str):
        for suffix in ("reports", "failed"):
            self.counters.setdefault(f"{name}.{suffix}", 0)

        def record(reports):
            self.bump(f"{name}.reports", len(reports))
            self.bump(f"{name}.failed", sum(not r.passed for r in reports))
        return record


def knotpoly_modules() -> dict:
    """Every module of the knotpoly package, imported, by short name."""
    import knotpoly
    modules = {"knotpoly": knotpoly}
    for info in pkgutil.iter_modules(knotpoly.__path__):
        modules[info.name] = importlib.import_module(f"knotpoly.{info.name}")
    return modules


def find_caches(modules: dict) -> dict:
    """Every lru_cache in the package, found by its cache_info, by name."""
    caches = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if (callable(getattr(obj, "cache_info", None))
                    and getattr(obj, "__module__", None) == module.__name__):
                caches[f"cache.{short}.{attr}"] = obj
    return caches


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap the public functions and the layer methods, every alias too."""
    hooks = {
        "exactpoly.exact_div": (tracer.operand_sizes("exactpoly.exact_div"),
                                None),
        "sl2trace.trace_poly_with": (
            tracer.fold_letters("sl2trace.trace_poly_with"), None),
    }
    replacements = {}
    for short, module in modules.items():
        for attr, obj in list(vars(module).items()):
            # Functions and lru_cache-wrapped functions defined here.
            if (attr.startswith("_")
                    or not inspect.isfunction(getattr(obj, "__wrapped__", obj))
                    or obj.__module__ != module.__name__):
                continue
            name = GROUPS.get(f"{short}.{attr}", f"{short}.{attr}")
            before, after = hooks.get(name, (None, None))
            if name.startswith("verify.check_"):
                after = tracer.report_counts(name)
            replacements[id(obj)] = (obj, tracer.wrap(name, obj, before,
                                                      after))
    # Rebind every alias: the defining module and each `from .x import y`.
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            entry = replacements.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, attr, entry[1])
    for (short, cls_name), groups in METHODS.items():
        cls = getattr(modules[short], cls_name)
        for name, attrs in groups.items():
            before = tracer.mul_work() if name == "exactpoly.mul" else None
            done = {}
            for attr in attrs:
                fn = cls.__dict__[attr]
                if id(fn) not in done:
                    done[id(fn)] = tracer.wrap(name, fn, before)
                setattr(cls, attr, done[id(fn)])


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    modules = knotpoly_modules()
    caches = find_caches(modules)
    install(tracer, modules)
    try:
        code = modules["cli"].main(cli_args)
    finally:
        sys.stdout.flush()
        counters = dict(tracer.counters)
        for name, cache in caches.items():
            info = cache.cache_info()
            counters[f"{name}.hits"] = info.hits
            counters[f"{name}.misses"] = info.misses
            counters[f"{name}.size"] = info.currsize
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(counters, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
