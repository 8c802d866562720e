"""In-memory spans around the library's public functions, recorded from outside.

``Tracer.install`` replaces public functions on their modules with wrappers
that record one span per call: (id, name, start_ns, end_ns, parent, attrs).
The library looks these functions up as module attributes at call time
(``integrality.decide`` calls ``bernoulli.vsc_denominator``, which calls
``primes.vsc_primes``), so nested calls are traced as well, without any
change to the library itself.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import time

# (module name, function name, attrs(args, result) -> dict)
TRACED = (
    ("primes", "vsc_primes", lambda a, r: {"k": a[0]}),
    ("bernoulli", "vsc_denominator", lambda a, r: {"k": a[0]}),
    ("bernoulli", "bernoulli_recursive", lambda a, r: {"limit": a[0]}),
    ("bernoulli", "bernoulli_egf", lambda a, r: {"limit": a[0]}),
    ("powersum", "s_faulhaber", lambda a, r: {"k": a[0].k}),
    ("powersum", "s_recursive", lambda a, r: {"kmax": a[0]}),
    ("powersum", "mu", lambda a, r: {"k": a[0].k}),
    ("integrality", "decide", lambda a, r: {"k": a[0], "integral": r.integral}),
    ("integrality", "grid", lambda a, r: {"kmax": a[0], "nmax": a[1]}),
    ("cli", "main", lambda a, r: {"command": a[0][0]}),
)


class Tracer:
    """Span recorder; spans stay in memory until the caller writes them out."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phase = "replay"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, attrs):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans),
                "name": name,
                "parent": stack[-1] if stack else None,
                "phase": self.phase,
                "attrs": {},
            }
            spans.append(span)
            stack.append(span["id"])
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                stack.pop()
            span["attrs"] = attrs(args, result)
            return result

        return wrapper

    def install(self, modules: dict[str, object]) -> None:
        for mod_name, fn_name, attrs in TRACED:
            module = modules[mod_name]
            fn = getattr(module, fn_name)
            self._saved.append((module, fn_name, fn))
            setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", fn, attrs))

    def uninstall(self) -> None:
        for module, fn_name, fn in reversed(self._saved):
            setattr(module, fn_name, fn)
        self._saved.clear()
