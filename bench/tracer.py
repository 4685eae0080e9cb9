"""In-process tracing of `rgraph score` by rebinding layer functions.

`install` replaces a public function of a layer with a wrapper in every
loaded `rgraph` module that holds a reference to it, so calls made through
`from .x import f` bindings are traced too; `restore` puts the originals
back. No file of the program changes. Each wrapped call records a span
(name, start, end, parent) in flat arrays kept in memory; `write` dumps them
when the run ends. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, before=None, after=None):
        """A traced stand-in for fn.

        `before(args)` may pick the span name from the arguments and
        `after(args, result)` from the result; both run outside the span.
        """
        default = self.name_id(name)
        names, start, end, parent, stack = self.name, self.start, self.end, self.parent, self._stack

        def traced(*args, **kwargs):
            nid = self.name_id(before(args)) if before else default
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = _now()
                stack.pop()
            if after:
                names[idx] = self.name_id(after(args, result))
            return result

        return traced

    def install(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Rebind owner.attr, and every loaded rgraph module's name for it, to a wrapper.

        A module imported later takes whatever binding exists at its import,
        so load the program's modules before installing.
        """
        original = getattr(owner, attr)
        traced = self.wrap(original, name, before, after)
        targets = [owner] + [
            m for key, m in sys.modules.items()
            if (key == "rgraph" or key.startswith("rgraph.")) and m is not owner
        ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._bindings.append((target, key, original))
                    setattr(target, key, traced)

    def restore(self) -> None:
        for target, key, original in reversed(self._bindings):
            setattr(target, key, original)
        self._bindings.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self time in microseconds."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name[i]], {"calls": 0, "us": 0.0, "self_us": 0.0})
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["us"] += dur / 1e3
            row["self_us"] += (dur - child[i]) / 1e3
        return out

    def write(self, path: str) -> None:
        """Spans as gzipped TSV: index, name, start_ns, end_ns, parent index."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n"
                )
