"""In-memory call tracer for the traced benchmark run.

The tracer replaces module-level names (the kernels that dedsum.scans,
dedsum.congruence, dedsum.contfrac and dedsum.dedekind look up at call
time) with timing wrappers, only while the traced run lasts. Calls are
aggregated into a tree keyed by call path, so a span is a path such as
scans.theorem2 > congruence.bt_residue > arith.jacobi together with its
call count and total seconds. A node's self time is its total minus
that of its direct children.

A name that no longer exists is skipped, so after a refactor its
metrics read 0 calls instead of the run crashing. Every patched name is
restored when the `installed` block exits, also on error.
"""

import contextlib
import functools
import importlib
import json
import time

# (module whose global is patched, name in that module, metric name).
# The metric name is the layer the call crosses into.
KERNEL_SPECS = (
    ("dedsum.scans", "_fast_parts", "dedekind._fast_parts"),
    ("dedsum.scans", "b_times_s", "dedekind.b_times_s"),
    ("dedsum.scans", "naive_bs_row", "dedekind.naive_bs_row"),
    ("dedsum.scans", "t_value", "contfrac.t_value"),
    ("dedsum.scans", "mod_inverse", "arith.mod_inverse"),
    ("dedsum.scans", "mu", "congruence.mu"),
    ("dedsum.scans", "mu_original", "congruence.mu_original"),
    ("dedsum.scans", "bt_residue", "congruence.bt_residue"),
    ("dedsum.scans", "bt_congruence_mod8", "congruence.bt_congruence_mod8"),
    ("dedsum.congruence", "mu", "congruence.mu"),
    ("dedsum.congruence", "jacobi", "arith.jacobi"),
    ("dedsum.congruence", "mod_inverse", "arith.mod_inverse"),
    ("dedsum.congruence", "t_value", "contfrac.t_value"),
    ("dedsum.congruence", "b_times_s", "dedekind.b_times_s"),
    ("dedsum.contfrac", "cf_expand", "contfrac.cf_expand"),
    ("dedsum.dedekind", "_fast_parts", "dedekind._fast_parts"),
)

KERNELS = tuple(dict.fromkeys(name for _, _, name in KERNEL_SPECS))


def _naive_row_bytes(args, result) -> int:
    """int64 bytes of the residue-by-k block one naive row computes."""
    residues, _ = result
    return 8 * len(residues) * (args[0] - 1)


# Byte counts computed from a call's arguments and result.
BYTE_COUNTERS = {"dedekind.naive_bs_row": _naive_row_bytes}


class Node:
    __slots__ = ("calls", "seconds", "bytes", "children")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.bytes = 0
        self.children: dict[str, "Node"] = {}

    @property
    def self_seconds(self) -> float:
        return self.seconds - sum(c.seconds for c in self.children.values())

    def as_dict(self, name: str) -> dict:
        return {
            "name": name,
            "calls": self.calls,
            "seconds": self.seconds,
            "bytes": self.bytes,
            "children": [c.as_dict(n) for n, c in self.children.items()],
        }


class Tracer:
    def __init__(self):
        self.root = Node()
        self._stack = [self.root]

    def _enter(self, name: str) -> Node:
        parent = self._stack[-1]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = Node()
        self._stack.append(node)
        return node

    def _wrap(self, fn, name: str):
        enter, stack = self._enter, self._stack
        clock = time.perf_counter
        count_bytes = BYTE_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            node = enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                node.seconds += clock() - start
                node.calls += 1
                stack.pop()
            if count_bytes is not None:
                node.bytes += count_bytes(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, specs=KERNEL_SPECS):
        """Patch every spec whose name still exists; restore all on exit."""
        patched = []
        try:
            for module_name, attr, name in specs:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if callable(original):
                    setattr(module, attr, self._wrap(original, name))
                    patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span recorded from the benchmark's side of a call."""
        node = self._enter(name)
        start = time.perf_counter()
        try:
            yield node
        finally:
            node.seconds += time.perf_counter() - start
            node.calls += 1
            self._stack.pop()

    def add(self, name: str, seconds: float) -> None:
        """A top-level span timed elsewhere, such as in a worker process."""
        node = self.root.children.setdefault(name, Node())
        node.calls += 1
        node.seconds += seconds

    def totals(self) -> dict[str, Node]:
        """Calls, seconds and bytes per name, summed over every call path."""
        out: dict[str, Node] = {}
        pending = list(self.root.children.items())
        while pending:
            name, node = pending.pop()
            total = out.setdefault(name, Node())
            total.calls += node.calls
            total.seconds += node.seconds
            total.bytes += node.bytes
            pending.extend(node.children.items())
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.root.as_dict("root")["children"], handle, indent=1)
