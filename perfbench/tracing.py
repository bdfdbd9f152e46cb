"""Span recording from outside the program, by rebinding its functions.

The package imports many functions by name (``rank_dense`` lives in
``linalg`` but is also bound in ``cohomology`` and ``presentation``;
``ulrich`` binds the cohomology functions; ``cli`` binds ``certify``,
``search`` and ``load``), so a wrapper installed only where a function is
defined would miss most calls.  ``Tracer.install`` therefore replaces every
module-level binding of the function object across the package, and
``restore`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

PACKAGE = "ulrich_forge"


def _rank_note(args, kwargs, result):
    m, n = np.shape(args[0])
    return (m, n, int(result))


def _nbytes_note(args, kwargs, result):
    return int(result.nbytes)


def _trials_note(args, kwargs, result):
    return int(result.report.trials_run)


# (module, function, note) for every wrapped function.  These are the calls
# that do each layer's work; cheap scalar helpers (shape, line_h,
# inverse_mod) stay unwrapped so the trace does not time its own overhead.
# ``poly`` is not wrapped: its tables are cached and built inside
# build_map_matrix, so they are charged to cohomology.assembly_s.
TARGETS = (
    ("linalg", "rank_dense", _rank_note),
    ("linalg", "rref", None),
    ("cohomology", "build_map_matrix", _nbytes_note),
    ("cohomology", "bundle_cohomology", None),
    ("cohomology", "h1_twist", None),
    ("cohomology", "dual_cohomology", None),
    ("cohomology", "section_space", None),
    ("cohomology", "form_action", None),
    ("cohomology", "end_cohomology", None),
    ("cohomology", "omega_table", None),
    ("presentation", "random_presentation", None),
    ("presentation", "generic_rank_check", None),
    ("presentation", "local_freeness_sample", None),
    ("presentation", "save", None),
    ("presentation", "load", None),
    ("presentation", "canonical_json_bytes", None),
    ("field", "ext_matrix_rank", None),
    ("ulrich", "certify", None),
    ("ulrich", "_full_profile_checks", None),
    ("search", "search", _trials_note),
    ("search", "sweep", None),
    ("cli", "main", None),
)


def package_modules() -> list:
    """The imported package modules, reached through sys.modules (the
    package __init__ shadows the ``search`` module with the function)."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def find_caches() -> list:
    """Every functools cache bound at module level in the package, so a
    pass can start as cold as a fresh process.  Call before install()."""
    seen = {}
    for mod in package_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                seen[id(value)] = value
    return list(seen.values())


class Tracer:
    """Records one span per call of each installed function; spans stay in
    memory until the caller takes them."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn, note):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = package_modules()
        by_name = {mod.__name__: mod for mod in modules}
        self.missing = []
        for module, func, note in self.targets:
            mod = by_name.get(f"{PACKAGE}.{module}")
            original = getattr(mod, func, None) if mod is not None else None
            if original is None:
                # a later version may delete the function; its metrics read 0
                self.missing.append(f"{module}.{func}")
                continue
            wrapped = self._wrap(f"{module}.{func}", original, note)
            for other in modules:
                for attr, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, attr, wrapped)
                        self._patched.append((other, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def take(self) -> list:
        """Return the recorded spans as tuples and start a new list."""
        out = [tuple(rec) for rec in self.spans]
        self.spans.clear()
        return out

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
