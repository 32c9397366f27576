"""Per-layer tracing of semilab from outside the package.

`Tracer.install()` replaces every binding of every public function of
the seven modules with a wrapper: the module attribute, each copy made
by `from .x import f` in another module or in the package `__init__`,
and the `__init__` and public methods of public classes (patched on the
class, so `isinstance` keeps working).  `uncovered()` then lists any
public binding that still points at an unwrapped function.

A wrapper keeps a stack of open calls.  Self time is a call's duration
minus the durations of the wrapped calls made inside it, so the self
times of one pass add up to the time spent inside `cli.main`.  The
helper in COUNT_ONLY is called about 90 000 times a pass on tiny arrays
in `verify_random`; timing it would add about a microsecond per call to
numkernel, so its calls are counted and its time stays in the caller's
self time.
"""

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("numkernel", "cayley", "sysnode", "feedback", "pdelab", "simkit", "cli")
COUNT_ONLY = frozenset(["numkernel.as_complex_matrix"])


def _public_targets(module, layer):
    """(owner, attribute, traced name) for each public function of a module."""
    for public in module.__all__:
        obj = getattr(module, public)
        if inspect.isfunction(obj):
            yield module, public, "%s.%s" % (layer, public)
        elif inspect.isclass(obj) and not issubclass(obj, (tuple, BaseException)):
            # namedtuple records and exceptions carry no work of their own
            for attr, member in vars(obj).items():
                if not inspect.isfunction(member):
                    continue
                if attr == "__init__":
                    yield obj, attr, "%s.%s" % (layer, public)
                elif not attr.startswith("_"):
                    yield obj, attr, "%s.%s.%s" % (layer, public, attr)


class Tracer(object):
    """Call counts, self time and escaped exceptions per wrapped function."""

    def __init__(self):
        self.modules = {layer: importlib.import_module("semilab." + layer)
                        for layer in LAYERS}
        self.stats = {}
        self.layer_errors = dict.fromkeys(LAYERS, 0)
        self._stack = []
        self._wrappers = {}
        self._patches = []
        for layer, module in self.modules.items():
            for owner, attr, name in _public_targets(module, layer):
                original = vars(owner)[attr]
                self.stats[name] = [0, 0.0]
                self._wrappers[original] = self._wrap(original, name, layer)

    def _wrap(self, fn, name, layer):
        entry = self.stats[name]
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                entry[0] += 1
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        layer_errors = self.layer_errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                # an exception leaves the layer when no caller of the same
                # layer is there to receive it
                if len(stack) < 2 or stack[-2][0] != layer:
                    layer_errors[layer] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                entry[0] += 1
                entry[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
        return timed

    def _semilab_namespaces(self):
        for name, module in list(sys.modules.items()):
            if name == "semilab" or name.startswith("semilab."):
                yield module
        for layer, module in self.modules.items():
            for owner, _, _ in _public_targets(module, layer):
                if owner is not module:
                    yield owner

    def install(self):
        if self._patches:
            return
        for owner in set(self._semilab_namespaces()):
            for attr, value in list(vars(owner).items()):
                wrapper = self._wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def uncovered(self):
        """Public bindings that still reach an unwrapped function.

        Looks at module attributes, at functions held in module-level
        dicts, lists and tuples, and at methods of the wrapped classes.
        """
        problems = []
        wrapped = set(self._wrappers.values())
        for owner in set(self._semilab_namespaces()):
            for attr, value in vars(owner).items():
                values = [value]
                if isinstance(value, dict):
                    values = list(value.values())
                elif isinstance(value, (list, tuple)):
                    values = list(value)
                for item in values:
                    if inspect.isfunction(item) and item in self._wrappers:
                        problems.append("%s.%s" % (owner.__name__, attr))
        for layer, module in self.modules.items():
            for owner, attr, name in _public_targets(module, layer):
                if vars(owner)[attr] not in wrapped:
                    problems.append(name)
        return sorted(set(problems))

    def take(self):
        """Return this pass's {name: [calls, self_s]} and layer errors, then reset."""
        stats = {name: list(entry) for name, entry in self.stats.items()}
        errors = dict(self.layer_errors)
        for entry in self.stats.values():
            entry[0] = 0
            entry[1] = 0.0
        for layer in self.layer_errors:
            self.layer_errors[layer] = 0
        return stats, errors
