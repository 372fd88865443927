"""Outside-in layer tracing for the agsplab package.

Every public function and public-class method of every `agsplab` module is
discovered at install time and wrapped in a span recorder.  Each wrapper is
bound at every import site (the defining module, modules that imported the
name, and the package namespace); `install` fails if any unwrapped
reference is left.  A layer is the module that defines the function, and a
layer's self time is its span time minus the time covered by child spans.

Kernel counters sit at the numpy/scipy boundary: dense SVDs (including
matrix 2-norms, which are SVDs), dense Hermitian eigensolves and the
ARPACK sparse solvers.  Flop counts are computed from shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from time import perf_counter

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

# Layers reported as metrics; other modules are traced but only appear in
# the written trace.
LAYERS = ("hamiltonian", "spectral", "truncation", "effective", "agsp", "entanglement", "experiment")


def _svd_flops(a) -> int:
    shape = np.shape(a)
    m, n = shape[-2], shape[-1]
    return int(np.prod(shape[:-2], dtype=np.int64)) * m * n * min(m, n)


def _eig_flops(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3


def _last_dim(a) -> int:
    return np.shape(a)[-1]


def _is_matrix_2norm(x, ord=None, *args, **kwargs) -> bool:
    return ord == 2 and np.ndim(x) == 2


class _Kernel:
    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.flops = 0
        self.max_dim = 0


class Tracer:
    """Span and kernel-counter recorder; `install()` patches, `uninstall()` restores."""

    def __init__(self, package):
        self.package = package
        self.full_dim: int | None = None  # d^n of the config being run
        self.layer_calls: dict[str, int] = {}
        self.layer_self: dict[str, float] = {}
        self.functions: dict[str, list] = {}  # qualname -> [calls, total_s, self_s]
        self.kernels = {"svd": _Kernel(), "eig": _Kernel(), "sparse": _Kernel()}
        self.full_assemblies = 0
        self.dense_bytes = 0
        self._stack: list[list] = []  # [layer, child_s] per open span
        self._in_kernel = False
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _span(self, fn, layer: str, qualname: str):
        stack = self._stack
        calls, selfs, funcs = self.layer_calls, self.layer_self, self.functions
        calls.setdefault(layer, 0)
        selfs.setdefault(layer, 0.0)
        stats = funcs.setdefault(qualname, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                calls[layer] += 1
                selfs[layer] += own
                stats[0] += 1
                stats[1] += dur
                stats[2] += own
            if layer == "hamiltonian" and (not stack or stack[-1][0] != "hamiltonian"):
                self._count_assembly(result)
            return result

        traced.__bench_traced__ = True
        return traced

    def _count_assembly(self, result) -> None:
        """Count full d^n x d^n operators handed out of the hamiltonian layer."""
        if isinstance(result, np.ndarray) and result.ndim == 2 and result.shape == (self.full_dim,) * 2:
            self.full_assemblies += 1
            self.dense_bytes += result.nbytes

    # ------------------------------------------------------------ kernels

    def _kernel(self, kind: str, fn, dims=None, flops=None, applies=None):
        k = self.kernels[kind]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._in_kernel or (applies is not None and not applies(*args, **kwargs)):
                return fn(*args, **kwargs)
            self._in_kernel = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                k.seconds += perf_counter() - t0
                self._in_kernel = False
                k.calls += 1
                if flops is not None:
                    k.flops += flops(args[0])
                if dims is not None:
                    k.max_dim = max(k.max_dim, dims(args[0]))

        counted.__bench_traced__ = True
        return counted

    @staticmethod
    def _kernel_patches():
        return [
            (np.linalg, "svd", dict(kind="svd", flops=_svd_flops)),
            (np.linalg, "norm", dict(kind="svd", flops=_svd_flops, applies=_is_matrix_2norm)),
            (np.linalg, "eigh", dict(kind="eig", flops=_eig_flops, dims=_last_dim)),
            (np.linalg, "eigvalsh", dict(kind="eig", flops=_eig_flops, dims=_last_dim)),
            (scipy.linalg, "eigh", dict(kind="eig", flops=_eig_flops, dims=_last_dim)),
            (scipy.sparse.linalg, "svds", dict(kind="sparse")),
            (scipy.sparse.linalg, "eigsh", dict(kind="sparse")),
        ]

    # ------------------------------------------------------------ install

    def _modules(self):
        pkg = self.package
        return [importlib.import_module(f"{pkg.__name__}.{m.name}") for m in pkgutil.iter_modules(pkg.__path__)]

    def _targets(self, modules):
        """(owner, attribute, function, layer, qualname) for every public callable."""
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield mod, name, obj, layer, f"{layer}.{name}"
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        if attr.startswith("_"):
                            continue
                        if inspect.isfunction(member) or isinstance(member, (staticmethod, classmethod)):
                            yield obj, attr, member, layer, f"{layer}.{name}.{attr}"

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = self._modules()
        namespaces = [self.package, *modules]
        originals = {}  # id(original function) -> wrapper to rebind it to, None for class-bound ones
        for owner, name, member, layer, qual in list(self._targets(modules)):
            if isinstance(member, (staticmethod, classmethod)):
                wrapped = type(member)(self._span(member.__func__, layer, qual))
                originals[id(member.__func__)] = None
            else:
                wrapped = self._span(member, layer, qual)
                originals[id(member)] = wrapped
            self._set(owner, name, wrapped)
        # Rebind names imported elsewhere (`from .spectral import ground_state`).
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None:
                    self._set(ns, name, wrapped)

        kernel_originals = set()
        for owner, name, spec in self._kernel_patches():
            fn = getattr(owner, name)
            kernel_originals.add(id(fn))
            self._set(owner, name, self._kernel(fn=fn, **spec))
        self._assert_complete(namespaces, set(originals) | kernel_originals)

    def _assert_complete(self, namespaces, original_ids) -> None:
        """Fail if any module still reaches an unwrapped function or kernel."""
        stale = []
        for ns in namespaces:
            for name, value in vars(ns).items():
                values = value if isinstance(value, (list, tuple, set, frozenset)) else (
                    value.values() if isinstance(value, dict) else (value,)
                )
                if any(id(v) in original_ids for v in values):
                    stale.append(f"{ns.__name__}.{name}")
        if stale:
            self.uninstall()
            raise RuntimeError(f"unwrapped references remain after tracing install: {stale}")

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # ------------------------------------------------------------ results

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.layer_calls.get(layer, 0), "count")
            out[f"{layer}.self_s"] = (self.layer_self.get(layer, 0.0), "s")
        svd, eig, sparse = self.kernels["svd"], self.kernels["eig"], self.kernels["sparse"]
        out.update(
            {
                "kernel.svd.calls": (svd.calls, "count"),
                "kernel.svd.s": (svd.seconds, "s"),
                "kernel.svd.flops": (svd.flops, "flop_computed"),
                "kernel.eig.calls": (eig.calls, "count"),
                "kernel.eig.s": (eig.seconds, "s"),
                "kernel.eig.max_dim": (eig.max_dim, "count"),
                "kernel.eig.flops": (eig.flops, "flop_computed"),
                "kernel.sparse.calls": (sparse.calls, "count"),
                "kernel.sparse.s": (sparse.seconds, "s"),
                "hamiltonian.full_assemblies": (self.full_assemblies, "count"),
                "hamiltonian.dense_bytes": (self.dense_bytes, "B"),
            }
        )
        return out

    def layer_table(self) -> dict:
        """Every traced layer (not only LAYERS) and every function, for the trace file."""
        return {
            "layers": {
                layer: {"calls": self.layer_calls[layer], "self_s": self.layer_self[layer]}
                for layer in sorted(self.layer_calls)
            },
            "functions": {
                q: {"calls": c, "total_s": t, "self_s": s} for q, (c, t, s) in sorted(self.functions.items()) if c
            },
        }
