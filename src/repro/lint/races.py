"""Pass 4: static races across the runtime thread boundary (DVS012/013).

The live runtime (DESIGN.md section 9) is a two-thread system: a
synchronous facade runs on the caller's thread while the nodes, links
and timers live on a background asyncio loop.  The only sanctioned ways
across are the *designated handoffs* -- ``run_coroutine_threadsafe``
and ``call_soon_threadsafe`` -- so this pass recovers the two sides
from the call graph and checks the discipline:

- a **facade class** is a class in a runtime module (``config.
  runtime_globs``) that starts a ``threading.Thread``; its public
  methods (plus ``__enter__``/``__exit__``) are *caller-thread roots*,
  its ``async`` methods run on the loop;
- a **loop-owned class** is any other runtime class with an ``async``
  method, closed under the class-attribute points-to relation (the
  hosted gcs layers a node references are loop-owned too);
- everything transitively called from a caller-thread root *without
  passing a handoff* executes on the caller's thread; everything
  reachable from loop roots (async methods, handoff-passed callables)
  executes on the loop.

**DVS012** flags an attribute of a runtime class written on one side
and touched on the other.  **DVS013** flags a caller-thread call whose
resolved target is a method of a loop-owned object (or a
non-threadsafe event-loop API, or a bare coroutine construction) --
the exact mistake deleting a handoff wrap introduces.

Findings are reported at the caller-thread site, so a deliberate
exception is a one-line ``# lint: ignore[DVS012]`` with its
justification next to the code it excuses.
"""

import ast

from repro.lint.callgraph import (
    External,
    LoopCall,
    ProjectAnalysis,
    Target,
)
from repro.lint.report import Finding

#: The designated cross-thread handoffs.
HANDOFF_NAMES = frozenset({
    "run_coroutine_threadsafe", "call_soon_threadsafe",
})

#: Event-loop methods that are documented thread-safe (or only touched
#: after the loop stopped) and therefore fine from the caller's thread.
LOOP_THREADSAFE = frozenset(HANDOFF_NAMES | {
    "is_running", "is_closed", "close", "time",
})

#: Loop APIs that schedule their callable arguments onto the loop.
_LOOP_SCHEDULERS = frozenset({
    "call_soon", "call_later", "call_at", "ensure_future",
    "create_task",
} | HANDOFF_NAMES)

_EXTERNAL_HANDOFFS = frozenset({
    "asyncio.run_coroutine_threadsafe",
})

_THREAD_CTORS = frozenset({"threading.Thread", "Thread"})


def _is_runtime_module(config, path):
    return config.is_runtime_path(path)


class _Side:
    """Accesses and visit bookkeeping for one side of the boundary."""

    def __init__(self):
        self.visited = set()
        #: (class, attr) -> {kind -> [(path, line)]}
        self.accesses = {}

    def record(self, klass, access, path):
        kinds = self.accesses.setdefault((klass, access.attr), {})
        kinds.setdefault(access.kind, []).append(
            (path, access.line, access.col)
        )


class _ThreadBoundaryAnalysis(ProjectAnalysis):
    def __init__(self, model, config):
        super().__init__(model, config)
        self.sync = _Side()
        self.loop = _Side()
        self._loop_roots = []
        self.facades = []
        self.loop_owned = set()

    # -- Classification ------------------------------------------------

    def classify(self):
        runtime_classes = []
        for name, cls in self.project.classes.items():
            if _is_runtime_module(self.config, cls.path):
                runtime_classes.append(cls)
        for cls in runtime_classes:
            if self._starts_thread(cls):
                self.facades.append(cls)
        facade_names = {cls.name for cls in self.facades}
        seeds = [
            cls.name for cls in runtime_classes
            if cls.name not in facade_names and cls.has_async_method()
        ]
        # Close loop ownership over the points-to relation: the layer
        # objects a loop-owned object holds are loop-owned too.
        worklist = list(seeds)
        while worklist:
            name = worklist.pop()
            if name in self.loop_owned:
                continue
            self.loop_owned.add(name)
            cls = self.project.classes.get(name)
            if cls is None:
                continue
            referenced = set()
            for ir in cls.methods.values():
                for attr in ir.assigned_attrs("self"):
                    referenced |= self.project.attr_classes(name, attr)
            for ref in referenced:
                if ref not in facade_names:
                    worklist.append(ref)

    def _starts_thread(self, cls):
        for ir in cls.methods.values():
            for site in ir.calls:
                for res in self.project.resolve(site, ir):
                    if isinstance(res, External) and (
                        res.dotted in _THREAD_CTORS
                    ):
                        return True
        return False

    # -- Traversal -----------------------------------------------------

    def run(self):
        self.classify()
        if not self.facades:
            return []
        for cls in self.facades:
            for name, ir in sorted(cls.methods.items()):
                if ir.is_async:
                    self._loop_roots.append((cls.name, name, ir))
                elif self._is_sync_root(name):
                    self._walk_sync(cls.name, name, ir)
        # Loop side: every method of a loop-owned runtime class, the
        # facade's async methods, and handoff-passed callables.
        for name in sorted(self.loop_owned):
            cls = self.project.classes.get(name)
            if cls is None or not _is_runtime_module(
                self.config, cls.path
            ):
                continue
            for method, ir in sorted(cls.methods.items()):
                self._loop_roots.append((name, method, ir))
        for klass, method, ir in self._loop_roots:
            self._walk_loop(klass, method, ir)
        self._report_conflicts()
        return self.findings

    @staticmethod
    def _is_sync_root(name):
        if name in ("__enter__", "__exit__"):
            return True
        return not name.startswith("_")

    def _collect(self, side, klass, ir):
        if not _is_runtime_module(self.config, ir.path):
            return
        for access in ir.attr_accesses("self"):
            side.record(klass, access, ir.path)

    def _walk_sync(self, klass, method, ir):
        key = (klass, method, ir.path)
        if key in self.sync.visited:
            return
        self.sync.visited.add(key)
        if method != "__init__":
            self._collect(self.sync, klass, ir)
        resolved = [
            (site, self.project.resolve(site, ir)) for site in ir.calls
        ]
        # A call written as a handoff *argument* -- e.g. the coroutine
        # construction in run_coroutine_threadsafe(self._boot(), loop)
        # -- is consumed by the handoff, not executed sync-side.
        shielded = set()
        for site, resolutions in resolved:
            if self._is_handoff(site, resolutions):
                self._register_handoff_args(klass, site, ir)
                for arg in site.node.args:
                    shielded.add(id(arg))
        for site, resolutions in resolved:
            if self._is_handoff(site, resolutions):
                continue
            if id(site.node) in shielded:
                continue
            for res in resolutions:
                if isinstance(res, LoopCall):
                    if res.method not in LOOP_THREADSAFE:
                        self._flag_013(
                            site,
                            ir,
                            "event-loop method {0}() is not threadsafe; "
                            "only {1} may be called off-loop".format(
                                res.method,
                                "/".join(sorted(HANDOFF_NAMES)),
                            ),
                        )
                elif isinstance(res, Target):
                    if res.klass in self.loop_owned:
                        self._flag_013(
                            site,
                            ir,
                            "{0}.{1}() belongs to the event-loop side; "
                            "marshal the call through a designated "
                            "handoff".format(res.klass, res.name),
                        )
                    elif res.ir is not None and res.ir.is_async:
                        self._flag_013(
                            site,
                            ir,
                            "calling async {0}() from the caller thread "
                            "builds a coroutine that never runs; submit "
                            "it with run_coroutine_threadsafe".format(
                                res.name
                            ),
                        )
                    elif res.ir is not None:
                        self._walk_sync(
                            res.klass if res.klass else klass,
                            res.name,
                            res.ir,
                        )

    def _walk_loop(self, klass, method, ir):
        key = (klass, method, ir.path)
        if key in self.loop.visited:
            return
        self.loop.visited.add(key)
        if method != "__init__":
            self._collect(self.loop, klass, ir)
        for inner in ir.nested.values():
            # A nested function defined on the loop side runs there
            # (timer bodies, poll loops).
            self._walk_loop(klass, method + "." + inner.name, inner)
        for site in ir.calls:
            for res in self.project.resolve(site, ir):
                if isinstance(res, Target) and res.ir is not None:
                    if _is_runtime_module(self.config, res.ir.path):
                        self._walk_loop(
                            res.klass if res.klass else klass,
                            res.name,
                            res.ir,
                        )

    def _is_handoff(self, site, resolutions):
        for res in resolutions:
            if isinstance(res, LoopCall) and res.method in HANDOFF_NAMES:
                return True
            if isinstance(res, External) and (
                res.dotted in _EXTERNAL_HANDOFFS
                or res.dotted.rpartition(".")[2] in HANDOFF_NAMES
            ):
                return True
        if not resolutions and site.callee in HANDOFF_NAMES:
            return True
        return False

    def _register_handoff_args(self, klass, site, ir):
        """Callable arguments of a handoff run on the loop."""
        for arg in site.node.args:
            target = None
            if isinstance(arg, ast.Attribute) and isinstance(
                arg.value, ast.Name
            ) and arg.value.id == "self":
                target = self.project._lookup_method(klass, arg.attr)
            elif isinstance(arg, ast.Name) and arg.id in ir.nested:
                target = Target(klass, arg.id, ir.nested[arg.id])
            elif isinstance(arg, ast.Call):
                func = arg.func
                if isinstance(func, ast.Name) and func.id in ir.nested:
                    target = Target(
                        klass, func.id, ir.nested[func.id]
                    )
                elif isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Name
                ) and func.value.id == "self":
                    target = self.project._lookup_method(
                        klass, func.attr
                    )
            if target is not None and target.ir is not None:
                self._loop_roots.append(
                    (target.klass or klass, target.name, target.ir)
                )

    # -- Findings ------------------------------------------------------

    def _flag_013(self, site, ir, detail):
        self._flag(
            "DVS013", site.node, ir,
            "caller-thread call crosses the loop boundary: " + detail,
        )

    def _report_conflicts(self):
        if not self.config.enabled("DVS012"):
            return
        keys = sorted(
            set(self.sync.accesses) | set(self.loop.accesses)
        )
        for key in keys:
            klass, attr = key
            sync_kinds = self.sync.accesses.get(key, {})
            loop_kinds = self.loop.accesses.get(key, {})
            sync_writes = sync_kinds.get("write", []) + sync_kinds.get(
                "mutate", []
            )
            loop_writes = loop_kinds.get("write", []) + loop_kinds.get(
                "mutate", []
            )
            sync_reads = sync_kinds.get("read", [])
            loop_reads = loop_kinds.get("read", [])
            conflict = bool(
                (sync_writes and (loop_writes or loop_reads))
                or (loop_writes and sync_reads)
            )
            if not conflict:
                continue
            loop_site = sorted(loop_writes or loop_reads)[0]
            loop_desc = "{0}:{1}".format(
                loop_site[0].rpartition("/")[2], loop_site[1]
            )
            seen_lines = set()
            for path, line, col in sorted(sync_writes + sync_reads):
                if (path, line) in seen_lines:
                    continue
                seen_lines.add((path, line))
                self.findings.append(Finding(
                    rule="DVS012", path=path, line=line, col=col,
                    message=(
                        "{0}.{1} is {2} on the event-loop side ({3}) "
                        "and touched here on the caller thread without "
                        "a designated handoff".format(
                            klass, attr,
                            "written" if loop_writes else "read",
                            loop_desc,
                        )
                    ),
                ))


def run_pass(model, config):
    """All pass-4 findings over the model."""
    if not (config.enabled("DVS012") or config.enabled("DVS013")):
        return []
    if not any(
        _is_runtime_module(config, module.path)
        for module in model.modules
    ):
        return []
    return _ThreadBoundaryAnalysis(model, config).run()
