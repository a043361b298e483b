"""Pass 6: async-hazard analysis over the interprocedural IR.

The live runtime multiplexes every layer automaton onto one asyncio
loop, so the paper's atomicity assumptions hold only between suspension
points.  This pass classifies which functions run on the event loop --
every coroutine, plus every sync function reachable from one through
the call graph and every callable handed to a loop scheduler -- and
checks three hazard classes on that closure:

DVS016  a blocking call (``time.sleep``, sync socket/file IO,
        ``subprocess``, ``Future.result()``) reachable from a
        coroutine; it stalls heartbeats and timers cluster-wide.
DVS017  ``create_task``/``ensure_future`` whose result is dropped:
        the task is garbage-collectable mid-flight and its exception
        is silently lost.
DVS018  an ``await`` between two writes to the same ``self`` attribute:
        a handler scheduled at the suspension point can observe
        half-applied layer state.

Soundness caveats are documented in DESIGN.md section 13: reachability
stops where the receiver is unknown (silence, never a guess), DVS018
orders writes lexically (loop back-edges are not straddled), and
``except``/``finally`` blocks are exempt from DVS018 (cleanup code
legitimately re-touches state).
"""

import ast

from repro.lint.callgraph import (
    External,
    LoopCall,
    ProjectAnalysis,
    Target,
)
from repro.lint.ir import walk_skip_nested
from repro.lint.model import dotted_name
from repro.lint.report import Finding

#: Synchronous calls that block the hosting thread.  Flagged when the
#: enclosing function is loop-reachable; the facade/caller thread may
#: use them freely (``RuntimeCluster.wait_until`` polls with
#: ``time.sleep`` by design).
_BLOCKING_EXTERNALS = frozenset({
    "time.sleep",
    "socket.create_connection",
    "socket.getaddrinfo",
    "socket.gethostbyname",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "os.system",
    "os.waitpid",
    "select.select",
    "urllib.request.urlopen",
    "requests.get",
    "requests.post",
})

#: Blocking builtins called by bare name (the resolver returns nothing
#: for builtins, so they need their own table).
_BLOCKING_BUILTINS = frozenset({"open", "input"})

_TASK_FACTORIES = frozenset({"create_task", "ensure_future"})
_EXTERNAL_TASK_FACTORIES = frozenset({
    "asyncio.create_task", "asyncio.ensure_future",
})

_HANDOFF_FACTORY = "run_coroutine_threadsafe"


def _cleanup_lines(func_node):
    """Line numbers inside ``except`` handlers and ``finally`` blocks."""
    lines = set()
    for node in ast.walk(func_node):
        if not isinstance(node, ast.Try):
            continue
        regions = list(node.handlers) + list(node.finalbody)
        for region in regions:
            end = getattr(region, "end_lineno", None) or region.lineno
            lines.update(range(region.lineno, end + 1))
    return lines


class _AsyncHazardAnalysis(ProjectAnalysis):
    def __init__(self, model, config):
        super().__init__(model, config)
        self._visited = set()
        self._modules = {m.path: m for m in model.modules}
        #: ``(klass, ir)`` for every function defined in a runtime
        #: module, including module functions and nested definitions.
        self._runtime_irs = self.project.functions_in(
            config.is_runtime_path
        )

    # -- Entry ---------------------------------------------------------

    def run(self):
        seeds = self._seeds()
        for qualname, klass, ir in seeds:
            self._walk(qualname, klass, ir)
        self._check_dropped_tasks()
        self._check_torn_writes()
        self.findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return self.findings

    # -- Loop-side closure (DVS016) ------------------------------------

    def _seeds(self):
        """Every coroutine in a runtime module is a loop root; so is
        every callable handed to a loop scheduler from one."""
        seeds = []
        for klass, ir in self._runtime_irs:
            if ir.is_async:
                seeds.append((ir.qualname, klass, ir))
        return seeds

    def _walk(self, origin, klass, ir):
        if id(ir) in self._visited:
            return
        self._visited.add(id(ir))
        for inner in sorted(ir.nested):
            self._walk(origin, klass, ir.nested[inner])
        for site in ir.calls:
            resolutions = self.project.resolve(site, ir)
            self._check_blocking(origin, ir, site, resolutions)
            for res in resolutions:
                if isinstance(res, Target) and res.ir is not None:
                    self._walk(
                        origin, res.klass if res.klass else klass, res.ir
                    )

    def _check_blocking(self, origin, ir, site, resolutions):
        for res in resolutions:
            if isinstance(res, External) and (
                res.dotted in _BLOCKING_EXTERNALS
            ):
                self._flag(
                    "DVS016", site.node, ir,
                    "blocking call {0}() runs on the event loop "
                    "(reachable from coroutine {1}); it stalls every "
                    "timer and heartbeat hosted there".format(
                        res.dotted, origin
                    ),
                )
        if not resolutions and site.root is None and (
            site.callee in _BLOCKING_BUILTINS
        ):
            self._flag(
                "DVS016", site.node, ir,
                "blocking builtin {0}() runs on the event loop "
                "(reachable from coroutine {1}); use a thread "
                "executor for synchronous IO".format(
                    site.callee, origin
                ),
            )
        if (
            site.callee == "result"
            and site.root is not None
            and len(site.chain) == 1
            and self._is_threadsafe_future(site.root, ir)
        ):
            self._flag(
                "DVS016", site.node, ir,
                "{0}.result() blocks the loop thread waiting on the "
                "loop itself (reachable from coroutine {1}); await "
                "the coroutine instead".format(site.root, origin),
            )

    def _is_threadsafe_future(self, name, ir):
        value = ir.local_values.get(name)
        if not isinstance(value, ast.Call):
            return False
        dotted = dotted_name(value.func)
        if dotted is None:
            return False
        return dotted.rpartition(".")[2] == _HANDOFF_FACTORY

    # -- Dropped tasks (DVS017) ----------------------------------------

    def _check_dropped_tasks(self):
        for klass, ir in self._runtime_irs:
            module = self._modules.get(ir.path)
            if module is None:
                continue
            for site in ir.calls:
                if site.callee not in _TASK_FACTORIES:
                    continue
                if not self._is_task_factory(site, ir):
                    continue
                parent = module.parents.get(site.node)
                if isinstance(parent, ast.Expr):
                    self._flag(
                        "DVS017", site.node, ir,
                        "the task returned by {0}() is dropped: with "
                        "no reference it can be collected mid-flight "
                        "and its exception is silently lost; keep the "
                        "handle or add a done-callback".format(
                            site.callee
                        ),
                    )

    def _is_task_factory(self, site, ir):
        for res in self.project.resolve(site, ir):
            if isinstance(res, External) and (
                res.dotted in _EXTERNAL_TASK_FACTORIES
            ):
                return True
            if isinstance(res, LoopCall) and (
                res.method in _TASK_FACTORIES
            ):
                return True
        return False

    # -- Torn invariants (DVS018) --------------------------------------

    def _check_torn_writes(self):
        for klass, ir in self._runtime_irs:
            if ir.is_async:
                self._check_torn_in(ir)

    def _check_torn_in(self, ir):
        cleanup = _cleanup_lines(ir.node)
        awaits = sorted({
            node.lineno
            for node in walk_skip_nested(ir.node)
            if isinstance(node, ast.Await)
            and node.lineno not in cleanup
        })
        if not awaits:
            return
        writes = {}
        for access in ir.attr_accesses("self"):
            if access.kind in ("write", "mutate") and (
                access.line not in cleanup
            ):
                writes.setdefault(access.attr, set()).add(access.line)
        flagged = set()
        for attr in sorted(writes):
            lines = sorted(writes[attr])
            if len(lines) < 2:
                continue
            for at in awaits:
                before = [l for l in lines if l < at]
                after = [l for l in lines if l > at]
                if before and after and (attr, at) not in flagged:
                    flagged.add((attr, at))
                    self.findings.append(Finding(
                        rule="DVS018", path=ir.path, line=at, col=0,
                        message="await between writes to self.{0} "
                        "(lines {1} and {2}): a handler scheduled at "
                        "this suspension point observes half-applied "
                        "state; apply the update atomically or "
                        "re-validate after the await".format(
                            attr, before[-1], after[0]
                        ),
                    ))


def run_pass(model, config):
    """All pass-7 findings over the model."""
    wanted = ("DVS016", "DVS017", "DVS018")
    if not any(config.enabled(rule) for rule in wanted):
        return []
    if not any(
        config.is_runtime_path(module.path) for module in model.modules
    ):
        return []
    analysis = _AsyncHazardAnalysis(model, config)
    findings = analysis.run()
    return [f for f in findings if config.enabled(f.rule)]
