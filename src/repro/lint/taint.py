"""Pass 7: wire-taint analysis over the dataflow summaries.

Frames decoded by ``codec.py`` carry attacker-controlled bytes: any TCP
client can connect to a node and claim any sender id or field value.
This pass tracks those values from the decode entry points through
assignments, loops and interprocedural calls (including callback
bindings such as ``Listener(on_frame=self._on_frame)``), and reports:

DVS020  a wire-tainted value reaching a sink without passing a
        registered validator.  Sinks are (a) calls that carry the value
        out of the runtime into the hosted automaton stack, (b) dict or
        set keys, and (c) ``call_later``/``call_at`` delays.
DVS021  containers on the receive path that only ever grow: an
        ``append``/``add``/subscript-store reachable from a decode
        entry point with no prune, pop or bounded construction
        anywhere in the owning class (the PR 5 heartbeat-growth bug,
        generalized into a rule).

Validators are matched by name against ``LintConfig.taint_validators``
(prefix or exact); calling one over a tainted name cleanses that name
for the whole function, so a guard like ``if not
self._validate_inbound(src, msg): return`` silences both rules
downstream.  Soundness caveats (flow-insensitivity, silence on unknown
receivers, runtime-module scope) are documented in DESIGN.md
section 13.
"""

import ast

from repro.lint.callgraph import LoopCall, ProjectAnalysis, Target
from repro.lint.ir import receiver_chain, walk_skip_nested

#: Decode entry points: functions defined in a codec module with one of
#: these names produce wire-tainted values.
_SOURCE_NAMES = frozenset({"decode", "decode_frame", "feed"})

#: Loop scheduling methods whose delay argument must not be tainted.
_DELAY_SINKS = frozenset({"call_later", "call_at"})

#: Mutator methods that grow a container.
_GROWTH_METHODS = frozenset({
    "append", "appendleft", "add", "extend", "insert", "setdefault",
    "update",
})

#: Mutator methods that shrink a container (their presence anywhere in
#: the owning class counts as a bound).
_SHRINK_METHODS = frozenset({
    "pop", "popitem", "popleft", "remove", "discard", "clear",
})

#: Constructors that are bounded by keyword.
_BOUNDED_KWARGS = frozenset({"maxlen", "maxsize"})


def _target_names(target):
    """Bound names of an assignment/loop target."""
    names = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store,)
        ):
            names.add(node.id)
    return names


class _TaintAnalysis(ProjectAnalysis):
    def __init__(self, model, config):
        super().__init__(model, config)
        #: id(ir) -> set of tainted local/param names.
        self.taint = {}
        #: id(ir) -> True when the function returns tainted data.
        self.returns_taint = {}
        #: ``(klass, ir)`` for every function in a runtime, non-codec
        #: module (the codec itself is the source, not a consumer).
        self._functions = self.project.functions_in(self._in_scope)

    def _in_scope(self, path):
        return self.config.is_runtime_path(path) and not (
            self.config.is_codec_path(path)
        )

    # -- Source and validator classification ---------------------------

    def _is_source_call(self, site, ir):
        for res in self.project.resolve(site, ir):
            if isinstance(res, Target) and res.ir is not None:
                if self.config.is_codec_path(res.ir.path) and (
                    res.name in _SOURCE_NAMES
                ):
                    return True
            elif hasattr(res, "dotted"):
                mod, _, last = res.dotted.rpartition(".")
                if last in _SOURCE_NAMES and mod.endswith("codec"):
                    return True
        return False

    def _is_validator(self, site):
        callee = site.callee
        if callee is None:
            return False
        for pattern in self.config.taint_validators:
            if callee == pattern or callee.startswith(pattern):
                return True
        return False

    def _cleansed_names(self, ir):
        """Names passed to a registered validator anywhere in the
        function: cleansed for the whole function (flow-insensitive)."""
        cleansed = set()
        for site in ir.calls:
            if not self._is_validator(site):
                continue
            for arg in list(site.node.args) + [
                kw.value for kw in site.node.keywords
            ]:
                if isinstance(arg, ast.Name):
                    cleansed.add(arg.id)
        return cleansed

    # -- Propagation ---------------------------------------------------

    def run(self):
        for klass, ir in self._functions:
            self.taint.setdefault(id(ir), set())
        # Small global fixpoint: taint flows forward through calls and
        # backward through returns; the runtime call graph is shallow,
        # so a handful of rounds converges.
        for _round in range(6):
            changed = False
            for klass, ir in self._functions:
                if self._propagate(klass, ir):
                    changed = True
            if not changed:
                break
        for klass, ir in self._functions:
            self._check_sinks(klass, ir)
        self._check_unbounded_growth()
        self.findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return self.findings

    def _effective(self, ir):
        return self.taint[id(ir)] - self._cleansed_names(ir)

    def _expr_tainted(self, expr, ir, tainted):
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in tainted:
                return True
            if isinstance(node, ast.Call):
                site = self._site_for(node, ir)
                if site is not None and self._call_tainted(site, ir):
                    return True
        return False

    def _site_for(self, call_node, ir):
        for site in ir.calls:
            if site.node is call_node:
                return site
        return None

    def _call_tainted(self, site, ir):
        if self._is_source_call(site, ir):
            return True
        for res in self.project.resolve(site, ir):
            if isinstance(res, Target) and res.ir is not None:
                if self.returns_taint.get(id(res.ir)):
                    return True
        return False

    def _propagate(self, klass, ir):
        tainted = self.taint[id(ir)]
        before = set(tainted)
        cleansed = self._cleansed_names(ir)
        # Local flow: assignments and loop targets.
        for _ in range(4):
            grew = False
            effective = tainted - cleansed
            for node in walk_skip_nested(ir.node):
                value, targets = None, []
                if isinstance(node, ast.Assign):
                    value, targets = node.value, node.targets
                elif isinstance(node, ast.AnnAssign) and node.value:
                    value, targets = node.value, [node.target]
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    value, targets = node.iter, [node.target]
                elif isinstance(node, ast.NamedExpr):
                    value, targets = node.value, [node.target]
                if value is None:
                    continue
                if not self._expr_tainted(value, ir, effective):
                    continue
                for target in targets:
                    fresh = _target_names(target) - tainted
                    if fresh:
                        tainted |= fresh
                        grew = True
            if not grew:
                break
        # Interprocedural flow: tainted arguments taint callee params;
        # codec modules and non-runtime targets are sinks, not flows.
        changed = tainted != before
        effective = tainted - cleansed
        for site in ir.calls:
            args_tainted = self._tainted_args(site, ir, effective)
            if not args_tainted:
                continue
            for res in self.project.resolve(site, ir):
                if not isinstance(res, Target) or res.ir is None:
                    continue
                if not self._in_scope(res.ir.path):
                    continue
                if self._seed_params(res, site, ir, effective):
                    changed = True
        # Return taint.
        returns = False
        for node in walk_skip_nested(ir.node):
            if isinstance(node, ast.Return) and node.value is not None:
                if self._expr_tainted(node.value, ir, effective):
                    returns = True
                    break
        if returns and not self.returns_taint.get(id(ir)):
            self.returns_taint[id(ir)] = True
            changed = True
        return changed

    def _tainted_args(self, site, ir, effective):
        tainted = []
        for arg in list(site.node.args) + [
            kw.value for kw in site.node.keywords
        ]:
            if self._expr_tainted(arg, ir, effective):
                tainted.append(arg)
        return tainted

    def _seed_params(self, res, site, ir, effective):
        params = list(res.ir.param_names)
        offset = 1 if res.klass is not None and params[:1] == ["self"] else 0
        callee_taint = self.taint.setdefault(id(res.ir), set())
        changed = False
        for index, arg in enumerate(site.node.args):
            slot = index + offset
            if slot >= len(params):
                break
            if self._expr_tainted(arg, ir, effective):
                if params[slot] not in callee_taint:
                    callee_taint.add(params[slot])
                    changed = True
        for keyword in site.node.keywords:
            if keyword.arg in params and self._expr_tainted(
                keyword.value, ir, effective
            ):
                if keyword.arg not in callee_taint:
                    callee_taint.add(keyword.arg)
                    changed = True
        return changed

    # -- Sinks (DVS020) ------------------------------------------------

    def _check_sinks(self, klass, ir):
        effective = self._effective(ir)
        if not effective:
            return
        for site in ir.calls:
            self._check_boundary_sink(site, ir, effective)
            self._check_delay_sink(site, ir, effective)
            self._check_key_mutator_sink(site, ir, effective)
        for node in walk_skip_nested(ir.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._check_key_store_sink(target, ir, effective)

    def _check_boundary_sink(self, site, ir, effective):
        if self._is_validator(site):
            return
        args = self._tainted_args(site, ir, effective)
        if not args:
            return
        for res in self.project.resolve(site, ir):
            if not isinstance(res, Target) or res.ir is None:
                continue
            if self.config.is_runtime_path(res.ir.path):
                continue
            names = sorted(
                node.id
                for arg in args
                for node in ast.walk(arg)
                if isinstance(node, ast.Name) and node.id in effective
            )
            self._flag(
                "DVS020", site.node, ir,
                "wire-tainted value{0} {1} passed into the hosted "
                "automaton via {2}.{3}() without a registered "
                "validator; any TCP client controls these bytes".format(
                    "s" if len(names) != 1 else "",
                    "/".join(names) or "(expression)",
                    res.klass or "<module>", res.name,
                ),
            )
            return

    def _check_delay_sink(self, site, ir, effective):
        if site.callee not in _DELAY_SINKS:
            return
        resolutions = self.project.resolve(site, ir)
        if not any(
            isinstance(res, LoopCall) and res.method in _DELAY_SINKS
            for res in resolutions
        ):
            return
        if site.node.args and self._expr_tainted(
            site.node.args[0], ir, effective
        ):
            self._flag(
                "DVS020", site.node, ir,
                "wire-tainted delay passed to {0}(): a forged frame "
                "schedules work arbitrarily far in the future; clamp "
                "or validate the value first".format(site.callee),
            )

    def _check_key_mutator_sink(self, site, ir, effective):
        if site.callee not in ("add", "setdefault"):
            return
        if len(site.chain) < 2:
            return
        if site.node.args and self._expr_tainted(
            site.node.args[0], ir, effective
        ):
            self._flag(
                "DVS020", site.node, ir,
                "wire-tainted value used as a {0}() key on {1}: forged "
                "frames choose the key space; validate the value "
                "first".format(site.callee, site.chain[0]),
            )

    def _check_key_store_sink(self, target, ir, effective):
        if not isinstance(target, ast.Subscript):
            return
        if self._expr_tainted(target.slice, ir, effective):
            self._flag(
                "DVS020", target, ir,
                "wire-tainted value used as a subscript key: forged "
                "frames choose the key space; validate the value "
                "first",
            )

    # -- Unbounded growth (DVS021) -------------------------------------

    def _check_unbounded_growth(self):
        closure = self._recv_closure()
        flagged = set()
        growth = []
        for klass, ir in self._functions:
            if id(ir) not in closure:
                continue
            owner = klass
            for site in ir.calls:
                if (
                    site.root == "self"
                    and len(site.chain) == 2
                    and site.chain[1] in _GROWTH_METHODS
                    and owner is not None
                ):
                    growth.append(
                        (owner, site.chain[0], ir, site.node)
                    )
            for node in walk_skip_nested(ir.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not isinstance(target, ast.Subscript):
                        continue
                    root, chain = receiver_chain(target.value)
                    if root == "self" and len(chain) == 1 and (
                        owner is not None
                    ):
                        growth.append((owner, chain[0], ir, node))
        for owner, attr, ir, node in growth:
            if (owner, attr) in flagged:
                continue
            if self._is_bounded(owner, attr):
                continue
            flagged.add((owner, attr))
            self._flag(
                "DVS021", node, ir,
                "self.{0} grows on the receive path with no prune, "
                "pop or bounded construction anywhere in {1}: every "
                "received frame can enlarge it forever".format(
                    attr, owner
                ),
            )

    def _recv_closure(self):
        """ids of functions reachable from a decode entry point."""
        seeds = []
        for klass, ir in self._functions:
            if any(
                self._is_source_call(site, ir) for site in ir.calls
            ):
                seeds.append((klass, ir))
        visited = set()
        stack = list(seeds)
        while stack:
            klass, ir = stack.pop()
            if id(ir) in visited:
                continue
            visited.add(id(ir))
            for inner in ir.nested.values():
                stack.append((klass, inner))
            for site in ir.calls:
                for res in self.project.resolve(site, ir):
                    if isinstance(res, Target) and res.ir is not None:
                        if self._in_scope(res.ir.path):
                            stack.append((res.klass or klass, res.ir))
        return visited

    def _is_bounded(self, owner, attr):
        cls = self.project.classes.get(owner)
        if cls is None:
            return True
        for ir in cls.methods.values():
            irs = [ir] + list(ir.nested.values())
            for func in irs:
                for site in func.calls:
                    if (
                        site.root == "self"
                        and len(site.chain) == 2
                        and site.chain[0] == attr
                        and site.chain[1] in _SHRINK_METHODS
                    ):
                        return True
                for node in walk_skip_nested(func.node):
                    if isinstance(node, ast.Delete):
                        for target in node.targets:
                            if self._deletes_attr(target, attr):
                                return True
                    if isinstance(node, ast.Assign):
                        if self._bounded_assign(node, func, attr):
                            return True
        return False

    @staticmethod
    def _deletes_attr(target, attr):
        if not isinstance(target, ast.Subscript):
            return False
        root, chain = receiver_chain(target.value)
        return root == "self" and chain == (attr,)

    def _bounded_assign(self, node, ir, attr):
        assigns_attr = False
        for target in node.targets:
            root, chain = receiver_chain(target)
            if root == "self" and chain == (attr,):
                assigns_attr = True
        if not assigns_attr:
            return False
        value = node.value
        if isinstance(value, ast.Call):
            for keyword in value.keywords:
                if keyword.arg in _BOUNDED_KWARGS:
                    return True
        # Self-truncation: ``self.x = self.x[-n:]``.
        for sub in ast.walk(value):
            if isinstance(sub, ast.Subscript) and isinstance(
                sub.slice, ast.Slice
            ):
                root, chain = receiver_chain(sub.value)
                if root == "self" and chain == (attr,):
                    return True
        return False


def run_pass(model, config):
    """All pass-8 findings over the model."""
    if not (config.enabled("DVS020") or config.enabled("DVS021")):
        return []
    if not any(
        config.is_runtime_path(module.path) for module in model.modules
    ):
        return []
    return _TaintAnalysis(model, config).run()
