"""The project-wide call graph and class-attribute points-to summaries.

Built once per lint run on top of the :mod:`repro.lint.ir` function
summaries, this module answers the questions the interprocedural rules
ask:

- *What does this call site invoke?*  ``self.m()`` resolves through the
  project MRO; ``self.attr.m()`` resolves through the points-to summary
  of ``attr``; ``self._nodes[p].to.m()`` folds subscripts through
  container-element summaries; bare names resolve to nested functions,
  module functions, constructors or imported externals.
- *What class of object can ``self.attr`` hold?*  Collected from every
  ``self.attr = Expr`` in the class, with one level of return-type
  inference for factory methods (``self._nodes[p] =
  self._build_node(...)`` where ``_build_node`` returns
  ``RuntimeNode(...)``).
- *Which bound methods flow into callback attributes?*  A construction
  site ``Listener(self._on_frame)`` binds the constructor parameter to
  the caller's bound method; ``self._cb = on_frame`` in ``__init__``
  then lets ``self._cb(...)`` resolve back to the real handler across
  the object boundary.

Event-loop objects get the pseudo-class :data:`LOOP_CLASS` so the race
pass can tell threadsafe loop entry points from loop-affine ones.
"""

import ast

from repro.lint.ir import FunctionIR, receiver_chain
from repro.lint.model import dotted_name, resolve_dotted
from repro.lint.report import Finding

#: Pseudo-class naming an asyncio event loop object.
LOOP_CLASS = "<asyncio.EventLoop>"

#: Callables whose result is an event loop.
_LOOP_FACTORIES = frozenset({
    "asyncio.new_event_loop",
    "asyncio.get_event_loop",
    "asyncio.get_running_loop",
})


class Target:
    """A resolved call target: a project method/function."""

    __slots__ = ("klass", "name", "ir")

    def __init__(self, klass, name, ir):
        self.klass = klass  # class name or None for module functions
        self.name = name
        self.ir = ir

    def __repr__(self):
        return "Target({0}.{1})".format(self.klass or "<module>", self.name)


class External:
    """A call that leaves the project (stdlib or unresolvable import)."""

    __slots__ = ("dotted",)

    def __init__(self, dotted):
        self.dotted = dotted

    def __repr__(self):
        return "External({0})".format(self.dotted)


class LoopCall:
    """A call on an event-loop object (pseudo-class LOOP_CLASS)."""

    __slots__ = ("method",)

    def __init__(self, method):
        self.method = method

    def __repr__(self):
        return "LoopCall({0})".format(self.method)


class ClassModel:
    """IR-level view of one class: methods plus points-to inputs."""

    def __init__(self, info, module):
        self.info = info
        self.module = module
        self.name = info.name
        self.path = module.path
        self.methods = {}
        for stmt in info.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[stmt.name] = FunctionIR(
                    stmt, module.path, klass=info.name,
                    qualname=info.name + "." + stmt.name,
                )

    def has_async_method(self):
        return any(ir.is_async for ir in self.methods.values())


class ProjectModel:
    """The call graph: class models, points-to and resolution."""

    def __init__(self, model):
        self.model = model
        self.classes = {}
        self.module_functions = {}  # (path, name) -> FunctionIR
        self._functions_by_name = {}
        self._attr_classes_cache = {}
        self._return_classes_cache = {}
        self._callbacks_cache = None
        self.edges = 0
        for module in model.modules:
            for info in module.classes:
                # Simple-name index, like SourceModel.class_index: the
                # last definition wins, which is unambiguous here.
                self.classes[info.name] = ClassModel(info, module)
            for stmt in module.tree.body:
                if isinstance(stmt, (
                    ast.FunctionDef, ast.AsyncFunctionDef
                )):
                    ir = FunctionIR(stmt, module.path)
                    self.module_functions[(module.path, stmt.name)] = ir
                    self._functions_by_name.setdefault(
                        stmt.name, []
                    ).append(ir)

    # -- Statistics ----------------------------------------------------

    def function_count(self):
        count = len(self.module_functions)
        for cls in self.classes.values():
            count += len(cls.methods)
        return count

    def functions_in(self, in_scope):
        """``(klass, ir)`` for every function defined in a module whose
        path satisfies ``in_scope``: module functions, then methods by
        class, each followed by its nested definitions."""
        out = []
        for (path, _name), ir in sorted(self.module_functions.items()):
            if in_scope(path):
                out.append((None, ir))
        for name in sorted(self.classes):
            cls = self.classes[name]
            if not in_scope(cls.path):
                continue
            for method in sorted(cls.methods):
                out.append((name, cls.methods[method]))
        expanded = []
        stack = list(reversed(out))
        while stack:
            klass, ir = stack.pop()
            expanded.append((klass, ir))
            for inner_name in sorted(ir.nested):
                stack.append((klass, ir.nested[inner_name]))
        return expanded

    # -- Points-to: class attribute summaries --------------------------

    def attr_classes(self, class_name, attr):
        """The set of class names (or LOOP_CLASS) an attribute of
        ``class_name`` may hold, judging from every ``self.attr = ...``
        (and ``self.attr[k] = ...``) site in the class."""
        key = (class_name, attr)
        if key in self._attr_classes_cache:
            return self._attr_classes_cache[key]
        self._attr_classes_cache[key] = frozenset()  # cycle guard
        result = set()
        cls = self.classes.get(class_name)
        if cls is not None:
            for ir in cls.methods.values():
                for name, values in ir.assigned_attrs("self").items():
                    if name != attr:
                        continue
                    for value in values:
                        result |= self.infer_expr(value, ir)
        self._attr_classes_cache[key] = frozenset(result)
        return self._attr_classes_cache[key]

    def return_classes(self, ir):
        """Classes of values a function can return (constructor calls
        and locals holding them; one level of factory indirection)."""
        key = id(ir)
        if key in self._return_classes_cache:
            return self._return_classes_cache[key]
        self._return_classes_cache[key] = frozenset()  # cycle guard
        result = set()
        for node in ast.walk(ir.node):
            if isinstance(node, ast.Return) and node.value is not None:
                result |= self.infer_expr(node.value, ir)
        self._return_classes_cache[key] = frozenset(result)
        return self._return_classes_cache[key]

    def infer_expr(self, expr, ir, depth=0):
        """Class names an expression may evaluate to (conservative:
        empty set when unknown)."""
        if depth > 6:
            return frozenset()
        if isinstance(expr, ast.Call):
            dotted = resolve_dotted(
                dotted_name(expr.func), self._imports_for(ir)
            )
            if dotted in _LOOP_FACTORIES:
                return frozenset({LOOP_CLASS})
            if isinstance(expr.func, ast.Name):
                name = expr.func.id
                if name in self.classes:
                    return frozenset({name})
                nested = ir.nested.get(name)
                if nested is not None:
                    return self.return_classes(nested)
            root, chain = receiver_chain(expr.func)
            if root == "self" and len(chain) == 1 and ir.klass:
                target = self._lookup_method(ir.klass, chain[0])
                if target is not None:
                    return self.return_classes(target.ir)
            return frozenset()
        if isinstance(expr, ast.Name):
            value = ir.local_values.get(expr.id)
            if value is not None and value is not expr:
                return self.infer_expr(value, ir, depth + 1)
            return frozenset()
        if isinstance(expr, ast.Attribute):
            root, chain = receiver_chain(expr)
            if root == "self" and ir.klass and chain:
                return self.fold_chain(ir.klass, chain)
            return frozenset()
        if isinstance(expr, ast.Subscript):
            # Element of a tracked container: same bucket as the
            # container attribute (element assignments land there too).
            return self.infer_expr(expr.value, ir, depth + 1)
        if isinstance(expr, ast.IfExp):
            return (
                self.infer_expr(expr.body, ir, depth + 1)
                | self.infer_expr(expr.orelse, ir, depth + 1)
            )
        if isinstance(expr, ast.Await):
            return self.infer_expr(expr.value, ir, depth + 1)
        return frozenset()

    def fold_chain(self, class_name, chain):
        """Classes of the object at ``self.<chain>`` within
        ``class_name`` (the chain excludes the final method name)."""
        classes = frozenset({class_name})
        for attr in chain:
            folded = set()
            for cls in classes:
                if cls == LOOP_CLASS:
                    continue
                folded |= self.attr_classes(cls, attr)
            classes = frozenset(folded)
            if not classes:
                break
        return classes

    # -- Callback bindings ---------------------------------------------

    def _callback_bindings(self):
        """(class, attr) -> set of (owner class or None, method name)
        bound-method values that can flow into the attribute via a
        constructor parameter."""
        if self._callbacks_cache is not None:
            return self._callbacks_cache
        # 1. parameter name -> attr for ``self.attr = param`` in
        #    __init__ of every class.
        stored = {}  # class -> param -> attr
        for cls in self.classes.values():
            init = cls.methods.get("__init__")
            if init is None:
                continue
            mapping = {}
            for attr, values in init.assigned_attrs("self").items():
                for value in values:
                    if isinstance(value, ast.Name) and (
                        value.id in init.param_names
                    ):
                        mapping[value.id] = attr
            if mapping:
                stored[cls.name] = (init, mapping)
        # 2. every construction site: match bound-method arguments to
        #    the stored parameters.
        bindings = {}
        for ir in self._all_irs():
            for site in ir.calls:
                name = site.chain[0] if (
                    site.root is None and site.chain
                ) else None
                if name not in stored:
                    continue
                init, mapping = stored[name]
                params = [p for p in init.param_names if p != "self"]
                bound = {}
                for index, arg in enumerate(site.node.args):
                    if index < len(params):
                        bound[params[index]] = arg
                for kw in site.node.keywords:
                    if kw.arg is not None:
                        bound[kw.arg] = kw.value
                for param, arg in bound.items():
                    attr = mapping.get(param)
                    if attr is None:
                        continue
                    method = self._bound_method(arg, ir)
                    if method is not None:
                        bindings.setdefault(
                            (name, attr), set()
                        ).add(method)
        self._callbacks_cache = bindings
        return bindings

    def _bound_method(self, arg, ir):
        """``self.m`` (or a local function name) as a (class, method)
        pair, else None."""
        if isinstance(arg, ast.Attribute) and isinstance(
            arg.value, ast.Name
        ) and arg.value.id == "self" and ir.klass:
            return (ir.klass, arg.attr)
        if isinstance(arg, ast.Name) and arg.id in ir.nested:
            return (None, ir.qualname + "." + arg.id)
        return None

    def callback_targets(self, class_name, attr):
        """Resolved FunctionIR targets a callback attribute can call."""
        out = []
        for klass, method in sorted(
            self._callback_bindings().get((class_name, attr), ())
        ):
            if klass is not None:
                target = self._lookup_method(klass, method)
                if target is not None:
                    out.append(target)
        return out

    # -- Call resolution -----------------------------------------------

    def _imports_for(self, ir):
        for module in self.model.modules:
            if module.path == ir.path:
                return module.imports
        return {}

    def _all_irs(self):
        for ir in self.module_functions.values():
            yield ir
        for cls in self.classes.values():
            for ir in cls.methods.values():
                yield ir

    def _lookup_method(self, class_name, method):
        """MRO lookup of ``method`` starting at ``class_name``."""
        info = self.model.class_index.get(class_name)
        if info is None:
            return None
        for ancestor in self.model.mro_chain(info):
            cls = self.classes.get(ancestor.name)
            if cls is not None and method in cls.methods:
                return Target(
                    ancestor.name, method, cls.methods[method]
                )
        return None

    def resolve(self, site, ir):
        """All resolutions of one call site: a list of
        :class:`Target` / :class:`External` / :class:`LoopCall`.

        An empty list means "unknown receiver" -- the rules treat that
        as silence, never as a finding.
        """
        self.edges += 1
        root, chain = site.root, site.chain
        imports = self._imports_for(ir)
        # Bare name: nested function, module function, constructor,
        # or an import.
        if root is None:
            if not chain:
                return []
            name = site.callee
            if name in ir.nested:
                return [Target(ir.klass, name, ir.nested[name])]
            if (ir.path, name) in self.module_functions:
                return [Target(
                    None, name, self.module_functions[(ir.path, name)]
                )]
            if name in self.classes:
                init = self._lookup_method(name, "__init__")
                return [init] if init is not None else []
            dotted = resolve_dotted(name, imports)
            if dotted is not None and dotted != name:
                return [External(dotted)]
            return []
        # Module-aliased dotted call (``asyncio.run(...)``,
        # ``threading.Thread(...)``): the root is an import.
        if root not in ("self",) and root not in ir.local_values and (
            root not in ir.param_names
        ):
            dotted = resolve_dotted(
                ".".join((root,) + chain), imports
            )
            origin = imports.get(root)
            if origin is not None:
                return [External(dotted)]
        # Receiver chain: fold to classes, then look up the method.
        callee = site.callee
        prefix = chain[:-1]
        if root == "self" and ir.klass:
            if not prefix:
                target = self._lookup_method(ir.klass, callee)
                if target is not None:
                    return [target]
                # ``self.cb(...)``: a callback attribute.
                callbacks = self.callback_targets(ir.klass, callee)
                if callbacks:
                    return callbacks
                classes = self.attr_classes(ir.klass, callee)
                if LOOP_CLASS in classes:
                    return [LoopCall("__call__")]
                return []
            classes = self.fold_chain(ir.klass, prefix)
        elif root in ir.local_values and not prefix:
            classes = self.infer_expr(
                ir.local_values[root], ir
            )
        else:
            return []
        out = []
        for cls in sorted(classes):
            if cls == LOOP_CLASS:
                out.append(LoopCall(callee))
                continue
            target = self._lookup_method(cls, callee)
            if target is not None:
                out.append(target)
        return out


class ProjectAnalysis:
    """Base of the interprocedural passes: the shared project model,
    the run's config and the findings the pass accumulates."""

    def __init__(self, model, config):
        self.model = model
        self.config = config
        self.project = build_project(model)
        self.findings = []

    def _flag(self, rule, node, ir, message):
        if self.config.enabled(rule):
            self.findings.append(Finding(
                rule=rule, path=ir.path, line=node.lineno,
                col=node.col_offset, message=message,
            ))


def build_project(model):
    """Build (or fetch the cached) :class:`ProjectModel` for a run."""
    cached = getattr(model, "_project", None)
    if cached is None:
        cached = ProjectModel(model)
        model._project = cached
    return cached
