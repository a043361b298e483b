"""The analysis IR: per-function access and call summaries.

This is the first layer of the interprocedural engine (DESIGN.md
section 10).  Every function definition in the scanned tree is lowered
to a :class:`FunctionIR`, with facts extracted from every statement of
its body:

- an *access summary*: every attribute read, rebind and in-place
  mutation on a chain rooted at a parameter or local name
  (``self._nodes[pid] = node`` is a mutation of ``self._nodes``);
- a *call summary*: every call site with its receiver chain
  (``self._loop.call_soon_threadsafe`` -> root ``self``, chain
  ``('_loop', 'call_soon_threadsafe')``), resolved later against the
  project call graph;
- the flow-insensitive local environment (last assignment to each
  local name, including walrus targets), which the call graph uses to
  type locals like ``node = self._build_node(...)``.

The IR is deliberately syntactic: it extracts *facts* once per
function, and the call graph (:mod:`repro.lint.callgraph`) gives those
facts interprocedural meaning.
"""

import ast
from dataclasses import dataclass

from repro.lint.purity import MUTATOR_METHODS


@dataclass(frozen=True)
class Access:
    """One attribute access on a chain rooted at a tracked name.

    ``kind`` is ``"read"`` (Load of ``root.attr``), ``"write"`` (rebind
    of ``root.attr``) or ``"mutate"`` (in-place change of the object
    held in ``root.attr``: subscript store, augmented assignment
    through it, a mutator method call, ``del``).
    """

    root: str
    attr: str
    kind: str
    line: int
    col: int


@dataclass(frozen=True)
class CallSite:
    """One call expression, described by its receiver chain.

    ``f(...)``                  -> root=None,  chain=("f",)
    ``self.m(...)``             -> root="self", chain=("m",)
    ``self._nodes[p].to.b(...)``-> root="self", chain=("_nodes","to","b")
    ``asyncio.run(...)``        -> root="asyncio", chain=("run",)

    Subscripts inside the chain are folded away (calling through a
    container element resolves against the container attribute's
    element classes).  ``node`` is kept for location and argument
    inspection.
    """

    root: str
    chain: tuple
    node: ast.Call

    @property
    def callee(self):
        return self.chain[-1] if self.chain else None


def walk_skip_nested(node):
    """Child nodes of ``node``, recursively, without descending into
    nested function definitions or lambdas (those have their own IR
    and run wherever they are called)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (
            ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda
        )):
            continue
        yield child
        for grandchild in walk_skip_nested(child):
            yield grandchild


def receiver_chain(node):
    """``(root, chain)`` for an attribute/subscript chain, or
    ``(None, ())`` when the chain is rooted in a call or literal."""
    parts = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            break
    if isinstance(node, ast.Name):
        return node.id, tuple(reversed(parts))
    return None, ()


def _chain_base(node):
    """For a store/delete target chain, the ``(root, first_attr,
    depth)`` triple: ``self.x[k].y`` -> ("self", "x", 2)."""
    depth = 0
    first = None
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            first = node.attr
            depth += 1
        node = node.value
    if isinstance(node, ast.Name) and first is not None:
        return node.id, first, depth
    if isinstance(node, ast.Name):
        return node.id, None, 0
    return None, None, 0


class FunctionIR:
    """Facts about one function definition, extracted in a single walk."""

    def __init__(self, node, path, klass=None, qualname=None):
        self.node = node
        self.path = path
        self.klass = klass
        self.name = node.name
        self.qualname = qualname or node.name
        self.is_async = isinstance(node, ast.AsyncFunctionDef)
        self.lineno = node.lineno
        self.param_names = tuple(
            a.arg
            for a in (
                node.args.posonlyargs + node.args.args
                + node.args.kwonlyargs
            )
        )
        self.accesses = []
        self.calls = []
        #: Local name -> last assigned expression (flow-insensitive).
        self.local_values = {}
        #: Nested function name -> FunctionIR.
        self.nested = {}
        self._extract()

    # -- Extraction ----------------------------------------------------

    def _extract(self):
        def visit(node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.nested[node.name] = FunctionIR(
                    node, self.path, klass=self.klass,
                    qualname=self.qualname + "." + node.name,
                )
            elif not isinstance(node, ast.Lambda):
                # A lambda body runs wherever the lambda is called,
                # never here; its accesses are not this function's.
                self._extract_node(node)
                for child in ast.iter_child_nodes(node):
                    visit(child)

        for stmt in self.node.body:
            visit(stmt)

    def _record(self, root, attr, kind, node):
        self.accesses.append(Access(
            root=root, attr=attr, kind=kind,
            line=node.lineno, col=node.col_offset,
        ))

    def _record_target(self, target, value_node):
        root, attr, depth = _chain_base(target)
        if root is None:
            return
        if attr is None:
            # Plain local rebinding: remember the value expression.
            if value_node is not None:
                self.local_values[root] = value_node
            return
        if depth == 1 and isinstance(target, ast.Attribute):
            self._record(root, attr, "write", target)
        else:
            # Store through a subscript or a deeper attribute mutates
            # the object held in the first hop.
            self._record(root, attr, "mutate", target)

    def _extract_node(self, node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Tuple, ast.List)):
                    for elt in target.elts:
                        self._record_target(elt, None)
                else:
                    self._record_target(target, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._record_target(node.target, node.value)
        elif isinstance(node, ast.AugAssign):
            self._record_target(node.target, None)
            # ``self.x += 1`` re-binds after reading; record the read
            # side too so a pure counter bump counts as read+write.
            root, attr, depth = _chain_base(node.target)
            if root is not None and attr is not None and depth == 1:
                self._record(root, attr, "read", node.target)
        elif isinstance(node, ast.NamedExpr):
            self._record_target(node.target, node.value)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                root, attr, depth = _chain_base(target)
                if root is not None and attr is not None:
                    kind = "write" if (
                        depth == 1 and isinstance(target, ast.Attribute)
                    ) else "mutate"
                    self._record(root, attr, kind, target)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                root, attr, depth = _chain_base(node)
                # Only the innermost hop reads the tracked attribute;
                # outer hops read the object it yielded.
                if root is not None and isinstance(node.value, ast.Name):
                    self._record(root, node.attr, "read", node)
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                # Bare-name call: root None, single-hop chain, so the
                # resolver tries nested functions, module functions and
                # constructors before imports.
                self.calls.append(
                    CallSite(None, (node.func.id,), node)
                )
                return
            root, chain = receiver_chain(node.func)
            if root is not None:
                self.calls.append(CallSite(root, chain, node))
                if (
                    len(chain) >= 2
                    and chain[-1] in MUTATOR_METHODS
                    and isinstance(node.func, ast.Attribute)
                ):
                    # ``self.x.append(v)`` mutates the object in x.
                    self._record(root, chain[0], "mutate", node)

    # -- Queries -------------------------------------------------------

    def attr_accesses(self, root):
        """Accesses whose chain is rooted at ``root`` (e.g. "self")."""
        return [a for a in self.accesses if a.root == root]

    def assigned_attrs(self, root="self"):
        """Attr name -> list of assigned value expressions for direct
        ``root.attr = value`` statements (used for points-to)."""
        out = {}
        for stmt in ast.walk(self.node):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            value = stmt.value
            if value is None:
                continue
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == root
                ):
                    out.setdefault(target.attr, []).append(value)
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and isinstance(target.value.value, ast.Name)
                    and target.value.value.id == root
                ):
                    # ``self.attr[k] = value``: element assignment; the
                    # element class matters for calls through the
                    # container.
                    out.setdefault(target.value.attr, []).append(value)
        return out
