"""Unit tests for the analysis IR: access and call summaries, and the
parser edge cases the fixture seeds -- decorated transitions, nested
classes, ``async def``, walrus targets and try/finally writes.
"""

import ast
import textwrap

from repro.lint.ir import FunctionIR, receiver_chain

from tests.lint.conftest import fixture_path


def _ir(source, name, klass=None):
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return FunctionIR(node, "mem.py", klass=klass)
    raise AssertionError("no function named " + name)


def _fixture_method(class_name, method):
    with open(fixture_path("edge_cases.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for stmt in node.body:
                if isinstance(stmt, (
                    ast.FunctionDef, ast.AsyncFunctionDef
                )) and stmt.name == method:
                    return FunctionIR(
                        stmt, "edge_cases.py", klass=class_name
                    )
    raise AssertionError(class_name + "." + method)


# -- Every statement is extracted --------------------------------------


def test_statements_after_return_are_still_extracted():
    ir = _ir(
        """
        def f(self):
            return 1
            self.x = 2
        """,
        "f",
    )
    assert [(a.attr, a.kind) for a in ir.accesses] == [("x", "write")]


def test_conditional_return_keeps_the_fallthrough_live():
    ir = _ir(
        """
        def f(self, flag):
            if flag:
                return 1
            self.x = 3
        """,
        "f",
    )
    assert [(a.attr, a.kind) for a in ir.accesses] == [("x", "write")]


def test_break_reaches_the_after_loop_block():
    ir = _ir(
        """
        def f(self):
            while True:
                break
            self.done = True
        """,
        "f",
    )
    assert [(a.attr, a.kind) for a in ir.accesses] == [("done", "write")]


# -- Access summaries --------------------------------------------------


def test_access_kinds_read_write_mutate():
    ir = _ir(
        """
        def f(self, v):
            a = self.first
            self.second = v
            self.third[v] = a
            self.fourth.append(v)
            del self.fifth
        """,
        "f",
    )
    kinds = {(a.attr, a.kind) for a in ir.attr_accesses("self")}
    assert ("first", "read") in kinds
    assert ("second", "write") in kinds
    assert ("third", "mutate") in kinds
    assert ("fourth", "mutate") in kinds
    assert ("fifth", "write") in kinds


def test_augmented_assign_counts_as_read_and_write():
    ir = _ir(
        """
        def f(self):
            self.count += 1
        """,
        "f",
    )
    kinds = sorted(
        a.kind for a in ir.attr_accesses("self") if a.attr == "count"
    )
    assert kinds == ["read", "write"]


def test_lambda_bodies_are_not_this_functions_accesses():
    ir = _ir(
        """
        def f(self):
            cb = lambda: self.hidden.pop()
            return cb
        """,
        "f",
    )
    assert ir.attr_accesses("self") == []


def test_nested_functions_get_their_own_ir():
    ir = _ir(
        """
        def f(self):
            def inner():
                self.x = 1
            return inner
        """,
        "f",
    )
    assert ir.attr_accesses("self") == []
    inner = ir.nested["inner"]
    assert inner.qualname == "f.inner"
    assert [
        (a.attr, a.kind) for a in inner.attr_accesses("self")
    ] == [("x", "write")]


def test_receiver_chain_folds_subscripts():
    call = ast.parse("self._nodes[p].to.bcast(x)").body[0].value
    assert receiver_chain(call.func) == (
        "self", ("_nodes", "to", "bcast")
    )


# -- Parser edge cases from the fixture --------------------------------


def test_async_def_is_lowered():
    ir = _fixture_method("Outer", "tick")
    assert ir.is_async
    kinds = sorted(a.kind for a in ir.attr_accesses("self"))
    assert kinds == ["read", "write"]


def test_walrus_targets_enter_the_local_environment():
    ir = _fixture_method("Outer", "walrus")
    assert "n" in ir.local_values
    assert "chunk" in ir.local_values
    assert ("count", "write") in {
        (a.attr, a.kind) for a in ir.attr_accesses("self")
    }


def test_try_finally_writes_are_live():
    ir = _fixture_method("Outer", "guarded")
    writes = [
        a for a in ir.attr_accesses("self")
        if a.attr == "count" and a.kind == "write"
    ]
    # One bump inside try, one inside finally: both on live paths.
    assert len({a.line for a in writes}) == 2


def test_decorated_transition_keeps_its_state_accesses():
    ir = _fixture_method("DecoratedAutomaton", "eff_nudge")
    kinds = sorted(
        a.kind for a in ir.attr_accesses("state") if a.attr == "count"
    )
    assert kinds == ["read", "write"]
