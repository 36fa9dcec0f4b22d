"""REP008 raw result dicts are never compared for equality."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from .framework import Diagnostic, Project, Rule, SourceFile, dotted_name, register

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _scope_nodes(scope: ast.AST) -> List[ast.AST]:
    """Every node of one scope, not descending into nested functions."""
    nodes: List[ast.AST] = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return nodes


def _serialized_set(node: ast.AST) -> Optional[str]:
    """The set a raw result-dict call serializes (as AST text), else ``None``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "to_dict" and not node.args:
        return ast.dump(func.value)
    name = dotted_name(func)
    if name is not None and name.split(".")[-1] == "resultset_to_dict" and node.args:
        return ast.dump(node.args[0])
    return None


@register
class CanonicalEquality(Rule):
    """Bit-identity of result sets is compared through ``canonical_dict()``.

    ``resultset_to_dict(...)`` and ``.to_dict()`` payloads carry the
    wall-clock ``perf:`` metrics (``experiments.WALL_CLOCK_METRICS``), so
    two runs' raw dicts differ even when every simulated bit agrees: an
    ``==`` between them is a check that always fails, and a ``!=`` one
    that always passes.  Flags ``==`` / ``!=`` between two such results
    (called inline, or bound to a local name in the same scope) unless
    both sides serialize the same expression.
    """

    rule_id = "REP008"
    title = "canonical-equality"
    contract = (
        "no ==/!= between two resultset_to_dict(...) / .to_dict() results "
        "of different sets; compare ResultSet.canonical_dict()"
    )

    def check_file(
        self, file: SourceFile, project: Project
    ) -> Iterator[Diagnostic]:
        scopes = [file.tree] + [
            node for node in ast.walk(file.tree) if isinstance(node, _SCOPES)
        ]
        for scope in scopes:
            nodes = _scope_nodes(scope)
            bound: Dict[str, Optional[str]] = {}
            for node in nodes:
                if isinstance(node, ast.Assign):
                    source = _serialized_set(node.value)
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            # A name rebound to anything else is not tracked.
                            known = bound.get(target.id, source)
                            bound[target.id] = source if known == source else None

            def side(node: ast.AST) -> Optional[str]:
                if isinstance(node, ast.Name):
                    return bound.get(node.id)
                return _serialized_set(node)

            for node in nodes:
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left, *node.comparators]
                for op, left, right in zip(node.ops, operands, operands[1:]):
                    if not isinstance(op, (ast.Eq, ast.NotEq)):
                        continue
                    a, b = side(left), side(right)
                    if a is not None and b is not None and a != b:
                        yield self.diagnostic(
                            file,
                            node,
                            "raw result dicts compared with "
                            f"{'==' if isinstance(op, ast.Eq) else '!='}: "
                            "they carry wall-clock perf: metrics, so two "
                            "runs never compare equal; compare "
                            "ResultSet.canonical_dict() instead",
                        )
