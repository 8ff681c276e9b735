"""Cancellation and fault-point coverage rules (PR 4 / PR 6 contracts).

**cancel.poll** — a ``_run_*`` executor method that loops over a
*materialised* collection (a sorted list, grouped output, set-op branch
tuples — anything that is not a direct pipeline over ``self.rows(...)``)
must poll the :class:`~repro.resilience.CancelToken` somewhere in its
body: the loop cannot rely on a child generator's polls once the rows
have been drained into a list.  Pipelined loops are exempt because every
``next()`` reaches a polling leaf.

**fault.point** — the vector executor's operator set must stay closed
under the fault-injection contract: every name in ``VECTOR_OPERATORS``
has a ``_vec_<name>`` method and an ``executor.batch.<name>`` entry in
``BATCH_OPERATORS`` (and vice versa), and the module must actually
reference the ``executor.batch.`` control point so per-batch
fault/cancel metering cannot be dropped wholesale.
"""

from __future__ import annotations

import ast
from typing import Optional

from .findings import Finding
from .model import ModuleInfo, Project

#: iterating one of these builtins is plan metadata, not a row stream
_SMALL_ITER_BUILTINS = {"range", "zip", "enumerate", "reversed"}


def _is_pipelined(iter_expr: ast.expr) -> bool:
    """True when the loop pulls rows straight from a child generator or
    iterates plan metadata — i.e. it is not a materialised row loop."""
    if isinstance(iter_expr, ast.Call):
        func = iter_expr.func
        if (isinstance(func, ast.Attribute) and func.attr == "rows"
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"):
            return True
        if isinstance(func, ast.Name) and func.id in _SMALL_ITER_BUILTINS:
            return True
        return False
    # plan.branches / plan.windows and literal tuples are metadata
    return isinstance(iter_expr, (ast.Attribute, ast.Tuple, ast.Constant))


def _has_token_poll(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id == "check":
            return True
        if isinstance(callee, ast.Attribute) and callee.attr == "check":
            return True
    return False


def _check_cancel_polls(project: Project) -> list[Finding]:
    findings = []
    rule = "cancel.poll"
    for module, owner, func in project.iter_functions():
        if owner is None or not func.name.startswith("_run_"):
            continue
        loops = [
            node for node in ast.walk(func)
            if isinstance(node, ast.For) and not _is_pipelined(node.iter)
        ]
        if not loops or _has_token_poll(func):
            continue
        if project.suppressed(module, loops[0].lineno, rule, func):
            continue
        findings.append(Finding(
            rule=rule,
            message=(
                f"{func.name} loops over materialised rows without a "
                f"CancelToken poll — a long sort/aggregate output cannot "
                f"be cancelled"
            ),
            relpath=module.relpath,
            lineno=loops[0].lineno,
            scope=f"{owner.name}.{func.name}",
            detail=f"poll:{func.name}",
        ))
    return findings


def _string_tuple(value: ast.expr) -> Optional[list[tuple[str, int]]]:
    """Literal tuple/set/frozenset of strings -> [(name, lineno)]."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
            and value.func.id == "frozenset" and value.args:
        value = value.args[0]
    if not isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        return None
    out = []
    for elt in value.elts:
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return None
        out.append((elt.value, elt.lineno))
    return out


def _find_operator_table(
    project: Project, name: str
) -> Optional[tuple[ModuleInfo, ast.Assign, list[tuple[str, int]]]]:
    for module in project.modules:
        for node in module.tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id == name:
                names = _string_tuple(node.value)
                if names is not None:
                    return module, node, names
    return None


def _module_mentions(module: ModuleInfo, needle: str) -> bool:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and needle in node.value:
            return True
    return False


def _check_fault_points(project: Project) -> list[Finding]:
    findings = []
    rule = "fault.point"
    vector = _find_operator_table(project, "VECTOR_OPERATORS")
    batch = _find_operator_table(project, "BATCH_OPERATORS")
    if vector is None:
        return findings
    vec_module, vec_node, vec_ops = vector
    declared = {op for op, _ in vec_ops}

    vec_methods: dict[str, tuple[str, ast.FunctionDef]] = {}
    for info in project.all_classes:
        if info.module is not vec_module:
            continue
        for name, method in info.methods.items():
            if name.startswith("_vec_"):
                vec_methods[name[len("_vec_"):]] = (info.name, method)

    for op, lineno in vec_ops:
        if op.lower() not in vec_methods:
            findings.append(Finding(
                rule=rule,
                message=f"operator {op!r} is declared in VECTOR_OPERATORS "
                        f"but has no _vec_{op.lower()} implementation",
                relpath=vec_module.relpath, lineno=lineno,
                scope="VECTOR_OPERATORS", detail=f"missing-method:{op}",
            ))
    lowered = {op.lower(): op for op in declared}
    for suffix, (cls, method) in sorted(vec_methods.items()):
        if suffix in lowered:
            continue
        if project.suppressed(vec_module, method.lineno, rule, method):
            continue
        findings.append(Finding(
            rule=rule,
            message=(
                f"_vec_{suffix} is not declared in VECTOR_OPERATORS — the "
                f"operator would run without an executor.batch.<Op> fault "
                f"point or per-batch cancellation metering"
            ),
            relpath=vec_module.relpath, lineno=method.lineno,
            scope=f"{cls}._vec_{suffix}", detail=f"undeclared:_vec_{suffix}",
        ))

    if batch is not None:
        batch_module, batch_node, batch_ops = batch
        batch_names = {op for op, _ in batch_ops}
        for op in sorted(declared - batch_names):
            findings.append(Finding(
                rule=rule,
                message=f"vector operator {op!r} has no "
                        f"executor.batch.{op} entry in BATCH_OPERATORS",
                relpath=batch_module.relpath, lineno=batch_node.lineno,
                scope="BATCH_OPERATORS", detail=f"missing-fault-point:{op}",
            ))
        for op, lineno in batch_ops:
            if op not in declared:
                findings.append(Finding(
                    rule=rule,
                    message=f"BATCH_OPERATORS entry {op!r} matches no "
                            f"declared vector operator (stale fault point)",
                    relpath=batch_module.relpath, lineno=lineno,
                    scope="BATCH_OPERATORS", detail=f"stale-fault-point:{op}",
                ))

    if vec_methods and not _module_mentions(vec_module, "executor.batch."):
        findings.append(Finding(
            rule=rule,
            message="vector executor module never references the "
                    "'executor.batch.' control point — per-batch fault "
                    "injection and cancellation metering are disconnected",
            relpath=vec_module.relpath, lineno=vec_node.lineno,
            scope=vec_module.name, detail="no-batch-control-point",
        ))
    return findings


def check_coverage(project: Project) -> list[Finding]:
    return _check_cancel_polls(project) + _check_fault_points(project)
