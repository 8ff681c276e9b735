"""Project model for the static analyzer.

Loads every module under a package root into ASTs and builds the
indexes the rules share:

* a class index (name -> :class:`ClassInfo`) with base-class links, so
  the taxonomy rule can answer "is this a ReproError subclass?";
* per-class attribute types, recovered from ``__init__`` assignments
  and annotations (``self.x = ClassName(...)``,
  ``self.x: dict[str, ClassName] = {}``), powering the light type
  inference the lock rules need to resolve ``session.closed``-style
  cross-object accesses;
* per-class lock attributes (``self._lock = threading.Lock()``);
* suppression comments (``# staticcheck: ignore[rule] reason`` on the
  flagged line or on the enclosing ``def``/``class`` line, and
  ``# staticcheck: allow-raise`` on a class definition to exempt an
  internal control-flow exception from the taxonomy rule).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

_SUPPRESS_RE = re.compile(
    r"#\s*staticcheck:\s*(?:ignore\[(?P<rules>[a-z.\-, ]+)\]|(?P<allow>allow-raise))"
)

#: containers whose subscript annotation names an element type we track
_SEQ_CONTAINERS = {
    "list", "List", "set", "Set", "frozenset", "FrozenSet",
    "deque", "Deque", "tuple", "Tuple", "Iterable", "Iterator", "Sequence",
}
_MAP_CONTAINERS = {"dict", "Dict", "OrderedDict", "defaultdict", "Mapping"}

_LOCK_FACTORIES = {"Lock", "RLock"}


@dataclass(frozen=True)
class TypeRef:
    """A resolved type: a project class, a container of one, or unknown."""

    scalar: Optional[str] = None
    #: element type for sequences, *value* type for mappings
    elem: Optional[str] = None

    @property
    def known(self) -> bool:
        return self.scalar is not None or self.elem is not None


UNKNOWN = TypeRef()


class Suppressions:
    """Per-module suppression comments, keyed by source line."""

    def __init__(self, source: str):
        self.by_line: dict[int, set[str]] = {}
        self.allow_raise_lines: set[int] = set()
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if not match:
                continue
            if match.group("allow"):
                self.allow_raise_lines.add(lineno)
                continue
            rules = {r.strip() for r in match.group("rules").split(",") if r.strip()}
            self.by_line.setdefault(lineno, set()).update(rules)

    def suppressed(self, lineno: int, rule: str) -> bool:
        rules = self.by_line.get(lineno)
        return bool(rules) and (rule in rules or "*" in rules)


@dataclass
class ClassInfo:
    """One class definition and the facts the rules need about it."""

    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: attribute name -> recovered type (from ``__init__`` / annotations)
    attr_types: dict[str, TypeRef] = field(default_factory=dict)
    #: attributes holding a ``threading.Lock`` / ``RLock``
    lock_attrs: dict[str, str] = field(default_factory=dict)  # attr -> kind
    allow_raise: bool = False


@dataclass
class ModuleInfo:
    """One parsed source module."""

    name: str  # dotted, e.g. "repro.server.sessions"
    path: Path
    relpath: str  # repo-relative posix path used in fingerprints
    tree: ast.Module
    source: str
    suppressions: Suppressions

    def docstring(self) -> str:
        return ast.get_docstring(self.tree) or ""


def _lock_kind(value: ast.expr) -> Optional[str]:
    """``threading.Lock()`` / ``RLock()`` (or bare ``Lock()``) -> kind."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Attribute) and func.attr in _LOCK_FACTORIES:
        return func.attr
    if isinstance(func, ast.Name) and func.id in _LOCK_FACTORIES:
        return func.id
    return None


class Project:
    """All modules under one package root, plus the shared indexes."""

    def __init__(self, root: Path, repo_root: Optional[Path] = None):
        self.root = Path(root)
        self.repo_root = Path(repo_root) if repo_root else self.root
        self.modules: list[ModuleInfo] = []
        self.classes: dict[str, ClassInfo] = {}
        self.all_classes: list[ClassInfo] = []
        self._load()
        self._index_classes()

    # -- loading -------------------------------------------------------------

    def _load(self) -> None:
        package = self.root.name
        for path in sorted(self.root.rglob("*.py")):
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
            rel_to_root = path.relative_to(self.root)
            parts = (package, *rel_to_root.parts[:-1])
            stem = rel_to_root.stem
            dotted = ".".join(parts if stem == "__init__" else (*parts, stem))
            try:
                relpath = path.relative_to(self.repo_root).as_posix()
            except ValueError:
                relpath = path.as_posix()
            self.modules.append(ModuleInfo(
                name=dotted,
                path=path,
                relpath=relpath,
                tree=tree,
                source=source,
                suppressions=Suppressions(source),
            ))

    def _index_classes(self) -> None:
        for module in self.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                info = ClassInfo(name=node.name, module=module, node=node)
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        info.bases.append(base.id)
                    elif isinstance(base, ast.Attribute):
                        info.bases.append(base.attr)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        info.methods[item.name] = item
                info.allow_raise = (
                    node.lineno in module.suppressions.allow_raise_lines
                )
                self.all_classes.append(info)
                # first definition wins on (rare) simple-name collisions
                self.classes.setdefault(node.name, info)
        # attribute typing needs the full class index (forward refs)
        for info in self.all_classes:
            self._collect_attrs(info)

    def _collect_attrs(self, info: ClassInfo) -> None:
        """Recover ``self.x`` types and lock attributes from ``__init__``."""
        init = info.methods.get("__init__")
        if init is None:
            return
        param_types: dict[str, TypeRef] = {}
        for arg in [*init.args.posonlyargs, *init.args.args,
                    *init.args.kwonlyargs]:
            if arg.annotation is not None:
                ref = self.type_from_annotation(arg.annotation)
                if ref.known:
                    param_types[arg.arg] = ref
        for stmt in ast.walk(init):
            if isinstance(stmt, ast.AnnAssign):
                target = stmt.target
                if _is_self_attr(target):
                    info.attr_types[target.attr] = self.type_from_annotation(
                        stmt.annotation
                    )
                    if stmt.value is not None:
                        kind = _lock_kind(stmt.value)
                        if kind:
                            info.lock_attrs[target.attr] = kind
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if not _is_self_attr(target):
                    continue
                kind = _lock_kind(stmt.value)
                if kind:
                    info.lock_attrs[target.attr] = kind
                    continue
                ref = self.type_from_value(stmt.value)
                if not ref.known and isinstance(stmt.value, ast.Name):
                    # ``self.x = x`` where the ctor parameter is annotated
                    ref = param_types.get(stmt.value.id, UNKNOWN)
                if ref.known and target.attr not in info.attr_types:
                    info.attr_types[target.attr] = ref

    # -- type recovery -------------------------------------------------------

    def type_from_annotation(self, ann: ast.expr) -> TypeRef:
        if isinstance(ann, ast.Name):
            return TypeRef(scalar=ann.id) if ann.id in self.classes else UNKNOWN
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                return self.type_from_annotation(
                    ast.parse(ann.value, mode="eval").body
                )
            except SyntaxError:
                return UNKNOWN
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            left = self.type_from_annotation(ann.left)
            return left if left.known else self.type_from_annotation(ann.right)
        if isinstance(ann, ast.Subscript):
            head = ann.value
            head_name = head.id if isinstance(head, ast.Name) else (
                head.attr if isinstance(head, ast.Attribute) else None
            )
            slice_ = ann.slice
            if head_name == "Optional":
                return self.type_from_annotation(slice_)
            if head_name in _MAP_CONTAINERS:
                if isinstance(slice_, ast.Tuple) and len(slice_.elts) == 2:
                    value = self.type_from_annotation(slice_.elts[1])
                    return TypeRef(elem=value.scalar) if value.scalar else UNKNOWN
                return UNKNOWN
            if head_name in _SEQ_CONTAINERS:
                inner = slice_.elts[0] if isinstance(slice_, ast.Tuple) else slice_
                value = self.type_from_annotation(inner)
                return TypeRef(elem=value.scalar) if value.scalar else UNKNOWN
        return UNKNOWN

    def type_from_value(self, value: ast.expr) -> TypeRef:
        """Type of a ``self.x = <value>`` initialiser (constructors only)."""
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name) and func.id in self.classes:
                return TypeRef(scalar=func.id)
            if isinstance(func, ast.Attribute) and func.attr in self.classes:
                return TypeRef(scalar=func.attr)
        return UNKNOWN

    # -- queries -------------------------------------------------------------

    def class_named(self, name: str) -> Optional[ClassInfo]:
        return self.classes.get(name)

    def is_subclass_of(self, name: str, ancestor: str) -> bool:
        """Transitive subclass check over the project class index."""
        seen: set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current == ancestor:
                return True
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info:
                stack.extend(info.bases)
        return False

    def iter_functions(
        self,
    ) -> Iterator[tuple[ModuleInfo, Optional[ClassInfo], ast.FunctionDef]]:
        """Every function/method with its module and owning class."""
        for module in self.modules:
            for node in module.tree.body:
                if isinstance(node, ast.FunctionDef):
                    yield module, None, node
        for info in self.all_classes:
            for method in info.methods.values():
                yield info.module, info, method

    def suppressed(
        self,
        module: ModuleInfo,
        lineno: int,
        rule: str,
        scope: Optional[ast.AST] = None,
    ) -> bool:
        """Line-level or enclosing-def-level suppression check."""
        if module.suppressions.suppressed(lineno, rule):
            return True
        return scope is not None and module.suppressions.suppressed(
            getattr(scope, "lineno", -1), rule
        )


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )
