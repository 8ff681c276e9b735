"""Transformation framework base classes.

A :class:`Transformation` can *find* the objects it applies to in a query
tree and *apply* itself to one of them.  Objects are addressed by
:class:`TargetRef` — a stable path (block name + kind + key) that survives
the copies the cost-based framework makes, because
:meth:`QueryBlock.clone` preserves block names, from-item aliases, and
conjunct order.

Heuristic transformations (§2.1) are applied imperatively wherever legal
via :func:`apply_everywhere`.  Cost-based transformations (§2.2) expose
their objects to the CBQT framework, which enumerates transformation
states over them (§3.2).  Every rewrite of either kind goes through
:func:`apply_guarded`, the one place that fires the ``transform.<name>``
fault points, blames failures and audits the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..catalog.schema import Catalog
from ..errors import TransformError
from ..qtree.blocks import FromItem, QueryBlock, QueryNode, SetOpBlock
from ..resilience import blame, faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..analysis import TransformationAuditor


@dataclass(frozen=True)
class TargetRef:
    """Stable reference to one transformable object inside a query tree.

    ``kind`` is transformation-specific: ``"subquery"`` (index into
    :meth:`QueryBlock.subquery_exprs`), ``"view"`` (from-item alias),
    ``"setop"`` (the named SetOpBlock), ``"predicate"`` (index into
    ``where_conjuncts``), ...
    """

    block: str
    kind: str
    key: object

    def describe(self) -> str:
        return f"{self.kind}[{self.key}]@{self.block}"


def find_block(root: QueryNode, name: str) -> Optional[QueryBlock]:
    """Locate the query block called *name* in *root*."""
    for block in root.iter_blocks():
        if isinstance(block, QueryBlock) and block.name == name:
            return block
    return None


def find_setop(root: QueryNode, name: str) -> Optional[SetOpBlock]:
    """Locate the SetOpBlock called *name*, searching every position a
    node can occupy (root, derived tables, subquery bodies)."""
    for node, _replace in iter_nodes_with_replacers(root):
        if isinstance(node, SetOpBlock) and node.name == name:
            return node
    return None


def iter_nodes_with_replacers(root: QueryNode, replace_root=None):
    """Yield every query node in the tree together with a callable that
    replaces it in its parent.  Used by transformations that substitute a
    whole node (set-op into join, OR expansion).

    The root's replacer is *replace_root* (may be None when the caller
    handles root replacement itself).
    """
    yield root, replace_root
    if isinstance(root, SetOpBlock):
        for i, branch in enumerate(list(root.branches)):
            def replace_branch(new, node=root, index=i):
                node.branches[index] = new

            yield from iter_nodes_with_replacers(branch, replace_branch)
    elif isinstance(root, QueryBlock):
        for item in root.from_items:
            if item.is_derived:
                def replace_source(new, target=item):
                    target.source = new

                yield from iter_nodes_with_replacers(item.subquery, replace_source)
        for sub in root.subquery_exprs():
            if isinstance(sub.query, QueryNode):
                def replace_query(new, target=sub):
                    target.query = new

                yield from iter_nodes_with_replacers(sub.query, replace_query)


class Transformation:
    """Base class for all transformations."""

    #: short identifier used in reports and configuration
    name: str = "transformation"
    #: whether the CBQT framework must cost this transformation (§2.2)
    cost_based: bool = False

    def __init__(self, catalog: Catalog):
        self._catalog = catalog

    def find_targets(self, root: QueryNode) -> list[TargetRef]:
        """All objects in *root* this transformation can apply to."""
        raise NotImplementedError

    def apply(self, root: QueryNode, target: TargetRef) -> QueryNode:
        """Apply to one target, in place; returns the (possibly new) root.

        Must be called on a tree where :meth:`find_targets` (re-)reported
        *target*; raises :class:`TransformError` otherwise.
        """
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------

    def _require_block(self, root: QueryNode, target: TargetRef) -> QueryBlock:
        block = find_block(root, target.block)
        if block is None:
            raise TransformError(
                f"{self.name}: block {target.block!r} not found"
            )
        return block

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


def apply_guarded(
    names: Sequence[str],
    apply: Callable[[QueryNode], QueryNode],
    root: QueryNode,
    auditor: "Optional[TransformationAuditor]" = None,
    label: Optional[str] = None,
    state: Optional[tuple[int, ...]] = None,
) -> QueryNode:
    """Apply one rewrite that the transformations *names* make together.

    Fires each name's ``transform.<name>`` fault point, blames anything
    escaping on the first name, and — in paranoid mode, when an *auditor*
    is given — verifies the result, attributing a violation to *label*
    (default: the first name) and the CBQT *state*."""
    with blame(names[0]):
        for name in names:
            faults.check(f"transform.{name}")
        root = apply(root)
        if auditor is not None:
            auditor.audit_tree(root, label or names[0], state)
    return root


def apply_everywhere(
    transformation: Transformation,
    root: QueryNode,
    auditor: "Optional[TransformationAuditor]" = None,
) -> tuple[QueryNode, list[TargetRef]]:
    """Imperatively apply a heuristic transformation until no targets
    remain (a transformation may expose new targets — e.g. merging one
    view un-nests another).  Returns the new root and the targets
    applied, in order."""
    applied: list[TargetRef] = []
    for _round in range(64):  # safety bound against non-terminating rules
        targets = transformation.find_targets(root)
        if not targets:
            return root, applied
        root = apply_guarded(
            (transformation.name,),
            lambda node, tg=targets[0]: transformation.apply(node, tg),
            root,
            auditor,
        )
        applied.append(targets[0])
    raise TransformError(
        f"{transformation.name}: did not reach a fixpoint after 64 rounds"
    )


def ensure_unique_aliases(block: QueryBlock, incoming: QueryBlock) -> dict[str, str]:
    """Rename from-item aliases of *incoming* (in place) so they do not
    collide with *block*'s aliases.  Returns the rename map applied."""
    from ..qtree import exprutil

    incoming_blocks = {
        id(b) for b in incoming.iter_blocks() if isinstance(b, QueryBlock)
    }
    taken = {
        b_alias
        for b in block.iter_blocks()
        if isinstance(b, QueryBlock) and id(b) not in incoming_blocks
        for b_alias in b.aliases()
    }
    mapping: dict[str, str] = {}
    for item in incoming.from_items:
        if item.alias in taken:
            new_alias = FromItem.fresh_alias(item.alias)
            mapping[item.alias] = new_alias
    if mapping:
        exprutil.rename_qualifiers_in_node(incoming, mapping)
        for item in incoming.from_items:
            if item.alias in mapping:
                item.alias = mapping[item.alias]
    return mapping
