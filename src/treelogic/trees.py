"""Finite binary trees with bit-string node labels.

A tree is either the empty tree (represented as ``None``) or a ``Node`` with
a label and two subtrees.  Node addresses are strings over {0, 1}: the empty
string is the root, ``a + "0"`` the left child of ``a``, ``a + "1"`` the
right child.  A tree over n-bit labels encodes an assignment of node sets to
n variables: address a belongs to variable i's set iff bit i of the label at
a is 1.

Text format: ``()`` is the empty tree, ``(<bits> <left> <right>)`` a node.
Width-0 labels (no tracked variables) are written ``-``.
"""

from __future__ import annotations


class Node:
    """One labeled tree node; children default to the empty tree."""

    __slots__ = ("label", "left", "right")

    def __init__(self, label: str, left: "Node | None" = None, right: "Node | None" = None):
        self.label = label
        self.left = left
        self.right = right

    def __eq__(self, other):
        if not isinstance(other, Node):
            return NotImplemented
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            if a is b:
                continue
            if a is None or b is None or a.label != b.label:
                return False
            pending += [(a.right, b.right), (a.left, b.left)]
        return True

    def __hash__(self):
        # reversed preorder lists every node after its children
        hashes: dict[int, int] = {}
        for node in reversed(preorder(self)):
            hashes[id(node)] = hash((node.label, hashes.get(id(node.left)),
                                     hashes.get(id(node.right))))
        return hashes[id(self)]

    def __repr__(self):
        return _flatten(self, "None", lambda node: f"Node({node.label!r}, ", ", ")


Tree = Node | None


def preorder(tree: Tree) -> list[Node]:
    """The tree's nodes in preorder, listed without recursion."""
    nodes = []
    pending = [tree] if tree is not None else []
    while pending:
        node = pending.pop()
        nodes.append(node)
        if node.right is not None:
            pending.append(node.right)
        if node.left is not None:
            pending.append(node.left)
    return nodes


def node_count(tree: Tree) -> int:
    return len(preorder(tree))


def validate_tree(tree: Tree, width: int | None = None) -> int | None:
    """Check all labels share one length (== width when given); return it.
    The first bad label in preorder is the one reported."""
    if tree is None:
        return width
    if width is None:
        width = len(tree.label)
    for node in preorder(tree):
        if len(node.label) != width or set(node.label) - {"0", "1"}:
            raise ValueError(f"bad label {node.label!r}, expected {width} bits")
    return width


def addresses(tree: Tree, prefix: str = "") -> dict[str, str]:
    """Map from node address to label, in preorder."""
    out: dict[str, str] = {}
    pending = [(tree, prefix)]
    while pending:
        node, address = pending.pop()
        if node is not None:
            out[address] = node.label
            pending += [(node.right, address + "1"), (node.left, address + "0")]
    return out


def assignment_from_tree(tree: Tree, width: int) -> dict[int, frozenset[str]]:
    """Per bit position, the set of addresses where that bit is on."""
    sets: dict[int, set[str]] = {i: set() for i in range(width)}
    for addr, label in addresses(tree).items():
        for i, bit in enumerate(label):
            if bit == "1":
                sets[i].add(addr)
    return {i: frozenset(s) for i, s in sets.items()}


def preorder_labels(tree: Tree) -> tuple[str, ...]:
    return tuple([node.label for node in preorder(tree)])


def _flatten(tree: Tree, empty: str, opening, separator: str) -> str:
    """``tree`` written out without recursion: ``empty`` for the empty tree,
    ``opening(node)``, left subtree, ``separator``, right subtree and ``)``
    for a node."""
    parts = []
    pending = [tree]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item is None:
            parts.append(empty)
        else:
            parts.append(opening(item))
            pending += [")", item.right, separator, item.left]
    return "".join(parts)


def shape_string(tree: Tree) -> str:
    """Shape-only serialization; equal node counts give equal lengths."""
    return _flatten(tree, "-", lambda node: "(", "")


def tree_sort_key(tree: Tree) -> tuple[int, tuple[str, ...], str]:
    """Total order on trees: node count, then preorder labels, then shape."""
    return (node_count(tree), preorder_labels(tree), shape_string(tree))


def format_tree(tree: Tree) -> str:
    return _flatten(tree, "()", lambda node: f"({node.label or '-'} ", " ")


def parse_tree(text: str) -> Tree:
    """Parse the textual tree format; raises ValueError on malformed input."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0
    # nodes whose ')' is still to come: [label] before the left subtree is
    # read, [label, left] after it
    open_nodes: list[list] = []
    while True:
        if pos >= len(tokens) or tokens[pos] != "(":
            raise ValueError(f"expected '(' at token {pos} in tree text")
        if pos + 1 >= len(tokens):
            raise ValueError("unexpected end of tree text")
        label = tokens[pos + 1]
        pos += 2
        if label != ")":
            if label == "-":
                label = ""
            elif set(label) - {"0", "1"}:
                raise ValueError(f"bad tree label {label!r}")
            open_nodes.append([label])
            continue
        # "()" ends a subtree, and so does each node it is the right child of
        tree = None
        while open_nodes and len(open_nodes[-1]) == 2:
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError("expected ')' closing tree node")
            pos += 1
            label, left = open_nodes.pop()
            tree = Node(label, left, tree)
        if not open_nodes:
            break
        open_nodes[-1].append(tree)
    if pos != len(tokens):
        raise ValueError("trailing garbage after tree")
    validate_tree(tree)
    return tree
