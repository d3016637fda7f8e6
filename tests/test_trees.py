import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treelogic.trees import (Node, addresses, assignment_from_tree,
                             format_tree, node_count, parse_tree,
                             preorder_labels, shape_string, tree_sort_key,
                             validate_tree)

import oracle


def trees(width: int):
    labels = st.text(alphabet="01", min_size=width, max_size=width)
    return st.recursive(st.none(),
                        lambda kids: st.builds(Node, labels, kids, kids),
                        max_leaves=6)


def test_format_and_parse():
    t = Node("00", Node("10"), Node("00", Node("01"), None))
    text = format_tree(t)
    assert text == "(00 (10 () ()) (00 (01 () ()) ()))"
    assert parse_tree(text) == t
    assert parse_tree("()") is None


def test_width_zero_format():
    t = Node("", None, Node(""))
    assert format_tree(t) == "(- () (- () ()))"
    assert parse_tree(format_tree(t)) == t


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_tree("(00 ()")
    with pytest.raises(ValueError):
        parse_tree("(0a () ())")
    with pytest.raises(ValueError):
        parse_tree("(0 () ()) ()")
    with pytest.raises(ValueError):
        parse_tree("(0 (11 () ()) ())")  # inconsistent widths


def test_parse_reports_truncated_text():
    for text in ("(", "(0 () (", "(0 (1 () ()) ()"):
        with pytest.raises(ValueError):
            parse_tree(text)


def test_walks_finish_on_deep_chain():
    depth = 10 ** 5
    labels = ["01"[i % 2] for i in range(depth)]
    text = "".join(f"({label} " for label in labels) + "()" + " ())" * depth
    tree = parse_tree(text)
    assert node_count(tree) == depth
    assert preorder_labels(tree) == tuple(labels)
    assert validate_tree(tree) == 1
    spine, node = 0, tree
    while node is not None:
        assert node.right is None
        spine, node = spine + 1, node.left
    assert spine == depth
    with pytest.raises(ValueError, match="bad label '11', expected 1 bits"):
        parse_tree(text.replace("()", "(11 () ())", 1))


def _zigzag_chain(depth: int) -> Node:
    """A chain of ``depth`` nodes whose child is on the left at even depths
    and on the right at odd ones."""
    tree = None
    for i in reversed(range(depth)):
        label = "01"[i % 3 == 0]
        tree = Node(label, tree, None) if i % 2 == 0 else Node(label, None, tree)
    return tree


def test_printing_and_comparing_finish_on_deep_chain():
    depth = 10 ** 5
    tree, twin = _zigzag_chain(depth), _zigzag_chain(depth)
    text = format_tree(tree)
    assert len(text) == depth * len("(0  ())") + len("()")
    assert text.startswith("(1 (0 () (0 (1 () ") and text.endswith(" ())")
    assert parse_tree(text) == tree
    shape = shape_string(tree)
    assert len(shape) == 3 * depth + 1 and shape.startswith("((-(")
    assert tree == twin and hash(tree) == hash(twin)
    assert repr(tree).startswith("Node('1', Node('0', None, Node('0', Node('1', None, ")
    assert len(repr(tree)) == depth * len("Node('0', None, )") + len("None")
    node = twin
    while node.left is not None or node.right is not None:
        node = node.left or node.right
    node.label = "1" if node.label == "0" else "0"
    assert tree != twin


def test_addresses_finish_on_deep_chain():
    depth = 5000
    tree = _zigzag_chain(depth)
    table = addresses(tree)
    assert len(table) == depth
    assert list(table) == ["01" * (i // 2) + "0" * (i % 2) for i in range(depth)]
    assert assignment_from_tree(tree, 1)[0] == frozenset(
        address for address, label in table.items() if label == "1")


def test_walks_match_recursive_walks_randomized():
    rng = random.Random(11)
    for _ in range(300):
        size = rng.randrange(40)
        width = rng.randrange(3)
        tree = oracle.random_tree(rng, size, width)
        other = rng.choice([tree, oracle.random_tree(rng, size, width),
                            parse_tree(format_tree(tree))])
        assert format_tree(tree) == oracle.recursive_format_tree(tree)
        assert repr(tree) == oracle.recursive_repr(tree)
        assert shape_string(tree) == oracle.recursive_shape_string(tree)
        assert list(addresses(tree).items()) == \
            list(oracle.recursive_addresses(tree).items())
        assert addresses(tree, "1") == oracle.recursive_addresses(tree, "1")
        if tree is not None and other is not None:
            assert (tree == other) == oracle.recursive_tree_eq(tree, other)
            if tree == other:
                assert hash(tree) == hash(other)


def test_validate_reports_first_bad_label_in_preorder():
    t = Node("00", Node("00", None, Node("0")), Node("1"))
    with pytest.raises(ValueError, match="bad label '0', expected 2 bits"):
        validate_tree(t)
    assert validate_tree(t.left.left, 3) == 3  # empty tree keeps the width


def test_addresses_and_assignment():
    t = Node("10", Node("01"), Node("00", None, Node("11")))
    assert addresses(t) == {"": "10", "0": "01", "1": "00", "11": "11"}
    assignment = assignment_from_tree(t, 2)
    assert assignment[0] == frozenset({"", "11"})
    assert assignment[1] == frozenset({"0", "11"})
    assert node_count(t) == 4


def test_sort_key_orders_by_size_then_labels_then_shape():
    small = Node("1")
    biggish = Node("0", Node("0"), None)
    assert tree_sort_key(small) < tree_sort_key(biggish)
    a = Node("0", Node("1"), None)
    b = Node("0", None, Node("1"))
    assert tree_sort_key(a) != tree_sort_key(b)
    assert tree_sort_key(a) < tree_sort_key(b)


@given(trees(2))
def test_roundtrip(t):
    assert parse_tree(format_tree(t)) == t
    validate_tree(t)


@given(trees(1))
def test_key_is_total_on_distinct_trees(t):
    # a tree equals another iff their keys match (keys include the shape)
    other = Node("0", t, None)
    assert tree_sort_key(other) != tree_sort_key(t)
