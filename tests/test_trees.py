import pytest
from hypothesis import given
from hypothesis import strategies as st

from treelogic.trees import (Node, addresses, assignment_from_tree,
                             format_tree, node_count, parse_tree,
                             preorder_labels, tree_sort_key, validate_tree)


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
