"""Self-time arithmetic on a hand-built span tree.

Run with: python3 -m pytest perfbench/tests
"""

import pytest

from tracing import Span, self_times


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 3.0, 6.0, parent=0),     # overlaps a; counted once
        Span("c", 9.0, 12.0, parent=0),    # runs past its parent; clipped
        Span("b.inner", 5.0, 5.5, parent=3),
    ]
    # root: children cover [1, 6] and [9, 10], so 10 - 6
    # a: a.inner covers 1 of 3; grandchildren never count for root
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0, 0.5])


def test_leaf_and_childless_spans_keep_their_duration():
    spans = [Span("x", 2.0, 2.5), Span("y", 3.0, 7.0)]
    assert self_times(spans) == pytest.approx([0.5, 4.0])
