from minsol.flow import INF, FlowNetwork


def test_min_cut_value_and_source_side():
    net = FlowNetwork(4)
    net.add_edge(0, 1, 3)
    net.add_edge(0, 2, 1)
    net.add_edge(1, 3, 1)
    net.add_edge(2, 3, INF)
    net.add_edge(1, 2, 1)
    assert net.max_flow(0, 3) == 3
    assert net.source_side(0) == {0, 1}


def test_path_longer_than_the_recursion_limit():
    # a chain of implications at n = 1000 makes augmenting paths this long
    n = 5000
    net = FlowNetwork(n)
    for u in range(n - 1):
        net.add_edge(u, u + 1, 2)
    assert net.max_flow(0, n - 1) == 2
    assert net.source_side(0) == {0}
