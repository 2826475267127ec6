"""The time-marching window rule, replayed from a solve's diagnostics."""

from sweepvi.inclusion import _NARROW_PASSES, _WIDEN_PASSES


def assert_windows_follow_the_rule(diagnostics, steps):
    """Check that a converged marching run laid out its windows by the sizing rule.

    Node 0 is a window of its own and the windows tile the grid up to node
    ``steps``.  After node 0 the width starts at one node.  A window that
    took ``p <= _WIDEN_PASSES`` passes multiplies it by
    ``2 ** max(1, (_WIDEN_PASSES + 2 - p) // 2)``, one that took more than
    ``_NARROW_PASSES`` halves it; the last window is cut at the end of the
    grid.  Every window of a converged run settled, so the passes in
    ``inner_iterations`` alone decide the next width.
    """
    windows = diagnostics["windows"]
    passes = diagnostics["inner_iterations"]
    assert windows[0] == (0, 0)
    assert [w[0] for w in windows[1:]] == [w[1] + 1 for w in windows[:-1]]
    assert windows[-1][1] == steps
    width = 1
    for first, last in windows[1:]:
        assert last - first + 1 == min(width, steps + 1 - first)
        p = passes[first]
        if p <= _WIDEN_PASSES:
            width *= 2 ** max(1, (_WIDEN_PASSES + 2 - p) // 2)
        elif p > _NARROW_PASSES:
            width = max(width // 2, 1)
    assert diagnostics["coupling_passes"] == sum(passes[first] for first, _ in windows)
