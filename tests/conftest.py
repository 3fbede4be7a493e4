"""Shared fixtures."""

import pytest


@pytest.fixture
def evaluated_points(monkeypatch):
    """The sizes of the point arrays at which zeval's compiled integrands run."""
    import zvar.zeval as zeval

    points = []
    compile_expr = zeval.compile_expr

    def counting(expr, names):
        fn = compile_expr(expr, names)

        def counted(x, *args):
            points.append(x.size)
            return fn(x, *args)
        return counted

    monkeypatch.setattr(zeval, "compile_expr", counting)
    return points
