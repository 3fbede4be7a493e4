"""Shared fixtures."""

import pytest


@pytest.fixture
def evaluated_points(monkeypatch):
    """The sizes of the point arrays at which zeval's quadratures call their integrands."""
    import zvar.zeval as zeval

    points = []
    integrate_segments = zeval.integrate_segments

    def counted(fn):
        def call(x, *args):
            points.append(x.size)
            return fn(x, *args)
        return call

    def counting(groups, *args, **kwargs):
        return integrate_segments([(counted(fn), *rest) for fn, *rest in groups],
                                  *args, **kwargs)

    monkeypatch.setattr(zeval, "integrate_segments", counting)
    return points
