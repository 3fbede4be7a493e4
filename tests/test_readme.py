"""README's Library example runs as written, so it cannot go stale."""

import math
import re
from pathlib import Path

from zvar import InfiniteIntegral

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    block, = re.findall(r"^## Library\n\n```python\n(.*?)^```", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    scope = {}
    exec(block, scope)
    result = scope["result"]
    assert result.status == "converged"
    assert abs(result.value - math.cos(1.0)) <= 1e-6
    image = scope["image"]
    assert isinstance(image, InfiniteIntegral) and image.lower_limit == 1.0
