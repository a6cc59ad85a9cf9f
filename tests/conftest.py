from __future__ import annotations

import pathlib

import pytest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def demo_source() -> str:
    return (FIXTURES / "scale_rows.mini").read_text()


@pytest.fixture(scope="session")
def demo_program(demo_source):
    from zigzag.lang import parse

    return parse(demo_source)


@pytest.fixture(scope="session")
def flat_ifs_source() -> str:
    """A helper ``f`` whose body is 1,200 sequential ifs, a second helper
    ``g`` (so ct4 and ct5 have a pair to merge) and a ``main`` calling both."""
    ifs = "".join(f"    if (a > {i % 7}) {{\n        a = a - 1;\n    }}\n" for i in range(1200))
    return (
        f"func f(a) {{\n{ifs}    return a;\n}}\n\n"
        "func g(b) {\n    return b * 2;\n}\n\n"
        "func main() {\n    var x = input();\n    output(f(x));\n    output(g(x));\n    return 0;\n}\n"
    )
