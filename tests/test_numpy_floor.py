"""src/ stays within the NumPy that pyproject.toml declares, numpy>=1.24.

The suite runs on one installed NumPy, so a name or keyword that NumPy
added in 2.0 or later passes every other test and breaks the declared
floor. This check walks src/ with ast and fails on a short list of them.
It is only as good as its list: extend it when a newer API is met.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NUMPY = ("np", "numpy")
# functions of numpy and numpy.linalg added in NumPy 2.0 or later
NEW_FUNCTIONS = {"trapezoid", "vecdot", "unique_values", "unique_counts", "unique_inverse",
                 "unique_all", "matrix_transpose", "permute_dims", "concat", "isdtype", "astype",
                 "cumulative_sum", "cumulative_prod", "unstack", "matvec", "vecmat",
                 "vector_norm", "matrix_norm", "svdvals"}
NEW_ATTRIBUTES = {"mT", "device", "to_device"}  # ndarray attributes added in NumPy 2.0
# keywords added in NumPy 2.0: np.asarray(copy=), and out= on every np.fft function
NEW_KEYWORDS = {"asarray": {"copy"}, "fft.*": {"out"}}


def dotted(node) -> str:
    """'np.fft.irfft' for the expression np.fft.irfft; '' when the chain does
    not start at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id] + parts[::-1])


def floor_violations(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) of every use of a NEW_* name or keyword in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            path = dotted(node).split(".")
            if path[0] in NUMPY and path[1:-1] in ([], ["linalg"]) and path[-1] in NEW_FUNCTIONS:
                found.append((node.lineno, ".".join(path)))
            elif node.attr in NEW_ATTRIBUTES:
                found.append((node.lineno, "." + node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found.extend((node.lineno, f"from {node.module} import {alias.name}")
                         for alias in node.names if alias.name in NEW_FUNCTIONS)
        elif isinstance(node, ast.Call):
            path = dotted(node.func).split(".")
            if path[0] not in NUMPY:
                continue
            key = "fft.*" if path[1:2] == ["fft"] else ".".join(path[1:])
            found.extend((node.lineno, f"{'.'.join(path)}({kw.arg}=)") for kw in node.keywords
                         if kw.arg in NEW_KEYWORDS.get(key, ()))
    return sorted(found)


def test_src_keeps_the_declared_numpy_floor():
    assert '"numpy>=1.24"' in (SRC.parent / "pyproject.toml").read_text()
    found = [f"{path.relative_to(SRC)}:{line}: {what}" for path in sorted(SRC.rglob("*.py"))
             for line, what in floor_violations(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_floor_check_flags_numpy_2_usage():
    planted = "\n".join([
        "import numpy as np",
        "from numpy import trapezoid",
        "np.fft.irfft(a, n=8, axis=1, out=b[i])",
        "area = np.trapezoid(y, x)",
        "dots = np.linalg.vecdot(a, b)",
        "first = np.unique_values(a)",
        "flip = a.mT",
        "view = np.asarray(a, copy=False)",
        # NumPy 1.24 has all of these
        "np.fft.irfft(a, n=8, axis=1)",
        "np.asarray(a, dtype=float)",
        "np.unique(a, axis=0, return_inverse=True)",
        "a.T.astype(float, copy=False)",
    ])
    assert [line for line, _ in floor_violations(ast.parse(planted))] == [2, 3, 4, 5, 6, 7, 8]
