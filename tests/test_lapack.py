"""`resistwalk._lapack`, the one module that calls foreign linear algebra:
its ctypes routines against the scipy.linalg and numpy calls they stand in
for, on both routes, and a guard that keeps the binding in this module."""

import ast
import ctypes
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg

import resistwalk
from resistwalk import FamilySpec, _lapack, generate
from resistwalk._lapack import ONE_THREAD_LIMIT
from resistwalk.resistance import _dense_grounded_laplacian


def without_lapack(monkeypatch, names):
    """Make the lookup of the LAPACK routines `names` find nothing, as on a
    build that does not export them; other lookups still find theirs."""
    found = _lapack.lapack
    monkeypatch.setattr(_lapack, "lapack",
                        lambda module, wanted: None if wanted == names else found(module, wanted))


ROUTES = pytest.mark.parametrize("route", ["ctypes", "fallback"])


def _spd(n):
    """A symmetric positive definite n x n matrix, Fortran-ordered."""
    m = np.random.default_rng(n).standard_normal((n, n))
    return np.asfortranarray(m @ m.T + n * np.eye(n))


@ROUTES
@pytest.mark.parametrize("n", [1, 9, ONE_THREAD_LIMIT, ONE_THREAD_LIMIT + 1, 300])
def test_cho_factor_and_cho_solve_have_the_bits_of_scipy_linalg(n, route, monkeypatch):
    a = _spd(n)
    b = np.random.default_rng(n + 1).standard_normal((n, 3))
    with _lapack._one_thread(n):  # at the thread count the module picks
        c, lower = linalg.cho_factor(a, check_finite=False)
        want = [c.tobytes(), linalg.cho_solve((c, lower), b[:, 0], check_finite=False).tobytes(),
                linalg.cho_solve((c, lower), b, check_finite=False).tobytes()]
    if route == "ctypes":  # the scipy wheel links its LAPACK
        assert _lapack.lapack(_lapack.MODULES["scipy"], _lapack.CHOLESKY) is not None
    else:
        without_lapack(monkeypatch, _lapack.CHOLESKY)
        assert _lapack.environment()["laplacian_solve"] == "scipy.linalg"
    c = _lapack.cho_factor(a.copy(order="F"))
    assert [c.tobytes(), _lapack.cho_solve(c, b[:, 0]).tobytes(),
            _lapack.cho_solve(c, b).tobytes()] == want
    with pytest.raises(np.linalg.LinAlgError, match="1-th leading minor"):
        _lapack.cho_factor(np.asfortranarray(-a))


@ROUTES
@pytest.mark.parametrize("n", [1, 9, ONE_THREAD_LIMIT, ONE_THREAD_LIMIT + 1, 300])
def test_cho_inverse_has_the_bits_of_cho_solve_against_the_identity(n, route, monkeypatch):
    c = _lapack.cho_factor(_spd(n))
    factor = c.tobytes()
    with _lapack._one_thread(n):  # at the thread count the module picks
        want = linalg.cho_solve((c, False), np.eye(n)).tobytes()
    if route == "ctypes":  # the scipy wheel links its LAPACK
        assert _lapack.lapack(_lapack.MODULES["scipy"], _lapack.CHOLESKY) is not None
    else:
        without_lapack(monkeypatch, _lapack.CHOLESKY)
        assert _lapack.environment()["laplacian_solve"] == "scipy.linalg"
    inverse = _lapack.cho_inverse(c)
    assert inverse.tobytes() == want and inverse.flags.f_contiguous
    assert c.tobytes() == factor  # the factor is not written


@ROUTES
@pytest.mark.parametrize("k", [1, 9, 200])
def test_solve_transposed_has_the_bits_of_np_linalg_solve(k, route, monkeypatch):
    rng = np.random.default_rng(k)
    at = rng.standard_normal((k, k)) + k * np.eye(k)
    rhs = rng.standard_normal((3, k))
    want = [np.linalg.solve(at.T, b).tobytes() for b in rhs]
    if route == "ctypes":  # the numpy wheel links its LAPACK
        assert _lapack.lapack(_lapack.MODULES["numpy"], _lapack.LU) is not None
    else:
        without_lapack(monkeypatch, _lapack.LU)
        assert _lapack.environment()["exact_chain_solve"] == "np.linalg.solve"
    assert [x.tobytes() for x in _lapack.solve_transposed(at.copy(), rhs)] == want
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _lapack.solve_transposed(np.zeros((k, k)), rhs)


class _Threads:
    """An OpenBLAS copy's thread functions, counting in Python."""

    def __init__(self):
        self.count, self.set = 2, []

    def get_num_threads(self):
        return self.count

    def set_num_threads(self, n):
        self.set.append(n)
        self.count = n


def test_one_thread_up_to_the_limit_and_the_count_restored_after_a_raise(monkeypatch):
    blas = _Threads()
    monkeypatch.setattr(_lapack, "openblas", lambda module: blas)
    with _lapack._one_thread(ONE_THREAD_LIMIT):
        assert blas.count == 1
    with _lapack._one_thread(ONE_THREAD_LIMIT + 1):
        assert blas.count == 2
    with pytest.raises(KeyError), _lapack._one_thread(1):
        raise KeyError("in the block")
    assert blas.count == 2 and blas.set == [1, 2, 1, 2]
    # without the thread functions the block runs as it finds them
    monkeypatch.setattr(_lapack, "openblas", lambda module: None)
    with _lapack._one_thread(1):
        pass


def test_openblas_lookup_is_resolved_once_and_none_without_the_symbols():
    assert _lapack.openblas("scipy.linalg._fblas") is _lapack.openblas(_lapack.MODULES["scipy"])
    # an extension that links no OpenBLAS, a Python source file, no module
    for module in ("_ctypes", "json", "no_such_module"):
        assert _lapack.openblas(module) is None


def test_library_lookup_finds_submodule_files_without_running_them():
    script = ("import sys; from resistwalk._lapack import _library_functions as find; "
              "f = find('scipy.linalg._fblas', ('dpotrf',), ('scipy_', ''), ('_64_', '_')); "
              "print(f[0].__name__, 'scipy.linalg' in sys.modules)")
    src = str(Path(_lapack.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.split() == ["scipy_dpotrf_", "False"]
    # no parent package, a parent that is a module, no such submodule, a
    # Python source file
    for module in ("no_such_package.module", "os.path", "json.no_such_module", "json.decoder"):
        assert _lapack._library_functions(module, ("dpotrf",), ("scipy_", ""), ("_",)) is None


def test_library_lookup_refuses_a_namespace_package(tmp_path, monkeypatch):
    # a directory with no __init__.py is a namespace package with no file,
    # and CDLL(None) would open the program itself, which exports malloc
    (tmp_path / "resistwalk_parent" / "namespace").mkdir(parents=True)
    (tmp_path / "resistwalk_parent" / "__init__.py").touch()
    monkeypatch.syspath_prepend(str(tmp_path))
    assert hasattr(ctypes.CDLL(None), "malloc")
    args = ("resistwalk_parent.namespace", ("malloc",), ("",), ("",))
    assert _lapack._library_functions(*args) is None  # the parent is not imported
    importlib.import_module("resistwalk_parent")
    try:
        assert _lapack._library_functions(*args) is None
    finally:
        del sys.modules["resistwalk_parent"]


def test_importing_the_package_leaves_scipy_unloaded():
    # scipy is imported at the first dense solve or manifest, not before
    script = "import sys, resistwalk; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(_lapack.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_the_ctypes_cholesky_refuses_what_lapack_would_misread():
    g = generate(FamilySpec("gasket", 2))
    a = _dense_grounded_laplacian(g)
    read_only = a.copy(order="F")
    read_only.setflags(write=False)
    for bad in (np.ascontiguousarray(a), np.asfortranarray(a[:-1]), a.astype(np.float32),
                read_only, np.ones((2, 2, 2), order="F")):
        with pytest.raises(ValueError, match="Fortran-ordered square float64"):
            _lapack.cho_factor(bad)
    c = _lapack.cho_factor(a)
    for b in (np.ones(g.n), np.ones((g.n - 2, 3)), np.ones((g.n - 1, 1, 1))):
        with pytest.raises(ValueError, match="incompatible dimensions"):
            _lapack.cho_solve(c, b)
    b = np.arange(g.n - 1.0)
    x = _lapack.cho_solve(c, np.stack([b, 2 * b], axis=1))
    assert x[:, 0].tobytes() == _lapack.cho_solve(c, b).tobytes()
    assert np.array_equal(b, np.arange(g.n - 1.0))  # b is not written


def test_solve_transposed_refuses_what_lapack_cannot_take():
    # at is overwritten by its LU in place and handed to LAPACK as at.T, so
    # it must be a writable C-ordered square float64 matrix
    a = np.array([[4.0, 1.0], [2.0, 3.0]])
    want = np.linalg.solve(a.T, [1.0, 2.0])
    read_only = a.copy()
    read_only.setflags(write=False)
    for at in (np.asfortranarray(a), read_only, a.astype(np.float32), a[:, :1].copy(), a.ravel()):
        with pytest.raises(ValueError, match="writable C-ordered square float64"):
            _lapack.solve_transposed(at, [[1.0, 2.0]])
    for b in ([1.0, 2.0, 3.0], [[1.0], [2.0]]):
        with pytest.raises(ValueError, match="right-hand sides of 2 values"):
            _lapack.solve_transposed(a.copy(), [[1.0, 2.0], b])
    [x] = _lapack.solve_transposed(a.copy(), [[1.0, 2.0]])
    assert np.array_equal(x, want)


def _imports(path: Path):
    """(module, names imported from it) for every import in a source file;
    a relative import keeps its leading dots."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or ""), tuple(a.name for a in node.names)


def test_only_lapack_binds_foreign_code():
    sources = sorted(Path(resistwalk.__file__).parent.glob("*.py"))
    assert "_lapack.py" in {path.name for path in sources}
    for path in sources:
        for module, names in _imports(path):
            top = module.split(".")[0]
            if path.name != "_lapack.py":
                assert top not in ("ctypes", "importlib"), f"{path.name} imports {module}"
            if path.name in ("cli_io.py", "exact_chain.py"):
                assert top != "scipy", f"{path.name} imports {module}"
            if module in (".resistance", "resistwalk.resistance"):
                private = [name for name in names if name.startswith("_")]
                assert private == [], f"{path.name} imports {private} from resistance"
