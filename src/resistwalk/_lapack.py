"""Every foreign linear-algebra call of the package, in one place.

numpy and scipy each bundle a copy of OpenBLAS with its LAPACK.  This module
calls them through ctypes, so that no other module imports ctypes and the
package import loads neither scipy.linalg nor scipy.sparse:

- `cho_factor`, `cho_solve` and `cho_inverse` call dpotrf and dpotrs of
  scipy's copy, the routines and arguments, and so the bits, of
  scipy.linalg's cho_factor and cho_solve.  Systems of at most
  ONE_THREAD_LIMIT unknowns run on one thread of that copy: up to that
  size one thread gave the same bits as two on every family graph tested, a
  second thread did not make the calls faster, and its worker spun on after
  each call, taking a CPU another process could use.  Larger systems keep
  the thread count they find.
- `solve_transposed` calls numpy's own dgesv and dgetrs, with
  np.linalg.solve's bits, at the process's thread count.
- `environment()` records which libraries these reach, for the manifest.

Where a function's LAPACK routines cannot be found, it calls scipy.linalg's
cho_factor and cho_solve, or np.linalg.solve, which give the same bits.
Callers call through the module (`_lapack.cho_factor(...)`).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
from typing import Callable, NamedTuple

import numpy as np

ONE_THREAD_LIMIT = 128  # dense systems of at most this many unknowns run on one BLAS thread

# the extension modules behind np.linalg.solve and scipy.linalg's BLAS calls;
# their OpenBLAS copies are the ones numpy's and scipy's linear algebra reach
MODULES = {"numpy": "numpy.linalg._umath_linalg", "scipy": "scipy.linalg._fblas"}
CHOLESKY = ("dpotrf", "dpotrs")
LU = ("dgesv", "dgetrs")

# the arguments of each routine bound: c a one-character string, i a pointer
# to an integer, a an array, l the length of the one-character string, which
# a Fortran routine may read
_SIGNATURES = {"dpotrf": "ciaiil", "dpotrs": "ciiaiaiil", "dgesv": "iiaiaaii", "dgetrs": "ciiaiaaii"}


def _library_functions(module: str, names, prefixes, suffixes) -> tuple | None:
    """The functions f"{prefix}{name}{suffix}" for each of `names`, from the
    first prefix and then suffix under which all of them are found, or None.

    They are looked up on a handle to the file of the extension module
    `module`, a submodule of a package, which is found but not run: only
    the packages above its parent are imported, so scipy.linalg's __init__
    does not run for scipy.linalg._fblas.  dlsym on that handle also
    searches the libraries the module links, so these are the functions its
    own calls reach."""
    try:
        where = importlib.util.find_spec(module.rpartition(".")[0]).submodule_search_locations
        spec = importlib.machinery.PathFinder.find_spec(module, where or [])
        if not spec.has_location:  # a namespace package: CDLL(None) would open the program
            return None
        lib = ctypes.CDLL(spec.origin)
    except (ValueError, ImportError, AttributeError, KeyError, OSError):
        # no parent, no module, a namespace package below one not imported, no library
        return None
    for prefix in prefixes:
        for suffix in suffixes:
            try:
                return tuple(getattr(lib, f"{prefix}{name}{suffix}") for name in names)
            except AttributeError:
                continue
    return None


@functools.cache
def lapack(module: str, names: tuple) -> tuple[tuple, type] | None:
    """The LAPACK routines `names` (keys of _SIGNATURES) that the extension
    module `module` calls, typed, with the ctypes type of their integer
    arguments, or None if they cannot be found.  A numpy or scipy wheel
    links them as scipy_dgesv_ with 32-bit integers or scipy_dgesv_64_ with
    64-bit ones, a system build as dgesv_."""
    found = _library_functions(module, names, ("scipy_", ""), ("_64_", "_"))
    if found is None:
        return None
    int_t = ctypes.c_int64 if found[0].__name__.endswith("_64_") else ctypes.c_int
    types = {"c": ctypes.c_char_p, "i": ctypes.POINTER(int_t), "a": ctypes.c_void_p,
             "l": ctypes.c_size_t}
    for name, f in zip(names, found):
        f.argtypes = [types[t] for t in _SIGNATURES[name]]
        f.restype = None
    return found, int_t


class _OpenBLAS(NamedTuple):
    """Thread-count and core-name functions of one loaded OpenBLAS copy."""

    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    get_corename: Callable[[], bytes | None]


@functools.cache
def openblas(module: str) -> _OpenBLAS | None:
    """The OpenBLAS copy that the extension module `module` calls, or None
    if the module or its functions cannot be found: a wheel's
    (scipy_openblas_*, with the suffix 64_ in an ILP64 build) or a system
    build's (openblas_*)."""
    found = _library_functions(module, ("get_num_threads", "set_num_threads", "get_corename"),
                               ("scipy_openblas_", "openblas_"), ("", "64_"))
    if found is None:
        return None
    get, set_, core = found
    set_.argtypes, set_.restype = [ctypes.c_int], None
    core.restype = ctypes.c_char_p
    return _OpenBLAS(get, set_, core)


@contextlib.contextmanager
def _one_thread(n: int):
    """Run the block on one thread of scipy's OpenBLAS when a system of n
    unknowns is at most ONE_THREAD_LIMIT, and restore the thread count
    found, also when the block raises.  Does nothing if that OpenBLAS
    cannot be reached."""
    blas = openblas(MODULES["scipy"]) if n <= ONE_THREAD_LIMIT else None
    if blas is None:
        yield
        return
    found = blas.get_num_threads()
    blas.set_num_threads(1)
    try:
        yield
    finally:
        blas.set_num_threads(found)


def _check_matrix(a: np.ndarray, order: str) -> None:
    """Refuse a matrix that LAPACK would misread or could not write its
    factor over: a must be a writable square float64 matrix stored in
    `order`, "Fortran" or "C"."""
    laid_out = a.flags.f_contiguous if order == "Fortran" else a.flags.c_contiguous
    if not (a.ndim == 2 and a.shape[0] == a.shape[1] and a.dtype == np.float64
            and laid_out and a.flags.writeable):
        raise ValueError(f"expected a writable {order}-ordered square float64 matrix")


def cho_factor(a: np.ndarray) -> np.ndarray:
    """a's upper Cholesky factor, written over the Fortran-ordered positive
    definite a and returned; a's strict lower triangle is left as it was.
    This is scipy.linalg.cho_factor(a, overwrite_a=True,
    check_finite=False)[0]: dpotrf with uplo 'U' on a's storage.  A matrix
    that is not positive definite raises np.linalg.LinAlgError."""
    _check_matrix(a, "Fortran")
    with _one_thread(len(a)):
        found = lapack(MODULES["scipy"], CHOLESKY)
        if found is None:
            from scipy import linalg

            return linalg.cho_factor(a, overwrite_a=True, check_finite=False)[0]
        (potrf, _), int_t = found
        n, info = int_t(len(a)), int_t(0)
        potrf(b"U", ctypes.byref(n), a.ctypes.data, ctypes.byref(n), ctypes.byref(info), 1)
    if info.value:
        raise np.linalg.LinAlgError(f"{info.value}-th leading minor of the array is not positive definite")
    return a


def _solve_in_place(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Overwrite the Fortran-ordered float64 x, one right-hand side or one
    per column, with the solution of c.T c x = x for the upper factor c, by
    dpotrs with uplo 'U' (scipy.linalg.cho_solve without its copy of x)."""
    with _one_thread(len(c)):
        found = lapack(MODULES["scipy"], CHOLESKY)
        if found is None:
            from scipy import linalg

            return linalg.cho_solve((c, False), x, overwrite_b=True, check_finite=False)
        if x.ndim not in (1, 2) or len(x) != len(c):
            raise ValueError(f"incompatible dimensions ({c.shape} and {x.shape})")
        (_, potrs), int_t = found
        n, info = int_t(len(c)), int_t(0)
        nrhs = int_t(1 if x.ndim == 1 else x.shape[1])
        # info is nonzero only for an argument out of range, which these are not
        potrs(b"U", ctypes.byref(n), ctypes.byref(nrhs), c.ctypes.data, ctypes.byref(n),
              x.ctypes.data, ctypes.byref(n), ctypes.byref(info), 1)
    return x


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with c.T c x = b for the upper factor c that cho_factor made, in a
    new Fortran-ordered array; b, one right-hand side or one per column, is
    not written.  This is scipy.linalg.cho_solve((c, False), b,
    check_finite=False): dpotrs with uplo 'U' on a Fortran-ordered copy of
    b."""
    return _solve_in_place(c, np.array(b, dtype=np.float64, order="F"))


def cho_inverse(c: np.ndarray) -> np.ndarray:
    """(c.T c)^-1 for the upper factor c that cho_factor made: the bits of
    cho_solve(c, np.eye(len(c))), solved in place into a Fortran-ordered
    identity, so that only c and the result are alive (cho_solve would also
    hold a C-ordered identity while it copies it)."""
    return _solve_in_place(c, np.eye(len(c), order="F"))


def solve_transposed(at: np.ndarray, rhs) -> list[np.ndarray]:
    """x with at.T x = b for each b in rhs, overwriting `at` with its LU.

    at is C-ordered, so at.T is the Fortran-ordered matrix that LAPACK and
    np.linalg.solve factor.  numpy's own dgesv solves for the first b, as
    np.linalg.solve does, and dgetrs reuses the LU it leaves for the rest:
    both give np.linalg.solve's bits.  (dgetrf followed by dgetrs does not:
    at two BLAS threads its factor differs from dgesv's.)  Without those
    functions np.linalg.solve solves for each b.
    """
    _check_matrix(at, "C")
    k = len(at)
    xs = [np.array(b, dtype=np.float64) for b in rhs]
    if any(x.shape != (k,) for x in xs):
        raise ValueError(f"expected right-hand sides of {k} values")
    found = lapack(MODULES["numpy"], LU)
    if found is None:
        return [np.linalg.solve(at.T, x) for x in xs]
    (gesv, getrs), int_t = found
    n, one, info = int_t(k), int_t(1), int_t(0)
    ipiv = np.empty(k, dtype=np.dtype(int_t))
    for i, x in enumerate(xs):
        args = (ctypes.byref(n), ctypes.byref(one), at.ctypes.data, ctypes.byref(n),
                ipiv.ctypes.data, x.ctypes.data, ctypes.byref(n), ctypes.byref(info))
        if i == 0:
            gesv(*args)
        else:
            getrs(b"N", *args)
        if info.value:
            raise np.linalg.LinAlgError("Singular matrix")
    return xs


def environment() -> dict:
    """The numpy and scipy versions; for the OpenBLAS copy each calls, its
    core name and thread count, "unknown" where a lookup fails; and the
    routines solve_transposed ("exact_chain_solve") and cho_factor,
    cho_solve and cho_inverse ("laplacian_solve") call, by name, or the
    fallback they call where those cannot be found.  Nothing here imports
    scipy.linalg; scipy itself is imported here, not with the module, for
    its version."""
    import scipy

    def route(lib, names, fallback):
        found = lapack(MODULES[lib], names)
        return [f.__name__ for f in found[0]] if found else fallback

    env = {"numpy": np.__version__, "scipy": scipy.__version__,
           "exact_chain_solve": route("numpy", LU, "np.linalg.solve"),
           "laplacian_solve": route("scipy", CHOLESKY, "scipy.linalg")}
    for lib, module in MODULES.items():
        blas = openblas(module)
        core = blas.get_corename() if blas else None
        env[f"{lib}_openblas"] = {
            "corename": core.decode(errors="replace") if core else "unknown",
            "threads": blas.get_num_threads() if blas else "unknown",
        }
    return env
