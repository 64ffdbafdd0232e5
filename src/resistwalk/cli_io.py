"""Command-line surface, configuration parsing, and reproducibility plumbing.

One self-describing JSON config format drives every command.  Runners emit
their outputs as text or bytes; `run_command` alone writes each atomically
(temp file, then rename) and records the SHA-256 of the bytes it wrote.  A
file another run sharing the directory has since replaced fails the run
(exit 4).  The manifest of config hash and digests is written last, so an
interrupted run never leaves a manifest pointing at half-written files.
Each rename, and the re-hash of the outputs together with the manifest
write, hold an exclusive flock on the output directory itself: a writer
that takes the same lock to replace an output lands before the re-hash,
which then fails the run, or after the manifest.  Besides config and
seed, the full-size `resist`, `exp carpet`, `exp uvd` and oracle outputs
depend on the BLAS thread count: dense resistance solves of at most
`_lapack.ONE_THREAD_LIMIT` unknowns run on one thread by construction, but
larger ones and `exact_chain`'s solves run at the process's count.  The
manifest records the linear-algebra environment (`_lapack.environment`)
for that reason.
"""

import argparse
import contextlib
import hashlib
import inspect
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

try:
    import fcntl
except ImportError:  # no flock here: the directory lock does nothing
    fcntl = None

from . import __version__, _lapack
from .errors import (
    BudgetError,
    ConfigError,
    InvariantViolation,
    ParseError,
    RangeError,
    ResistwalkError,
    SchemaError,
    UnknownKey,
)
from .exact_chain import (
    excursion_visit_law,
    expected_hitting_time,
    expected_return_time,
    hit_before_return_prob,
)
from .experiments import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_N_TRIALS,
    _cover_cap,
    _cover_trial,
    _trial_plan,
    carpet_rho_estimate,
    check_uvd,
    cover_time_scaling,
    estimate_exponents,
    local_time_scaling,
    modulus_equicontinuity_gasket,
    sup_local_time_tail,
    tail_curve_thm_a,
    tail_curve_thm_b,
)
from .graphs import FAMILIES, FamilySpec, WeightedGraph, _check_level, _jsonable, generate
from .resistance import resistance_matrix, validate_metric
from .walk_sim import RngStream, run_walk

SCHEMA_VERSION = "resistwalk/1"
GRAPH_SCHEMA = "resistwalk-graph/1"
OUT_DIR_ENV = "RESISTWALK_OUT"

# allowed keys and defaults per command; None marks a required key
_COMMON = {"schema": None, "command": None, "out_dir": ""}
_SCHEMAS = {
    "gen": {"family": None, "levels": None, "weight": 1.0},
    "resist": {"family": None, "levels": None},
    "oracle": {"family": None, "level": None, "x": None, "y": None, "kmax": 64},
    "walk": {
        "family": None,
        "level": None,
        "start": 0,
        "n_trials": 100,
        "cap_factor": 1000.0,
        "seed": None,
    },
    "exp": {
        "kind": None,
        "family": "gasket",
        "levels": None,
        "T": 1.0,
        "L": 1.0,
        "lambda_grid": list(DEFAULT_LAMBDA_GRID),
        "n_trials": DEFAULT_N_TRIALS,
        "seed": 0,
        "v_exponent": 0.0,
        "t_values": [1.0],
        "cap_factor": 1000.0,
        "wired_check_level": 1,
    },
    "validate": {"family": None, "levels": None, "seed": None, "steps": 2000},
}
COMMANDS = tuple(_SCHEMAS)


class _ExpKind(NamedTuple):
    """One `exp` kind.  Its levels are built in `family`, or in the config's
    `family` when that is None.  It reads the exp keys named by the
    parameters of `study`, and a config that sets any other exp key is
    refused.  A kind that reads `seed` is stochastic and needs it set, as it
    needs each key in `requires`.  `study` returns the report written to
    `report`, or, when that is None, the tail curves written one CSV per
    level."""

    family: str | None
    report: str | None
    study: Callable
    requires: tuple = ()

    @property
    def keys(self) -> tuple:
        return tuple(inspect.signature(self.study).parameters)


_EXP_KINDS = {
    "uvd": _ExpKind(None, "uvd_report.json", check_uvd, requires=("v_exponent",)),
    "exponents": _ExpKind(None, "exponents.json", estimate_exponents),
    "thm-a": _ExpKind(None, None, tail_curve_thm_a),
    "thm-b": _ExpKind(None, None, tail_curve_thm_b),
    "sup-lt": _ExpKind(None, None, sup_local_time_tail),
    "equicontinuity": _ExpKind("gasket", None, modulus_equicontinuity_gasket),
    "scaling": _ExpKind("gasket", "scaling_report.json", local_time_scaling),
    "cover": _ExpKind("gasket", "scaling_report.json", cover_time_scaling),
    "carpet": _ExpKind("carpet", "carpet_report.json", carpet_rho_estimate),
}
EXP_KINDS = tuple(_EXP_KINDS)


@dataclass(eq=False)
class ExperimentConfig:
    """A validated command configuration with defaults filled in."""

    command: str
    params: dict
    out_dir: str

    def canonical(self) -> dict:
        doc = {"schema": SCHEMA_VERSION, "command": self.command, "out_dir": self.out_dir}
        doc.update(self.params)
        return doc

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _require_type(key, value, types, what):
    if isinstance(value, bool) or not isinstance(value, types):
        raise RangeError(f"config key {key!r} must be {what}, got {value!r}")
    return value


def _check_lambda_grid(value):
    if not isinstance(value, list) or len(value) < 2:
        raise RangeError("lambda_grid must be a list of at least two values")
    grid = []
    for lam in value:
        _require_type("lambda_grid", lam, (int, float), "numeric")
        lam = float(lam)
        if not math.isfinite(lam) or lam < 0:
            raise RangeError(f"lambda_grid entries must be finite and nonnegative, got {lam}")
        grid.append(lam)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise RangeError("lambda_grid must be strictly increasing")
    return grid


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config document.

    Returns a config with the per-command defaults filled in.  Unknown keys
    are rejected rather than ignored so that a typo cannot silently change
    an experiment.  Stochastic commands must carry an explicit seed.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"config is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("config must be a JSON object")
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        raise SchemaError(f"config schema must be {SCHEMA_VERSION!r}, got {schema!r}")
    command = doc.get("command")
    if command not in COMMANDS:
        raise SchemaError(f"command must be one of {COMMANDS}, got {command!r}")

    allowed = {**_COMMON, **_SCHEMAS[command]}
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise UnknownKey(f"unknown config keys for {command!r}: {', '.join(unknown)}")
    missing = sorted(k for k, v in _SCHEMAS[command].items() if v is None and k not in doc)
    if "seed" in missing:
        raise RangeError(f"command {command!r} is stochastic and requires a seed")
    if missing:
        raise SchemaError(f"missing required keys for {command!r}: {', '.join(missing)}")

    params = {k: doc.get(k, dflt) for k, dflt in _SCHEMAS[command].items()}
    out_dir = doc.get("out_dir", "")
    if not isinstance(out_dir, str):
        raise RangeError(f"out_dir must be a string, got {out_dir!r}")

    fam = params.get("family")
    if fam is not None and fam not in FAMILIES:
        raise RangeError(f"family must be one of {FAMILIES}, got {fam!r}")
    if command == "exp":
        kind = params["kind"]
        if kind not in EXP_KINDS:
            raise RangeError(f"exp kind must be one of {EXP_KINDS}, got {kind!r}")
        spec = _EXP_KINDS[kind]
        reads = spec.keys
        stray = sorted(k for k in doc if k in _SCHEMAS["exp"] and k != "kind" and k not in reads)
        if stray:
            raise UnknownKey(f"keys {', '.join(stray)} do not apply to exp kind {kind!r}")
        if "seed" in reads and "seed" not in doc:
            raise RangeError(f"exp kind {kind!r} is stochastic and requires a seed")
        for key in spec.requires:
            if key not in doc:
                raise SchemaError(f"exp kind {kind!r} requires {key}")
        fam = spec.family or fam  # the family the kind builds its levels in
    if "levels" in params:
        if not isinstance(params["levels"], list) or not params["levels"]:
            raise RangeError("config key 'levels' must be a nonempty list of levels")
        for lv in params["levels"]:
            _check_level(fam, lv)
        if len(set(params["levels"])) < len(params["levels"]):
            raise RangeError(f"config key 'levels' repeats a level: {params['levels']}")
    if "level" in params:
        _check_level(fam, params["level"])
    if "wired_check_level" in params:
        _check_level("wired_carpet", params["wired_check_level"])
    for key in ("x", "y", "start", "kmax", "n_trials", "steps"):
        if key in params:
            v = _require_type(key, params[key], int, "an integer")
            if v < 0 or (key in ("kmax", "n_trials") and v < 1):
                raise RangeError(f"config key {key!r} must be positive, got {v}")
    for key in ("T", "L", "weight", "cap_factor", "v_exponent"):
        if key in params:
            v = float(_require_type(key, params[key], (int, float), "numeric"))
            if not math.isfinite(v) or (key != "v_exponent" and v <= 0):
                raise RangeError(f"config key {key!r} must be positive and finite, got {v}")
            params[key] = v
    if "lambda_grid" in params:
        params["lambda_grid"] = _check_lambda_grid(params["lambda_grid"])
    if "t_values" in params:
        tv = params["t_values"]
        if not isinstance(tv, list) or not tv:
            raise RangeError("t_values must be a nonempty list")
        params["t_values"] = [
            float(_require_type("t_values", t, (int, float), "numeric")) for t in tv
        ]
        if any(not math.isfinite(t) or t <= 0 for t in params["t_values"]):
            raise RangeError("t_values entries must be positive and finite")

    if command == "oracle" and params["x"] == params["y"]:
        raise RangeError(f"oracle vertices x and y must differ, both are {params['x']}")
    if "seed" in params and params.get("seed") is not None:
        s = _require_type("seed", params["seed"], int, "an integer")
        if s < 0:
            raise RangeError(f"seed must be nonnegative, got {s}")
    return ExperimentConfig(command=command, params=params, out_dir=out_dir)


# -- output text and atomic writes ----------------------------------------------


@contextlib.contextmanager
def _directory_lock(directory: Path):
    """Hold an exclusive flock on the directory's own descriptor for the
    block, which adds no file to it; the lock is released when the
    descriptor closes.  Each call opens a descriptor of its own, so a block
    waits for every other holder, another thread of this process included,
    and a block that already holds the lock must not take it again.
    Without fcntl the lock does nothing."""
    if fcntl is None:
        yield
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


def _write_text_atomic(path: Path, text, locked: bool = False) -> str:
    """Write `text`, a string or an iterable of chunks written one at a
    time, strings as UTF-8 and bytes as they are, via a temp file of its own
    in the target directory, fsynced and renamed under the directory's lock,
    and return the SHA-256 of the bytes written.  `locked` says the caller
    holds that lock already.  A failed write leaves no temp file.  Mode is
    0o666 less umask, which the kernel applies when it creates the file."""
    digest = hashlib.sha256()
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as f:
            for chunk in (text,) if isinstance(text, str) else text:
                f.write(data := chunk.encode() if isinstance(chunk, str) else chunk)
                digest.update(data)
                del chunk, data  # hold no chunk while the next one is made
            f.flush()
            os.fsync(f.fileno())
        with contextlib.nullcontext() if locked else _directory_lock(path.parent):
            os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return digest.hexdigest()


def _graph_json(g: WeightedGraph) -> str:
    """A graph as JSON text with weights and coords as repr strings.

    repr of a float is its shortest exact decimal, so float(repr(w)) == w
    and the round trip through text is bit-exact.
    """
    doc = {
        "schema": GRAPH_SCHEMA,
        "n": g.n,
        "edges": [[int(u), int(v), repr(float(w))] for u, v, w in g.edges],
        "coords": {str(v): [repr(float(c)) for c in xy] for v, xy in sorted(g.coords.items())},
        "meta": _jsonable(g.meta),
    }
    return _dump_json(doc)


# -- run manifests ----------------------------------------------------------------


@dataclass(eq=False)
class RunManifest:
    """What a run produced: config hash, version, per-file checksums.

    wall_clock_s and linalg (`_lapack.environment`) are informational;
    reproducibility claims are about the output checksums, which must match
    across reruns of the same config.
    """

    command: str
    config_hash: str
    version: str
    outputs: dict  # filename -> sha256 hex digest
    counts: dict
    wall_clock_s: float
    linalg: dict


def _dump_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=1) + "\n", without the pure-Python
    encoder json.dumps takes for any indent.  Every dict key must be a str."""
    out = []
    _json_parts(obj, "\n", out)
    return "".join(out) + "\n"


def _json_parts(obj, nl, out):
    """Append to `out` the text of obj nested where a new line reads `nl`.
    A list of Python floats is one join of float.__repr__ when no item
    spells nan or inf, which json writes as NaN and Infinity; every other
    leaf, and an empty list or dict, is json.dumps(leaf)."""
    inner = nl + " "
    if isinstance(obj, dict) and obj:
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("a JSON report's keys must be str")
        out.append("{")
        for key in sorted(obj):
            out += (inner, json.dumps(key), ": ")
            _json_parts(obj[key], inner, out)
            out.append(",")
        out[-1] = nl + "}"  # in place of the last item's comma
    elif isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) == {float}:
            text = ("," + inner).join(map(float.__repr__, obj))
            if "n" not in text:  # finite floats spell no n
                out += ("[", inner, text, nl, "]")
                return
        out.append("[")
        for item in obj:
            out.append(inner)
            _json_parts(item, inner, out)
            out.append(",")
        out[-1] = nl + "]"
    else:
        out.append(json.dumps(obj))


def _tailcurve_csv(curve) -> str:
    lines = ["lambda,prob_est,ci_halfwidth,n_trials"]
    for lam, p, h in zip(curve.lambda_grid, curve.prob_est, curve.ci_halfwidth):
        lines.append(f"{float(lam)!r},{float(p)!r},{float(h)!r},{curve.n_trials}")
    return "\n".join(lines) + "\n"


# A runner calls emit(name, text or chunks) once per output; returns its counts.


def _run_gen(cfg, emit):
    counts = {}
    for lv in cfg.params["levels"]:
        g = generate(FamilySpec(cfg.params["family"], lv, cfg.params["weight"]))
        emit(f"graph_{cfg.params['family']}_{lv}.json", _graph_json(g))
        counts[f"level_{lv}"] = {"vertices": g.n, "edges": g.num_edges}
    return counts


# -- the resist CSV ---------------------------------------------------------------
#
# A cell reads np.float64(<repr(float(x))>).  repr spells the shortest decimal
# that reads back as x, the one nearest x where several have that length
# (D. M. Gay's dtoa), with at least one digit on each side of the point from
# 1e-4 up to 1e16.  `_shortest` finds the same digits for a whole array when x
# is in [0.01, 1e16) and not a power of two; repr spells every other cell,
# one at a time: zero, negatives, NaN, infinities, the exponent forms, and the
# decimal ties below.  Why its digits are repr's:
#
# - Let E be x's decimal exponent, k = 16 - E <= 18 and y = x * 10**k.
#   10**k is a double, so Dekker's product (T. J. Dekker, 1971) with
#   Veltkamp's split gives y = hi + lo exactly.  k comes from floor(log10(x)),
#   corrected once if hi falls outside [1e16, 1e17).  hi is above 2**53, so
#   an even integer, and |lo| <= 8.
# - D = hi + rint(lo) is y rounded to an integer, ties to even as repr breaks
#   them, and f = lo - rint(lo) is exact, so y = D + f.  With x = m * 2**(e - 53),
#   y is a multiple of 2**(e + k - 53) >= 2**-41, so for a remainder r of D
#   by 10 or 100, r + f, |r + f - M/2| and M/2 - h below are exact too.
# - A decimal reads back as x if it is less than h = 2**(e - 54) * 10**k from
#   y: half an ulp of x on y's scale, exact, and the same on both sides as x
#   is not a power of two.  A decimal exactly h away, x +- half an ulp, has
#   at least 17 digits for x < 2**53, and is an odd integer for larger x,
#   whose nearest 16-digit decimal is x itself; so the even-mantissa rule
#   at that boundary never decides.
# - 0.55 < h <= 11.1, as 2h / y lies in (2**-54, 2**-52].  So at most one
#   multiple of 100 (a decimal of at most 15 digits) is within h, and if one
#   is, it is D rounded to hundreds.  Else repr takes the multiple of 10
#   nearest y if that is within h; a tie, r + f = 5 for M = 10, goes to repr
#   when h > 5.  Else it takes D, which is within 0.5 < h: in a tie with
#   h <= 5 both multiples of 10 are h or more from y, so neither reads back.

_POW10 = 10.0 ** np.arange(20)  # exact doubles
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)  # Veltkamp's split
_POW10_SPLIT = np.stack([_POW10, _POW10_HI, _POW10 - _POW10_HI])
_INT10 = 10 ** np.arange(19, dtype=np.int64)
_CHUNK_CELLS = 768  # the least cells in a chunk of the resist CSV


def _word_table():
    """Four 10,000-entry tables of the ASCII digits of w < 10**4 as uint32
    words, in one array: at w its four digits, at _LEAD + w its
    leading zeros as NULs (zero is all NUL), at _UNITS + w the same but the
    last digit, at _TRAIL + w its trailing zeros as NULs (zero is all NUL)."""
    digits = (np.arange(10_000)[:, None] // _INT10[3::-1] % 10).astype(np.uint8)
    text = digits + ord("0")
    lead = np.logical_and.accumulate(digits == 0, axis=1)
    units = lead.copy()
    units[:, 3] = False
    trail = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    table = np.stack([text] + [np.where(nul, 0, text) for nul in (lead, units, trail)])
    return table.view(np.uint32).ravel()


_WORDS = _word_table()
_LEAD, _UNITS, _TRAIL = 10_000, 20_000, 30_000
_DOT, _CLOSE = np.frombuffer(b".\0\0\0)\n\0\0", np.uint32)


def _times_pow10(x, k):
    """(hi, lo, 10**k) with hi = fl(x * 10**k) and hi + lo = x * 10**k exactly."""
    p, ph, pl = _POW10_SPLIT.take(k, axis=1)
    xh = 134217729.0 * x
    xh -= xh - x
    xl = x - xh
    hi = x * p
    lo = xh * ph
    lo -= hi
    lo += np.multiply(xh, pl, out=xh)
    lo += np.multiply(xl, ph, out=ph)
    lo += np.multiply(xl, pl, out=pl)
    return hi, lo, p


def _shortest(x):
    """(N, k, odd) for a float64 array x: repr(float(x)) spells N * 10**-k,
    N < 10**17, except where odd is set."""
    odd = np.zeros(len(x), bool)
    if not 0.01 <= x.min() <= x.max() < 1e16:  # NaN fails both
        odd = ~((x >= 0.01) & (x < 1e16))
        x = np.where(odd, 3.0, x)
    mant, e = np.frexp(x)
    odd |= mant == 0.5
    k = (16 - np.floor(np.log10(x))).astype(np.intp)
    hi, lo, p = _times_pow10(x, k)
    if hi.min() < 1e16 or hi.max() >= 1e17:
        k += (hi < 1e16).astype(np.intp) - (hi >= 1e17)
        hi, lo, p = _times_pow10(x, k)
        odd |= (hi < 1e16) | (hi >= 1e17)
    h = np.ldexp(p, e - 54)
    del mant, e, p
    rl = np.rint(lo)
    f = lo - rl
    D = hi.astype(np.int64) + rl.astype(np.int64)
    del hi, lo, rl
    tens = D // 10
    hundreds = tens // 10
    r10 = (D - tens * 10) + f
    r100 = (D - hundreds * 100) + f
    odd |= (r10 == 5) & (h > 5)
    N = np.where(np.abs(r10 - 5) > 5 - h, (tens + (r10 > 5)) * 10, D)
    N = np.where(np.abs(r100 - 50) > 50 - h, (hundreds + (r100 > 50)) * 100, N)
    return N, k, odd


def _words(v, n, low=4):
    """(W, Q): W[j] is the j-th four-digit word of v >= 0 from the right, where
    the last word W[0] holds only v's last `low` digits followed by 4 - low
    zeros, and Q[j] = v // 10**(low + 4 * j) is what is left above word j."""
    Q = np.empty((n, len(v)), np.int64)
    for j in range(n):
        np.floor_divide(v, _INT10[low + 4 * j], out=Q[j])
    W = np.multiply(Q, -10_000)
    W[0] = v - Q[0] * _INT10[low]
    W[0] *= _INT10[4 - low]
    W[1:] += Q[:-1]
    return W, Q


def _spell(x):
    """(number, odd) for a float64 array x: number[c] holds repr(float(x[c]))
    where odd[c] is not set, as uint32 words of four ASCII bytes padded with
    NULs: the integer digits right-aligned, '.', the fraction digits
    left-aligned."""
    N, k, odd = _shortest(x)
    lo, hi = int(k.min()), int(k.max())
    scale = _INT10.take(k)
    whole = N // scale
    frac = (N - whole * scale) * _INT10.take(hi - k)  # hi fraction digits
    del N, k, scale
    W, Q = _words(whole, -(-max(17 - lo, 1) // 4))  # whole < 10**(17 - k)
    W[0] += (Q[0] == 0) * _UNITS
    W[1:] += (Q[1:] == 0) * _LEAD
    head = _WORDS.take(W[::-1])
    nf = -(-hi // 4)
    low = hi - 4 * (nf - 1)
    W, Q = _words(frac, nf, low)
    W[0] += _TRAIL
    Q *= _INT10[low :: 4][:nf, None]  # Q[j]: frac with words 0 to j zeroed
    np.add(W[1:], _TRAIL, out=W[1:], where=Q[:-1] == frac)
    del Q, frac
    tail = _WORDS.take(W[::-1])
    np.maximum(tail[0], ord("0"), out=tail[0])  # a fraction of zeros reads "0"
    return np.concatenate([head, np.broadcast_to(_DOT, (1, len(x))), tail]).T, odd


def _ascii_words(texts):
    """The ASCII texts as the rows of a uint32 array, NUL padded."""
    table = np.array([t.encode() for t in texts])
    return table.astype(f"S{-(-table.itemsize // 4) * 4}").view(np.uint32).reshape(len(texts), -1)


def _resist_rows(R, a, b, heads, cols):
    """The CSV lines of rows a to b - 1 of R's upper triangle, laid out in
    fixed columns of four-byte words padded with NULs, the NULs dropped."""
    x = np.concatenate([R[i, i + 1 :] for i in range(a, b)], dtype=float)
    number, odd = _spell(x)
    odd = np.flatnonzero(odd)
    texts = [repr(v).encode() for v in x.take(odd).tolist()]
    width = max([number.shape[1], *(-(-len(t) // 4) for t in texts)])
    hw, pw = heads.shape[1], heads.shape[1] + cols.shape[1]
    buf = bytearray(4 * len(x) * (pw + width + 1))
    lines = np.frombuffer(buf, np.uint32).reshape(len(x), -1)
    start = 0
    for i in range(a, b):
        end = start + len(R) - 1 - i
        lines[start:end, :hw] = heads[i]
        lines[start:end, hw:pw] = cols[i + 1 :]
        start = end
    lines[:, pw : pw + number.shape[1]] = number
    if texts:
        lines[odd, pw:-1] = np.array(texts, f"S{4 * width}").view(np.uint32).reshape(-1, width)
    lines[:, -1] = _CLOSE
    del number, lines
    return buf.translate(None, b"\0")


def _resist_csv(R):
    """The upper triangle of R as `row,col,R` lines in ASCII bytes chunks, each
    of the whole rows of R that first hold `_CHUNK_CELLS` cells, or 1/128 of
    the triangle if that is more.  A cell reads as the repr of the numpy
    scalar R[i, j], np.float64(<repr>)."""
    n = len(R)
    heads = _ascii_words([f"{i}," for i in range(n)])
    cols = _ascii_words([f"{j},np.float64(" for j in range(n)])
    batch = max(_CHUNK_CELLS, n * (n - 1) // 2 // 128)
    yield b"row,col,R\n"
    a = 0
    while a < n - 1:
        b, cells = a, 0
        while b < n - 1 and cells < batch:
            cells += n - 1 - b
            b += 1
        yield _resist_rows(R, a, b, heads, cols)
        a = b


def _run_resist(cfg, emit):
    counts = {}
    for lv in cfg.params["levels"]:
        g = generate(FamilySpec(cfg.params["family"], lv))
        emit(f"resist_{cfg.params['family']}_{lv}.csv", _resist_csv(resistance_matrix(g).matrix))
        counts[f"level_{lv}"] = {"pairs": g.n * (g.n - 1) // 2}
    return counts


def _check_vertex_keys(g: WeightedGraph, params: dict, *keys) -> None:
    for key in keys:
        if params[key] >= g.n:
            raise RangeError(f"config key {key!r} = {params[key]} is not a vertex (0..{g.n - 1})")


def _run_oracle(cfg, emit):
    p = cfg.params
    g = generate(FamilySpec(p["family"], p["level"]))
    _check_vertex_keys(g, p, "x", "y")
    x, y = p["x"], p["y"]
    law = excursion_visit_law(g, x, y, p["kmax"])
    doc = {
        "family": p["family"],
        "level": p["level"],
        "x": x,
        "y": y,
        "hit_before_return_prob": hit_before_return_prob(g, x, y),
        "expected_return_time": expected_return_time(g, x),
        "commute_time": expected_hitting_time(g, x, y) + expected_hitting_time(g, y, x),
        "excursion_visits": law.to_jsonable(),
    }
    emit(f"oracle_{p['family']}_{p['level']}.json", _dump_json(doc))
    return {"kmax": p["kmax"]}


def _run_walk(cfg, emit):
    p = cfg.params
    g = generate(FamilySpec(p["family"], p["level"]))
    _check_vertex_keys(g, p, "start")
    ctx = SimpleNamespace(g=g, starts=[p["start"]], cap=_cover_cap(g, p["cap_factor"]))
    [(_, taus, censored)] = _trial_plan([ctx], p["n_trials"], p["seed"], _cover_trial)
    lines = ["trial,tau_cov,tau_cov_tilde,censored"]
    for k, (tau, cens) in enumerate(zip(taus[0, 0].astype(int), censored[0])):
        lines.append(f"{k},{ctx.cap},{ctx.cap},1" if cens else f"{k},{tau},{tau + 1},0")
    emit(f"walk_{p['family']}_{p['level']}.csv", "\n".join(lines) + "\n")
    return {"censored": int(censored.sum()), "cap": ctx.cap}


def _run_exp(cfg, emit):
    kind = cfg.params["kind"]
    spec = _EXP_KINDS[kind]
    result = spec.study(**{k: cfg.params[k] for k in spec.keys})
    if spec.report is not None:
        emit(spec.report, _dump_json(_jsonable(result)))
        return {"kind": kind}
    for level, c in zip(cfg.params["levels"], result, strict=True):
        emit(f"tailcurve_{kind}_{level}.csv", _tailcurve_csv(c))
    return {"kind": kind, "n_curves": len(result)}


def _run_validate(cfg, emit):
    p = cfg.params
    checks = []
    failed = False
    for lv in p["levels"]:
        g = generate(FamilySpec(p["family"], lv))
        gid = f"{p['family']}-{lv}"
        R = resistance_matrix(g)
        for name, fn in (
            ("metric_axioms", lambda: validate_metric(R.matrix)),
            ("occupation_identity", lambda: _check_occupation(g, p["seed"], p["steps"])),
        ):
            try:
                fn()
                checks.append({"graph": gid, "check": name, "passed": True})
            except ResistwalkError as e:
                failed = True
                checks.append(
                    {"graph": gid, "check": name, "passed": False, "error": str(e)}
                )
    doc = {"checks": checks, "passed": not failed}
    emit("validate_report.json", _dump_json(doc))
    if failed:
        raise InvariantViolation("validation found failing checks; see validate_report.json")
    return {"n_checks": len(checks)}


def _check_occupation(g, seed, steps):
    field = run_walk(g, 0, steps, RngStream(seed, 0))
    field.verify_counts()
    total = float(field.local_times() @ g.mu)
    if total != float(field.t):
        raise InvariantViolation(f"occupation identity broke: {total} != {field.t}")


_RUNNERS = {
    "gen": _run_gen,
    "resist": _run_resist,
    "oracle": _run_oracle,
    "walk": _run_walk,
    "exp": _run_exp,
    "validate": _run_validate,
}


def run_command(config: ExperimentConfig, out_dir=None) -> RunManifest:
    """Dispatch a validated config and write each output its runner emits,
    recording the digest of the bytes written.  Check that every output
    still holds those bytes, then write the manifest, both under the output
    directory's lock."""
    t0 = time.monotonic()
    out = Path(out_dir or config.out_dir or os.environ.get(OUT_DIR_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)
    written = {}

    def emit(name: str, text) -> None:
        written[name] = _write_text_atomic(out / name, text)

    counts = _RUNNERS[config.command](config, emit)
    with _directory_lock(out):
        for name, digest in written.items():
            if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
                raise InvariantViolation(f"{name} in {out} was replaced after this run wrote it")
        manifest = RunManifest(
            command=config.command,
            config_hash=config.config_hash(),
            version=__version__,
            outputs=dict(sorted(written.items())),
            counts=counts,
            wall_clock_s=round(time.monotonic() - t0, 3),
            linalg=_lapack.environment(),
        )
        _write_text_atomic(out / "manifest.json", _dump_json(_jsonable(manifest)), locked=True)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="resistwalk",
        description="Resistance metrics, local times and scaling studies on self-similar graphs.",
    )
    parser.add_argument("--version", action="version", version=f"resistwalk {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for cmd in COMMANDS:
        sp = sub.add_parser(cmd, help=f"run a {cmd!r} config")
        sp.add_argument("--config", required=True, help="path to a JSON config file")
        sp.add_argument("--out", default=None, help="output directory (overrides config)")
    args = parser.parse_args(argv)
    try:
        try:
            text = Path(args.config).read_text()
        except OSError as e:
            raise ParseError(f"cannot read config {args.config!r}: {e}") from e
        config = parse_config(text)
        if config.command != args.subcommand:
            raise SchemaError(
                f"config is for command {config.command!r}, invoked as {args.subcommand!r}"
            )
        manifest = run_command(config, out_dir=args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except BudgetError as e:
        print(f"budget error: {e}", file=sys.stderr)
        return 3
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 4
    except ResistwalkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for name, digest in manifest.outputs.items():
        print(f"{name}  sha256={digest}")
    print(f"manifest.json  config={manifest.config_hash[:12]}  {manifest.wall_clock_s}s")
    return 0
