import dataclasses
import decimal
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

import resistwalk
from resistwalk import (
    _lapack,
    cli_io,
    ExperimentConfig,
    FamilySpec,
    generate,
    parse_config,
    resistance_matrix,
    run_command,
)
from resistwalk.cli_io import _resist_csv, main
from resistwalk.errors import (
    InvariantViolation,
    ParseError,
    RangeError,
    SchemaError,
    UnknownKey,
)

from test_lapack import without_lapack


def cfg_text(command, **kw):
    body = {"schema": "resistwalk/1", "command": command}
    body.update(kw)
    return json.dumps(body)


def test_parse_taxonomy():
    with pytest.raises(ParseError):
        parse_config("{not json")
    with pytest.raises(SchemaError):
        parse_config(json.dumps({"command": "gen"}))
    with pytest.raises(SchemaError, match="config schema must be"):
        parse_config(json.dumps({"schema": "resistwalk/0", "command": "gen", "family": "path",
                                 "levels": [3]}))
    with pytest.raises(SchemaError):
        parse_config(cfg_text("frobnicate"))
    with pytest.raises(UnknownKey):
        parse_config(cfg_text("gen", family="path", levels=[3], colour="red"))
    with pytest.raises(SchemaError):
        parse_config(cfg_text("gen", levels=[3]))  # family missing
    with pytest.raises(RangeError):
        parse_config(cfg_text("gen", family="moebius", levels=[3]))
    with pytest.raises(RangeError):
        parse_config(cfg_text("gen", family="path", levels=[]))
    with pytest.raises(RangeError):
        parse_config(cfg_text("walk", family="gasket", level=1))  # seed required
    with pytest.raises(RangeError):
        parse_config(
            cfg_text("exp", kind="thm-a", levels=[1], lambda_grid=[0.0, 1.0])
        )  # stochastic kind, no seed
    with pytest.raises(RangeError):
        parse_config(
            cfg_text(
                "exp", kind="thm-a", levels=[1], lambda_grid=[1.0, 1.0], seed=1
            )
        )  # grid not strictly increasing
    with pytest.raises(UnknownKey):
        parse_config(
            cfg_text("exp", kind="uvd", family="path", levels=[3], v_exponent=1.0, L=2.0)
        )  # L is not a uvd knob
    with pytest.raises(RangeError):
        parse_config(
            cfg_text(
                "exp",
                kind="thm-a",
                levels=[1],
                lambda_grid=[0.0, 1.0],
                seed=1,
                n_trials=0,
            )
        )


def test_defaults_and_hash_stability():
    a = parse_config(cfg_text("oracle", family="path", level=4, x=0, y=2))
    assert a.params["kmax"] == 64
    b = parse_config(
        '  {"command": "oracle", "y": 2, "x": 0, "level": 4,'
        ' "family": "path", "schema": "resistwalk/1"}  '
    )
    assert a.config_hash() == b.config_hash()
    c = parse_config(cfg_text("oracle", family="path", level=4, x=0, y=3))
    assert a.config_hash() != c.config_hash()


def test_graph_round_trip():
    # gen writes weights and coordinates as repr strings, which read back exactly
    for g in (generate(FamilySpec("gasket", 2, weight=0.1)), generate(FamilySpec("wired_carpet", 1))):
        doc = json.loads(cli_io._graph_json(g))
        assert doc["schema"] == cli_io.GRAPH_SCHEMA and doc["n"] == g.n
        assert [(u, v, float(w)) for u, v, w in doc["edges"]] == g.edges
        assert all(isinstance(w, str) for _, _, w in doc["edges"])
        assert {int(v): tuple(float(c) for c in xy) for v, xy in doc["coords"].items()} == g.coords
        assert doc["meta"]["family"] == g.meta["family"]


def run_cfg(tmp_path, text):
    cfg = parse_config(text)
    return run_command(cfg, out_dir=tmp_path)


def test_run_gen_manifest(tmp_path):
    man = run_cfg(tmp_path, cfg_text("gen", family="gasket", levels=[1]))
    assert man.command == "gen"
    mpath = tmp_path / "manifest.json"
    assert mpath.exists()
    stored = json.loads(mpath.read_text())
    assert stored["outputs"] == man.outputs
    for name, digest in man.outputs.items():
        blob = (tmp_path / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest
    doc = json.loads((tmp_path / "graph_gasket_1.json").read_text())
    assert doc["n"] == 6 and doc["edges"][0] == [0, 1, "1.0"]


def test_manifest_records_the_linear_algebra_environment(tmp_path, monkeypatch):
    text = cfg_text("gen", family="gasket", levels=[1])
    man = run_cfg(tmp_path / "found", text)
    env = json.loads((tmp_path / "found" / "manifest.json").read_text())["linalg"]
    assert env == man.linalg
    assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
    for lib, module in _lapack.MODULES.items():
        blas = _lapack.openblas(module)
        assert blas is not None  # both wheels bundle OpenBLAS
        assert env[f"{lib}_openblas"] == {"corename": blas.get_corename().decode(),
                                          "threads": blas.get_num_threads()}
    # a lookup that fails records "unknown", and the run still succeeds
    monkeypatch.setattr(_lapack, "MODULES", {"numpy": "no_such_module", "scipy": "json"})
    assert run_cfg(tmp_path / "lost", text).outputs == man.outputs
    env = json.loads((tmp_path / "lost" / "manifest.json").read_text())["linalg"]
    unknown = {"corename": "unknown", "threads": "unknown"}
    assert env["numpy_openblas"] == env["scipy_openblas"] == unknown
    assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)


def test_manifest_records_the_exact_chain_solve_route(tmp_path, monkeypatch):
    text = cfg_text("oracle", family="gasket", level=3, x=0, y=17)
    man = run_cfg(tmp_path / "lapack", text)
    env = json.loads((tmp_path / "lapack" / "manifest.json").read_text())["linalg"]
    lapack = _lapack.lapack(_lapack.MODULES["numpy"], _lapack.LU)
    assert lapack is not None  # the numpy wheel links its LAPACK
    names = [f.__name__ for f in lapack[0]]
    assert env["exact_chain_solve"] == man.linalg["exact_chain_solve"] == names
    assert "dgesv" in names[0] and "dgetrs" in names[1]
    # without numpy's LAPACK functions the solves go through np.linalg.solve,
    # the manifest says so, and the outputs keep their bytes
    without_lapack(monkeypatch, _lapack.LU)
    assert run_cfg(tmp_path / "numpy", text).outputs == man.outputs
    env = json.loads((tmp_path / "numpy" / "manifest.json").read_text())["linalg"]
    assert env["exact_chain_solve"] == "np.linalg.solve"


def test_manifest_records_the_laplacian_solve_route(tmp_path, monkeypatch):
    text = cfg_text("resist", family="gasket", levels=[2])
    man = run_cfg(tmp_path / "lapack", text)
    env = json.loads((tmp_path / "lapack" / "manifest.json").read_text())["linalg"]
    # the scipy wheel's OpenBLAS exports its LAPACK with the scipy_ prefix
    assert env["laplacian_solve"] == man.linalg["laplacian_solve"] == ["scipy_dpotrf_", "scipy_dpotrs_"]
    # without those functions the solves go through scipy.linalg, the
    # manifest says so, and the outputs keep their bytes
    without_lapack(monkeypatch, _lapack.CHOLESKY)
    assert run_cfg(tmp_path / "scipy", text).outputs == man.outputs
    env = json.loads((tmp_path / "scipy" / "manifest.json").read_text())["linalg"]
    assert env["laplacian_solve"] == "scipy.linalg"


def test_rerun_byte_identical(tmp_path):
    text = cfg_text(
        "exp",
        kind="thm-a",
        family="gasket",
        levels=[1],
        lambda_grid=[0.0, 1.0, 2.0],
        n_trials=150,
        seed=9,
    )
    m1 = run_cfg(tmp_path / "a", text)
    m2 = run_cfg(tmp_path / "b", text)
    assert m1.outputs == m2.outputs
    assert m1.config_hash == m2.config_hash


def test_walk_outputs(tmp_path):
    man = run_cfg(
        tmp_path, cfg_text("walk", family="gasket", level=1, n_trials=120, seed=2)
    )
    rows = (tmp_path / next(iter(man.outputs))).read_text().strip().splitlines()
    assert rows[0] == "trial,tau_cov,tau_cov_tilde,censored"
    assert len(rows) == 121
    first = rows[1].split(",")
    assert int(first[2]) == int(first[1]) + 1


def test_validate_command(tmp_path):
    man = run_cfg(
        tmp_path, cfg_text("validate", family="gasket", levels=[1], seed=3, steps=500)
    )
    rep = json.loads((tmp_path / "validate_report.json").read_text())
    assert rep["passed"] is True
    assert man.outputs


def test_a_broken_occupation_identity_fails_validate(tmp_path, monkeypatch):
    g = generate(FamilySpec("gasket", 1))
    cli_io._check_occupation(g, 3, 200)  # sum_x L_t^x mu_x = t holds exactly
    real_run_walk = cli_io.run_walk

    def local_times_of_a_heavier_copy(g, start, steps, stream):
        # doubling every mu_x halves every local time exactly
        field = real_run_walk(g, start, steps, stream)
        return dataclasses.replace(field, graph=dataclasses.replace(g, mu=2.0 * g.mu))

    monkeypatch.setattr(cli_io, "run_walk", local_times_of_a_heavier_copy)
    with pytest.raises(InvariantViolation, match=r"occupation identity broke: 100.0 != 200"):
        cli_io._check_occupation(g, 3, 200)
    text = cfg_text("validate", family="gasket", levels=[1], seed=3, steps=200)
    with pytest.raises(InvariantViolation, match="validation found failing checks"):
        run_cfg(tmp_path, text)
    checks = json.loads((tmp_path / "validate_report.json").read_text())["checks"]
    assert checks[1] == {"graph": "gasket-1", "check": "occupation_identity", "passed": False,
                         "error": "occupation identity broke: 100.0 != 200"}
    assert not (tmp_path / "manifest.json").exists()


def test_interrupted_run_leaves_no_manifest(tmp_path, monkeypatch):
    import resistwalk.cli_io as cli_io

    def boom(*a, **k):
        raise RuntimeError("disk on fire")

    monkeypatch.setitem(cli_io._RUNNERS, "gen", boom)
    cfg = parse_config(cfg_text("gen", family="path", levels=[3]))
    with pytest.raises(RuntimeError):
        run_command(cfg, out_dir=tmp_path)
    assert not (tmp_path / "manifest.json").exists()


def write_cfg(tmp_path, text, name="cfg.json"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_main_exit_codes(tmp_path, capsys):
    ok = write_cfg(tmp_path, cfg_text("gen", family="path", levels=[3]), "ok.json")
    assert main(["gen", "--config", ok, "--out", str(tmp_path / "o1")]) == 0
    out = capsys.readouterr().out
    assert "graph_path_3.json" in out

    bad = write_cfg(tmp_path, cfg_text("gen", family="path"))
    assert main(["gen", "--config", bad, "--out", str(tmp_path / "o2")]) == 2
    capsys.readouterr()

    # subcommand and config.command must agree
    assert main(["resist", "--config", ok, "--out", str(tmp_path / "o3")]) == 2
    assert "invoked as 'resist'" in capsys.readouterr().err

    # vertex ids outside the graph, or an oracle pair x == y, are config errors
    for i, text in enumerate((
        cfg_text("walk", family="gasket", level=1, start=99, seed=1),
        cfg_text("oracle", family="gasket", level=1, x=2, y=2),
        cfg_text("oracle", family="gasket", level=1, x=0, y=6),
    )):
        cmd = json.loads(text)["command"]
        p = write_cfg(tmp_path, text)
        assert main([cmd, "--config", p, "--out", str(tmp_path / f"v{i}")]) == 2
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    cfg_text("exp", kind="carpet", levels=[1, 4]),  # carpet caps at 3, gasket at 7
    cfg_text("exp", kind="carpet", levels=[1], wired_check_level=0),  # wired carpet-0 is one vertex
    cfg_text("exp", kind="carpet", levels=[1], wired_check_level=5),
    cfg_text("gen", family="path", levels=[0]),  # a path's level counts its edges
    cfg_text("oracle", family="path", level=0, x=0, y=1),
    cfg_text("exp", kind="uvd", family="wired_carpet", levels=[0], v_exponent=1.0),
], ids=["carpet-4", "wired-check-0", "wired-check-5", "gen-path-0", "oracle-path-0",
        "uvd-wired-carpet-0"])
def test_levels_outside_the_built_family_range_exit_2(text, tmp_path, capsys):
    # each level is checked against the family the command or kind builds it in
    p = write_cfg(tmp_path, text)
    assert main([json.loads(text)["command"], "--config", p, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, text, message", [
    ("gen", "[1, 2]", "must be a JSON object"),
    ("gen", cfg_text("gen", family="path", levels=[3], out_dir=5), "out_dir must be a string"),
    ("exp", cfg_text("exp", kind="nope", levels=[1]), "exp kind must be one of"),
    ("walk", cfg_text("walk", family="gasket", level=1, n_trials="100", seed=1),
     "'n_trials' must be an integer"),
    ("exp", cfg_text("exp", kind="thm-a", levels=[1], T=float("inf"), seed=1),
     "'T' must be positive and finite"),
    ("exp", cfg_text("exp", kind="cover", levels=[1], cap_factor=-1.0, seed=1),
     "'cap_factor' must be positive and finite"),
    ("exp", cfg_text("exp", kind="scaling", levels=[1], t_values=[], seed=1),
     "t_values must be a nonempty list"),
    ("exp", cfg_text("exp", kind="scaling", levels=[1], t_values=[1.0, 0], seed=1),
     "t_values entries must be positive"),
    ("walk", cfg_text("walk", family="gasket", level=1, seed=-1), "seed must be nonnegative"),
    ("exp", cfg_text("exp", kind="thm-a", levels=[1], lambda_grid=[1.0], seed=1),
     "at least two values"),
    ("exp", cfg_text("exp", kind="thm-a", levels=[1], lambda_grid=[-1.0, 1.0], seed=1),
     "finite and nonnegative"),
    ("gen", None, "cannot read config"),
    ("exp", cfg_text("exp", kind="carpet", levels=[1, 1]), "repeats a level"),
    ("exp", cfg_text("exp", kind="thm-a", levels=[1, 1], seed=1), "repeats a level"),
], ids=["not-an-object", "out-dir-type", "unknown-kind", "wrong-type", "T-infinite",
        "cap-factor-negative", "t-values-empty", "t-values-zero", "seed-negative",
        "lambda-grid-one-entry", "lambda-grid-negative", "unreadable-path",
        "carpet-levels-repeated", "thm-a-levels-repeated"])
def test_bad_config_values_exit_2(command, text, message, tmp_path, capsys):
    p = write_cfg(tmp_path, text) if text is not None else str(tmp_path / "missing.json")
    assert main([command, "--config", p, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "o").exists()


def test_main_budget_exit(tmp_path, capsys):
    text = cfg_text(
        "exp",
        kind="cover",
        levels=[1, 2],
        n_trials=120,
        seed=5,
        cap_factor=0.05,
    )
    p = write_cfg(tmp_path, text)
    assert main(["exp", "--config", p, "--out", str(tmp_path / "o")]) == 3
    capsys.readouterr()


def test_resist_above_the_all_pairs_budget_exits_3(tmp_path, capsys):
    # gasket-7 has 3282 vertices, above the all-pairs budget of 3000
    p = write_cfg(tmp_path, cfg_text("resist", family="gasket", levels=[7]))
    assert main(["resist", "--config", p, "--out", str(tmp_path / "o")]) == 3
    assert "budget error" in capsys.readouterr().err
    assert list((tmp_path / "o").iterdir()) == []


def test_any_other_library_error_exits_1(tmp_path, capsys):
    # a carpet ratio needs two levels: InsufficientLevels is neither a config,
    # a budget nor an invariant error; nor is the InvalidProfile of a uvd
    # gauge that is not positive and finite: path-3 radii are 1, 2 and 3, so
    # r^1e4 overflows and r^-1e4 underflows to 0, each one half of the check
    gauge = "error: volume gauge must be positive and finite on realized radii\n"
    cases = [
        (cfg_text("exp", kind="carpet", levels=[1]),
         "error: need at least two carpet levels for a ratio\n"),
        (cfg_text("exp", kind="uvd", family="path", levels=[3], v_exponent=1e4), gauge),
        (cfg_text("exp", kind="uvd", family="path", levels=[3], v_exponent=-1e4), gauge),
    ]
    for k, (text, message) in enumerate(cases):
        p = write_cfg(tmp_path, text)
        out = tmp_path / f"o{k}"
        with np.errstate(over="ignore", under="ignore"):
            assert main(["exp", "--config", p, "--out", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not (out / "manifest.json").exists()


def test_a_failing_validate_check_is_reported_and_exits_4(tmp_path, capsys, monkeypatch):
    import resistwalk.cli_io as cli_io
    from resistwalk.errors import InvariantViolation, SolverFailure

    def broken(M):
        if len(M) == 15:  # gasket-2 only
            raise SolverFailure("triangle inequality fails")

    monkeypatch.setattr(cli_io, "validate_metric", broken)
    text = cfg_text("validate", family="gasket", levels=[1, 2], seed=3, steps=200)
    with pytest.raises(InvariantViolation):
        run_cfg(tmp_path / "a", text)
    passed = lambda gid, check: {"graph": gid, "check": check, "passed": True}
    assert json.loads((tmp_path / "a" / "validate_report.json").read_text()) == {
        "checks": [
            passed("gasket-1", "metric_axioms"),
            passed("gasket-1", "occupation_identity"),
            {"graph": "gasket-2", "check": "metric_axioms", "passed": False,
             "error": "triangle inequality fails"},
            passed("gasket-2", "occupation_identity"),
        ],
        "passed": False,
    }
    assert not (tmp_path / "a" / "manifest.json").exists()
    p = write_cfg(tmp_path, text)
    assert main(["validate", "--config", p, "--out", str(tmp_path / "b")]) == 4
    assert "validation found failing checks" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path / "b")) == ["validate_report.json"]


def test_main_invariant_exit(tmp_path, capsys, monkeypatch):
    import resistwalk.cli_io as cli_io
    from resistwalk.errors import InvariantViolation

    def tampered(cfg, emit):
        raise InvariantViolation("metric check failed")

    monkeypatch.setitem(cli_io._RUNNERS, "validate", tampered)
    p = write_cfg(
        tmp_path, cfg_text("validate", family="gasket", levels=[1], seed=1)
    )
    assert main(["validate", "--config", p, "--out", str(tmp_path / "o")]) == 4
    capsys.readouterr()


def test_an_output_replaced_before_the_manifest_exits_4(tmp_path, capsys, monkeypatch):
    import resistwalk.cli_io as cli_io

    out = tmp_path / "o"

    def clobbered(cfg, emit):
        emit("graph_path_3.json", "ours\n")
        (out / "graph_path_3.json").write_text("theirs\n")  # a second run's write
        return {}

    monkeypatch.setitem(cli_io._RUNNERS, "gen", clobbered)
    p = write_cfg(tmp_path, cfg_text("gen", family="path", levels=[3]))
    assert main(["gen", "--config", p, "--out", str(out)]) == 4
    assert "graph_path_3.json" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("text", [
    cfg_text("gen", family="gasket", levels=[1, 2]),
    cfg_text("resist", family="vicsek", levels=[1]),
    cfg_text("walk", family="gasket", level=1, n_trials=20, seed=2),
    cfg_text("exp", kind="sup-lt", family="gasket", levels=[1, 2], n_trials=100, seed=5),
], ids=["gen", "resist", "walk", "exp-sup-lt"])
def test_manifest_digests_are_those_of_the_emitted_text(text, tmp_path, monkeypatch):
    import resistwalk.cli_io as cli_io

    cfg = parse_config(text)
    runner, emitted = cli_io._RUNNERS[cfg.command], {}

    def recording(cfg, emit):
        def record(name, text):
            # a runner emits a string or an iterable of chunks, strings or bytes
            chunks = [text] if isinstance(text, str) else list(text)
            data = b"".join(c.encode() if isinstance(c, str) else c for c in chunks)
            emitted[name] = hashlib.sha256(data).hexdigest()
            emit(name, iter(chunks))
        return runner(cfg, record)

    monkeypatch.setitem(cli_io._RUNNERS, cfg.command, recording)
    man = run_command(cfg, out_dir=tmp_path)
    assert man.outputs == emitted and list(man.outputs) == sorted(emitted)
    assert json.loads((tmp_path / "manifest.json").read_text())["outputs"] == emitted


def test_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("RESISTWALK_OUT", str(tmp_path / "envout"))
    cfg = parse_config(cfg_text("gen", family="path", levels=[2]))
    run_command(cfg)
    assert (tmp_path / "envout" / "manifest.json").exists()


def test_exp_uvd_and_exponents(tmp_path):
    run_cfg(
        tmp_path / "u",
        cfg_text("exp", kind="uvd", family="path", levels=[8], v_exponent=1.0),
    )
    rep = json.loads((tmp_path / "u" / "uvd_report.json").read_text())
    assert rep["passed"] is True
    run_cfg(
        tmp_path / "e",
        cfg_text("exp", kind="exponents", family="path", levels=[6, 10]),
    )
    est = json.loads((tmp_path / "e" / "exponents.json").read_text())
    assert est["alpha_hat"] == pytest.approx(1.0, abs=1e-6)


def test_config_requires_uvd_gauge():
    with pytest.raises(SchemaError):
        parse_config(cfg_text("exp", kind="uvd", family="path", levels=[8]))


def test_experiment_config_is_canonical():
    cfg = parse_config(cfg_text("gen", family="path", levels=[3]))
    assert isinstance(cfg, ExperimentConfig)
    canon = cfg.canonical_json()
    assert canon == json.dumps(json.loads(canon), sort_keys=True, separators=(",", ":"))


def test_atomic_write_two_writers_in_one_directory(tmp_path, monkeypatch):
    import os

    import resistwalk.cli_io as cli_io

    target = tmp_path / "out.json"
    real_fsync, real_replace = os.fsync, os.replace
    calls, second = [], []

    def fsync_then_second_writer(fd):
        # the first writer has its temp file and is about to take the lock
        # and rename; a second writer runs to completion
        real_fsync(fd)
        if not second:
            second.append(fd)
            cli_io._write_text_atomic(target, "second\n")

    def recorded_replace(src, dst):
        calls.append(src)
        real_replace(src, dst)

    monkeypatch.setattr(cli_io.os, "fsync", fsync_then_second_writer)
    monkeypatch.setattr(cli_io.os, "replace", recorded_replace)
    cli_io._write_text_atomic(target, "first\n")
    assert calls[0] != calls[1]
    assert target.read_text() == "first\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_atomic_write_failure_leaves_no_temp_file(tmp_path, monkeypatch):
    import os

    import resistwalk.cli_io as cli_io

    target = tmp_path / "out.json"
    cli_io._write_text_atomic(target, "kept\n")
    umask = os.umask(0)
    os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    def broken_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(cli_io.os, "fsync", broken_fsync)
    with pytest.raises(OSError):
        cli_io._write_text_atomic(target, "lost\n")
    monkeypatch.undo()
    with pytest.raises(UnicodeEncodeError):
        cli_io._write_text_atomic(target, "\udc80")
    assert target.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_atomic_write_takes_its_mode_from_the_umask_without_setting_it(tmp_path, monkeypatch):
    # setting the umask, even to read it, changes the mode of what another
    # thread creates meanwhile; the kernel applies it at creation instead
    real_umask = os.umask

    def refused(mask):
        raise AssertionError("the process umask was set")

    old = real_umask(0o027)
    try:
        monkeypatch.setattr(cli_io.os, "umask", refused)
        cli_io._write_text_atomic(tmp_path / "out.json", "x\n")
    finally:
        monkeypatch.undo()
        real_umask(old)
    assert (tmp_path / "out.json").stat().st_mode & 0o777 == 0o666 & ~0o027


def test_atomic_write_of_chunks(tmp_path):
    import resistwalk.cli_io as cli_io

    target = tmp_path / "out.csv"
    digest = cli_io._write_text_atomic(target, iter(["a,b\n", "", "1,é\n"]))
    assert target.read_bytes() == "a,b\n1,é\n".encode()
    assert digest == hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == cli_io._write_text_atomic(tmp_path / "whole.csv", "a,b\n1,é\n")
    # bytes chunks are written as they are
    assert digest == cli_io._write_text_atomic(target, iter([b"a,b\n", "1,", "é\n".encode()]))
    assert target.read_bytes() == "a,b\n1,é\n".encode()

    def broken_chunks():
        yield "lost\n"
        raise OSError("source failed")

    with pytest.raises(OSError):
        cli_io._write_text_atomic(target, broken_chunks())
    assert target.read_text() == "a,b\n1,é\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "whole.csv"]


@pytest.mark.parametrize("level", [5, 6])
def test_resist_csv_is_written_without_holding_the_whole_text(tmp_path, level):
    import tracemalloc

    import resistwalk.cli_io as cli_io

    R = resistance_matrix(generate(FamilySpec("gasket", level))).matrix
    tracemalloc.start()
    try:
        cli_io._write_text_atomic(tmp_path / "r.csv", _resist_csv(R))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "r.csv").stat().st_size
    assert size > 2_000_000
    assert peak < size // 10


def resist_text(R):
    """The resist CSV of R as one string."""
    return b"".join(_resist_csv(R)).decode()


def resist_csv_by_cell(R):
    """The resist CSV text one numpy scalar repr at a time."""
    lines = ["row,col,R"]
    for i in range(len(R)):
        for j in range(i + 1, len(R)):
            lines.append(f"{i},{j},{R[i, j]!r}")
    return "\n".join(lines) + "\n"


def test_resist_csv_spells_each_cell_as_its_numpy_repr():
    for level in range(1, 5):
        R = resistance_matrix(generate(FamilySpec("gasket", level))).matrix
        assert resist_text(R) == resist_csv_by_cell(R)
    # repr switches to exponent form at both ends of the range
    R = np.array([[0.0, 1e16, 1e-5, 5e-324], [1e16, 0.0, 0.1, 2.5e-8], [1e-5, 0.1, 0.0, 1e22],
                  [5e-324, 2.5e-8, 1e22, 0.0]])
    text = resist_text(R)
    assert text == resist_csv_by_cell(R)
    assert "0,1,np.float64(1e+16)" in text and "0,3,np.float64(5e-324)" in text
    # 500 vertices: 124,750 cells, so a chunk holds at least 974 cells, not 768
    values = np.exp(np.random.default_rng(29).uniform(np.log(1e-3), np.log(1e17), 124_750))
    R = upper_triangle_of(values)
    assert len(R) == 500 and len(R) * 499 // 2 // 128 > cli_io._CHUNK_CELLS
    assert resist_text(R) == resist_csv_by_cell(R)
    # each chunk is the whole rows that first hold 974 cells
    cells = [chunk.count(b"\n") for chunk in list(_resist_csv(R))[1:]]
    assert sum(cells) == 124_750 and min(cells[:-1]) >= 974 and max(cells) < 974 + 499


def upper_triangle_of(values):
    """A square matrix whose upper triangle holds `values` in CSV order, then 1.5."""
    values = np.asarray(values, dtype=float)
    n = int(np.ceil((1 + np.sqrt(1 + 8 * len(values))) / 2))
    R = np.full((n, n), 1.5)
    i, j = np.triu_indices(n, 1)
    R[i[: len(values)], j[: len(values)]] = values
    return R


def assert_cells_are_repr(R):
    """The resist CSV of R spells every cell as np.float64(repr(float(cell)))."""
    i, j = np.triu_indices(len(R), 1)
    want = ["row,col,R"] + [f"{a},{b},np.float64({v!r})"
                            for a, b, v in zip(i.tolist(), j.tolist(), R[i, j].tolist())]
    got = resist_text(R).split("\n")
    assert got[-1] == ""
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad and len(got) == len(want) + 1, bad[:5]


def ties(base, ulp_exponent, count):
    """Doubles base + (2j + 1) * 2**ulp_exponent whose exact decimal ends in a 5."""
    return [base + (2 * j + 1) * 2.0**ulp_exponent for j in range(count)]


def test_the_vectorized_cells_are_repr_on_every_gasket_cell():
    for level in range(1, 6):
        R = resistance_matrix(generate(FamilySpec("gasket", level))).matrix
        assert not cli_io._shortest(R[np.triu_indices(len(R), 1)])[2].any()  # none to repr
        assert_cells_are_repr(R)


def test_the_vectorized_cells_are_repr_on_a_million_doubles():
    rng = np.random.default_rng(20)
    n = 250_000
    in_range = np.exp(rng.uniform(np.log(0.01), np.log(1e16), 2 * n))
    # random mantissas at every binary exponent of [0.0078125, 1.8e16), and
    # random bit patterns of any kind: NaNs, infinities, negatives, subnormals
    exponents = rng.integers(1016, 1078, n, dtype=np.int64) << 52
    mantissas = rng.integers(0, 2**52, n, dtype=np.int64)
    any_bits = rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64, endpoint=True)
    values = np.concatenate([in_range, (exponents | mantissas).view(float), any_bits.view(float)])
    assert len(values) >= 10**6
    assert cli_io._shortest(in_range)[2].mean() < 0.05  # few go to repr
    assert_cells_are_repr(upper_triangle_of(values))


def test_the_vectorized_cells_are_repr_on_edge_cases():
    decades = 10.0 ** np.arange(-2, 17)
    binades = 2.0 ** np.arange(-7, 55)
    edges = [
        *decades, *np.nextafter(decades, 0), *np.nextafter(decades, np.inf),
        *binades, *np.nextafter(binades, 0), *np.nextafter(binades, np.inf),
        0.01, 9.007e15, 9007199254740993.0, 9999999999999998.0, 9.999999999999999e15,
        99.99999999999999, 9.999999999999998, 0.9999999999999999, 0.09999999999999999,
        1234567890123456.5, 4503599627370495.5, 0.3, 0.1 + 0.2, 2 / 3, 1 / 3, 5e-3,
        # ties: a 16-digit tie where both neighbours read back (repr takes the
        # even one), one where neither does, and 17-digit ties, to even
        *ties(512.0, -14, 40), *ties(100.0, -14, 40), *ties(1.0, -17, 40), *ties(0.5, -18, 40),
        # repr's own forms outside the vectorized range
        0.0, -0.0, -1.5, np.nan, np.inf, -np.inf, 5e-324, 1e-5, 9.999999999999999e-3, 1e22, 1.5e300,
    ]
    assert cli_io._shortest(np.array(ties(512.0, -14, 40)))[2].all()
    assert_cells_are_repr(upper_triangle_of(edges))
    # log10 rounds a double just below a power of ten up to the power, and
    # the corrected exponent keeps such a cell off repr
    near_decades = np.concatenate([np.nextafter(decades[1:], 0), 3 * decades[:-1]])
    assert not cli_io._shortest(near_decades)[2].any()
    # a chunk whose only cells outside [0.01, 1e16) lie below it, and one
    # whose only cells outside lie above it
    assert_cells_are_repr(upper_triangle_of([1e-5, 5e-3, 0.0, -0.0, -1.5, 2.5e-8, 5e-324]))
    assert_cells_are_repr(upper_triangle_of([1e16, 2.5e16, 1e22, 1.5e300, np.inf, 0.01]))


def test_dump_json_is_json_dumps_with_sorted_keys_and_indent_1():
    docs = [
        [math.nan, -math.inf, math.inf, -0.0, 5e-324, 1e16, 0.1], math.nan, -0.0, 1e16,
        [], {}, [[]], [{}], {"a": {}, "b": []}, [[], {"": [[]]}],
        "é ☃ \u2028", {"ключ": ["é", "\x00"]},
        [np.float64(2.5), 1.0], [1, 2.5, True, False, None, "x"], (1.0, (2.0, [3.0])),
        {"b": [1.0, 2.0], "a": {"d": 1, "c": [0.5]}, "B": None},
    ]
    for doc in docs:
        assert cli_io._dump_json(doc) == json.dumps(doc, sort_keys=True, indent=1) + "\n"
    # a key that is not a str raises, also where json.dumps would convert it
    for bad in ([1.0, object()], {"a": np.int64(3)}, {1: "a", "b": 2}, {2: object()},
                {"x": {2: 2.0, 0.5: "a", True: []}}):
        with pytest.raises(TypeError):
            cli_io._dump_json(bad)


def spelled(x):
    """(texts, odd) from `cli_io._spell`: each cell's text, None where odd
    leaves the cell to repr."""
    number, odd = cli_io._spell(x)
    return [None if o else row.tobytes().replace(b"\0", b"").decode()
            for row, o in zip(number, odd.tolist())], odd


def test_spell_is_repr_on_odd_halves_where_no_whole_number_reads_back():
    # x = m + 0.5 in [1e15, 2**52) is an exact 16-digit tie between m and
    # m + 1, but half an ulp of x is at most 0.25, so neither reads back as
    # x and repr spells all 17 digits
    halves = np.random.default_rng(43).integers(10**15, 2**52, 20_000) + 0.5
    texts, odd = spelled(halves)
    assert not odd.any()
    assert texts == [repr(v) for v in halves.tolist()]


def test_spell_leaves_to_repr_only_the_ties_whose_neighbours_read_back():
    sample = np.exp(np.random.default_rng(47).uniform(np.log(0.01), np.log(1e16), 200_000))
    sample = sample[sample != 2.0 ** np.round(np.log2(sample))]  # powers of two go to repr
    ties, up, down = [], [], []
    for v in sample.tolist():
        _, digits, exp = decimal.Decimal(v).as_tuple()
        if len(digits) == 17 and digits[-1] == 5:  # exactly halfway between two 16-digit decimals
            ties.append(v)
            lo = decimal.Decimal((0, digits[:16], exp + 1))
            down.append(float(lo) == v)
            up.append(float(lo + decimal.Decimal((0, (1,), exp + 1))) == v)
    assert len(ties) > 1000
    assert up == down  # both neighbours are as far from x, so both or neither read back
    texts, odd = spelled(np.array(ties))
    assert odd.tolist() == up  # repr breaks the real ties itself
    assert 0 < odd.sum() < len(ties)
    assert [t for t in texts if t is not None] == [repr(v) for v, o in zip(ties, odd) if not o]


_MAIN ="import sys; from resistwalk.cli_io import main; sys.exit(main(sys.argv[1:]))"


def env_with_this_source():
    """os.environ with the resistwalk under test first on PYTHONPATH."""
    src = str(Path(resistwalk.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def stop_outside_the_lock(proc, directory):
    """Stop proc at a moment when it holds no lock on the directory: stopped
    inside a rename, it would hold every other writer there until resumed."""
    import fcntl

    while True:
        proc.send_signal(signal.SIGSTOP)
        os.waitpid(proc.pid, os.WUNTRACED)  # returns once proc has stopped
        fd = os.open(directory, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            return
        except BlockingIOError:
            proc.send_signal(signal.SIGCONT)
            time.sleep(0.001)
        finally:
            os.close(fd)  # and with it the probe's lock


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs POSIX job control")
def test_a_run_whose_output_another_process_replaces_exits_4(tmp_path):
    """Run A (gen, weight 1) is paused after it writes graph_gasket_1.json;
    run B (gen, weight 2) writes different bytes under that name and
    finishes.  Resumed, A must exit 4 and write no manifest; B exits 0 and
    its manifest vouches for its own bytes."""
    env = env_with_this_source()
    out = tmp_path / "shared"
    cmd = {}
    for name, text in (("a", cfg_text("gen", family="gasket", levels=[1, 2, 3, 4, 5, 6, 7])),
                       ("b", cfg_text("gen", family="gasket", levels=[1], weight=2.0))):
        (tmp_path / f"{name}.json").write_text(text)
        cmd[name] = [sys.executable, "-c", _MAIN, "gen", "--config",
                     str(tmp_path / f"{name}.json"), "--out", str(out)]
    b_alone = run_command(parse_config((tmp_path / "b.json").read_text()),
                          out_dir=tmp_path / "b-alone")
    a = subprocess.Popen(cmd["a"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    try:
        deadline = time.monotonic() + 120
        while not (out / "graph_gasket_1.json").exists():
            assert a.poll() is None and time.monotonic() < deadline
            time.sleep(0.001)
        stop_outside_the_lock(a, out)
        assert a.poll() is None  # A still has higher levels to build and write
        b = subprocess.run(cmd["b"], env=env, capture_output=True, text=True, timeout=120)
        a.send_signal(signal.SIGCONT)
        a_stdout, a_stderr = a.communicate(timeout=120)
    finally:
        if a.poll() is None:
            a.kill()
            a.communicate()
    assert b.returncode == 0, b.stderr
    printed = dict(line.split("  sha256=") for line in b.stdout.splitlines() if "  sha256=" in line)
    assert printed == b_alone.outputs
    assert a.returncode == 4, a_stdout + a_stderr
    assert "invariant violation" in a_stderr and "graph_gasket_1.json" in a_stderr
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["outputs"] == b_alone.outputs
    for name, digest in doc["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_python_m_resistwalk_runs_the_cli():
    env = env_with_this_source()
    proc = subprocess.run([sys.executable, "-m", "resistwalk", "--version"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == f"resistwalk {resistwalk.__version__}\n"


# A cooperating writer replaces an output of a run in the same directory while
# it holds the directory's flock, as the run does for its own renames.


def replace_under_the_lock(directory, name, text, hold_s=0.0, locked=None, landed=None):
    """Take the directory's lock, set `locked`, wait hold_s, replace the
    file `name` with `text` by a rename, set `landed` and release.  Returns
    whether manifest.json existed when the lock was taken."""
    import fcntl

    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        saw_manifest = (directory / "manifest.json").exists()
        if locked:
            locked.set()
        time.sleep(hold_s)
        (directory / "writer.tmp").write_text(text)
        os.replace(directory / "writer.tmp", directory / name)
        if landed:
            landed.set()
        return saw_manifest
    finally:
        os.close(fd)


GEN = cfg_text("gen", family="gasket", levels=[1, 2])


def test_a_replace_under_the_lock_lands_before_the_rehash_and_fails_the_run(tmp_path,
                                                                            monkeypatch):
    pytest.importorskip("fcntl")
    out = tmp_path / "out"
    real_write = cli_io._write_text_atomic
    locked = threading.Event()

    def write_then_let_the_writer_in(path, text):
        digest = real_write(path, text)
        if path.name == "graph_gasket_1.json":
            # the writer takes the lock now and holds it past the run's last output
            threading.Thread(target=replace_under_the_lock,
                             args=(out, path.name, "replaced\n", 0.3, locked)).start()
            assert locked.wait(30)
        return digest

    monkeypatch.setattr(cli_io, "_write_text_atomic", write_then_let_the_writer_in)
    with pytest.raises(InvariantViolation, match="graph_gasket_1.json in .* was replaced"):
        run_cfg(out, GEN)
    assert (out / "graph_gasket_1.json").read_text() == "replaced\n"
    assert not (out / "manifest.json").exists()


def test_a_replace_while_the_run_checks_its_outputs_lands_after_the_manifest(tmp_path,
                                                                            monkeypatch):
    pytest.importorskip("fcntl")
    out = tmp_path / "out"
    real_environment = _lapack.environment
    landed, seen = threading.Event(), []
    writer = threading.Thread(target=lambda: seen.append(
        replace_under_the_lock(out, "graph_gasket_1.json", "replaced\n", landed=landed)))

    def environment_with_a_writer_waiting():
        # runs between the re-hash and the manifest write, under the lock
        writer.start()
        assert not landed.wait(0.3)  # the writer waits for the run's lock
        return real_environment()

    monkeypatch.setattr(_lapack, "environment", environment_with_a_writer_waiting)
    man = run_cfg(out, GEN)
    writer.join(30)
    assert seen == [True]  # the lock came to the writer after the manifest was written
    assert json.loads((out / "manifest.json").read_text())["outputs"] == man.outputs
    assert (out / "graph_gasket_1.json").read_text() == "replaced\n"


def test_a_thread_waits_for_the_lock_a_run_in_another_thread_holds(tmp_path, monkeypatch):
    # the lock is an flock per descriptor, so it keeps out another thread of
    # the same process as it keeps out another process
    pytest.importorskip("fcntl")
    out = tmp_path / "out"
    real_environment = _lapack.environment
    entered = threading.Event()

    def take_the_lock():
        with cli_io._directory_lock(out):
            entered.set()

    thread = threading.Thread(target=take_the_lock)

    def environment_with_a_thread_waiting():
        # runs between the re-hash and the manifest write, under the lock
        thread.start()
        assert not entered.wait(0.3)  # the thread waits for the run's lock
        return real_environment()

    monkeypatch.setattr(_lapack, "environment", environment_with_a_thread_waiting)
    man = run_cfg(out, GEN)
    thread.join(30)
    assert entered.is_set()
    assert json.loads((out / "manifest.json").read_text())["outputs"] == man.outputs


def test_a_rename_waits_for_a_writer_holding_the_lock(tmp_path):
    pytest.importorskip("fcntl")
    out = tmp_path / "out"
    out.mkdir()
    locked, landed = threading.Event(), threading.Event()
    writer = threading.Thread(target=replace_under_the_lock,
                              args=(out, "graph_gasket_1.json", "early\n", 0.3, locked, landed))
    writer.start()
    assert locked.wait(30)
    # the run's first rename waits for the writer, whose file it then replaces
    man = run_cfg(out, GEN)
    writer.join(30)
    assert landed.is_set()
    for name, digest in man.outputs.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
