"""Frozen output digests: one tiny config per command and per `exp` kind.

The SHA-256 of every output file was recorded once and is frozen here, so a
refactor that changes any output byte (stream order, number formatting,
JSON conversion, solver route) fails this test.  The configs are small
enough to run in a few seconds, and are chosen to reach the censored and
unsaturated branches: the `walk` and `cover` configs censor some trials at
the cap, and the `thm-b` config leaves some trials unsaturated.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resistwalk
from resistwalk import (
    cli_io,
    modulus_equicontinuity_gasket,
    parse_config,
    run_command,
    sup_local_time_tail,
    tail_curve_thm_a,
    tail_curve_thm_b,
)

CONFIGS = {
    "gen-gasket": {"command": "gen", "family": "gasket", "levels": [1, 2]},
    "gen-wired-carpet": {"command": "gen", "family": "wired_carpet", "levels": [1], "weight": 2.5},
    "gen-vicsek": {"command": "gen", "family": "vicsek", "levels": [1]},
    "resist": {"command": "resist", "family": "gasket", "levels": [1, 2]},
    "oracle": {"command": "oracle", "family": "gasket", "level": 2, "x": 0, "y": 7, "kmax": 16},
    "walk": {"command": "walk", "family": "gasket", "level": 1, "n_trials": 40,
             "cap_factor": 0.6, "seed": 6},
    "validate": {"command": "validate", "family": "gasket", "levels": [1, 2], "seed": 3,
                 "steps": 500},
    "exp-uvd": {"command": "exp", "kind": "uvd", "family": "gasket", "levels": [1, 2],
                "v_exponent": 2.0},
    "exp-exponents": {"command": "exp", "kind": "exponents", "family": "gasket",
                      "levels": [2, 3]},
    "exp-thm-a": {"command": "exp", "kind": "thm-a", "family": "gasket", "levels": [1, 2],
                  "lambda_grid": [0.0, 1.0, 2.0, 3.0], "n_trials": 100, "seed": 3},
    "exp-thm-b": {"command": "exp", "kind": "thm-b", "family": "gasket", "levels": [1],
                  "L": 1.0, "lambda_grid": [0.0, 1.0, 2.0], "n_trials": 100, "seed": 4,
                  "cap_factor": 2.0},
    "exp-sup-lt": {"command": "exp", "kind": "sup-lt", "family": "gasket", "levels": [1, 3],
                   "lambda_grid": [1.0, 2.0, 3.0], "n_trials": 100, "seed": 5},
    # 15 starts x 100 trials on gasket-2: a lockstep group of the plan ends
    # inside a start, and thm-b leaves some trials unsaturated
    "exp-thm-b-2": {"command": "exp", "kind": "thm-b", "family": "gasket", "levels": [2],
                    "L": 1.0, "lambda_grid": [0.0, 1.0, 2.0], "n_trials": 100, "seed": 12,
                    "cap_factor": 2.0},
    "exp-sup-lt-2": {"command": "exp", "kind": "sup-lt", "family": "gasket", "levels": [2],
                     "lambda_grid": [1.0, 2.0, 3.0], "n_trials": 100, "seed": 13},
    "exp-equicontinuity": {"command": "exp", "kind": "equicontinuity", "levels": [1, 2],
                           "lambda_grid": [0.0, 0.5, 1.0], "n_trials": 100, "seed": 7},
    "exp-scaling": {"command": "exp", "kind": "scaling", "levels": [1, 2],
                    "t_values": [0.5, 1.0], "n_trials": 100, "seed": 8},
    "exp-cover": {"command": "exp", "kind": "cover", "levels": [1, 2], "n_trials": 100,
                  "seed": 10, "cap_factor": 0.9},
    "exp-carpet": {"command": "exp", "kind": "carpet", "levels": [0, 1],
                   "wired_check_level": 1},
}

DIGESTS = {
    "exp-carpet": {
        "carpet_report.json":
            "8e2d31635f04d87ff114ceb365629b5a45e5818e968d509bad03d42435c4a4f3",
    },
    "exp-cover": {
        "scaling_report.json":
            "59837f14132aa6a06e42aabf032c88da45f6217513a1281979cb05deea535edc",
    },
    "exp-equicontinuity": {
        "tailcurve_equicontinuity_1.csv":
            "4c7432a165e056b949256237ad773b3fdf1117dd99db025204c5a5e4dc21692a",
        "tailcurve_equicontinuity_2.csv":
            "febdb5e0d90d7d8679590076453cbd22caca8962d1d8a3290412fc7ea733d5b8",
    },
    "exp-exponents": {
        "exponents.json":
            "f3cacbed90f7ecd3c3aaaeaf85bc22793015a0004e0559c53e74dd0b7307eb97",
    },
    "exp-scaling": {
        "scaling_report.json":
            "c568fcb352157e4d29245675a1d50d00cbc020e66bfa4688381966afc25619d7",
    },
    "exp-sup-lt": {
        "tailcurve_sup-lt_1.csv":
            "f636577fc771b61e59a756a439b84a25c14998ca894680e667184ac47b58f831",
        "tailcurve_sup-lt_3.csv":
            "603da8ca80fee81b63727395e5c2a150cda090c1338f31bfba8bfbb4099e0155",
    },
    "exp-thm-a": {
        "tailcurve_thm-a_1.csv":
            "4595bd2e46f6c6000d9433dedfdae8d9bef72b6282af39fddbb55c6515395584",
        "tailcurve_thm-a_2.csv":
            "b2a950d21f00566b6db4e3271b0c66511adb2258c58617f48ea8859d91edea2a",
    },
    "exp-thm-b": {
        "tailcurve_thm-b_1.csv":
            "691c660a7ad2956b9628e1adfc5dd95facf68f3536b7a49d0c91ecd17bc28372",
    },
    "exp-thm-b-2": {
        "tailcurve_thm-b_2.csv":
            "fabf4d943a1748ef6f59ba91d7095d5f7099627c325245cc95f37128c6759530",
    },
    "exp-sup-lt-2": {
        "tailcurve_sup-lt_2.csv":
            "987fd9ed208f9507df58cc1d443659d017568b3aa66c3cc7290fa20a3f8e654e",
    },
    "exp-uvd": {
        "uvd_report.json":
            "2b4835f3b23ef5f3403c31e788df6203ae125dab07b3f6fc0aa768787f7f78ac",
    },
    "gen-gasket": {
        "graph_gasket_1.json":
            "2a3c3e7dd0bfcf74c2d82130ce2e7221a879f30849ca0409ac0fd20db117d38e",
        "graph_gasket_2.json":
            "b0cd23762601d61ee50f64f64b3eb8b3b3a51434ca6fa7c5315b399dd5aa7b79",
    },
    "gen-vicsek": {
        "graph_vicsek_1.json":
            "fb07a0c3f630154f12d5876a4ba408c22301d78b28ead34726aa1cda183ac2d4",
    },
    "gen-wired-carpet": {
        "graph_wired_carpet_1.json":
            "e88d8da063d0ee7089ac15f98572ea66fa4ddca0b46be78a3048b76902fa1cd3",
    },
    "oracle": {
        "oracle_gasket_2.json":
            "14fd19aa6fc8f88a5ec677395951b858bd500e0be3ed3d112da3d2b22b20b63d",
    },
    "resist": {
        "resist_gasket_1.csv":
            "77f643a971d99a0acc619da208cc0b23eaab1455675d3b1bbee1f32607a9bcb0",
        "resist_gasket_2.csv":
            "ec030b913fac1a872b9041e3f286fb83ce1723ebd384517f0239c719d25c65bd",
    },
    "validate": {
        "validate_report.json":
            "46ea99120b1e3039aa5d00625c88f56635b7dd7f92cfadb2eb8ef87f410cf2d3",
    },
    "walk": {
        "walk_gasket_1.csv":
            "699c76ac5ff177ac4718387298c62269645ed813ad910a7ecd6c86899dc96df4",
    },
}


# config_hash() of each config above, frozen with the digests: a change to
# the defaults a command or kind fills in changes these first
CONFIG_HASHES = {
    "exp-carpet": "12b640c8eb3b944367f859b38bc36587204488a99a3edbf11995abcdef5eca01",
    "exp-cover": "855d6a38e601ce18039a2f841f0b55bf6773be4b2e8c79e2b07133e142b74f6e",
    "exp-equicontinuity": "7536258e5289324300ffbf6e5ba3693193b4fd78953854889a713e2110ced412",
    "exp-exponents": "cca39af1a28fbe9b6a0147645674ce3a7f4758738936262a0daf95b59aeca7c0",
    "exp-scaling": "3f80b532c03e5ce70c78bee2c34c83b173476bbdb8bd9eb928fc9dc1a9e640cf",
    "exp-sup-lt": "982fa128bbffea56ee66bc0a102c8b922fdf05a852f4ca853a3c350a67f35d2f",
    "exp-sup-lt-2": "8f15ecc6dd6b5c19896184ed47e06fdaf3f3cca216b00a147a6f2e4da0670d11",
    "exp-thm-a": "e00b39613a3e9cb94609998fef90c3adc4345382b434e207175f4ac584147da7",
    "exp-thm-b": "86b1a8c9453a4640c3be636afcb7d46fc8f5d91e85288c76d25809cc203cd6bb",
    "exp-thm-b-2": "91a24bbcfd0d5a96461d49a098a34d9d122faf53cfe7f691fe2743c1d874f142",
    "exp-uvd": "f768db68142bfafe4e9fdbb63fc3ef1dc4c72c6f5031078fe9e7be3e1ec0cab9",
    "gen-gasket": "ba2f020ac58e7fdb4bed5a09ade2eb3c486341dfaa277e650d34dc9028de9bd7",
    "gen-vicsek": "2a4d21e44c6ae984031827922afbc19d2b1da9e42a3233d3a7758dc01f1abf2b",
    "gen-wired-carpet": "325262da9dde09babcdf1e0fb512aa122cd8fdad68cc94f479405517a0643988",
    "oracle": "454e389b1ec5d3a8c9ec7bfc15b95388fea6ec6c20a1ec158143ddfc78548beb",
    "resist": "02f456fcb313d68168bd88d8c6cc744e5515d1817bb853fa69fcc1b965369a74",
    "validate": "3803583b6484dfe34da984e652e57ed0d03e72291417b472eae5357955056977",
    "walk": "f376fb2422f5607ef07282ec362aca0eabf5af0799a5665cac17ceef3e31622e",
}


def parse_named(name):
    return parse_config(json.dumps({"schema": "resistwalk/1", **CONFIGS[name]}))


def run_named(name, out_dir):
    return run_command(parse_named(name), out_dir=out_dir)


def test_configs_cover_every_command_and_exp_kind():
    assert {c["command"] for c in CONFIGS.values()} == set(cli_io.COMMANDS)
    assert {c["kind"] for c in CONFIGS.values() if "kind" in c} == set(cli_io.EXP_KINDS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_frozen_config_hashes(name):
    assert parse_named(name).config_hash() == CONFIG_HASHES[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_frozen_output_digests(name, tmp_path, monkeypatch):
    dump_json, written = cli_io._dump_json, []

    def checked(obj):  # every JSON output and the manifest is json.dumps text
        text = dump_json(obj)
        assert text == json.dumps(obj, sort_keys=True, indent=1) + "\n"
        written.append(text)
        return text

    monkeypatch.setattr(cli_io, "_dump_json", checked)
    assert run_named(name, tmp_path).outputs == DIGESTS[name]
    assert len(written) == sum(out.endswith(".json") for out in DIGESTS[name]) + 1


# Runs every config in one fresh interpreter at the thread count argv[2]: the
# environment sets it as OpenBLAS loads, and a set call on both copies keeps
# it where OpenBLAS would cap it at the CPUs the process may use.  Prints
# name -> manifest outputs, and the last manifest's linear-algebra record.
_RUN_ALL = """
import json, sys
from pathlib import Path
from resistwalk import parse_config, run_command
from resistwalk._lapack import MODULES, openblas
for module in MODULES.values():
    openblas(module).set_num_threads(int(sys.argv[2]))
out = {}
for name, cfg in json.load(sys.stdin).items():
    cfg = parse_config(json.dumps({"schema": "resistwalk/1", **cfg}))
    man = run_command(cfg, out_dir=Path(sys.argv[1]) / name)
    out[name] = man.outputs
print(json.dumps({"outputs": out, "linalg": man.linalg}))
"""


def _digests_at_blas_threads(threads, tmp_path):
    src = str(Path(resistwalk.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", _RUN_ALL, str(tmp_path), str(threads)],
                          input=json.dumps(CONFIGS), env=env, capture_output=True, text=True,
                          check=True, timeout=600)
    doc = json.loads(proc.stdout)
    assert doc["linalg"]["numpy_openblas"]["threads"] == threads
    assert doc["linalg"]["scipy_openblas"]["threads"] == threads
    return doc["outputs"]


# The bytes of these configs must not depend on the BLAS thread count, nor on
# the host's CPU count: their dense resistance solves have at most
# ONE_THREAD_LIMIT unknowns and so run on one thread by construction, and the
# oracle's exact_chain solves, whose bits follow the thread count at larger
# sizes, agree at these.


def test_frozen_output_digests_at_one_blas_thread(tmp_path):
    assert _digests_at_blas_threads(1, tmp_path) == DIGESTS


def test_frozen_output_digests_at_two_blas_threads(tmp_path):
    assert _digests_at_blas_threads(2, tmp_path) == DIGESTS


# Runs every config but `exp exponents` in one fresh interpreter and prints
# the scipy.linalg, scipy.sparse and scipy.optimize modules loaded after the
# import and after the runs, with each run's outputs and the last manifest's
# linear-algebra record.
_RUN_DENSE = """
import json, sys
from pathlib import Path
import resistwalk
from resistwalk import parse_config, run_command

def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[:2] in (["scipy", "linalg"], ["scipy", "sparse"], ["scipy", "optimize"]))

after_import, out = heavy(), {}
for name, cfg in json.load(sys.stdin).items():
    man = run_command(parse_config(json.dumps({"schema": "resistwalk/1", **cfg})),
                      out_dir=Path(sys.argv[1]) / name)
    out[name] = man.outputs
print(json.dumps({"after_import": after_import, "after_runs": heavy(), "outputs": out,
                  "linalg": man.linalg}))
"""


def test_runs_off_the_sparse_route_load_no_scipy_linalg_sparse_or_optimize(tmp_path):
    configs = {name: cfg for name, cfg in CONFIGS.items() if name != "exp-exponents"}
    assert {"gen-gasket", "walk", "oracle", "resist"} <= set(configs)
    src = str(Path(resistwalk.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _RUN_DENSE, str(tmp_path)],
                          input=json.dumps(configs), env=env, capture_output=True, text=True,
                          check=True, timeout=600)
    doc = json.loads(proc.stdout)
    assert doc["after_import"] == doc["after_runs"] == []
    assert doc["outputs"] == {name: DIGESTS[name] for name in configs}
    # the manifest still finds scipy's OpenBLAS and its LAPACK
    from resistwalk._lapack import MODULES, openblas

    blas = doc["linalg"]["scipy_openblas"]
    assert blas["corename"] == openblas(MODULES["scipy"]).get_corename().decode()
    assert isinstance(blas["threads"], int) and blas["threads"] >= 1
    assert doc["linalg"]["laplacian_solve"] == ["scipy_dpotrf_", "scipy_dpotrs_"]


# Tail-curve reports carry more than the CSVs: per-start probabilities,
# thm-b's unsaturated fraction and the equicontinuity p99 live in `extras`.
CURVE_CALLS = {
    "thm-a": lambda: tail_curve_thm_a("gasket", [1, 2], 1.0, (0.0, 1.0, 2.0, 3.0), 100, 3),
    "thm-b": lambda: tail_curve_thm_b(
        "gasket", [1], 1.0, (0.0, 1.0, 2.0), 100, 4, cap_factor=2.0
    ),
    "thm-b-2": lambda: tail_curve_thm_b(
        "gasket", [2], 1.0, (0.0, 1.0, 2.0), 100, 12, cap_factor=2.0
    ),
    "sup-lt": lambda: sup_local_time_tail("gasket", [1, 3], 1.0, (1.0, 2.0, 3.0), 100, 5),
    "sup-lt-2": lambda: sup_local_time_tail("gasket", [2], 1.0, (1.0, 2.0, 3.0), 100, 13),
    "equicontinuity": lambda: modulus_equicontinuity_gasket([1, 2], 1.0, (0.0, 0.5, 1.0), 100, 7),
}

CURVE_DIGESTS = {
    "thm-a": "c14d94c1a9b8f9909dc9157de7e7e4f1bfb4b84b53b873097573782183638398",
    "thm-b": "b2d13d7e707434fd62512304465e422e96d0be5a2b32c22921505f34b9343dd4",
    "thm-b-2": "e5246ea98ef7d8bd94b6f0b2f3dde491aaeecd2de1069725593bb06e217a21f3",
    "sup-lt": "92eda93eea47a3c2d15b477ba3614093b102f4598637fa46b45a4e0ae5e639f7",
    "sup-lt-2": "552039fa562988613ee74179076aa27cae3b6d3fbc7471be872661b3d6dc860f",
    "equicontinuity": "55c4ad2f785017c85128f6fe9ccc213e9c0574c8dc1b4b6b32f3e09fe35ecd4d",
}


@pytest.mark.parametrize("kind", sorted(CURVE_CALLS))
def test_frozen_tail_curve_reports(kind):
    curves = CURVE_CALLS[kind]()
    blob = json.dumps([c.to_jsonable() for c in curves], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == CURVE_DIGESTS[kind]
    if kind == "thm-b":
        assert curves[0].extras["unsaturated_fraction"] == 303 / 600
    if kind == "thm-b-2":
        assert curves[0].extras["unsaturated_fraction"] == 957 / 1500


def test_frozen_censoring_counts(tmp_path):
    assert run_named("walk", tmp_path / "walk").counts == {"censored": 2, "cap": 33}
    run_named("exp-cover", tmp_path / "cover")
    report = json.loads((tmp_path / "cover" / "scaling_report.json").read_text())
    assert report["extras"]["censored_per_level"] == [0, 1]
