import json
import os
import subprocess
import sys

import pytest

import matroidlab
from matroidlab.cli import main
from matroidlab.fileio import read_matrix, write_matrix
from matroidlab.linalg import Matrix
from matroidlab.field import make_field

GF2 = make_field(2, 1)

FANO = Matrix(GF2, (0, 1, 2), tuple(range(7)),
              [[1, 0, 0, 1, 1, 0, 1],
               [0, 1, 0, 1, 0, 1, 1],
               [0, 0, 1, 0, 1, 1, 1]])


@pytest.fixture
def fano_file(tmp_path):
    path = tmp_path / "fano.mat"
    path.write_text(write_matrix(FANO))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_girth_fano(capsys, fano_file):
    code, out = run(capsys, ["girth", fano_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 3 and len(payload["witness"]) == 3


def test_cogirth_fano(capsys, fano_file):
    code, out = run(capsys, ["cogirth", fano_file])
    assert code == 0 and json.loads(out)["value"] == 4


def test_construct_pg_emits_readable_matrix(capsys):
    code, out = run(capsys, ["construct", "pg", "--rank", "3", "--gf", "2", "1"])
    assert code == 0
    A = read_matrix(out)
    assert len(A.cols) == 7


def test_construct_bicircular_rank_table(capsys):
    code, out = run(capsys, ["construct", "bicircular", "--kn", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"][""] == 0
    assert payload["ranks"]["0,1,2"] == 3


def test_dual_round_trip(capsys, fano_file, tmp_path):
    code, out = run(capsys, ["dual", fano_file])
    assert code == 0
    dual_path = tmp_path / "dual.mat"
    dual_path.write_text(out)
    code2, out2 = run(capsys, ["dual", str(dual_path)])
    assert code2 == 0
    assert read_matrix(out2) == FANO  # involution, byte-stable generator


def test_minor_fano_has_k4(capsys, fano_file, tmp_path):
    code, out = run(capsys, ["construct", "kn", "--n", "4", "--gf", "2", "1"])
    k4 = tmp_path / "k4.mat"
    k4.write_text(out)
    code, out = run(capsys, ["minor", fano_file, str(k4)])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] is True
    assert payload["witness"]["contract"] == []
    assert len(payload["witness"]["delete"]) == 1


def test_vconn_unbounded(capsys, fano_file):
    code, out = run(capsys, ["vconn", fano_file])
    assert code == 0 and json.loads(out)["value"] == "unbounded"


def test_confine(capsys, tmp_path):
    gf4 = make_field(2, 2)
    A = Matrix(gf4, (0, 1), (0, 1, 2), [[1, 0, 1], [0, 1, 1]])
    path = tmp_path / "m.mat"
    path.write_text(write_matrix(A))
    code, out = run(capsys, ["confine", str(path), "--sub", "2", "1"])
    assert code == 0 and json.loads(out)["value"] is True


def test_threshold_quarter(capsys):
    code, out = run(capsys, ["threshold", "--R", "0.25", "--rational"])
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "R,theta_binary,theta_graphic,theta_graphic_status"
    fields = row.split(",")
    assert fields[2] == "1/10" and fields[3] == "conjectured"


def test_mlsim_echoes_seed(capsys, tmp_path):
    rep = Matrix(GF2, (0,), tuple(range(5)), [[1] * 5])
    path = tmp_path / "rep5.mat"
    path.write_text(write_matrix(rep))
    code, out = run(capsys, ["mlsim", str(path), "--p", "0.1",
                             "--seed", "9", "--trials", "2000"])
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "p,err,ci_lo,ci_hi,trials,seed"
    assert row.endswith(",2000,9")


def test_mlsim_workers_byte_identical(capsys, tmp_path):
    rep = Matrix(GF2, (0,), tuple(range(5)), [[1] * 5])
    path = tmp_path / "rep5.mat"
    path.write_text(write_matrix(rep))
    _, out1 = run(capsys, ["mlsim", str(path), "--p", "0.1",
                           "--seed", "3", "--trials", "40000", "--workers", "1"])
    _, out8 = run(capsys, ["mlsim", str(path), "--p", "0.1",
                           "--seed", "3", "--trials", "40000", "--workers", "8"])
    assert out1 == out8


@pytest.mark.parametrize("flag,value,message", [
    ("--p", "0.6", "bit-error probability must lie in [0, 1/2)"),
    ("--trials", "0", "trial count must be positive"),
])
def test_mlsim_input_errors_exit_2(capsys, tmp_path, flag, value, message):
    path = tmp_path / "rep5.mat"
    path.write_text(write_matrix(Matrix(GF2, (0,), tuple(range(5)), [[1] * 5])))
    argv = ["mlsim", str(path), "--p", "0.1", flag, value]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_girth_cogirth_over_gf257(capsys, tmp_path):
    # fields above order 256 have no addition table
    A = Matrix(make_field(257, 1), (0, 1), ("a", "b", "c", "d"),
               [[1, 0, 5, 200], [0, 1, 7, 256]])
    path = tmp_path / "gf257.mat"
    path.write_text(write_matrix(A))
    for cmd in ("girth", "cogirth"):
        code, out = run(capsys, [cmd, str(path)])
        assert code == 0
        assert json.loads(out) == {"value": 3, "witness": ["a", "c", "d"]}


def test_template_check_reports_clause(capsys, tmp_path):
    tmpl = tmp_path / "sub.tmpl"
    tmpl.write_text(
        "template subfield\ngf 2 2\npoly 1 1 1\nsubfield 2 1\n"
        "A1\nA2\nlambda\ndelta\n")
    bad = tmp_path / "bad.mat"
    gf4 = make_field(2, 2)
    bad.write_text(write_matrix(Matrix(gf4, ("r0",), ("c0",), [[2]])))
    code, out = run(capsys, ["template", "check", str(tmpl), str(bad)])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"conforms": False, "violated": "clause-ii"}


def test_template_member_and_enumerate(capsys, tmp_path):
    tmpl = tmp_path / "frame.tmpl"
    tmpl.write_text("template frame\ngf 2 1\ngamma 1\nA1\nlambda\ndelta\n")
    code, out = run(capsys, ["template", "enumerate", str(tmpl),
                             "--rows", "2", "--cols", "2"])
    assert code == 0
    items = json.loads(out)
    assert items and all(len(it["ground"]) == 2 for it in items)
    code, out = run(capsys, ["construct", "kn", "--n", "3", "--gf", "2", "1"])
    k3 = tmp_path / "k3.mat"
    k3.write_text(out)
    code, out = run(capsys, ["template", "member", str(tmpl), str(k3)])
    assert code == 0 and json.loads(out)["member"] is True


def test_template_member_rank_table_budget_is_cap(capsys, tmp_path):
    # 13 parallel elements need a rank table of 2^13 = 8192 entries
    tmpl = tmp_path / "sub.tmpl"
    tmpl.write_text("template subfield\ngf 2 1\nsubfield 2 1\nA1\nA2\nlambda\ndelta\n")
    ones = tmp_path / "ones.mat"
    ones.write_text(write_matrix(Matrix(GF2, (0,), tuple(range(13)), [[1] * 13])))
    argv = ["template", "member", str(tmpl), str(ones)]
    assert run(capsys, argv) == (0, '{"member": true}\n')
    assert main(argv + ["--cap", "5000"]) == 3
    assert "8192 rank-table entries (2^13) exceed the budget 5000" in capsys.readouterr().err


def test_template_member_search_budget_is_cap(capsys, tmp_path, fano_file):
    tmpl = tmp_path / "frame.tmpl"
    tmpl.write_text("template frame\ngf 2 1\ngamma 1\nA1\nlambda\ndelta\n")
    assert main(["template", "member", str(tmpl), fano_file, "--cap", "100"]) == 3
    assert capsys.readouterr() == (
        "", "cap exceeded: 101 frame search nodes exceed the budget 100; "
            "raise it with --cap\n")


def test_perturb_commands(capsys, tmp_path, fano_file):
    code, out = run(capsys, ["perturb", "dist", fano_file, fano_file])
    assert code == 0 and json.loads(out)["value"] == 0
    code, out = run(capsys, ["perturb", "pert", fano_file, fano_file, "--exact"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["lo"], payload["hi"], payload["exact"]) == (0, 0, 0)
    assert not any(any(row) for row in payload["witness"])
    P = Matrix(GF2, (0, 1, 2), tuple(range(7)),
               [[0] * 7, [0] * 7, [0] * 7])
    p_path = tmp_path / "p.mat"
    p_path.write_text(write_matrix(P))
    code, out = run(capsys, ["perturb", "apply", fano_file, str(p_path)])
    assert code == 0 and read_matrix(out) == FANO


def test_perturb_pert_exact_budget_counts_subspaces(capsys, tmp_path, fano_file):
    # Fano and span(e0, e1, e2) sum to a space of dimension 6, and the
    # search enumerates all 2825 subspaces of GF(2)^6 before it starts
    e3 = tmp_path / "e3.mat"
    e3.write_text(write_matrix(Matrix(GF2, (0, 1, 2), tuple(range(7)),
                                      [[int(i == j) for j in range(7)] for i in range(3)])))
    assert main(["perturb", "pert", fano_file, str(e3), "--exact", "--cap", "2"]) == 3
    assert capsys.readouterr() == (
        "", "cap exceeded: 2825 subspaces exceed the budget 2; raise it with --cap\n")


@pytest.mark.parametrize("args,rows", [
    (["exponential", "--q", "2"], ["1,1,False", "2,3,False", "3,7,False", "4,15,False"]),
    (["exponential", "--q", "2", "--k", "1", "--d", "1"],
     ["1,1,False", "2,5,False", "3,13,False", "4,29,False"]),
    (["gammaframe", "--alpha", "2"], ["1,1,False", "2,4,False", "3,9,False", "4,16,False"]),
    (["twofield", "--q", "3"], ["1,1,False", "2,10,False", "3,37,False", "4,118,False"]),
    (["pgexcluded", "--q", "2", "--n", "4"],
     ["1,-139,True", "2,-107,True", "3,-43,True", "4,85,False"]),
], ids=["exponential", "exponential-k1-d1", "gammaframe", "twofield", "pgexcluded"])
def test_growth_formula_csv(capsys, args, rows):
    code, out = run(capsys, ["growth", "formula", "--family", *args, "--rmax", "4"])
    assert code == 0
    assert out == "\n".join(["r,value,pre_asymptotic", *rows]) + "\n"


def test_growth_exhaustive(capsys):
    code, out = run(capsys, ["growth", "exhaustive", "--gf", "2", "1",
                             "--rank", "3", "--forbidden", "fano"])
    assert code == 0 and json.loads(out)["value"] == 6


def test_code_params_csv(capsys, fano_file):
    code, out = run(capsys, ["code", "params", fano_file])
    assert code == 0
    assert out.strip().splitlines()[1] == "7,3,4,3/7,4/7"


def test_code_cut_csv(capsys):
    code, out = run(capsys, ["code", "cut", "--kn", "4", "--R", "0.5"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "4" and row[2] == "3"


def test_missing_file_exit_2(capsys):
    assert main(["girth", "/no/such/file.mat"]) == 2


def test_cap_exceeded_exit_3(capsys, fano_file):
    assert main(["minor", fano_file, fano_file, "--cap", "2"]) == 3


def test_perturb_dist_lift_budget_counts_lifts(capsys, tmp_path):
    # GF(3)^8 has 6561 vectors, but a rank-7 space has one lift and 1093
    # hyperplanes, all within the default budget of 5000
    identity = Matrix.identity(make_field(3, 1), range(8))
    rank7 = Matrix(identity.field, range(7), identity.cols,
                   [row[:7] + (1,) for row in identity.data[:7]])
    paths = [tmp_path / "rank7.mat", tmp_path / "identity.mat"]
    for path, A in zip(paths, (rank7, identity)):
        path.write_text(write_matrix(A))
    assert run(capsys, ["perturb", "dist", *map(str, paths)]) == (0, '{"value": 1}\n')


def test_output_flag_writes_file(tmp_path, capsys, fano_file):
    target = tmp_path / "out.json"
    code = main(["girth", fano_file, "-o", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["value"] == 3


@pytest.mark.parametrize("argv", [
    ["girth", "missing.mat", "--workers", "0"],
    ["template", "member", "missing.tmpl", "missing.mat", "--cap", "0"],
])
def test_nonpositive_workers_and_cap_exit_2(argv):
    src = os.path.dirname(os.path.dirname(matroidlab.__file__))
    proc = subprocess.run([sys.executable, "-m", "matroidlab.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert "must be positive" in proc.stderr
    assert "Traceback" not in proc.stderr


# A fixed 9-element binary matroid of rank 5; it has M(K4) and F7* minors
# whose witnesses contract and delete something.
NINE = Matrix(GF2, tuple(range(5)), tuple(range(9)),
              [[1, 0, 1, 0, 1, 1, 1, 0, 1],
               [1, 0, 1, 0, 0, 0, 1, 1, 0],
               [1, 1, 0, 0, 0, 1, 0, 0, 1],
               [0, 0, 1, 1, 0, 1, 0, 0, 0],
               [1, 1, 1, 1, 1, 0, 1, 1, 0]])
# the stdout of `minor` and `vconn` on NINE, witnesses included, is a contract
PINNED_MINOR_K4 = '{"value": true, "witness": {"contract": [0, 5], "delete": [7]}}\n'
PINNED_MINOR_F7_DUAL = '{"value": true, "witness": {"contract": [5], "delete": [8]}}\n'
PINNED_VCONN = '{"value": 2, "witness": {"X": [5, 6], "Y": [0, 1, 2, 3, 4, 7, 8]}}\n'


def test_minor_and_vconn_stdout_bytes(capsys, tmp_path):
    nine = tmp_path / "nine.mat"
    nine.write_text(write_matrix(NINE))
    _, out = run(capsys, ["construct", "kn", "--n", "4", "--gf", "2", "1"])
    k4 = tmp_path / "k4.mat"
    k4.write_text(out)
    _, out = run(capsys, ["construct", "pg", "--rank", "3", "--gf", "2", "1"])
    fano = tmp_path / "fano.mat"
    fano.write_text(out)
    _, out = run(capsys, ["dual", str(fano)])
    fano_dual = tmp_path / "fano_dual.mat"
    fano_dual.write_text(out)
    outputs = [run(capsys, argv) for argv in (
        ["minor", str(nine), str(k4)],
        ["minor", str(nine), str(fano_dual)],
        ["vconn", str(nine)],
    )]
    assert outputs == [(0, PINNED_MINOR_K4), (0, PINNED_MINOR_F7_DUAL),
                       (0, PINNED_VCONN)]


GF3, GF4, GF8 = make_field(3, 1), make_field(2, 2), make_field(2, 3)
# inputs whose outputs go through projective scalings, aligned generators,
# the lattice search and line spans; the bytes are those printed before
# these paths moved onto the shared echelon kernel
PINNED_INPUTS = {
    "conf4": Matrix(GF4, (0, 1), ("a", "b", "c", "d"), [[1, 0, 2, 3], [0, 1, 2, 3]]),
    "conf4n": Matrix(GF4, (0, 1), ("a", "b", "c", "d"), [[1, 0, 2, 2], [0, 1, 2, 3]]),
    "conf8": Matrix(GF8, (0, 1, 2), tuple(range(6)),
                    [[1, 0, 0, 3, 0, 5], [0, 1, 0, 3, 6, 0], [0, 0, 1, 0, 6, 5]]),
    "p1": Matrix(GF3, (0, 1), tuple(range(5)), [[1, 0, 1, 2, 0], [0, 1, 1, 0, 2]]),
    "p2": Matrix(GF3, (0, 1), tuple(range(5)), [[1, 1, 0, 0, 1], [0, 0, 1, 1, 1]]),
    "p3": Matrix(GF3, (0, 1, 2), tuple(range(5)),
                 [[1, 0, 1, 2, 0], [0, 0, 0, 1, 1], [0, 1, 2, 0, 0]]),
    "d1": Matrix(GF2, (0,), tuple(range(4)), [[1, 0, 0, 0]]),
    "d2": Matrix(GF2, (0, 1), tuple(range(4)), [[0, 1, 0, 0], [0, 0, 1, 1]]),
}
PINNED_STDOUT = [
    (["confine", "conf4", "--sub", "2", "1"],
     '{"value": true, "witness": {"a": 1, "b": 1, "c": 3, "d": 2}}\n'),
    (["confine", "conf4n", "--sub", "2", "1"], '{"value": false, "witness": null}\n'),
    (["confine", "conf8", "--sub", "2", "1"],
     '{"value": true, "witness": {"0": 1, "1": 1, "2": 1, "3": 6, "4": 3, "5": 2}}\n'),
    (["perturb", "pert", "p1", "p2", "--exact"],
     '{"exact": 2, "hi": 2, "lo": 2, "witness": [[0, 2, 1, 2, 2], [0, 1, 0, 2, 1]]}\n'),
    (["perturb", "pert", "p1", "p3", "--exact"],
     '{"exact": 2, "hi": 2, "lo": 2, '
     '"witness": [[0, 0, 0, 0, 0], [2, 1, 0, 0, 1], [0, 2, 1, 0, 0]]}\n'),
    (["perturb", "dist", "d1", "d2"], '{"value": 3}\n'),
    (["perturb", "dist", "p1", "p2"], '{"value": 4}\n'),
    (["construct", "reid", "--gf", "3", "1"],
     "gf 3 1\nrows 0 1 2\ncols 0 1 2 3 4 5 6 7 8\n1 0 1 2 0 0 0 1 1\n"
     "0 1 1 1 0 1 1 0 1\n0 0 0 0 1 1 2 1 1\n"),
    (["construct", "reid", "--gf", "2", "2"],
     "gf 2 2\npoly 1 1 1\nrows 0 1 2\ncols 0 1 2 3 4 5 6 7 8 9 10\n"
     "1 0 1 2 3 0 0 0 0 1 1\n0 1 1 1 1 0 1 1 1 0 1\n0 0 0 0 0 1 1 2 3 1 1\n"),
]


@pytest.mark.parametrize("argv,expected", PINNED_STDOUT,
                         ids=[" ".join(argv[:4]) for argv, _ in PINNED_STDOUT])
def test_confine_perturb_reid_stdout_bytes(capsys, tmp_path, argv, expected):
    paths = {}
    for name, A in PINNED_INPUTS.items():
        paths[name] = tmp_path / f"{name}.mat"
        paths[name].write_text(write_matrix(A))
    argv = [str(paths[a]) if a in paths else a for a in argv]
    assert run(capsys, argv) == (0, expected)


@pytest.mark.parametrize("p,k,order", [
    # trial division to sqrt(p) would run for minutes
    ("1000000000000000003", "1", "1000000000000000003"),
    ("65537", "1", "65537"),
    ("2", "17", "131072"),
    ("2", "100000000000000", "2^100000000000000"),
])
def test_field_above_order_cap_exits_3_at_once(tmp_path, p, k, order):
    path = tmp_path / "big.mat"
    path.write_text(f"gf {p} {k}\nrows r\ncols c\n1\n")
    src = os.path.dirname(os.path.dirname(matroidlab.__file__))
    proc = subprocess.run([sys.executable, "-m", "matroidlab.cli", "dual", str(path)],
                          capture_output=True, text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"cap exceeded: field order {order} exceeds cap 65536\n"
