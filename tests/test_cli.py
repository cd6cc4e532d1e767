import hashlib
import json
import os
import subprocess
import sys

import pytest

import matroidlab
from matroidlab import cli
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


def test_mlsim_cap_bounds_the_codeword_table(capsys, tmp_path):
    # the binary [16, 15] parity code has 2^15 codewords
    parity = Matrix(GF2, tuple(range(15)), tuple(range(16)),
                    [[int(i == j) for j in range(15)] + [1] for i in range(15)])
    path = tmp_path / "parity16.mat"
    path.write_text(write_matrix(parity))
    argv = ["mlsim", str(path), "--p", "0.01", "--trials", "100"]
    assert main(argv) == 3
    assert capsys.readouterr() == (
        "", "cap exceeded: 32768 codewords exceed the budget 16384; raise it with --cap\n")
    code, out = run(capsys, argv + ["--cap", "40000"])
    assert code == 0
    assert out.strip().splitlines()[1].endswith(",100,0")


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


def test_girth_cap_reaches_the_minimum_weight_search(capsys, tmp_path):
    # the cycle space of K_9 has dimension 28: levels 1 and 2 charge
    # 28 + 378 combinations and find a triangle
    path = str(tmp_path / "k9.mat")
    assert main(["construct", "kn", "--n", "9", "--gf", "2", "1", "-o", path]) == 0
    assert main(["girth", path, "--cap", "400"]) == 3
    assert capsys.readouterr() == (
        "", "cap exceeded: minimum-weight search enumerated 400 combinations; "
        "the next 3 would pass the cap 400; raise it with --cap\n")
    default = run(capsys, ["girth", path])
    assert default == (0, '{"value": 3, "witness": [0, 7, 14]}\n')
    assert run(capsys, ["girth", path, "--cap", "406"]) == default


@pytest.mark.parametrize("argv,charged", [(["cogirth", "FANO"], 7),
                                          (["code", "params", "FANO"], 7),
                                          (["code", "cut", "--kn", "4"], 6)])
def test_minimum_weight_commands_take_cap(capsys, fano_file, argv, charged):
    # both spaces are 3-dimensional over GF(2): levels 1 and 2 charge 3 + 3
    # combinations, and level 3 one more unless level 2 already reached 3
    argv = [fano_file if a == "FANO" else a for a in argv]
    cap = charged - 1
    assert main(argv + ["--cap", str(cap)]) == 3
    assert capsys.readouterr() == (
        "", f"cap exceeded: minimum-weight search enumerated {cap} combinations; "
        f"the next 1 would pass the cap {cap}; raise it with --cap\n")
    assert run(capsys, argv + ["--cap", str(charged)]) == run(capsys, argv)


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


def test_growth_exhaustive_subset_budget_is_cap(capsys):
    assert main(["growth", "exhaustive", "--gf", "3", "1", "--rank", "3",
                 "--forbidden", "kn:4", "--cap", "100"]) == 3
    assert capsys.readouterr() == (
        "", "cap exceeded: 101 subsets exceed the budget 100; raise it with --cap\n")


@pytest.mark.parametrize("command,text", [
    ("construct", "--cap CAP the largest |E| of the matroid whose rank table is "
                  "built (default 12)"),
    ("minor", "--cap CAP the largest |E| of the matroid whose rank table is built "
              "(default 14)"),
    ("vconn", "--cap CAP the largest |E| of the matroid whose rank table is built "
              "(default 16)"),
    ("growth", "--cap CAP budget: exhaustive examines at most this many point "
               "subsets (default 262144); alphat ignores it"),
    ("mlsim", "--cap CAP budget: decode against at most this many codewords, 2^k "
              "for a k-dimensional code (default 16384)"),
] + [(command, "--cap CAP budget: the minimum-weight search scores at most this many "
               "combinations of basis rows (default 16777216)")
     for command in ("girth", "cogirth", "code")])
def test_cap_help_says_what_it_bounds(capsys, command, text):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert text in " ".join(capsys.readouterr().out.split())


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


@pytest.mark.parametrize("command", [["minor", "FANO", "FANO"], ["vconn", "FANO"]])
def test_rank_table_refusal_names_cap(capsys, fano_file, command):
    argv = [fano_file if a == "FANO" else a for a in command]
    assert main([*argv, "--cap", "6"]) == 3
    assert capsys.readouterr() == (
        "", "cap exceeded: |E|=7 exceeds subset enumeration cap 6; raise it with --cap\n")


@pytest.mark.parametrize("rank", ["4", "40"])
def test_growth_exhaustive_refuses_large_geometry_before_building(capsys, monkeypatch, rank):
    # PG(3, 2) has 15 points, one over the fixed table limit; at rank 40
    # building the geometry would run out of memory
    def build(*args):
        raise AssertionError("geometry built before its size check")

    monkeypatch.setattr("matroidlab.constructions.pg", build)
    assert main(["growth", "exhaustive", "--gf", "2", "1", "--rank", rank,
                 "--forbidden", "kn:4", "--cap", "100000000"]) == 3
    assert capsys.readouterr() == (
        "", f"cap exceeded: PG({int(rank) - 1}, 2) has more than 14 points, "
            "the fixed limit of its rank table\n")


def test_growth_alphat_refusal_names_no_flag(capsys, tmp_path):
    path = tmp_path / "u3_13.mat"
    path.write_text(write_matrix(Matrix(make_field(13, 1), range(3), range(13), [
        [1] * 13, list(range(13)), [i * i % 13 for i in range(13)]])))
    assert main(["growth", "alphat", str(path), "--alpha", "1", "--t", "0"]) == 3
    assert capsys.readouterr() == (
        "", "cap exceeded: |E|=13 exceeds subset enumeration cap 12\n")


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
# these paths moved onto the shared echelon kernel.  The girth, cogirth,
# code, threshold, mlsim, growth formula and rank-table construct bytes
# are those printed before their handlers shared one emitter per shape;
# the three-block mlsim bytes, with one and two workers, are those printed
# before each block decoded its distinct error patterns once
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
    "fano": FANO,
    "fano_dual": Matrix(GF2, (0, 1, 2, 3), tuple(range(7)),
                        [[1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1],
                         [0, 0, 1, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1, 0]]),
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
    (["girth", "fano"], '{"value": 3, "witness": [0, 5, 6]}\n'),
    (["cogirth", "fano"], '{"value": 4, "witness": [0, 3, 4, 6]}\n'),
    (["code", "params", "fano"], "n,k,d,rate,rel_dist\n7,3,4,3/7,4/7\n"),
    (["code", "cut", "--kn", "4"],
     "vertices,edges,distance,min_degree,rate_cut,rate_cycle,"
     "delta_stated,delta_degree,holds\n"
     "4,6,3,3,1/2,1/2,1.0,3.0,True\n"),
    (["threshold", "--R", "0.25", "--R", "0.5"],
     "R,theta_binary,theta_graphic,theta_graphic_status\n"
     "0.25,0.2145017448597173,0.1,conjectured\n"
     "0.5,0.1100278644385071,0.028595479208968308,conjectured\n"),
    (["threshold", "--grid", "3", "--rational"],
     "R,theta_binary,theta_graphic,theta_graphic_status\n"
     "0.25,0.2145017448597173,1/10,conjectured\n"
     "0.5,0.1100278644385071,0.028595479208968308,conjectured\n"
     "0.75,0.04169269027397604,0.005128340694606492,conjectured\n"),
    (["mlsim", "fano", "--p", "0.1", "--trials", "2000", "--seed", "3"],
     "p,err,ci_lo,ci_hi,trials,seed\n"
     "0.1,0.10876190476190475,0.08960250658992946,0.1314266716318819,2000,3\n"),
    (["mlsim", "fano_dual", "--workers", "1", "--p", "0.1", "--trials", "40000",
      "--seed", "5"],
     "p,err,ci_lo,ci_hi,trials,seed\n"
     "0.1,0.1503,0.14501821201721213,0.15573911758362766,40000,5\n"),
    (["mlsim", "fano_dual", "--workers", "2", "--p", "0.1", "--trials", "40000",
      "--seed", "5"],
     "p,err,ci_lo,ci_hi,trials,seed\n"
     "0.1,0.1503,0.14501821201721213,0.15573911758362766,40000,5\n"),
    (["growth", "formula", "--rmax", "4"],
     "r,value,pre_asymptotic\n1,1,False\n2,3,False\n3,7,False\n4,15,False\n"),
    (["construct", "uniform", "--m", "2", "--n", "4"],
     '{"ground": [0, 1, 2, 3], "ranks": {"": 0, "0": 1, "0,1": 2, '
     '"0,1,2": 2, "0,1,2,3": 2, "0,1,3": 2, "0,2": 2, "0,2,3": 2, '
     '"0,3": 2, "1": 1, "1,2": 2, "1,2,3": 2, "1,3": 2, "2": 1, '
     '"2,3": 2, "3": 1}}\n'),
    (["construct", "bicircular", "--kn", "4"],
     '{"ground": [0, 1, 2, 3, 4, 5], "ranks": {"": 0, "0": 1, "0,1": '
     '2, "0,1,2": 3, "0,1,2,3": 4, "0,1,2,3,4": 4, "0,1,2,3,4,5": 4, '
     '"0,1,2,3,5": 4, "0,1,2,4": 4, "0,1,2,4,5": 4, "0,1,2,5": 4, '
     '"0,1,3": 3, "0,1,3,4": 4, "0,1,3,4,5": 4, "0,1,3,5": 4, '
     '"0,1,4": 3, "0,1,4,5": 4, "0,1,5": 3, "0,2": 2, "0,2,3": 3, '
     '"0,2,3,4": 4, "0,2,3,4,5": 4, "0,2,3,5": 4, "0,2,4": 3, '
     '"0,2,4,5": 4, "0,2,5": 3, "0,3": 2, "0,3,4": 3, "0,3,4,5": 4, '
     '"0,3,5": 3, "0,4": 2, "0,4,5": 3, "0,5": 2, "1": 1, "1,2": 2, '
     '"1,2,3": 3, "1,2,3,4": 4, "1,2,3,4,5": 4, "1,2,3,5": 4, '
     '"1,2,4": 3, "1,2,4,5": 4, "1,2,5": 3, "1,3": 2, "1,3,4": 3, '
     '"1,3,4,5": 4, "1,3,5": 3, "1,4": 2, "1,4,5": 3, "1,5": 2, "2": '
     '1, "2,3": 2, "2,3,4": 3, "2,3,4,5": 4, "2,3,5": 3, "2,4": 2, '
     '"2,4,5": 3, "2,5": 2, "3": 1, "3,4": 2, "3,4,5": 3, "3,5": 2, '
     '"4": 1, "4,5": 2, "5": 1}}\n'),
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


def test_construct_uniform_refuses_large_n_before_building(capsys, monkeypatch):
    def build(m, n):
        raise AssertionError("uniform built before the cap check")

    monkeypatch.setattr(cli, "uniform", build)
    code = main(["construct", "uniform", "--m", "3", "--n", "3000000"])
    assert code == 3
    assert capsys.readouterr().err == (
        "cap exceeded: |E|=3000000 exceeds subset enumeration cap 12; raise it with --cap\n")


def test_construct_bicircular_refuses_large_kn_before_building(capsys, monkeypatch):
    def build(*args):
        raise AssertionError("K_n built before the cap check")

    monkeypatch.setattr(cli, "complete_graph", build)
    monkeypatch.setattr(cli, "bicircular", build)
    assert main(["construct", "bicircular", "--kn", "300"]) == 3
    assert capsys.readouterr() == (
        "", "cap exceeded: |E|=44850 exceeds subset enumeration cap 12; raise it with --cap\n")


def test_construct_cap_raises_the_rank_table_size(capsys):
    code, out = run(capsys, ["construct", "uniform", "--m", "3", "--n", "13", "--cap", "13"])
    table = json.loads(out)
    assert code == 0 and table["ground"] == list(range(13))
    assert len(table["ranks"]) == 8192
    assert all(r == min(len(S.split(",")) if S else 0, 3) for S, r in table["ranks"].items())
    assert main(["construct", "bicircular", "--kn", "5", "--cap", "9"]) == 3
    assert capsys.readouterr() == (
        "", "cap exceeded: |E|=10 exceeds subset enumeration cap 9; raise it with --cap\n")


@pytest.mark.parametrize("argv,message", [
    (["construct", "kn", "--n", "-2", "--gf", "2", "1"], "K_n needs n >= 0, got -2"),
    (["construct", "bicircular", "--kn", "-300"], "K_n needs n >= 0, got -300"),
    (["code", "cut", "--kn", "-1"], "K_n needs n >= 0, got -1"),
    (["growth", "exhaustive", "--gf", "2", "1", "--rank", "3", "--forbidden", "kn:-1"],
     "K_n needs n >= 0, got -1"),
])
def test_negative_complete_graph_exits_2(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_construct_bicircular_kn_0_is_the_empty_table(capsys):
    assert run(capsys, ["construct", "bicircular", "--kn", "0"]) == (
        0, '{"ground": [], "ranks": {"": 0}}\n')
    assert run(capsys, ["construct", "kn", "--n", "0", "--gf", "2", "1"]) == (
        0, "gf 2 1\nrows \ncols \n")


# a graph with a tree component (edges 0-2), a unicyclic component with a
# 4-cycle and a pendant edge (edges 3-7) and an isolated vertex
PINNED_GRAPH = ("vertices 0 1 2 3 4 5 6 7 8 9\nedge 0 1\nedge 1 2\nedge 1 3\n"
                "edge 4 5\nedge 5 6\nedge 6 7\nedge 4 7\nedge 7 8\n")
PINNED_GF4 = Matrix(GF4, (0, 1), ("a", "b", "c", "d", "e"),
                    [[1, 0, 2, 3, 1], [0, 1, 2, 3, 0]])
# argv -> (exit code, stdout length, SHA-256 of stdout, last stderr line)
EMPTY_SHA = hashlib.sha256(b"").hexdigest()
PINNED_CONSTRUCT = [
    (["construct", "uniform", "--m", "3", "--n", "12"],
     (0, 77887, "6e5236c4e7f4dfb6e55a3ad38ca280c258e125280230dc72cbcf356bceb5d043", "")),
    (["construct", "bicircular", "--graph", "graph"],
     (0, 3633, "99ba84bf690c1c45e458f72e7ee633c8375688b6ab125b5851a2eaa82a1d9326", "")),
    (["construct", "uniform", "--m", "5", "--n", "3"],
     (2, 0, EMPTY_SHA, "error: need 0 <= m <= n")),
    (["construct", "uniform", "--m", "3", "--n", "13"],
     (3, 0, EMPTY_SHA,
      "cap exceeded: |E|=13 exceeds subset enumeration cap 12; raise it with --cap")),
    (["construct", "uniform", "--m", "2", "--n", "5", "--gf", "2", "2"],
     (0, 62, "18489cd7ea2eff71bb5651e9a5371f79551bba1b3311c1d71cafa87acb844a83", "")),
    (["construct", "pg", "--rank", "3", "--gf", "3", "1"],
     (0, 130, "ad27a0f40f02e269735127b31db2b2e82848cd64ce6f456326598a2a8fcc1eb6", "")),
    (["construct", "ag", "--rank", "3", "--gf", "2", "2"],
     (0, 168, "d9a00b30a42ec3c00d6c700ef2bbfb0dd6468a65489c6820c48c45ea57beabf6", "")),
    (["construct", "kn", "--n", "5", "--gf", "3", "1"],
     (0, 125, "2872aecc56559ae7436098acf9509a78c226f16adf3ac193f663b946efdfd03e", "")),
    (["construct", "gammaframe", "--rank", "3", "--gf", "5", "1", "--gamma-order", "2"],
     (0, 95, "97c4cfe90497ed1329bcdd55438208b4a40d73ca891d564af967d718c93cefa6", "")),
    (["dual", "gf4"],
     (0, 74, "1414069a1c9c0b477fc6883e9ceb626b7c14f606fc5a0a05bd1e5f6024f199ad", "")),
]


@pytest.mark.parametrize("argv,expected", PINNED_CONSTRUCT,
                         ids=[" ".join(argv) for argv, _ in PINNED_CONSTRUCT])
def test_construct_and_dual_bytes(capsys, tmp_path, argv, expected):
    paths = {"graph": tmp_path / "g.graph", "gf4": tmp_path / "gf4.mat"}
    paths["graph"].write_text(PINNED_GRAPH)
    paths["gf4"].write_text(write_matrix(PINNED_GF4))
    code = main([str(paths.get(a, a)) for a in argv])
    captured = capsys.readouterr()
    out, err = captured.out, captured.err.strip().splitlines()
    assert (code, len(out), hashlib.sha256(out.encode()).hexdigest(),
            err[-1] if err else "") == expected


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


# template files for the `template` pins: an empty subfield template over
# GF(3); GF(4) over GF(2) with C, D and Y non-empty; the trivial GF(2) frame
# template; a GF(4) frame template with Gamma = GF(4)*; and a GF(2) frame
# template with every set non-empty
PINNED_TEMPLATES = {
    "sub3": "template subfield\ngf 3 1\nsubfield 3 1\nA1\nA2\nlambda\ndelta\n",
    "sub4cdy": ("template subfield\ngf 2 2\npoly 1 1 1\nsubfield 2 1\nC c\nD d\nY y\n"
                "A1\n2\nA2\n1\nlambda\ndelta\n1 1\n"),
    "frame2": "template frame\ngf 2 1\ngamma 1\nA1\nlambda\ndelta\n",
    "frame4": "template frame\ngf 2 2\npoly 1 1 1\ngamma 1 2 3\nA1\nlambda\ndelta\n",
    "frame2c": ("template frame\ngf 2 1\ngamma 1\nC c\nD d\nX x\nY0 y0\nY1 y1\n"
                "A1\n1 1 0\n0 1 1\nlambda\n1\ndelta\n1 1 0\n"),
}
PINNED_TEMPLATE_MATRICES = {
    "u24gf3": Matrix(GF3, (0, 1), tuple(range(4)), [[1, 0, 1, 1], [0, 1, 1, 2]]),
    "u24gf4": Matrix(GF4, (0, 1), tuple(range(4)), [[1, 0, 1, 1], [0, 1, 2, 3]]),
    "fano": FANO,
}
# argv -> (number of matroids, SHA-256 of stdout) for enumerate, stdout for
# member; recorded before enumeration stopped re-checking conformance and
# row-reducing candidates whose echelon form it already holds
PINNED_TEMPLATE_STDOUT = [
    (["enumerate", "sub3", "--rows", "2", "--cols", "2"],
     (81, "7bffe2736cab228690bf26999fc2c15d15096228567901142bf35bab96996a4c")),
    (["enumerate", "sub4cdy", "--rows", "2", "--cols", "2"],
     (64, "81e444663dbe432d80a3be1fda4eedb4a3d43eb6d92eff562299a69910a1e202")),
    (["enumerate", "frame4", "--rows", "2", "--cols", "3"],
     (41, "517531a7be02f5e3d61c1cb98d83ad9ecdfd36d8d62a66944a0d77780587671e")),
    (["enumerate", "frame2c", "--rows", "3", "--cols", "2"],
     (6, "38146d556e04f26041577e6457703720b88d9d626ff21d83ca724869eef7d686")),
    (["member", "sub3", "u24gf3"], '{"member": true}\n'),
    (["member", "sub4cdy", "u24gf4"], '{"member": false}\n'),
    (["member", "frame2", "fano"], '{"member": false}\n'),
]


@pytest.mark.parametrize("argv,expected", PINNED_TEMPLATE_STDOUT,
                         ids=[" ".join(argv) for argv, _ in PINNED_TEMPLATE_STDOUT])
def test_template_enumerate_and_member_stdout_bytes(capsys, tmp_path, argv, expected):
    paths = {}
    for name, text in PINNED_TEMPLATES.items():
        paths[name] = tmp_path / f"{name}.tmpl"
        paths[name].write_text(text)
    for name, A in PINNED_TEMPLATE_MATRICES.items():
        paths[name] = tmp_path / f"{name}.mat"
        paths[name].write_text(write_matrix(A))
    code, out = run(capsys, ["template"] + [str(paths.get(a, a)) for a in argv])
    assert code == 0
    if argv[0] == "member":
        assert out == expected
    else:
        assert (len(json.loads(out)), hashlib.sha256(out.encode()).hexdigest()) == expected
