import json
import math
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from permpml import approx
from permpml.cli import build_parser, main
from permpml.estimator import approximate_pml
from permpml.permanent import matrix_to_json, strict_json
from permpml.profiles import Profile

NO_MATCHING = [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
PROFILE_VERBS = ["pml", "oracle-pml"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def refuse(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def test_profile_command(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("a\nb\nb\nc\n")
    code, out = run(capsys, ["profile", str(seq)])
    assert code == 0
    assert json.loads(out) == {"freqs": [1, 2], "counts": [2, 1]}

    seq.write_text("a\n")
    code, out = run(capsys, ["profile", str(seq)])
    assert code == 0
    assert json.loads(out) == {"freqs": [1], "counts": [1]}


def test_profile_empty_file_exits_2(tmp_path, capsys):
    seq = tmp_path / "empty.txt"
    seq.write_text("")
    assert main(["profile", str(seq)]) == 2
    capsys.readouterr()


def test_pml_command(tmp_path, capsys):
    pfile = tmp_path / "p.json"
    pfile.write_text(Profile((1,), (2,)).to_json())
    code, out = run(capsys, ["pml", str(pfile)])
    assert code == 0
    obj = json.loads(out)
    assert sum(obj["distribution"]) == pytest.approx(1.0)
    assert obj["log_profile_probability"] > math.log(0.25)

    pfile.write_text(Profile((1,), (1,)).to_json())
    code, out = run(capsys, ["pml", str(pfile)])
    assert code == 0
    obj = json.loads(out)
    assert obj["log_profile_probability"] == pytest.approx(0.0, abs=1e-9)


def test_pml_validation_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["pml", str(bad)]) == 2
    capsys.readouterr()


def test_pml_past_grouped_limits_exits_2(tmp_path, capsys):
    # a Zipf sample at n = 200: the exact evaluation of its output needs
    # 3.7e6 states on its cheaper side, over the limit
    pfile = tmp_path / "p.json"
    p = Profile((1, 2, 3, 4, 5, 7, 8, 10, 12, 15, 18, 31), (34, 12, 6, 2, 1, 1, 1, 2, 1, 1, 1, 1))
    pfile.write_text(p.to_json())
    assert main(["pml", str(pfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: grouped evaluation needs")


def test_integral_floats_in_a_profile_read_as_ints(tmp_path, capsys):
    # a profile of integral floats is the profile of those integers: both
    # verbs exit 0 and write what they write for the integers ("n": 4)
    outputs = []
    for text in ('{"freqs": [1, 2], "counts": [2, 1]}', '{"freqs": [1.0, 2.0], "counts": [2.0, 1.0]}'):
        pfile = tmp_path / "p.json"
        pfile.write_text(text)
        outputs.append([run(capsys, [verb, str(pfile)]) for verb in PROFILE_VERBS])
    ints, floats = outputs
    assert floats == ints
    assert [code for code, _ in floats] == [0, 0]
    n = json.loads(floats[0][1])["params"]["n"]
    assert n == 4 and type(n) is int


def test_pml_on_a_huge_n_exits_2(tmp_path, capsys):
    # n = 10^16 asks for about 2 * 10^8 grid levels: refused before any is built
    pfile = tmp_path / "p.json"
    pfile.write_text('{"freqs": [10000000000000000], "counts": [1]}')
    start = time.process_time()
    assert main(["pml", str(pfile)]) == 2
    assert time.process_time() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_perm_compare_closed_forms(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    mfile.write_text(matrix_to_json(np.ones((2, 2))))
    code, out = run(capsys, ["perm-compare", str(mfile)])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 2
    assert obj["log_perm"] == pytest.approx(math.log(2))
    assert obj["log_scaled_sinkhorn"] == pytest.approx(2 * math.log(2) - 2)
    assert abs(obj["log_bethe"]) <= 1e-8  # bethe(J2) = 1

    mfile.write_text(matrix_to_json(np.eye(3)))
    code, out = run(capsys, ["perm-compare", str(mfile)])
    obj = json.loads(out)
    assert obj["log_perm"] == pytest.approx(0.0)
    assert obj["log_sinkhorn"] == pytest.approx(0.0, abs=1e-9)
    assert obj["log_scaled_sinkhorn"] == pytest.approx(-3.0)
    assert obj["log_bethe"] == pytest.approx(0.0, abs=1e-8)


def test_perm_compare_block_gap(tmp_path, capsys):
    from permpml.approx import block_ones_matrix

    mfile = tmp_path / "m.json"
    mfile.write_text(matrix_to_json(block_ones_matrix(12, 3)))
    code, out = run(capsys, ["perm-compare", str(mfile)])
    gap = json.loads(out)["gap_bethe"]
    assert gap == pytest.approx(3 * math.log(24) - 3 * (4 * math.log(4) + 12 * math.log(0.75)), abs=1e-4)


def test_sample_round_trip(tmp_path, capsys):
    dist = tmp_path / "d.json"
    dist.write_text(json.dumps({"probs": [0.5, 0.5]}))
    out_path = tmp_path / "seq.txt"
    assert main(["sample", str(dist), "12", "--seed", "7", "--out", str(out_path)]) == 0
    first = out_path.read_text()
    assert main(["sample", str(dist), "12", "--seed", "7", "--out", str(out_path)]) == 0
    assert out_path.read_text() == first  # deterministic
    code, out = run(capsys, ["profile", str(out_path)])
    assert code == 0
    prof = json.loads(out)
    assert sum(f * c for f, c in zip(prof["freqs"], prof["counts"])) == 12

    point = tmp_path / "point.json"
    point.write_text(json.dumps({"probs": [1.0]}))
    code, out = run(capsys, ["sample", str(point), "3", "--seed", "0"])
    assert code == 0 and out.split() == ["s0", "s0", "s0"]
    assert main(["sample", str(dist), "0", "--seed", "1"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"probs": [0.5, 0.4]}))
    assert main(["sample", str(bad), "3", "--seed", "1"]) == 2
    capsys.readouterr()


def test_oracle_pml_command(tmp_path, capsys):
    pfile = tmp_path / "p.json"
    pfile.write_text(Profile((2,), (1,)).to_json())
    code, out = run(capsys, ["oracle-pml", str(pfile)])
    assert code == 0
    obj = json.loads(out)
    assert obj["log_profile_probability"] == pytest.approx(0.0, abs=1e-12)
    assert obj["distribution"] == [1.0]


def test_perm_compare_json_format(tmp_path, capsys):
    # the record is one JSON object on one line, its keys in this order
    mfile = tmp_path / "m.json"
    mfile.write_text(matrix_to_json(np.ones((2, 2))))
    code, out = run(capsys, ["perm-compare", str(mfile)])
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("}\n")
    assert list(json.loads(out)) == [
        "n",
        "log_perm",
        "log_sinkhorn",
        "log_scaled_sinkhorn",
        "log_bethe",
        "gap_bethe",
        "gap_scaled_sinkhorn",
        "sinkhorn_converged",
        "bethe_converged",
    ]


def test_perm_compare_json_writes_null_for_non_finite_values():
    # the record perm-compare builds for a matrix with no perfect matching
    record = {
        "n": 3,
        "log_perm": -math.inf,
        "log_sinkhorn": 0.5,
        "log_bethe": -math.inf,
        "gap_bethe": math.nan,
        "gap_scaled_sinkhorn": -math.inf,
    }

    obj = json.loads(strict_json(record), parse_constant=refuse)
    assert obj == {
        "n": 3,
        "log_perm": None,
        "log_sinkhorn": 0.5,
        "log_bethe": None,
        "gap_bethe": None,
        "gap_scaled_sinkhorn": None,
    }


def test_every_writer_is_strict_json(tmp_path, capsys):
    # no perfect matching: every approximation is the exact zero permanent, log -inf
    p = Profile((1, 2), (2, 1))
    result = approximate_pml(p)
    methods = (approx.sinkhorn_permanent, approx.scaled_sinkhorn_permanent, approx.bethe_permanent)
    reports = [f(NO_MATCHING) for f in methods]
    texts = [
        matrix_to_json(NO_MATCHING),
        p.to_json(),
        result.to_json(),
        result.trace.to_json(),
        result.trace.final.to_json(),
        *(r.to_json() for r in reports),
    ]
    pfile, mfile = tmp_path / "p.json", tmp_path / "m.json"
    pfile.write_text(p.to_json())
    mfile.write_text(matrix_to_json(NO_MATCHING))
    for argv in (["pml", pfile], ["oracle-pml", pfile], ["perm-compare", mfile]):
        texts.append(run(capsys, list(map(str, argv)))[1])
    for text in texts:
        json.loads(text, parse_constant=refuse)
    assert [json.loads(r.to_json())["log_value"] for r in reports] == [None] * 3
    # a profile of numpy integers is written as the same profile of Python ints
    numpy_p = Profile(tuple(np.array([1, 2])), tuple(np.array([2, 1])))
    for got, want in ((numpy_p.to_json(), p.to_json()), (approximate_pml(numpy_p).to_json(), result.to_json())):
        assert got == want  # so it is strict JSON too


def test_perm_compare_past_exact_limits(tmp_path, capsys):
    # all 20 columns distinct: past the exact dynamic program's work limit
    mfile = tmp_path / "m.json"
    mfile.write_text(matrix_to_json(np.random.default_rng(3).uniform(0.5, 1.0, (20, 20))))
    code, out = run(capsys, ["perm-compare", str(mfile)])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 20
    assert obj["log_perm"] is obj["gap_bethe"] is obj["gap_scaled_sinkhorn"] is None
    assert obj["log_scaled_sinkhorn"] <= obj["log_bethe"] <= obj["log_sinkhorn"]


def test_perm_compare_zero_row_writes_nulls(tmp_path, capsys):
    # a zero row is the simplest support with no perfect matching; every
    # method answers the zero permanent exactly, without a Sinkhorn sweep
    zero_row = np.ones((3, 3))
    zero_row[1] = 0.0
    mfile = tmp_path / "m.json"
    for m in (zero_row, NO_MATCHING):
        mfile.write_text(matrix_to_json(m))
        code, out = run(capsys, ["perm-compare", str(mfile)])
        assert code == 0
        obj = json.loads(out)
        assert obj.pop("n") == 3
        assert obj.pop("sinkhorn_converged") is obj.pop("bethe_converged") is True
        assert set(obj.values()) == {None}, obj


def test_perm_compare_exits_3_when_a_solver_does_not_converge(tmp_path, capsys, monkeypatch):
    # Sinkhorn's residual on this block falls like 1/sweeps: 500 sweeps leave
    # it near 1e-3, and its value below the permanent it should bound
    monkeypatch.setattr(approx, "SINKHORN_MAX_ITER", 500)
    mfile = tmp_path / "m.json"
    mfile.write_text(matrix_to_json(np.array([[1e-200, 1e-200], [1e-200, 1.0]])))
    code, out = run(capsys, ["perm-compare", str(mfile)])
    assert code == 3
    obj = json.loads(out)
    assert obj["sinkhorn_converged"] is False
    assert obj["log_sinkhorn"] < obj["log_perm"]

    mfile.write_text(matrix_to_json(np.ones((2, 2))))
    code, out = run(capsys, ["perm-compare", str(mfile)])
    assert code == 0
    obj = json.loads(out)
    assert obj["sinkhorn_converged"] is obj["bethe_converged"] is True


def test_perm_compare_scales_the_matrix_once(tmp_path, capsys, monkeypatch):
    # Bethe starts from the Sinkhorn report the command holds, so the sweeps
    # run once, and its value is the one Bethe reaches from its own scaling
    monkeypatch.setattr(approx, "SINKHORN_MAX_ITER", 500)
    a = np.array([[1e-200, 1e-200], [1e-200, 1.0]])
    bethe = approx.bethe_permanent(a)
    scalings = []
    scale = approx._scale
    monkeypatch.setattr(approx, "_scale", lambda am: scalings.append(am) or scale(am))
    mfile = tmp_path / "m.json"
    mfile.write_text(matrix_to_json(a))
    code, out = run(capsys, ["perm-compare", str(mfile)])
    assert code == 3 and len(scalings) == 1
    obj = json.loads(out)
    assert (obj["log_bethe"], obj["bethe_converged"]) == (bethe.log_value, bethe.converged)


def test_perm_compare_missing_rows_exits_2(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({"cols": 2, "data": [1.0, 1.0, 1.0, 1.0]}))
    assert main(["perm-compare", str(mfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_perm_compare_non_square_exits_2(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    mfile.write_text(matrix_to_json(np.ones((2, 3))))
    assert main(["perm-compare", str(mfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "square" in captured.err


def test_oracle_pml_missing_freqs_exits_2(tmp_path, capsys):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"counts": [1]}))
    assert main(["oracle-pml", str(pfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize(
    "verbs, text",
    [
        (PROFILE_VERBS, "[1, 2]"),
        (PROFILE_VERBS, "3"),
        (PROFILE_VERBS, '{"freqs": ["a"], "counts": [1]}'),
        (PROFILE_VERBS, '{"freqs": 3, "counts": [1]}'),
        (PROFILE_VERBS, '{"freqs": [null], "counts": [1]}'),
        (PROFILE_VERBS, '{"freqs": [1e400], "counts": [1]}'),
        (PROFILE_VERBS, '{"freqs": [true], "counts": [1]}'),
        (["perm-compare"], "[1, 2]"),
        (["perm-compare"], "3"),
        (["perm-compare"], '{"rows": "1", "cols": 1, "data": [1]}'),
        (["perm-compare"], '{"rows": 1, "cols": 1, "data": [{"a": 1}]}'),
        (["perm-compare"], '{"rows": 1, "cols": 1, "data": 1}'),
        (["perm-compare"], '{"rows": 1, "cols": 1, "data": [1%s]}' % ("0" * 400)),
        (["sample"], "[1, 2]"),
        (["sample"], "3"),
        (["sample"], "[1.0]"),
        (["sample"], '{"probs": {"a": 1}}'),
        (["sample"], '{"probs": [{"a": 1}]}'),
        (["sample"], '{"probs": ["a"]}'),
    ],
)
def test_malformed_input_file_exits_2(tmp_path, capsys, verbs, text):
    # every reader takes one JSON object holding its keys: anything else is an
    # input error, exit 2 with one error line, and never a traceback
    path = tmp_path / "in.json"
    path.write_text(text)
    for verb in verbs:
        extra = ["3", "--seed", "1"] if verb == "sample" else []
        assert main([verb, str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:"), (verb, captured.err)


def test_oracle_pml_max_support_below_the_observed_symbols_exits_2(tmp_path, capsys):
    pfile = tmp_path / "p.json"
    pfile.write_text(Profile((1,), (3,)).to_json())
    assert main(["oracle-pml", str(pfile), "--max-support", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "max_support 2" in captured.err and "3 observed" in captured.err


@pytest.mark.parametrize("step", ["0", "-0.5", "1.5", "0.10000000005"])
def test_oracle_pml_bad_grid_step_exits_2(tmp_path, capsys, step):
    pfile = tmp_path / "p.json"
    pfile.write_text(Profile((2,), (1,)).to_json())
    assert main(["oracle-pml", str(pfile), "--grid-step", step]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and "grid_step" in captured.err


def test_oracle_pml_grid_past_the_state_limit_exits_2(tmp_path, capsys):
    # three symbols seen: supports 3 to 6 at step 0.002 are over 10^8 candidates
    pfile = tmp_path / "p.json"
    pfile.write_text(Profile((2,), (3,)).to_json())
    assert main(["oracle-pml", str(pfile), "--grid-step", "0.002"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and "grid_step" in captured.err


def test_readme_cli_lines_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("permpml ")]
    assert len(lines) >= 5
    for line in lines:
        argv = shlex.split(line)[1:]
        assert build_parser().parse_args(argv).command == argv[0]
