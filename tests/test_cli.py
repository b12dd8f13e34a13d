import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from permpml import approx
from permpml.cli import build_parser, main
from permpml.estimator import approximate_pml
from permpml.permanent import matrix_to_json, strict_json
from permpml.profiles import Profile

NO_MATCHING = [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]


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
    # 21^5 states for the exact evaluation of the output: over the limit
    pfile = tmp_path / "p.json"
    pfile.write_text(Profile((1, 2, 3, 4, 5), (20,) * 5).to_json())
    assert main(["pml", str(pfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: grouped evaluation needs")


def test_perm_compare_closed_forms(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    mfile.write_text(matrix_to_json(np.ones((2, 2))))
    code, out = run(capsys, ["perm-compare", str(mfile)])
    assert code == 0
    cells = out.strip().split(",")
    assert cells[0] == "2"
    assert float(cells[1]) == pytest.approx(math.log(2))
    assert float(cells[3]) == pytest.approx(2 * math.log(2) - 2)
    assert abs(float(cells[4])) <= 1e-8  # bethe(J2) = 1

    mfile.write_text(matrix_to_json(np.eye(3)))
    code, out = run(capsys, ["perm-compare", str(mfile)])
    cells = out.strip().split(",")
    assert float(cells[1]) == pytest.approx(0.0)
    assert float(cells[2]) == pytest.approx(0.0, abs=1e-9)   # sinkhorn
    assert float(cells[3]) == pytest.approx(-3.0)            # scaled sinkhorn
    assert float(cells[4]) == pytest.approx(0.0, abs=1e-8)   # bethe


def test_perm_compare_block_gap(tmp_path, capsys):
    from permpml.approx import block_ones_matrix

    mfile = tmp_path / "m.json"
    mfile.write_text(matrix_to_json(block_ones_matrix(12, 3)))
    code, out = run(capsys, ["perm-compare", str(mfile)])
    cells = out.strip().split(",")
    gap = float(cells[5])
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
    point.write_text(json.dumps([1.0]))
    code, out = run(capsys, ["sample", str(point), "3", "--seed", "0"])
    assert code == 0 and out.split() == ["s0", "s0", "s0"]
    assert main(["sample", str(dist), "0", "--seed", "1"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([0.5, 0.4]))
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
    mfile = tmp_path / "m.json"
    mfile.write_text(matrix_to_json(np.ones((2, 2))))
    code, out = run(capsys, ["perm-compare", str(mfile), "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 2
    assert obj["log_perm"] == pytest.approx(math.log(2))


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
    for argv in (["pml", pfile], ["oracle-pml", pfile], ["perm-compare", mfile, "--format", "json"]):
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
    code, out = run(capsys, ["perm-compare", str(mfile), "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["log_perm"] is None and obj["gap_bethe"] is None
    assert obj["log_scaled_sinkhorn"] <= obj["log_bethe"] <= obj["log_sinkhorn"]
    code, out = run(capsys, ["perm-compare", str(mfile)])
    cells = out.strip().split(",")
    assert cells[0] == "20" and cells[1] == "" and cells[5] == ""


def test_perm_compare_zero_row_writes_nulls(tmp_path, capsys):
    # a zero row is the simplest support with no perfect matching; every
    # method answers the zero permanent exactly, without a Sinkhorn sweep
    zero_row = np.ones((3, 3))
    zero_row[1] = 0.0
    mfile = tmp_path / "m.json"
    for m in (zero_row, NO_MATCHING):
        mfile.write_text(matrix_to_json(m))
        code, out = run(capsys, ["perm-compare", str(mfile), "--format", "json"])
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
    code, out = run(capsys, ["perm-compare", str(mfile), "--format", "json"])
    assert code == 3
    obj = json.loads(out)
    assert obj["sinkhorn_converged"] is False
    assert obj["log_sinkhorn"] < obj["log_perm"]
    code, out = run(capsys, ["perm-compare", str(mfile)])
    assert code == 3
    assert out.strip().split(",")[7:] == ["false", str(obj["bethe_converged"]).lower()]

    mfile.write_text(matrix_to_json(np.ones((2, 2))))
    code, out = run(capsys, ["perm-compare", str(mfile), "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["sinkhorn_converged"] is obj["bethe_converged"] is True


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


@pytest.mark.parametrize("step", ["0", "-0.5", "1.5"])
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
