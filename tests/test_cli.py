"""End-to-end runs of the command-line interface on scenario files."""

import json

import pytest

from qgauss.cli import main


def write_scenario(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


BASE = {
    "backend": {"kind": "free_haar", "window": 4},
    "fock": {"dim_H": 1, "max_degree": 4},
    "word": [{"coeff": "1", "vector": ["1"]} for _ in range(4)],
    "q_values": ["0", "1/2"],
}


def test_moment_limit(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    code, out = run(capsys, "moment", "--scenario", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "limit"
    assert doc["qpoly"] == ["2", "1"]  # 2 + q
    assert doc["evaluations"] == {"0": "2", "1/2": "5/2"}


def test_moment_q_override(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    code, out = run(capsys, "moment", "--scenario", path, "--q=-1/2")
    doc = json.loads(out)
    assert doc["evaluations"] == {"-1/2": "3/2"}


def test_moment_finite_n(tmp_path, capsys):
    doc = dict(BASE, n=3)
    doc["word"] = [{"coeff": "u", "vector": ["1"]},
                   {"coeff": "u*", "vector": ["1"]},
                   {"coeff": "u", "vector": ["1"]},
                   {"coeff": "u*", "vector": ["1"]}]
    doc["backend"] = {"kind": "free_haar", "window": 6}
    path = write_scenario(tmp_path, doc)
    code, out = run(capsys, "moment", "--scenario", path)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["kind"] == "finite_n"
    assert parsed["qpoly"] == ["2", "1/3"]


def test_moment_q_matrix(tmp_path, capsys):
    doc = dict(BASE)
    doc["Q"] = [["1/2"]]
    path = write_scenario(tmp_path, doc)
    code, out = run(capsys, "moment", "--scenario", path)
    parsed = json.loads(out)
    assert parsed["kind"] == "q_matrix"
    assert parsed["value"] == "5/2"


def test_moment_out_file(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    out_path = tmp_path / "result.json"
    code, _ = run(capsys, "moment", "--scenario", path, "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["qpoly"] == ["2", "1"]


def test_dims_json_and_csv(tmp_path, capsys):
    doc = {"backend": {"kind": "free_haar", "window": 5},
           "dims": {"k_max": 1, "max_m_offset": 2}}
    path = write_scenario(tmp_path, doc)
    code, out = run(capsys, "dims", "--scenario", path)
    assert code == 0
    parsed = json.loads(out)
    assert [row["k"] for row in parsed["rows"]] == [0, 1]
    assert all(row["dim_scalar"] <= row["bound"] for row in parsed["rows"])

    code, out = run(capsys, "dims", "--scenario", path, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "k,dim_scalar,bound,stabilized_at_m"


def test_verify_oracle_suite(capsys):
    code, out = run(capsys, "verify", "oracle")
    assert code == 0
    for line in out.strip().splitlines():
        assert json.loads(line)["ok"]


def test_verify_semigroup_suite(capsys):
    code, out = run(capsys, "verify", "semigroup")
    assert code == 0


def test_bad_scenario_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _ = run(capsys, "moment", "--scenario", str(p))
    assert code == 2


def test_unknown_generator_exit_code(tmp_path, capsys):
    doc = dict(BASE)
    doc["word"] = [{"coeff": "nope", "vector": ["1"]}]
    path = write_scenario(tmp_path, doc)
    code, _ = run(capsys, "moment", "--scenario", path)
    assert code == 2


def test_vector_dimension_mismatch(tmp_path, capsys):
    doc = dict(BASE)
    doc["word"] = [{"coeff": "1", "vector": ["1", "0"]}]
    path = write_scenario(tmp_path, doc)
    code, _ = run(capsys, "moment", "--scenario", path)
    assert code == 2


def test_missing_scenario_file(capsys):
    code, _ = run(capsys, "moment", "--scenario", "/nonexistent.json")
    assert code == 2


def test_non_rational_q_override_exit_code(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    for bad in ("abc", "1/0"):
        code = main(["moment", "--scenario", path, f"--q={bad}"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--q" in captured.err and not captured.out


def test_non_integer_enumeration_cap_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QGAUSS_ENUM_CAP", "x")
    doc = dict(BASE, dims={"k_max": 1, "max_m_offset": 1})
    path = write_scenario(tmp_path, doc)
    code = main(["dims", "--scenario", path])
    captured = capsys.readouterr()
    assert code == 2
    assert "QGAUSS_ENUM_CAP" in captured.err and "'x'" in captured.err


def _perm_backend(**fields):
    return {"kind": "perm_group", "d": 1, "window": 4, **fields}


def _tensor_backend(C):
    return {"kind": "tensor", "window": 4, "C": C}


@pytest.mark.parametrize("change, field", [
    ({"word": [{"coeff": "1"}]}, "word[0].vector"),
    ({"backend": _tensor_backend({"kind": "cyclic"})}, "backend.C.n"),
    ({"backend": _tensor_backend({"kind": "cyclic", "n": "x"})}, "backend.C.n"),
    ({"Q": [["1/2"]], "word": [{"vector": ["1"], "color": 0},
                               {"vector": ["1"], "color": 1}]}, "word[1].color"),
    ({"word": ["u"]}, "word[0]"),
    ({"backend": _perm_backend(d="x")}, "backend.d"),
    ({"backend": _perm_backend(window=2.5)}, "backend.window"),
])
def test_malformed_scenario_names_the_field(tmp_path, capsys, change, field):
    path = write_scenario(tmp_path, dict(BASE, **change))
    code = main(["moment", "--scenario", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {field}:") and not captured.out
