"""End-to-end runs of the command-line interface on scenario files."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from qgauss import algebra, dimensions, matmodel
from qgauss.cli import MATMODEL_Z, main


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
    doc = {key: v for key, v in BASE.items() if key != "q_values"}
    doc["Q"] = [["1/2"]]
    path = write_scenario(tmp_path, doc)
    code, out = run(capsys, "moment", "--scenario", path)
    parsed = json.loads(out)
    assert parsed["kind"] == "q_matrix"
    assert parsed["value"] == "5/2"


def test_q_matrix_moment_refuses_q_values(tmp_path, capsys):
    """A Q-matrix moment has no q to evaluate at: q_values, or --q, with
    Q exits 2 and names q_values, where it was once ignored."""
    doc = {"Q": [["1/2"]], "word": [{"vector": ["1"]}] * 2}
    for extra, argv in (({"q_values": ["1/3"]}, []), ({}, ["--q=1/3"])):
        path = write_scenario(tmp_path, dict(doc, **extra))
        code = main(["moment", "--scenario", path] + argv)
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err.startswith("error: q_values:")
        assert "--q" in captured.err
    path = write_scenario(tmp_path, dict(doc, q_values=[]))
    code, out = run(capsys, "moment", "--scenario", path)
    assert code == 0 and json.loads(out)["value"] == "1"


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


@pytest.mark.parametrize("dims, field", [
    ({"k_max": -1}, "dims.k_max"),
    ({"max_m_offset": -2}, "dims.max_m_offset"),
    ({"k_max": "x"}, "dims.k_max"),
])
def test_bad_dims_fields_name_the_field(tmp_path, capsys, dims, field):
    path = write_scenario(tmp_path, {"backend": {"kind": "free_haar"},
                                     "dims": dims})
    code = main(["dims", "--scenario", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {field}:") and not captured.out


@pytest.mark.parametrize("backend, dims, message", [
    ({"kind": "free_haar", "window": 1024}, {"k_max": 1000000},
     "needs window >="),
    ({"kind": "perm_group", "d": 1, "window": 6},
     {"k_max": 5, "max_m_offset": 4}, "needs window >="),
    # inside the window, but a span of words of length 31 would not finish
    ({"kind": "free_haar", "window": 1024}, {"k_max": 1, "max_m_offset": 30},
     "error: dims.max_m_offset:"),
    # k_max and the word length each within their guard, but together
    # over the span-work guard: these took 65 s and 35 s
    ({"kind": "free_haar", "window": 1024}, {"k_max": 4, "max_m_offset": 8},
     "error: dims.max_m_offset: 8 with k_max 4 needs an estimated"),
    ({"kind": "free_haar", "window": 1024}, {"k_max": 5, "max_m_offset": 6},
     "error: dims.max_m_offset: 6 with k_max 5 needs an estimated"),
], ids=["backend0-dims0", "backend1-dims1", "backend2-dims2", "joint-k4-off8",
        "joint-k5-off6"])
def test_oversized_dims_fail_before_any_span(tmp_path, capsys, monkeypatch,
                                             backend, dims, message):
    spans = []
    monkeypatch.setattr(dimensions, "span_Dk",
                        lambda *args, **kw: spans.append(args))
    path = write_scenario(tmp_path, {"backend": backend, "dims": dims})
    code = main(["dims", "--scenario", path])
    captured = capsys.readouterr()
    assert code == 2 and not spans
    assert message in captured.err and not captured.out


def test_dims_over_the_span_guard_fail_fast(tmp_path, capsys, monkeypatch):
    # inside the window, but free-Haar spans grow as 3^k: k = 20 would not
    # finish
    spans = []
    monkeypatch.setattr(dimensions, "span_Dk",
                        lambda *args, **kw: spans.append(args))
    path = write_scenario(tmp_path, {
        "backend": {"kind": "free_haar", "window": 1024},
        "dims": {"k_max": 20, "max_m_offset": 0}})
    code = main(["dims", "--scenario", path])
    captured = capsys.readouterr()
    assert code == 2 and not spans and not captured.out
    assert captured.err.startswith("error: dims.k_max:")


def test_verify_oracle_suite(capsys):
    code, out = run(capsys, "verify", "oracle")
    assert code == 0
    for line in out.strip().splitlines():
        assert json.loads(line)["ok"]


def test_verify_semigroup_suite(capsys):
    code, out = run(capsys, "verify", "semigroup")
    assert code == 0


def test_verify_matmodel_catches_a_biased_estimator(capsys, monkeypatch):
    # sample with every Q negated while the exact finite-n targets keep
    # Q: at Q = 1/2 and the default seed the mean lies about 20 standard
    # errors off its target.  mc_moment's one walk of the terms feeds
    # both, so the exact sum it builds is made to weigh its classes by
    # the unnegated Q.
    sample, expectation = matmodel.mc_moment, matmodel._ExactSum.expectation

    def negated(Qm):
        return [[-x for x in row] for row in Qm]

    def biased(word, Qms, **kw):
        with monkeypatch.context() as m:
            m.setattr(matmodel._ExactSum, "expectation",
                      lambda self, Qm, n: expectation(self, negated(Qm), n))
            return sample(word, [negated(Qm) for Qm in Qms], **kw)

    monkeypatch.setattr(matmodel, "mc_moment", biased)
    code, out = run(capsys, "verify", "matmodel")
    assert code == 1
    z = {c["check"]: c["z"] for c in map(json.loads, out.splitlines())}
    assert abs(z["mc s^4 Q=1/2"]) > MATMODEL_Z
    assert abs(z["mc s^4 Q=0"]) <= MATMODEL_Z


def test_bad_scenario_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _ = run(capsys, "moment", "--scenario", str(p))
    assert code == 2


def test_scenario_that_is_not_utf8_exits_2(tmp_path, capsys):
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe{}")
    assert main(["moment", "--scenario", str(p)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: scenario is not valid JSON: 'utf-8' codec can't decode")


def test_scenario_nested_too_deeply_exits_2(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000 + "]" * 100000)
    assert main(["dims", "--scenario", str(p)]) == 2
    assert capsys.readouterr().err == \
        "error: scenario nests too deeply to parse\n"


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
    ({"Q": [["0", "0"], []]}, "Q[1]"),
    ({"word": [{"vector": [float("inf")]}]}, "word[0].vector[0]"),
    ({"backend": _tensor_backend({"kind": "cyclic", "n": 0})}, "backend.C.n"),
    ({"n": 0}, "n"),
    ({"n": -1}, "n"),
    ({"Q": [["1/2"]], "n": 1}, "n"),
    ({"Q": [["1", "1/2"], ["0", "1"]]}, "Q[0][1]"),
    ({"Q": [["3/2"]]}, "Q[0][0]"),
    ({"word": [{"vector": [True]}]}, "word[0].vector[0]"),
    ({"word": [{"vector": [0.1]}]}, "word[0].vector[0]"),
    ({"q_values": [0.1]}, "q_values[0]"),
])
def test_malformed_scenario_names_the_field(tmp_path, capsys, change, field):
    path = write_scenario(tmp_path, dict(BASE, **change))
    code = main(["moment", "--scenario", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {field}:") and not captured.out


@pytest.mark.parametrize("change, field, accepted", [
    # a two-colour Q-matrix word whose colours were misspelled
    ({"Q": [["1", "0"], ["0", "1"]],
      "word": [{"vector": ["1"], "colour": 0}, {"vector": ["1"], "colour": 1},
               {"vector": ["1"], "colour": 0}, {"vector": ["1"], "colour": 1}]},
     "word[0].colour", "coeff, vector, color"),
    ({"dims": {"kmax": 0}}, "dims.kmax", "k_max, max_m_offset"),
    ({"colour": 1}, "colour", "backend, fock, word, q_values, n, Q, dims"),
    ({"fock": {"dim_H": 1, "maxdegree": 4}}, "fock.maxdegree",
     "dim_H, inner, max_degree"),
    ({"backend": {"kind": "free_haar", "d": 2}}, "backend.d", "kind, window"),
    ({"backend": _perm_backend(B={"kind": "trivial"})}, "backend.B",
     "kind, window, d"),
    ({"backend": _tensor_backend({"kind": "trivial", "n": 3})}, "backend.C.n",
     "kind"),
    ({"backend": {"kind": "tensor", "B": {"kind": "cyclic", "n": 2,
                                          "order": 2}}}, "backend.B.order",
     "kind, n"),
])
def test_unknown_scenario_key_names_its_path(tmp_path, capsys, change, field,
                                             accepted):
    path = write_scenario(tmp_path, dict(BASE, **change))
    code = main(["moment", "--scenario", path])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == (f"error: {field}: unknown key (accepted: "
                            f"{accepted})\n")


DIMS = {"backend": {"kind": "free_haar", "window": 4},
        "dims": {"k_max": 1, "max_m_offset": 2}}


@pytest.mark.parametrize("command, key, value", [
    ("dims", "word", BASE["word"]), ("dims", "fock", BASE["fock"]),
    ("dims", "n", 2), ("dims", "Q", [["1/2"]]), ("dims", "q_values", ["1/3"]),
    ("moment", "dims", DIMS["dims"])])
def test_each_command_refuses_the_keys_it_does_not_read(tmp_path, capsys,
                                                        command, key, value):
    doc, reads = {"dims": (DIMS, "backend, dims"),
                  "moment": (BASE, "backend, fock, word, q_values, n, Q")}[
                      command]
    path = write_scenario(tmp_path, dict(doc, **{key: value}))
    code = main([command, "--scenario", path])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == (f"error: {key}: not read by qgauss {command} "
                            f"(it reads: {reads})\n")
    # without the key, the command runs
    assert main([command, "--scenario", write_scenario(tmp_path, doc)]) == 0


def test_symmetric_algebra_is_never_listed(tmp_path, capsys, monkeypatch):
    # S_10 has 10! elements; TensorBackend draws only the first two from
    # C, to find its generator, and nothing else lists the group
    drawn = []
    iterate = algebra.Elements.__iter__

    def counting(self):
        for g in iterate(self):
            drawn.append(g)
            yield g

    monkeypatch.setattr(algebra.Elements, "__iter__", counting)
    word = [{"coeff": "g", "vector": ["1"]}] * 2
    backend = _tensor_backend({"kind": "symmetric", "n": 10})
    path = write_scenario(tmp_path, dict(BASE, backend=backend, word=word))
    code, _ = run(capsys, "moment", "--scenario", path)
    assert code == 0
    assert len(drawn) == 2


def test_size_guards_name_the_estimate(tmp_path, capsys):
    word = [{"vector": ["1"]}] * 14
    path = write_scenario(tmp_path, dict(BASE, word=word, n=2))
    assert main(["moment", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert "ground set size 14 exceeds the enumeration cap 12" in captured.err
    assert not captured.out
    # 10^12 samples x (8 bytes x (8 gaussians + 32 field values + 28
    # uniforms) + 4 Q values x (an 8-byte sum + 28 one-byte signs)),
    # refused before anything is allocated
    assert main(["verify", "matmodel", "--samples", str(10 ** 12)]) == 2
    assert "688,000,000,000,000 bytes" in capsys.readouterr().err


@pytest.mark.parametrize("change, field", [
    ({"backend": _perm_backend(d=1e300)}, "backend.d"),
    ({"backend": _perm_backend(window=10 ** 300)}, "backend.window"),
    ({"backend": {"kind": "tensor", "window": 1e300}}, "backend.window"),
    ({"backend": {"kind": "free_haar", "window": 1025}}, "backend.window"),
    ({"fock": {"dim_H": 1e300}}, "fock.dim_H"),
    ({"backend": _tensor_backend({"kind": "cyclic", "n": 1e300})},
     "backend.C.n"),
    ({"backend": _tensor_backend({"kind": "symmetric", "n": 10 ** 300})},
     "backend.C.n"),
    ({"backend": {"kind": "tensor", "B": {"kind": "symmetric", "n": 1025}}},
     "backend.B.n"),
])
def test_unbounded_sizes_are_refused(tmp_path, capsys, change, field):
    path = write_scenario(tmp_path, dict(BASE, **change))
    assert main(["moment", "--scenario", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_perm_group_lists_no_copy_of_B(tmp_path, capsys):
    # B = S_12 has 479,001,600 elements; only the axiom check lists them
    word = [{"coeff": "u01", "vector": ["1"]}] * 2
    path = write_scenario(tmp_path, dict(BASE, word=word,
                                         backend=_perm_backend(d=11)))
    code, out = run(capsys, "moment", "--scenario", path)
    assert code == 0 and json.loads(out)["qpoly"] == ["1"]


def test_too_few_samples_exit_code(capsys):
    for samples in ("1", "-3", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "matmodel", "--samples", samples])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err


def test_seed_outside_the_philox_keys_exit_code(capsys):
    for seed in ("-1", str(2 ** 128), "x"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "matmodel", "--seed", seed])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
    # the largest key is accepted
    assert main(["verify", "matmodel", "--seed", str(2 ** 128 - 1),
                 "--samples", "2"]) in (0, 1)


# ---------------------------------------------------------------------
# the scenario boundary under random input

_junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 8),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.text(max_size=4), st.lists(st.integers(-2, 3), max_size=3),
                  st.dictionaries(st.text(max_size=3), st.integers(-2, 3),
                                  max_size=2))


def _or_junk(strategy):
    return st.one_of(strategy, _junk)


_rational = st.one_of(st.integers(-2, 2),
                      st.floats(allow_nan=True, allow_infinity=True),
                      st.sampled_from(["1/2", "-1/3", "0", "x", "1/0"]))
# structural sizes, mostly small, sometimes far beyond every guard
_size = st.one_of(st.integers(-1, 5), st.integers(-1, 10 ** 300),
                  st.sampled_from([1e300, 2.0 ** 80]))
_algebra = st.fixed_dictionaries(
    {"kind": _or_junk(st.sampled_from(["trivial", "cyclic", "symmetric"]))},
    optional={"n": _or_junk(_size)})
_backend = st.fixed_dictionaries(
    {"kind": _or_junk(st.sampled_from(["free_haar", "perm_group", "tensor"]))},
    optional={"window": _or_junk(_size),
              "d": _or_junk(_size),
              "B": _or_junk(_algebra), "C": _or_junk(_algebra)})
_coeff = st.one_of(
    st.sampled_from(["1", "u", "u*", "g", "u01", "v"]),
    st.dictionaries(st.sampled_from(["1", "u", "g", "u01", "v"]), _rational,
                    max_size=2))
_letter = st.fixed_dictionaries({}, optional={
    "coeff": _or_junk(_coeff),
    "vector": _or_junk(st.lists(_rational, max_size=3)),
    "color": _or_junk(st.integers(-1, 2))})
_matrix = st.lists(st.lists(_rational, max_size=3), max_size=3)
_scenario = st.fixed_dictionaries({}, optional={
    "backend": _or_junk(_backend),
    "fock": _or_junk(st.fixed_dictionaries({}, optional={
        "dim_H": _or_junk(_size),
        "inner": _or_junk(_matrix),
        "max_degree": _or_junk(st.integers(-1, 6))})),
    "word": _or_junk(st.lists(_or_junk(_letter), max_size=6)),
    "q_values": _or_junk(st.lists(_rational, max_size=2)),
    "n": _or_junk(st.integers(-1, 4)),
    "Q": _or_junk(_matrix)})


@settings(max_examples=150, deadline=None)
@given(doc=st.one_of(_scenario, _junk),
       q=st.one_of(st.none(), st.text("0123456789/-,.x", max_size=6)))
def test_random_scenarios_exit_0_or_2(tmp_path_factory, doc, q):
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(doc))
    argv = ["moment", "--scenario", str(path)] + ([] if q is None
                                                  else [f"--q={q}"])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    assert (code == 2) == err.getvalue().startswith("error: ")
