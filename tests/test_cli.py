"""End-to-end runs of the command line front end.

Every test calls main() in process and checks the three-way exit
contract: 0 for a definite answer (Refuted included), 2 for an honest
Unknown, 1 for input the tool refuses to interpret.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qperiods import cli, serialize
from qperiods.cli import main
from qperiods.serialize import (
    comparison_from_data,
    load_module,
    sequence_file_from_data,
)

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"


def fx(name):
    return str(FIXTURES / name)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# definite answers, text mode

def test_period_reports_dimension_and_relation_basis(capsys):
    code, out, _ = run(["period", fx("a2_P1.json")], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "period space dimension: 3 (ambient 4, relations 1)"
    assert lines[1] == "relation 0:"
    assert [row.split() for row in lines[2:4]] == [["0", "0"], ["1", "0"]]


def test_endo_reports_dimension(capsys):
    code, out, _ = run(["endo", fx("a2_P1.json")], capsys)
    assert code == 0
    assert out.startswith("endomorphism-side space dimension: 4")


def test_depth_certified_exits_zero(capsys):
    code, out, _ = run(["depth", fx("a2_P1.json"), "--k", "2"], capsys)
    assert code == 0
    assert "per-stage dimensions: 3, 3" in out
    assert "certified against the full space: yes" in out


def test_depth_not_yet_stable_exits_two(capsys):
    code, out, _ = run(["depth", fx("loop2_reg.json"), "--k", "1"], capsys)
    assert code == 2
    assert "certified against the full space: no" in out


@pytest.mark.parametrize("name,k,code,certified,stages", [
    ("a2_P1.json", 2, 0, True, [3, 3]),
    ("loop2_reg.json", 1, 2, False, [3]),
])
def test_depth_json_keys(capsys, name, k, code, certified, stages):
    got, out, _ = run(["--format", "json", "depth", fx(name), "--k", str(k)],
                      capsys)
    assert got == code
    report = json.loads(out)
    assert sorted(report) == [
        "ambient_dim", "certified", "command", "dim", "exit_code", "k",
        "per_stage_dims", "provenance", "relation_basis", "relation_dim",
        "strategy"]
    assert report["strategy"] == "certified"
    assert report["certified"] is certified
    assert report["per_stage_dims"] == stages
    assert (report["command"], report["k"], report["exit_code"]) == \
        ("depth", k, code)


def test_certify_refuted_is_a_definite_answer(capsys):
    code, out, _ = run(
        ["certify", fx("a2_P1.json"), "--weights", fx("a2_weights.json")],
        capsys)
    assert code == 0
    assert out.splitlines()[0] == "verdict: Refuted"
    assert "dimension 4 exceeds the period space dimension 3" in out
    assert "[DimGap]" in out


def test_certify_certified_prints_derivation_tree(capsys):
    code, out, _ = run(
        ["certify", fx("a2_P1S2.json"), "--weights", fx("a2_weights.json")],
        capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: Certified"
    rules = [line.strip().split("]")[0] + "]"
             for line in lines if "]" in line]
    assert rules == ["[Iso]", "[SatPrincipal]", "[Semisimple]", "[Semisimple]"]


def test_certify_unknown_exits_two(capsys):
    code, out, _ = run(
        ["certify", fx("loop2_reg.json"),
         "--weights", fx("loop2_weights.json")],
        capsys)
    assert code == 2
    assert out.splitlines()[0] == "verdict: Unknown"


def test_realize_success_names_the_power(capsys):
    code, out, _ = run(
        ["realize", fx("a2_P1.json"), "--relation", fx("a2_relation.json")],
        capsys)
    assert code == 0
    assert out.splitlines()[0] == "realized inside a power: M^1"


def test_realize_non_relation_is_unknown(tmp_path, capsys):
    path = tmp_path / "not_a_relation.json"
    path.write_text(json.dumps({"matrix": [["1", "0"], ["0", "0"]]}))
    code, out, _ = run(
        ["realize", fx("a2_P1.json"), "--relation", str(path)], capsys)
    assert code == 2
    assert out.splitlines()[0] == "not realized: unknown"


def test_eval_failing_point_still_exits_zero(capsys):
    code, out, _ = run(
        ["eval", fx("a2_P1.json"), "--comparison", fx("a2_cmp_u1.json")],
        capsys)
    assert code == 0
    assert "verdict: the point fails" in out
    assert "kernel on the quotient: 2" in out
    assert "kernel vector realizations: realized, unknown, unknown" in out


def test_eval_generic_point_holds(capsys):
    code, out, _ = run(
        ["eval", fx("a2_P1.json"), "--comparison", fx("a2_cmp_generic.json")],
        capsys)
    assert code == 0
    assert "verdict: the point holds" in out
    assert "kernel on the quotient: 0" in out


def test_lift_reports_universal_dimension(capsys):
    code, out, _ = run(
        ["lift", fx("a3_seq.json"), "--target", fx("a3_target.json")],
        capsys)
    assert code == 0
    assert out.splitlines()[0] == "universal lift dimension: 4 (target dimension 2)"
    assert "w0:2, wm1:1, wm2:1" in out


def test_onemotive_flags_give_graded_dimensions(capsys):
    code, out, _ = run(["onemotive", "--g", "1", "--l", "1", "--m", "1"],
                       capsys)
    assert code == 0
    assert "graded period dimensions: 6, 4, 1 (total 11)" in out
    assert "matrix model agrees: yes" in out


@pytest.mark.parametrize("g", range(1, 6))
def test_onemotive_corpus_inputs_fit_the_model_budget(g, capsys):
    code, out, err = run(["onemotive", "--g", str(g), "--l", "2", "--m", "2"],
                         capsys)
    assert code == 0 and err == ""
    assert "matrix model agrees: yes" in out


def one_budget_refusal(argv, capsys, dim):
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"qperiods onemotive: the matrix model would have ambient "
        f"dimension {dim}, beyond the budget of 32"]


def test_onemotive_flags_beyond_the_model_budget_are_refused(capsys):
    one_budget_refusal(["onemotive", "--g", "400", "--l", "2", "--m", "2"],
                       capsys, 806)


def test_onemotive_input_beyond_the_model_budget_is_refused(tmp_path, capsys):
    # checking a 200-dimensional action against B's table takes seconds;
    # the budget refuses the file before that
    def identity(n):
        return [["1" if i == j else "0" for j in range(n)] for i in range(n)]

    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "B": {"unit": ["1"], "table": [[["1"]]]},
        "HL": {"action": [identity(2)]},
        "HA": {"action": [identity(200)]},
        "HT": {"action": [identity(2)]}}))
    one_budget_refusal(["onemotive", "--input", str(path)], capsys, 206)


def test_onemotive_input_file(capsys):
    code, out, _ = run(["onemotive", "--input", fx("gauss_input.json")],
                       capsys)
    assert code == 0
    assert "graded period dimensions: 4, 4, 2 (total 10)" in out


def test_onemotive_refuses_a_zero_dimensional_coefficient_algebra(
        tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"B": {"unit": [], "table": []},
                                "HL": {"action": []}}))
    code, out, err = run(["onemotive", "--input", str(path)], capsys)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("qperiods onemotive: ")
    assert "nonempty unit" in lines[0]


def test_baker_prints_the_bare_count(capsys):
    code, out, _ = run(["baker", "--x", "1", "--l", "2", "--n", "0"], capsys)
    assert code == 0
    assert out == "4\n"


# refused input, exit 1

def test_parse_error_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{broken")
    code, out, err = run(["period", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"qperiods period: {path}:1:")


def test_missing_file_is_refused(capsys):
    code, _, err = run(["period", "no_such_file.json"], capsys)
    assert code == 1
    assert "module file does not exist" in err


def module_beside(directory: Path, algebra) -> Path:
    """A copy of the a2_P1 fixture in directory, naming algebra."""
    directory.mkdir(exist_ok=True)
    data = json.loads(Path(fx("a2_P1.json")).read_text())
    data["algebra"] = algebra
    path = directory / "module.json"
    path.write_text(json.dumps(data))
    return path


def test_refusals_of_unreadable_module_files_are_one_exact_line(
        tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{\n  "algebra": "a2.json",\n  "dims": \n')
    first, second = tmp_path / "first", tmp_path / "second"
    cases = [
        (["period", "no_such_file.json"],
         "module file does not exist: no_such_file.json"),
        (["endo", str(tmp_path)], f"module file does not exist: {tmp_path}"),
        (["period", str(broken)],
         f"{broken}:4: Expecting value"),
        # a relative algebra path is resolved against the module file's
        # directory, and named as pathlib joins the two
        (["period", str(module_beside(first, "./missing.json"))],
         f"{first / 'missing.json'}: No such file or directory"),
        (["certify", str(module_beside(second, "..")), "--weights",
          fx("a2_weights.json")],
         f"{second}/..: Is a directory"),
    ]
    for argv, message in cases:
        code, out, err = run(["--format", "json", *argv], capsys)
        assert (code, out, err) == (
            1, "", f"qperiods {argv[0]}: {message}\n"), argv


def test_a_relative_algebra_path_is_read_beside_the_module(
        tmp_path, monkeypatch, capsys):
    sub = tmp_path / "sub"
    path = module_beside(sub, "a2.json")
    (sub / "a2.json").write_text(Path(fx("a2.json")).read_text())
    expected = run(["--format", "json", "period", fx("a2_P1.json")], capsys)
    # the working directory holds no a2.json
    monkeypatch.chdir(tmp_path)
    assert run(["--format", "json", "period", str(path)], capsys) == expected
    assert run(["--format", "json", "period",
                os.path.join("sub", "module.json")], capsys) == expected


def test_validation_error_names_the_offender(tmp_path, capsys):
    path = tmp_path / "bad_module.json"
    data = json.loads(Path(fx("a2_P1.json")).read_text())
    data["algebra"] = fx("a2.json")
    data["maps"]["no_such_arrow"] = [["0", "0"]]
    path.write_text(json.dumps(data))
    code, _, err = run(["period", str(path)], capsys)
    assert code == 1
    assert "no_such_arrow" in err


def test_eval_at_a_non_unit_is_refused(tmp_path, capsys):
    points = [
        {"u": {"a": ["1"]}},    # nilpotent
        # a zero vertex coefficient is refused before the zero divisor
        # 1 + x of the reducible L = Q[x]/(x^2-1) is ever divided by,
        # also when 1 + x is a vertex coefficient met first
        {"field": [-1, 0, 1],
         "u": {"e_v1": [0], "e_v2": [1], "a": [1, 1]}},
        {"field": [-1, 0, 1], "u": {"e_v1": [1, 1], "e_v2": [0]}},
    ]
    for point in points:
        path = tmp_path / "non_unit.json"
        path.write_text(json.dumps(point))
        code, out, err = run(
            ["eval", fx("a2_P1.json"), "--comparison", str(path)], capsys)
        assert code == 1, point
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("qperiods eval: ")
        assert "not a unit" in lines[0], point


def test_eval_refuses_an_embedding_that_is_not_a_root(tmp_path, capsys):
    # K = Q[y]/(y^2-2) cannot send y to 1 in L = Q[x]/(x^3-2)
    path = tmp_path / "bad_embedding.json"
    path.write_text(json.dumps({
        "field": ["-2", "0", "0", "1"], "coeff_field": ["-2", "0", "1"],
        "embedding_of_K": ["1"],
        "u": {"a": ["0", "0", "1"], "e_v1": ["1"], "e_v2": ["0", "1"]}}))
    code, out, err = run(
        ["eval", fx("a2_P1.json"), "--comparison", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err == ("qperiods eval: claimed image is not a root of the "
                   "defining polynomial\n")


REDUCIBLE_POINTS = {
    # L = Q[x]/(x^2-1): the unit check divides by the zero divisor x+1
    "value field L": {"field": [-1, 0, 1],
                      "u": {"e_v1": [1, 1], "e_v2": [1], "a": [0]}},
    # K = Q[y]/(y^2-1) sent to 1 in L = Q: the kernel over K meets y-1
    "coefficient field K": {"field": [-1, 1], "coeff_field": [-1, 0, 1],
                            "embedding_of_K": [1],
                            "u": {"e_v1": [1], "e_v2": [1]}},
}


@pytest.mark.parametrize("role", sorted(REDUCIBLE_POINTS))
def test_eval_over_a_reducible_field_is_refused(role, tmp_path, capsys):
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps(REDUCIBLE_POINTS[role]))
    code, out, err = run(
        ["eval", fx("a2_P1.json"), "--comparison", str(path)], capsys)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"qperiods eval: the {role} = Q[x]/(f)")
    assert "is not a field" in lines[0]


def test_eval_over_a_reducible_field_without_zero_divisors_answers(tmp_path,
                                                                  capsys):
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps({"field": [-1, 0, 1],
                                "u": {"e_v1": [1], "e_v2": [1]}}))
    code, out, err = run(
        ["eval", fx("a2_P1.json"), "--comparison", str(path)], capsys)
    assert code == 0
    assert err == ""
    assert out.startswith("verdict: the point ")


def test_onemotive_rejects_mixed_flag_styles(capsys):
    code, _, err = run(
        ["onemotive", "--g", "1", "--l", "1", "--m", "1",
         "--input", fx("gauss_input.json")],
        capsys)
    assert code == 1
    assert "either --input or all of --g --l --m" in err


def test_baker_range_violation(capsys):
    code, _, err = run(["baker", "--x", "1", "--l", "2", "--n", "5"], capsys)
    assert code == 1
    assert "0 <= 5 <= 2" in err


def test_depth_rejects_non_positive_k(capsys):
    code, _, err = run(["depth", fx("a2_P1.json"), "--k", "0"], capsys)
    assert code == 1
    assert "--k must be positive" in err


def test_depth_clamps_huge_k_to_the_module_dimension(capsys):
    base = ["--format", "json", "depth", fx("a2_P1.json"), "--k"]
    code2, out2, _ = run(base + ["2"], capsys)
    start = time.perf_counter()
    code, out, _ = run(base + ["100000000"], capsys)
    assert time.perf_counter() - start < 10
    clamped, plain = json.loads(out), json.loads(out2)
    assert code == code2 == 0
    assert clamped["per_stage_dims"] == plain["per_stage_dims"]
    assert clamped["k"] == plain["k"] == 2
    assert clamped["k_clamped_from"] == 100000000
    assert "k_clamped_from" not in plain
    code, out, _ = run(["depth", fx("a2_P1.json"), "--k", "100000000"],
                       capsys)
    assert code == 0
    assert "k clamped from 100000000 to 2" in out


def test_depth_refuses_a_spin_bound_beyond_the_budget(capsys):
    code, out, _ = run(["depth", fx("a2_P1.json"), "--k", "2",
                        "--spin-bound", str(cli.SPIN_BOUND_BUDGET)], capsys)
    assert code == 0
    assert "certified against the full space: yes" in out
    # refused before any module is spun
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "depth_space", None)
        code, out, err = run(["depth", fx("a2_P1.json"), "--k", "2",
                              "--spin-bound",
                              str(cli.SPIN_BOUND_BUDGET + 1)], capsys)
    assert code == 1
    assert out == ""
    assert err == (f"qperiods depth: --spin-bound "
                   f"{cli.SPIN_BOUND_BUDGET + 1} is beyond the budget of "
                   f"{cli.SPIN_BOUND_BUDGET}\n")


MODULE_COMMANDS = {
    # command: (the extra arguments, the work the refusal comes before)
    "period": ([], "period_space"),
    "endo": ([], "endo_quotient"),
    "depth": (["--k", "1"], "depth_space"),
    "certify": (["--weights", fx("a2_weights.json")], "certify_principal"),
    "realize": (["--relation", fx("a2_relation.json")], "realize_relation"),
    "eval": (["--comparison", fx("a2_cmp_u1.json")], "eval_and_conjecture"),
    "lift": (["--target", fx("a3_target.json")], "universal_lift"),
}


def _module_of_dim(command, dim, tmp_path):
    """A valid input file whose module has dimension dim at one vertex
    and no maps: a sequence file for lift, an a2 module otherwise."""
    if command == "lift":
        data = json.loads((FIXTURES / "a3_seq.json").read_text())
        data["module"]["dims"] = {"w0": dim}
        data["module"]["maps"] = {}
    else:
        data = {"algebra": fx("a2.json"), "dims": {"v1": dim, "v2": 0}}
    path = tmp_path / f"{command}-{dim}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_every_module_command_has_a_dimension_budget():
    assert sorted(cli.MODULE_DIM_BUDGET) == sorted(MODULE_COMMANDS)
    # far above the largest benchmark input, period on a2/p1^8 (d = 16)
    assert min(cli.MODULE_DIM_BUDGET.values()) > 16


@pytest.mark.parametrize("command", sorted(MODULE_COMMANDS))
def test_a_module_beyond_the_command_budget_is_refused(
        command, tmp_path, capsys):
    extra, work = MODULE_COMMANDS[command]
    budget = cli.MODULE_DIM_BUDGET[command]
    if command == "lift":
        sequence = json.loads(
            Path(_module_of_dim(command, budget, tmp_path)).read_text())
        module, _, _ = sequence_file_from_data(
            sequence, FIXTURES, max_dim=budget)
    else:
        module = load_module(_module_of_dim(command, budget, tmp_path),
                             max_dim=budget)
    assert module.dim == budget
    # refused before the maps are read and before any of the work
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, work, None)
        code, out, err = run(
            [command, _module_of_dim(command, budget + 1, tmp_path), *extra],
            capsys)
    assert code == 1
    assert out == ""
    assert err == (f"qperiods {command}: the module has dimension "
                   f"{budget + 1}, beyond the budget of {budget}\n")


@pytest.mark.parametrize("role", ["field", "coeff_field"])
def test_a_field_beyond_the_degree_budget_is_refused(role, tmp_path,
                                                     capsys):
    budget = serialize.FIELD_DEGREE_BUDGET
    a2 = load_module(fx("a2_P1.json")).algebra

    def point(n):
        """The role's field is Q[x]/(x^n - 2); L is Q[x]/(x^budget - 2),
        and a K is sent to its generator."""
        data = {"field": [-2] + [0] * (budget - 1) + [1],
                "u": {"e_v1": [1], "e_v2": [1]}}
        data[role] = [-2] + [0] * (n - 1) + [1]
        if role == "coeff_field":
            data["embedding_of_K"] = [0, 1]
        return data
    built = comparison_from_data(point(budget), a2)
    assert getattr(built, "value_field" if role == "field"
                   else "coeff_field").degree == budget
    path = tmp_path / "point.json"
    path.write_text(json.dumps(point(budget + 1)))
    # refused before the field is built
    degrees, number_field = [], serialize.NumberField

    def recorded(coeffs):
        degrees.append(len(coeffs) - 1)
        return number_field(coeffs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "NumberField", recorded)
        code, out, err = run(
            ["eval", fx("a2_P1.json"), "--comparison", str(path)], capsys)
    assert degrees == ([] if role == "field" else [budget])
    assert code == 1
    assert out == ""
    assert err == (f"qperiods eval: '{role}' has degree {budget + 1}, "
                   f"beyond the budget of {budget}\n")


def test_no_command_prints_usage(capsys):
    code, _, err = run([], capsys)
    assert code == 1
    assert "usage: qperiods" in err


# json mode

def test_json_reports_carry_their_exit_code(capsys):
    cases = [
        (["period", fx("a2_P1.json")], 0),
        (["certify", fx("a2_P1.json"), "--weights", fx("a2_weights.json")], 0),
        (["certify", fx("loop2_reg.json"),
          "--weights", fx("loop2_weights.json")], 2),
        (["baker", "--x", "1", "--l", "2", "--n", "0"], 0),
    ]
    for argv, expected in cases:
        code, out, _ = run(["--format", "json"] + argv, capsys)
        assert code == expected
        report = json.loads(out)
        assert report["exit_code"] == expected
        assert report["command"] == argv[0]


def test_json_period_report_contents(capsys):
    _, out, _ = run(["--format", "json", "period", fx("a2_P1.json")], capsys)
    report = json.loads(out)
    assert report["dim"] == 3
    assert report["ambient_dim"] == 4
    assert report["relation_basis"] == [[["0", "0"], ["1", "0"]]]


def test_json_keys_are_sorted(capsys):
    _, out, _ = run(
        ["--format", "json", "eval", fx("a2_P1.json"),
         "--comparison", fx("a2_cmp_u1.json")],
        capsys)
    decoder = json.JSONDecoder(object_pairs_hook=list)
    pairs = decoder.decode(out)
    keys = [k for k, _ in pairs]
    assert keys == sorted(keys)


def test_json_error_paths_still_write_stderr(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{broken")
    code, out, err = run(["--format", "json", "period", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert str(path) in err


def test_repeated_runs_are_byte_identical(capsys):
    commands = [
        ["--format", "json", "period", fx("a2_P1.json")],
        ["--format", "json", "certify", fx("a2_P1S2.json"),
         "--weights", fx("a2_weights.json")],
        ["--format", "json", "eval", fx("a2_P1.json"),
         "--comparison", fx("a2_cmp_u1.json")],
        ["eval", fx("a2_P1.json"), "--comparison", fx("a2_cmp_generic.json")],
    ]
    for argv in commands:
        first = run(argv, capsys)
        second = run(argv, capsys)
        assert first == second


def _fresh_process(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from qperiods.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_in_process_calls_match_fresh_processes(tmp_path, capsys):
    # the parser is built once per process; a sequence of calls through it,
    # a clamp, a usage error and a refusal among them, must answer as a
    # fresh process does
    refused = tmp_path / "reducible.json"
    refused.write_text(json.dumps(REDUCIBLE_POINTS["value field L"]))
    calls = [
        ["period", fx("a2_P1.json")],
        ["depth", fx("a2_P1.json"), "--k", "99"],
        ["period", fx("a2_P1.json"), "--no-such-option"],
        ["eval", fx("a2_P1.json"), "--comparison", str(refused)],
        ["--format", "json", "certify", fx("a2_P1.json"),
         "--weights", fx("a2_weights.json")],
    ]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process] == [0, 0, 2, 1, 0]
    assert "k clamped from 99 to 2" in in_process[1][1]
    assert "unrecognized arguments: --no-such-option" in in_process[2][2]
    assert in_process == [_fresh_process(argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1


def test_emit_schema_is_valid_json(capsys):
    code, out, _ = run(["--emit-schema"], capsys)
    assert code == 0
    schemas = json.loads(out)
    assert sorted(schemas) == [
        "algebra", "comparison", "graded-input", "module",
        "partition", "relation", "sequence", "target",
    ]


def test_console_entry_point_is_wired():
    import qperiods.cli
    assert callable(qperiods.cli.main)
