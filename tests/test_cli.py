import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import safelc
from safelc.cli import main
from safelc.encodings import DecodeError
from safelc.reduction import BudgetExceededError, CaptureViolation
from safelc.safety import TypeCheckError
from safelc.syntax import ParseError, alpha_eq, parse
from termgen import recursion_limit


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def lamfile(tmp_path):
    def write(name, source):
        path = tmp_path / name
        path.write_text(source + "\n")
        return str(path)

    return write


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


# -- check -------------------------------------------------------------


def test_check_safe_identity(runner, lamfile):
    r = invoke(runner, ["check", lamfile("id.lam", r"\x:o. x")])
    assert r.exit_code == 0
    assert r.output.splitlines()[0] == "Safe : o -> o"


def test_check_unsafe_exits_one_and_explains(runner, lamfile):
    path = lamfile("k2.lam", r"\f:(o->o)->o. f (\x:o. f (\y:o. x))")
    r = invoke(runner, ["check", path])
    assert r.exit_code == 1
    lines = r.output.splitlines()
    assert lines[0].startswith("UnsafeTypable : ")
    assert any("VIOLATION" in line for line in lines[1:])


def test_check_open_term_with_env(runner, lamfile):
    path = lamfile("open.lam", r"(\x:o y:o. x) z")
    r = invoke(runner, ["check", path, "--env", "z:o"])
    assert r.exit_code == 1
    assert r.output.splitlines()[0] == "AlmostSafe : o -> o"


@pytest.mark.parametrize("as_json", [False, True])
def test_check_judges_the_grouping_as_written(runner, lamfile, as_json):
    # the split chain fails the block's side condition at its inner block;
    # the block form is Safe
    violation = "(abs) body VIOLATION: free x order 0 < term order 2"
    flags = ["--json"] if as_json else []
    split = invoke(runner, ["check", lamfile("split.lam", r"\x:o. \f:o->o. f x")] + flags)
    block = invoke(runner, ["check", lamfile("block.lam", r"\x:o f:o->o. f x")] + flags)
    assert (split.exit_code, block.exit_code) == (1, 0)
    if as_json:
        data = json.loads(split.output)
        assert data["level"] == "UnsafeTypable"
        assert data["type"] == "o -> (o -> o) -> o"
        assert data["failures"] == [violation]
        assert json.loads(block.output) == {
            "level": "Safe",
            "type": "o -> (o -> o) -> o",
            "failures": [],
        }
    else:
        assert split.output == f"UnsafeTypable : o -> (o -> o) -> o\n  {violation}\n"
        assert block.output == "Safe : o -> (o -> o) -> o\n"


def test_check_bad_env_is_usage_error(runner, lamfile):
    path = lamfile("id.lam", r"\x:o. x")
    r = invoke(runner, ["check", path, "--env", "z=o"])
    assert r.exit_code == 2


def test_check_env_name_no_term_can_use_is_usage_error(runner, lamfile):
    path = lamfile("id.lam", r"\x:o. x")
    r = invoke(runner, ["check", path, "--env", "x y:o"])
    assert r.exit_code == 2
    assert r.output.startswith("error: bad --env: ")


def test_check_unparseable_is_usage_error(runner, lamfile):
    # an error at the end of the input says so, not `found None`
    path = lamfile("bad.lam", r"\x:o.")
    r = invoke(runner, ["check", path])
    assert r.exit_code == 2
    assert r.output == f"error: {path}: 1:6: expected variable, found end of input\n"
    r = invoke(runner, ["check", path, "--env", "f:o->"])
    assert r.exit_code == 2
    assert r.output == "error: bad --env: 1:4: expected type, found end of input\n"


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_check_empty_binder_block_is_usage_error(runner, lamfile, flags):
    path = lamfile("empty.lam", r"\. x")
    r = invoke(runner, ["check", path] + flags)
    assert r.exit_code == 2
    message = f"{path}: 1:2: expected binder, found '.'"
    if flags:
        assert json.loads(r.output) == {"error": message}
    else:
        assert r.output == f"error: {message}\n"


def test_check_missing_file_is_usage_error(runner):
    r = invoke(runner, ["check", "no-such-file.lam"])
    assert r.exit_code == 2


def test_check_json_carries_text_facts(runner, lamfile):
    path = lamfile("k2.lam", r"\f:(o->o)->o. f (\x:o. f (\y:o. x))")
    r = invoke(runner, ["check", path, "--json"])
    assert r.exit_code == 1
    data = json.loads(r.output)
    assert data["level"] == "UnsafeTypable"
    assert data["type"] == "((o -> o) -> o) -> o"
    assert data["failures"]


def test_check_trace_covers_every_subterm(runner, lamfile):
    path = lamfile("two.lam", r"\s:o->o z:o. s (s z)")
    r = invoke(runner, ["check", path, "--trace", "--json"])
    data = json.loads(r.output)
    assert len(data["trace"]) >= 4
    assert data["failures"] == []


# -- normalize ---------------------------------------------------------


def test_normalize_plain(runner, lamfile):
    path = lamfile("block.lam", r"\a:o g:o->o. (\x:o f:o->o. f x) a g")
    r = invoke(runner, ["normalize", path])
    assert r.exit_code == 0
    assert alpha_eq(parse(r.output.splitlines()[-1]), parse(r"\a:o g:o->o. g a"))


def test_normalize_trace_lists_chain(runner, lamfile):
    path = lamfile("block.lam", r"\a:o g:o->o. (\x:o f:o->o. f x) a g")
    r = invoke(runner, ["normalize", path, "--trace", "--json"])
    data = json.loads(r.output)
    assert data["steps"] == len(data["chain"]) - 1 >= 1
    assert alpha_eq(parse(data["normal_form"]), parse(r"\a:o g:o->o. g a"))


def test_normalize_step_budget_exits_three(runner, lamfile):
    path = lamfile(
        "mul.lam",
        r"(\m:(o->o)->o->o s:o->o z:o. m s (m s z)) (\s:o->o z:o. s (s z))",
    )
    r = invoke(runner, ["normalize", path, "--max-steps", "1"])
    assert r.exit_code == 3


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize(
    "budget, message",
    [
        (["--max-size", "4"], "term size 5 exceeds budget 4 after 1 steps"),
        (["--max-steps", "1"], "no normal form within 1 steps (current term size 5)"),
    ],
)
def test_normalize_budget_errors_report_the_term_size(runner, lamfile, budget, message, as_json):
    # sizes 7, 5, 1 on the way: the first step's size follows from the input's
    path = lamfile("drop.lam", r"(\x:o y:o. y) a b")
    r = invoke(runner, ["normalize", path, *budget] + (["--json"] if as_json else []))
    assert r.exit_code == 3
    if as_json:
        assert json.loads(r.output) == {"error": message}
    else:
        assert r.output == f"error: {message}\n"


def test_normalize_ill_typed_is_usage_error(runner, lamfile):
    # without a type check this runs until the step budget (exit 3)
    path = lamfile("omega.lam", r"(\x:o. x x) (\x:o. x x)")
    r = invoke(runner, ["normalize", path, "--max-steps", "50"])
    assert r.exit_code == 2
    assert "applied to 1 arguments" in r.output
    r2 = invoke(runner, ["normalize", path, "--max-steps", "50", "--json"])
    assert r2.exit_code == 2
    assert "applied to 1 arguments" in json.loads(r2.output)["error"]


def test_normalize_capture_flag_exits_four(runner, lamfile):
    path = lamfile("bait.lam", r"\y:o. (\x:o y:o. x) y")
    r = invoke(runner, ["normalize", path, "--strategy", "safe"])
    assert r.exit_code == 4
    assert "capture" in r.output
    r2 = invoke(runner, ["normalize", path, "--strategy", "safe", "--json"])
    assert r2.exit_code == 4
    assert "capture" in json.loads(r2.output)["error"]


def test_normalize_plain_same_with_and_without_trace(runner, lamfile):
    # the first of the two steps renames y: untraced plain normalization
    # must take them one at a time and count both
    path = lamfile("rename.lam", r"\f:o->o->o y:o b:o. (\x:o y:o. f x y) y b")
    args = ["normalize", path, "--strategy", "plain"]
    text, traced = invoke(runner, args), invoke(runner, args + ["--trace"])
    assert text.output == "\\f:o->o->o y:o b:o. f y b\n"
    assert traced.output.splitlines() == [
        r"[0] \f:o->o->o y:o b:o. (\x:o y:o. f x y) y b",
        r"[1] \f:o->o->o y:o b:o. (\y'1:o. f y y'1) b",
        r"[2] \f:o->o->o y:o b:o. f y b",
        r"\f:o->o->o y:o b:o. f y b",
    ]
    data = json.loads(invoke(runner, args + ["--json"]).output)
    traced_data = json.loads(invoke(runner, args + ["--trace", "--json"]).output)
    assert data == {"normal_form": r"\f:o->o->o y:o b:o. f y b", "steps": 2}
    assert traced_data.pop("chain") == [line[4:] for line in traced.output.splitlines()[:-1]]
    assert traced_data == data


def test_normalize_same_term_both_strategies(runner, lamfile):
    path = lamfile("block.lam", r"\a:o g:o->o. (\x:o f:o->o. f x) a g")
    plain = invoke(runner, ["normalize", path, "--strategy", "plain"])
    safe = invoke(runner, ["normalize", path, "--strategy", "safe"])
    assert plain.exit_code == safe.exit_code == 0
    assert alpha_eq(parse(plain.output), parse(safe.output))


# -- eq ----------------------------------------------------------------


def test_eq_alpha_variants_equal(runner, lamfile):
    a = lamfile("a.lam", r"\s:o->o z:o. s z")
    b = lamfile("b.lam", r"\f:o->o x:o. f x")
    r = invoke(runner, ["eq", a, b])
    assert r.exit_code == 0
    assert r.output.strip() == "beta-eta equal"


def test_eq_distinct_numerals_not_equal(runner, lamfile):
    a = lamfile("one.lam", r"\s:o->o z:o. s z")
    b = lamfile("two.lam", r"\s:o->o z:o. s (s z)")
    r = invoke(runner, ["eq", a, b])
    assert r.exit_code == 1
    assert r.output.strip() == "not beta-eta equal"


def test_eq_eta_variants_equal(runner, lamfile):
    a = lamfile("short.lam", r"\s:o->o. s")
    b = lamfile("long.lam", r"\s:o->o z:o. s z")
    r = invoke(runner, ["eq", a, b, "--json"])
    assert r.exit_code == 0
    assert json.loads(r.output) == {"equal": True}


def test_eq_type_mismatch_is_usage_error(runner, lamfile):
    a = lamfile("id.lam", r"\x:o. x")
    b = lamfile("one.lam", r"\s:o->o z:o. s z")
    r = invoke(runner, ["eq", a, b])
    assert r.exit_code == 2


def test_eq_step_budget_exits_three(runner, lamfile):
    a = lamfile("twice-id.lam", r"(\f:o->o x:o. f (f x)) (\y:o. y)")
    b = lamfile("id.lam", r"\x:o. x")
    assert invoke(runner, ["eq", a, b]).exit_code == 0
    r = invoke(runner, ["eq", a, b, "--max-steps", "1"])
    assert r.exit_code == 3


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_eq_deep_input_is_decided_without_traceback(runner, lamfile, flags):
    n = 4000
    path = lamfile("deep.lam", r"\s:o->o z:o. " + "s (" * n + "z" + ")" * n)
    r = invoke(runner, ["eq", path, path] + flags)
    assert r.exit_code == 0
    assert "Traceback" not in r.output
    if flags:
        assert json.loads(r.output) == {"equal": True}
    else:
        assert r.output.splitlines() == ["beta-eta equal"]


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_qbf_deep_input_exits_three_without_traceback(runner, flags):
    # the QBF parser still recurses, once per parenthesis level and more
    n = 4000
    r = invoke(runner, ["qbf", "forall x. " + "(" * n + "x" + ")" * n] + flags)
    assert r.exit_code == 3
    assert "input nested too deeply" in r.output
    assert "Traceback" not in r.output
    if flags:
        assert json.loads(r.output) == {"error": "input nested too deeply"}


def test_unexpected_exception_exits_four(runner, lamfile, monkeypatch):
    def broken(env, term):
        raise RuntimeError("broken checker")

    monkeypatch.setattr("safelc.cli.safety_check", broken)
    r = invoke(runner, ["check", lamfile("id.lam", r"\x:o. x")])
    assert r.exit_code == 4
    assert "broken checker" in r.output
    assert "Traceback" not in r.output


@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize(
    "exc, code, message",
    [
        pytest.param(TypeCheckError("ill-typed"), 2, "ill-typed (at <root>)", id="type"),
        pytest.param(ParseError("bad token", 1, 2), 2, "1:2: bad token", id="parse"),
        pytest.param(BudgetExceededError(9, 9, "no room"), 3, "no room", id="budget"),
        pytest.param(
            RecursionError("maximum recursion depth exceeded"),
            3,
            "a term computed from the input is nested too deeply",
            id="recursion",
        ),
        pytest.param(
            CaptureViolation(frozenset({"y"}), "y captured"),
            4,
            "capture flag raised: y captured",
            id="capture",
        ),
        pytest.param(
            DecodeError("not a numeral: a lambda"),
            4,
            "normal form is not a numeral: a lambda",
            id="decode",
        ),
        pytest.param(RuntimeError("boom"), 4, "unexpected RuntimeError: boom", id="other"),
    ],
)
def test_library_failures_follow_the_exit_table(
    runner, monkeypatch, exc, code, message, flags
):
    # each failure is raised while computing a result, after the five
    # characters of input have been read
    def failing(term, *args, **kwargs):
        raise exc

    monkeypatch.setattr("safelc.cli._normalize", failing)
    r = invoke(runner, ["poly", "x*y", "--at", "x=30,y=30"] + flags)
    assert r.exit_code == code
    assert "Traceback" not in r.output
    if flags:
        assert json.loads(r.output) == {"error": message}
    else:
        assert r.output == f"error: {message}\n"


# -- poly --------------------------------------------------------------


def test_poly_evaluates_at_point(runner):
    r = invoke(CliRunner(), ["poly", "x^2*y + 3*x + 2", "--at", "x=2,y=1"])
    assert r.exit_code == 0
    lines = r.output.splitlines()
    assert lines[0].startswith("Safe : ")
    assert lines[-1] == "p(x=2, y=1) = 12"


def test_poly_deep_numeral_at_default_recursion_limit(runner):
    # x*y at (30, 30) normalizes to a 900-deep numeral, and decoding it
    # reads the spine without recursion
    with recursion_limit(1_000):
        r = invoke(runner, ["poly", "x*y", "--at", "x=30,y=30"])
    assert r.exit_code == 0
    assert r.output.splitlines()[-1] == "p(x=30, y=30) = 900"


def test_poly_json_value(runner):
    r = invoke(runner, ["poly", "x*x + 1", "--at", "x=3", "--json"])
    data = json.loads(r.output)
    assert data["value"] == 10
    assert data["level"] == "Safe"
    assert data["assignment"] == {"x": 3}


def test_poly_emit_term_parses_back(runner):
    r = invoke(runner, ["poly", "x + 2", "--emit-term", "--json"])
    data = json.loads(r.output)
    assert parse(data["term"])


def test_poly_constant(runner):
    r = invoke(runner, ["poly", "7", "--at", "", "--json"])
    # empty assignment text is a usage error; constants take no --at
    assert r.exit_code == 2
    r = invoke(runner, ["poly", "7", "--json"])
    assert r.exit_code == 0


def test_poly_assignment_errors(runner):
    for at in ("x=2", "x=2,y=1,z=3", "x=-1,y=0", "x=a,y=1"):
        r = invoke(runner, ["poly", "x*y", "--at", at])
        assert r.exit_code == 2, at


@pytest.mark.parametrize("as_json", [False, True])
def test_poly_missing_value_is_usage_error(runner, as_json):
    r = invoke(runner, ["poly", "x*y", "--at", "x=1"] + (["--json"] if as_json else []))
    assert r.exit_code == 2
    if as_json:
        assert json.loads(r.output) == {"error": "missing value(s) for y"}
    else:
        assert r.output.endswith("error: missing value(s) for y\n")


def test_poly_parse_error(runner):
    r = invoke(runner, ["poly", "x ** y"])
    assert r.exit_code == 2


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("text", ["x + y ", "x + y\n", " x + y"])
def test_poly_accepts_surrounding_whitespace(runner, text, as_json):
    r = invoke(runner, ["poly", text, "--at", "x=1,y=2"] + (["--json"] if as_json else []))
    assert r.exit_code == 0
    if as_json:
        data = json.loads(r.output)
        assert (data["variables"], data["value"]) == (["x", "y"], 3)
    else:
        assert r.output.splitlines()[-1] == "p(x=1, y=2) = 3"


@pytest.mark.parametrize("as_json", [False, True])
def test_poly_blank_is_empty_polynomial(runner, as_json):
    r = invoke(runner, ["poly", " \n"] + (["--json"] if as_json else []))
    assert r.exit_code == 2
    if as_json:
        assert json.loads(r.output) == {"error": "empty polynomial"}
    else:
        assert r.output.endswith("error: empty polynomial\n")


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("text", ["x*", "2*", "x^2*"])
def test_poly_trailing_star_is_usage_error(runner, text, as_json):
    r = invoke(runner, ["poly", text] + (["--json"] if as_json else []))
    assert r.exit_code == 2
    if as_json:
        assert json.loads(r.output) == {"error": "trailing '*'"}
    else:
        assert r.output.endswith("error: trailing '*'\n")


# -- word --------------------------------------------------------------


def write_spec(tmp_path, data):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_word_append_const(runner, tmp_path):
    spec = write_spec(tmp_path, {"kind": "append_const", "word": "ba"})
    r = invoke(runner, ["word", "--alphabet", "ab", "--spec", spec, "--input", "ab"])
    assert r.exit_code == 0
    assert r.output.splitlines()[0] == "abba"


def test_word_compose_hom(runner, tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "kind": "compose",
            "outer": {"kind": "letter_hom", "mapping": {"a": "bb", "b": "a"}},
            "inner": {"kind": "prepend_const", "word": "a"},
        },
    )
    r = invoke(
        runner,
        ["word", "--alphabet", "ab", "--spec", spec, "--input", "ab", "--json"],
    )
    data = json.loads(r.output)
    assert data["output"] == "bbbba"
    assert data["level"] == "Safe"


def test_word_empty_input(runner, tmp_path):
    spec = write_spec(tmp_path, {"kind": "const", "word": "aa"})
    r = invoke(runner, ["word", "--alphabet", "ab", "--spec", spec, "--input", ""])
    assert r.exit_code == 0
    assert r.output.splitlines()[0] == "aa"


def test_word_letter_outside_alphabet(runner, tmp_path):
    spec = write_spec(tmp_path, {"kind": "const", "word": "a"})
    r = invoke(runner, ["word", "--alphabet", "ab", "--spec", spec, "--input", "ac"])
    assert r.exit_code == 2


def test_word_malformed_spec(runner, tmp_path):
    spec = write_spec(tmp_path, {"kind": "reverse"})
    r = invoke(runner, ["word", "--alphabet", "ab", "--spec", spec, "--input", "a"])
    assert r.exit_code == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    r = invoke(
        runner, ["word", "--alphabet", "ab", "--spec", str(broken), "--input", "a"]
    )
    assert r.exit_code == 2


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "text, reason",
    [
        ("not json", "Expecting value"),
        ('{"kind": "reverse"}', "unknown word-function constructor 'reverse'"),
        ('{"kind": "const", "word": 5}', "'word' must be a string, not int"),
        (
            '{"kind": "letter_hom", "mapping": {"a": ["a"]}}',
            "'mapping' must map letters to words",
        ),
    ],
    ids=["not-json", "unknown-kind", "word-not-string", "image-not-string"],
)
def test_word_spec_errors_name_the_spec(runner, tmp_path, text, reason, as_json):
    spec = tmp_path / "id.lam"
    spec.write_text(text)
    argv = ["word", "--alphabet", "a", "--spec", str(spec), "--input", "aa"]
    r = invoke(runner, argv + (["--json"] if as_json else []))
    assert r.exit_code == 2
    prefix = f"bad --spec {spec}: "
    if as_json:
        [line] = r.stdout.splitlines()
        message = json.loads(line)["error"]
    else:
        message = r.output.removeprefix("error: ").rstrip("\n")
    assert message.startswith(prefix)
    assert reason in message


# -- qbf ---------------------------------------------------------------


def test_qbf_false_formula(runner):
    r = invoke(runner, ["qbf", "forall x. x"])
    assert r.exit_code == 1
    assert r.output.strip() == "false; term normalizes to church false; oracle agrees"


def test_module_entry_point_runs_commands():
    src = str(Path(safelc.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    r = subprocess.run(
        [sys.executable, "-m", "safelc.cli", "qbf", "forall v1. exists v2. v1 & v2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert r.returncode == 1
    assert r.stdout.split(";")[0] == "false"


def test_qbf_true_formula(runner):
    r = invoke(runner, ["qbf", "exists x. x"])
    assert r.exit_code == 0
    assert r.output.strip() == "true; term normalizes to church true; oracle agrees"


def test_qbf_json(runner):
    r = invoke(runner, ["qbf", "forall x. exists y. x & y | !x & !y", "--json"])
    data = json.loads(r.output)
    assert data["value"] == "true"
    assert data["oracle_agrees"] is True


def test_qbf_parse_error(runner):
    r = invoke(runner, ["qbf", "forall. x"])
    assert r.exit_code == 2


def test_qbf_emit_instance(runner, tmp_path):
    out = tmp_path / "instance"
    r = invoke(runner, ["qbf", "exists x. x", "--emit-instance", str(out)])
    assert r.exit_code == 0
    lhs = parse((out / "lhs.term").read_text())
    rhs = parse((out / "rhs.term").read_text())
    assert alpha_eq(rhs, parse(r"\x:o y:o. x"))
    assert lhs.size > rhs.size


# -- traverse ----------------------------------------------------------

BLOCK = r"\a:o g:o->o. (\x:o f:o->o. f x) a g"


def test_traverse_block_redex(runner, lamfile):
    r = invoke(runner, ["traverse", lamfile("block.lam", BLOCK), "--json"])
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert len(data["nodes"]) == 12
    assert len(data["traversals"]) == 1
    t = data["traversals"][0]
    assert t["maximal"] is True
    assert len(t["steps"]) == 12
    assert [s["parity"] for s in t["steps"]] == ["O", "P"] * 6
    assert t["core"] == [0, 5, 6, 11]
    assert alpha_eq(parse(data["normal_form"]), parse(r"\a:o g:o->o. g a"))


def test_traverse_text_mentions_every_traversal(runner, lamfile):
    path = lamfile("pair.lam", r"\p:o->o->o x:o y:o. p x y")
    r = invoke(runner, ["traverse", path])
    assert r.exit_code == 0
    assert r.output.count("traversal ") == 2  # p branches over two arguments
    assert "normal form: " in r.output


def test_traverse_show_views(runner, lamfile):
    r = invoke(
        runner, ["traverse", lamfile("id.lam", r"\x:o. x"), "--show-views"]
    )
    assert r.exit_code == 0
    assert "view: 0 1" in r.output


def test_traverse_open_term_env(runner, lamfile):
    path = lamfile("open.lam", "f a")
    r = invoke(runner, ["traverse", path, "--env", "f:o->o, a:o", "--json"])
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert alpha_eq(
        parse(data["normal_form"]),
        parse("f a", canonical=True),
    ) or data["normal_form"] == "f a"


def test_traverse_ill_typed_is_usage_error(runner, lamfile):
    r = invoke(runner, ["traverse", lamfile("bad.lam", r"\x:o. x x")])
    assert r.exit_code == 2


def test_traverse_length_budget_exits_three(runner, lamfile):
    r = invoke(
        runner, ["traverse", lamfile("block.lam", BLOCK), "--max-length", "3"]
    )
    assert r.exit_code == 3


def test_traverse_zero_length_is_usage_error(runner, lamfile):
    r = invoke(
        runner, ["traverse", lamfile("block.lam", BLOCK), "--max-length", "0"]
    )
    assert r.exit_code == 2


# -- corpus ------------------------------------------------------------


def test_corpus_all_green(runner):
    r = invoke(runner, ["corpus", "--count", "40"])
    assert r.exit_code == 0
    assert "all suites passed" in r.output
    for name in (
        "hand-verdicts",
        "no-capture",
        "strategy-agreement",
        "traversal-normal-form",
        "safe-reconstruction",
    ):
        assert name in r.output


def test_corpus_json_shape(runner):
    r = invoke(runner, ["corpus", "--count", "25", "--seed", "9", "--json"])
    data = json.loads(r.output)
    assert data["seed"] == 9
    assert len(data["suites"]) == 5
    assert all(s["ok"] for s in data["suites"])


# -- misc --------------------------------------------------------------


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "args",
    [
        ["normalize", "{id}", "--max-steps", "0"],
        ["normalize", "{id}", "--max-size", "0"],
        ["eq", "{id}", "{id}", "--max-steps", "0"],
        ["eq", "{id}", "{id}", "--max-size", "0"],
        ["traverse", "{id}", "--max-length", "0"],
        ["corpus", "--count", "-1"],
    ],
    ids=lambda args: " ".join(args[:1] + args[-2:]),
)
def test_option_out_of_range_is_usage_error(runner, lamfile, args, as_json):
    path = lamfile("id.lam", r"\x:o. x")
    argv = [a.format(id=path) for a in args] + (["--json"] if as_json else [])
    r = invoke(runner, argv)
    assert r.exit_code == 2
    assert "Traceback" not in r.output
    if as_json:
        assert list(json.loads(r.stdout)) == ["error"]
    else:
        assert "Invalid value for" in r.output


def test_version_flag(runner):
    r = invoke(runner, ["--version"])
    assert r.exit_code == 0
    assert "safelc" in r.output
