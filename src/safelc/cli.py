"""Command line workbench.

Exit codes are part of the contract: 0 success, 1 negative verdict
(an unsafe term, unequal terms, a false formula, a failing suite),
2 usage error, 3 budget exhaustion, 4 broken internal contract.
"""

import json
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from . import __version__
from .corpus import run_suites
from .encodings import (
    DecodeError,
    Word,
    church_nat,
    church_word,
    compile_polynomial,
    compile_word_function,
    decode_nat,
    decode_word,
    apply_word_function,
    parse_polynomial,
    word_spec_from_json,
)
from .games import (
    _DEFAULT_MAX_LEN,
    build_computation_tree,
    enumerate_traversals,
    p_view_indices,
    parity,
    traversal_normal_form,
)
from .hardness import CHURCH_TRUE, equality_instance, qbf_to_term
from .qbf import parse_qbf, qbf_text
from .qbf_oracle import eval_qbf
from .reduction import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CaptureViolation,
    ReductionBudget,
    _normalize_counted,
    beta_eta_equal,
    reduction_sequence,
)
from .reduction import normalize as _normalize
from .safety import Level, TypeCheckError, safety_check, simple_type_of
from .syntax import ParseError, mk_app, parse, parse_env, pretty

EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_CONTRACT = 4


def _fail(code: int, message: str, as_json: bool):
    if as_json:
        click.echo(json.dumps({"error": message}))
    else:
        click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _emit(as_json: bool, payload: dict, lines):
    if as_json:
        click.echo(json.dumps(payload, indent=2))
    else:
        for line in lines:
            click.echo(line)


@contextmanager
def _user_text(as_json: bool, rejected, prefix: str = ""):
    """Reading user text: `rejected` errors are usage errors, and an
    overflow means the text itself is nested too deeply."""
    try:
        yield
    except rejected as exc:
        _fail(EXIT_USAGE, f"{prefix}{exc}", as_json)
    except RecursionError:
        _fail(EXIT_BUDGET, "input nested too deeply", as_json)


def _load_term(path: str, as_json: bool, canonical: bool = True):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        _fail(EXIT_USAGE, f"cannot read {path}: {exc}", as_json)
    with _user_text(as_json, ParseError, f"{path}: "):
        return parse(text, canonical)


def _load_env(text: str, as_json: bool):
    with _user_text(as_json, (ParseError, ValueError), "bad --env: "):
        return parse_env(text or "")


_ENV_HELP = "types of free variables, e.g. 'z:o, f:o->o'"
_MAX_STEPS = click.option("--max-steps", default=DEFAULT_BUDGET.max_steps, show_default=True, type=click.IntRange(1))
_MAX_SIZE = click.option("--max-size", default=DEFAULT_BUDGET.max_term_size, show_default=True, type=click.IntRange(1))


# Each library failure a command lets through: its exit code and message.
# The first row whose classes match wins.
_EXIT_TABLE = (
    ((TypeCheckError, ParseError), EXIT_USAGE, "{exc}"),
    ((BudgetExceededError,), EXIT_BUDGET, "{exc}"),
    ((RecursionError,), EXIT_BUDGET, "a term computed from the input is nested too deeply"),
    ((CaptureViolation,), EXIT_CONTRACT, "capture flag raised: {exc}"),
    ((DecodeError,), EXIT_CONTRACT, "normal form is {exc}"),
    ((Exception,), EXIT_CONTRACT, "unexpected {name}: {exc}"),
)


class _GuardedGroup(click.Group):
    """Maps failures no command handles to exit codes instead of tracebacks,
    and under --json prints an option error as one JSON object too."""

    def invoke(self, ctx):
        as_json = "--json" in ctx.args
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            if as_json:
                _fail(EXIT_USAGE, exc.format_message(), True)
            raise
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            for classes, code, message in _EXIT_TABLE:
                if isinstance(exc, classes):
                    _fail(code, message.format(exc=exc, name=type(exc).__name__), as_json)


@click.group(cls=_GuardedGroup)
@click.version_option(version=__version__, prog_name="safelc")
def main():
    """Workbench for safe lambda terms."""


@main.command()
@click.argument("termfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--env", "env_text", default="", help=_ENV_HELP)
@click.option("--trace", is_flag=True, help="print the full derivation")
@click.option("--json", "as_json", is_flag=True)
def check(termfile, env_text, trace, as_json):
    """Safety verdict and simple type of the term in TERMFILE."""
    env = _load_env(env_text, as_json)
    # judged as written: a block split over nested abstractions is split
    term = _load_term(termfile, as_json, canonical=False)
    verdict = safety_check(env, term)
    failures = [e.describe() for e in verdict.failures]
    lines = [verdict.describe()]
    if trace:
        lines += [f"  {e.describe()}" for e in verdict.trace]
    else:
        lines += [f"  {f}" for f in failures]
    payload = {
        "level": str(verdict.level),
        "type": str(verdict.type) if verdict.type is not None else None,
        "failures": failures,
    }
    if trace:
        payload["trace"] = [e.describe() for e in verdict.trace]
    _emit(as_json, payload, lines)
    sys.exit(0 if verdict.level is Level.SAFE else EXIT_NEGATIVE)


@main.command()
@click.argument("termfile", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--strategy",
    type=click.Choice(["plain", "safe"]),
    default="plain",
    show_default=True,
)
@_MAX_STEPS
@_MAX_SIZE
@click.option("--trace", is_flag=True, help="print every reduction step")
@click.option("--json", "as_json", is_flag=True)
def normalize(termfile, strategy, max_steps, max_size, trace, as_json):
    """Normal form of the term in TERMFILE."""
    term = _load_term(termfile, as_json)
    if not term.free_names:  # open input has no --env to type it against
        simple_type_of({}, term)
    budget = ReductionBudget(max_steps, max_size)
    if trace:
        chain = [pretty(t) for t in reduction_sequence(term, strategy, budget)]
        shown, count = chain[-1], len(chain) - 1
    else:
        chain = []
        last, count = _normalize_counted(term, strategy, budget)
        shown = pretty(last)
    lines = [f"[{i}] {s}" for i, s in enumerate(chain)]
    lines.append(shown)
    payload = {"normal_form": shown, "steps": count}
    if trace:
        payload["chain"] = chain
    _emit(as_json, payload, lines)


@main.command()
@click.argument("left", type=click.Path(exists=True, dir_okay=False))
@click.argument("right", type=click.Path(exists=True, dir_okay=False))
@click.option("--env", "env_text", default="", help=_ENV_HELP)
@_MAX_STEPS
@_MAX_SIZE
@click.option("--json", "as_json", is_flag=True)
def eq(left, right, env_text, max_steps, max_size, as_json):
    """Beta-eta equality of the terms in LEFT and RIGHT."""
    env = _load_env(env_text, as_json)
    a = _load_term(left, as_json)
    b = _load_term(right, as_json)
    equal = beta_eta_equal(env, a, b, ReductionBudget(max_steps, max_size))
    text = "beta-eta equal" if equal else "not beta-eta equal"
    _emit(as_json, {"equal": equal}, [text])
    sys.exit(0 if equal else EXIT_NEGATIVE)


def _parse_assignment(text: str, variables, as_json: bool) -> dict:
    values = {}
    for piece in text.split(","):
        name, sep, raw = piece.partition("=")
        name = name.strip()
        if not sep or not name:
            _fail(EXIT_USAGE, f"bad assignment {piece!r}", as_json)
        try:
            n = int(raw)
        except ValueError:
            _fail(EXIT_USAGE, f"bad assignment value {raw!r}", as_json)
        if n < 0:
            _fail(EXIT_USAGE, f"negative value for {name}", as_json)
        if name not in variables:
            _fail(EXIT_USAGE, f"unknown polynomial variable {name!r}", as_json)
        if name in values:
            _fail(EXIT_USAGE, f"{name} assigned twice", as_json)
        values[name] = n
    return values


@main.command()
@click.argument("expression")
@click.option("--at", "at_text", default=None, help="inputs like x=2,y=1")
@click.option("--emit-term", is_flag=True, help="print the compiled term")
@click.option("--json", "as_json", is_flag=True)
def poly(expression, at_text, emit_term, as_json):
    """Compile EXPRESSION to a term over church numerals."""
    with _user_text(as_json, ValueError):
        p = parse_polynomial(expression)
    term = compile_polynomial(p)
    verdict = safety_check({}, term)
    lines = [verdict.describe()]
    payload = {
        "variables": list(p.variables),
        "level": str(verdict.level),
        "type": str(verdict.type),
    }
    if emit_term:
        lines.append(pretty(term))
        payload["term"] = pretty(term)
    if at_text is not None:
        values = _parse_assignment(at_text, p.variables, as_json)
        with _user_text(as_json, ValueError):
            direct = p.evaluate(values)
        applied = mk_app(term, tuple(church_nat(values[v]) for v in p.variables))
        computed = decode_nat(_normalize(applied))
        if computed != direct:
            _fail(
                EXIT_CONTRACT,
                f"term computes {computed}, polynomial says {direct}",
                as_json,
            )
        shown = ", ".join(f"{v}={values[v]}" for v in p.variables)
        lines.append(f"p({shown}) = {computed}")
        payload["assignment"] = values
        payload["value"] = computed
    _emit(as_json, payload, lines)


@main.command()
@click.option("--alphabet", required=True, help="ordered distinct letters")
@click.option(
    "--spec",
    "spec_path",
    required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="word function description (json)",
)
@click.option("--input", "input_text", required=True, help="input word")
@click.option("--emit-term", is_flag=True, help="print the compiled term")
@click.option("--json", "as_json", is_flag=True)
def word(alphabet, spec_path, input_text, emit_term, as_json):
    """Run a catalogued word function on INPUT via its term."""
    with _user_text(as_json, (OSError, ValueError, KeyError), f"bad --spec {spec_path}: "):
        spec = word_spec_from_json(json.loads(Path(spec_path).read_text()))
    with _user_text(as_json, (ValueError, KeyError)):
        w = Word(alphabet, input_text)
        term = compile_word_function(spec, alphabet)
    direct = apply_word_function(spec, w)
    got = decode_word(_normalize(mk_app(term, (church_word(w),))), alphabet)
    if got.letters != direct.letters:
        _fail(
            EXIT_CONTRACT,
            f"term computes {got.letters!r}, evaluator says {direct.letters!r}",
            as_json,
        )
    verdict = safety_check({}, term)
    lines = [direct.letters]
    payload = {
        "output": direct.letters,
        "level": str(verdict.level),
        "type": str(verdict.type),
    }
    if emit_term:
        lines.append(pretty(term))
        payload["term"] = pretty(term)
    _emit(as_json, payload, lines)


@main.command()
@click.argument("formula")
@click.option(
    "--emit-instance",
    "emit_dir",
    type=click.Path(file_okay=False),
    default=None,
    help="write the equality instance term files here",
)
@click.option("--json", "as_json", is_flag=True)
def qbf(formula, emit_dir, as_json):
    """Decide FORMULA by normalizing its term; cross-check the oracle."""
    with _user_text(as_json, ValueError):
        f = parse_qbf(formula)
        oracle = eval_qbf(f)
    term = qbf_to_term(f)
    holds = beta_eta_equal({}, term, CHURCH_TRUE)
    value = "true" if holds else "false"
    if holds != oracle:
        _fail(
            EXIT_CONTRACT,
            f"term normalizes to church {value} but the oracle says {oracle}",
            as_json,
        )
    lines = [f"{value}; term normalizes to church {value}; oracle agrees"]
    payload = {"formula": qbf_text(f), "value": value, "oracle_agrees": True}
    if emit_dir is not None:
        directory = Path(emit_dir)
        directory.mkdir(parents=True, exist_ok=True)
        lhs, rhs = equality_instance(f)
        (directory / "lhs.term").write_text(pretty(lhs) + "\n")
        (directory / "rhs.term").write_text(pretty(rhs) + "\n")
        lines.append(f"instance written to {directory}")
        payload["instance_dir"] = str(directory)
    _emit(as_json, payload, lines)
    sys.exit(0 if holds else EXIT_NEGATIVE)


@main.command()
@click.argument("termfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--env", "env_text", default="", help=_ENV_HELP)
@click.option("--max-length", default=_DEFAULT_MAX_LEN, show_default=True, type=click.IntRange(1))
@click.option("--show-views", is_flag=True, help="print final views")
@click.option("--json", "as_json", is_flag=True)
def traverse(termfile, env_text, max_length, show_views, as_json):
    """Enumerate traversals of TERMFILE's computation tree."""
    env = _load_env(env_text, as_json)
    term = _load_term(termfile, as_json)
    tree = build_computation_tree(env, term)
    traversals = enumerate_traversals(tree, max_len=max_length)
    nf = traversal_normal_form(tree, max_length)

    lines = [f"computation tree: {len(tree.nodes)} nodes"]
    payload = {
        "nodes": [
            {
                "id": n.id,
                "label": n.label,
                "order": n.order,
                "parity": parity(n),
            }
            for n in tree.nodes
        ],
        "traversals": [],
        "normal_form": pretty(nf),
    }
    for i, t in enumerate(traversals):
        status = "maximal" if t.maximal else f"cut at {len(t)}"
        lines.append(f"traversal {i} ({status}):")
        entry_rows = []
        for k, occ in enumerate(t.occurrences):
            j = "-" if occ.justifier is None else occ.justifier
            lines.append(
                f"  {k:3}  {occ.node.label:<16} justifier={j!s:>3}  {occ.rule}"
            )
            entry_rows.append(
                {
                    "position": k,
                    "node": occ.node.id,
                    "label": occ.node.label,
                    "justifier": occ.justifier,
                    "rule": occ.rule,
                    "parity": parity(occ.node),
                }
            )
        core = [k for k, flag in enumerate(t.core) if flag]
        lines.append("  core: " + " ".join(str(c) for c in core))
        row = {"maximal": t.maximal, "steps": entry_rows, "core": core}
        if show_views:
            view = p_view_indices(t.occurrences)
            lines.append("  view: " + " ".join(str(v) for v in view))
            row["view"] = view
        payload["traversals"].append(row)
    lines.append(f"normal form: {pretty(nf)}")
    _emit(as_json, payload, lines)


@main.command()
@click.option("--count", default=200, show_default=True, type=click.IntRange(0))
@click.option("--seed", default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def corpus(count, seed, as_json):
    """Run the built-in corpus through every property suite."""
    results = run_suites(count=count, seed=seed)
    lines = [f"{'suite':<24} {'checked':>8}  result"]
    for r in results:
        state = "ok" if r.ok else f"{len(r.failures)} failed"
        lines.append(f"{r.name:<24} {r.checked:>8}  {state}")
        for failure in r.failures[:5]:
            lines.append(f"    {failure}")
    bad = [r for r in results if not r.ok]
    lines.append(
        "all suites passed" if not bad else f"{len(bad)} suite(s) failed"
    )
    payload = {
        "count": count,
        "seed": seed,
        "suites": [
            {
                "name": r.name,
                "checked": r.checked,
                "ok": r.ok,
                "failures": list(r.failures),
            }
            for r in results
        ],
    }
    _emit(as_json, payload, lines)
    sys.exit(0 if not bad else EXIT_NEGATIVE)


if __name__ == "__main__":
    main()
