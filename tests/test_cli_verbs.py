"""The verb table is the parser: each verb takes exactly the options that its
handler reads, an option it does not read exits 2, and every `linfty` line in
the README parses."""

import ast
import contextlib
import functools
import io
import pathlib
import re
import shlex

import pytest

from linfty import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLI_SOURCE = pathlib.Path(cli.__file__).read_text()

# a value for each option: (the words after the flag, the parsed value)
VALUES = {"n": (["3"], 3), "instance": (["inst.json"], "inst.json"),
          "coeff_algebra": (["A.json"], "A.json"), "trunc": (["3"], 3),
          "order": (["4"], 4), "window": (["0", "2"], [0, 2]),
          "seed": (["5"], 5), "samples": (["7"], 7), "max_arity": (["3"], 3),
          "allow_non_mc": ([], True)}
# what run() and every handler may read besides the declared options
ALWAYS = {"verb", "exprs", "format"}


def flag(name):
    return "--" + name.replace("_", "-")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_option_has_a_sample_value():
    assert set(VALUES) == set(cli.OPTIONS)


@pytest.mark.parametrize("verb", cli.VERBS)
def test_declared_options_parse(verb):
    for name in cli.VERBS[verb][3]:
        words, value = VALUES[name]
        args = cli.build_parser().parse_args([verb, flag(name), *words])
        assert getattr(args, name) == value, (verb, name)


@pytest.mark.parametrize("verb", cli.VERBS)
def test_undeclared_options_exit_two(verb):
    for name in sorted(set(cli.OPTIONS) - set(cli.VERBS[verb][3])):
        code, out, err = run([verb, flag(name), *VALUES[name][0]])
        assert (code, out) == (2, ""), (verb, name)
        assert f"error: unrecognized arguments: {flag(name)}" in err, err


@pytest.mark.parametrize("name", [n for n, spec in cli.OPTIONS.items()
                                  if spec.get("type") is cli.positive])
@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_counts_below_one_exit_two(name, value):
    # a cap or count below 1 would check nothing or fail deep in the
    # coalgebra code, and --n below 1 made the grammar blame an operand that
    # is fine: argparse refuses each, naming the option
    verbs = [v for v, entry in cli.VERBS.items() if name in entry[3]]
    assert verbs
    for verb in verbs:
        code, out, err = run([verb, flag(name), value])
        assert (code, out) == (2, ""), (verb, name)
        assert err.endswith(f"error: argument {flag(name)}: invalid positive value: "
                            f"'{value}'\n"), err


def args_read(source, function, helpers=("_emit",)):
    """The names `x` of the `args.x` reads in `function` of `source`, and in
    the functions of `source` that it, or `helpers`, pass `args` to."""
    functions = {node.name: node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef)}
    read, todo, seen = set(), [function, *helpers], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in functions
                  and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
                todo.append(node.func.id)
    return read


def test_detector_follows_helpers_that_take_args():
    source = ("def _emit(doc, args):\n    return args.format\n"
              "def _load(args, doc=None):\n    return args.instance\n"
              "def _other(x):\n    return x.seed\n"
              "def handler(args):\n    _other(args.n)\n    return _load(args)\n"
              "def unrelated(args):\n    return args.samples\n")
    assert args_read(source, "handler") == {"format", "instance", "n"}


@pytest.mark.parametrize("verb", cli.VERBS)
def test_each_verb_declares_exactly_what_its_handler_reads(verb):
    handler, _, _, options = cli.VERBS[verb]
    if isinstance(handler, functools.partial):
        handler = handler.func
    assert args_read(CLI_SOURCE, handler.__name__) - ALWAYS == set(options)


def readme_cli_lines():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("linfty ")]


def readme_option_table():
    """{verb: option names} from the README's verb/option table."""
    table = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        cells = line.split("|")
        if line.startswith("| `") and len(cells) == 4:
            options = [o.replace("-", "_") for o in re.findall(r"`--([^`]+)`", cells[2])]
            for verb in re.findall(r"`([^`]+)`", cells[1]):
                assert verb not in table, verb
                table[verb] = options
    return table


def test_readme_option_table_is_the_verb_table():
    # the docs cannot list an option that a verb does not take, or miss one
    assert readme_option_table() == {verb: list(entry[3]) for verb, entry in cli.VERBS.items()}


def test_readme_has_cli_lines():
    assert len(readme_cli_lines()) >= 9


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_lines_parse(line):
    # the docs cannot show an option that a verb no longer takes
    argv = shlex.split(line, comments=True)[1:]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(err.getvalue())
    least, most = cli.VERBS[args.verb][2]
    assert least <= len(args.exprs) and (most is None or len(args.exprs) <= most), line
