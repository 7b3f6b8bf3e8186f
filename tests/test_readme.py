"""The README library tour runs, its commands parse, and ``import ppboot`` exports what it uses.

The package's public names are the names the tour imports plus the
errors the command line maps to exit codes.  A later export cut or
rename then fails here before it breaks the documented tour, and a
removed command-line flag fails here while the README still names it.
"""
import ast
import re
import shlex
import types
from pathlib import Path

import ppboot
from ppboot.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
CLI_ERRORS = {"PpbootError", "ParameterError", "ConfigError", "DataError", "NumericalError"}


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def cli_examples() -> list[list[str]]:
    """The arguments of every ``ppboot`` line in the sh blocks, continuations joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["ppboot"]:
                commands.append(words[1:])
    return commands


def tour_imports() -> set[str]:
    names = set()
    for block in python_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "ppboot":
                names.update(alias.name for alias in node.names)
    return names


def test_tour_blocks_run_in_order():
    namespace: dict = {}
    for block in python_blocks():  # later blocks use names the first one defines, as in one session
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["v_lim"] > 0 and namespace["v_sim"] > 0
    assert len(namespace["band"].lo) == len(namespace["grid"])


def test_cli_examples_parse():
    commands = cli_examples()
    assert commands
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # argparse exits 2 on an unknown flag or choice


def test_public_names_are_the_tour_and_the_cli_errors():
    public = {name for name, value in vars(ppboot).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == tour_imports() | CLI_ERRORS
    assert isinstance(ppboot.__version__, str)
