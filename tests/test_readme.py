"""The README's examples run as written: the Library block executes and
every command of the Command line block parses."""
import pathlib
import re
import shlex

from hives import cli

README = (pathlib.Path(__file__).resolve().parent.parent
          / "README.md").read_text()


def first_block(heading: str) -> str:
    """The first fenced code block after the line ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


def test_library_block_runs():
    exec(first_block("## Library"), {})


def test_command_line_block_parses():
    commands = [shlex.split(line)
                for line in first_block("## Command line").splitlines()]
    assert commands and all(argv[0] == "hives" for argv in commands)
    parser = cli.build_parser()
    for argv in commands:
        assert parser.parse_args(argv[1:]).command == argv[1]
