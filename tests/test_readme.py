import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    # the README's python blocks run as written: names they import exist
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_flag_table_matches_the_parser_table():
    # each row of the README's flag table, `--flag ARG` | readers | default,
    # names the subcommands of the CLI's table that read the flag and, for a
    # flag of one mode, the flag of that mode
    from dmajor.cli import COMMANDS, GLOBAL_FLAGS

    rows = re.findall(r"^\| `(--[\w-]+)[^`]*` \| ([^|]+) \|", README.read_text(), flags=re.M)
    table = {}
    for flag, readers in rows:
        names = set(re.findall(r"`(\w+)`", readers))
        commands = set(COMMANDS) if readers.strip() == "every subcommand" else names
        table[flag] = (commands, re.findall(r"with `(--[\w-]+)`", readers))
    modes = {flag: (command, mode) for command, (_, _, flag_modes) in COMMANDS.items()
             for flag, mode in flag_modes.items()}
    assert set(table) == set(GLOBAL_FLAGS) | set(modes)
    for flag in GLOBAL_FLAGS:
        readers = {command for command, (_, reads, _) in COMMANDS.items() if flag in reads}
        assert table[flag] == (readers, []), flag
    for flag, (command, mode) in modes.items():
        assert table[flag] == ({command}, [mode]), flag
