"""The README's command block, run in-process, writes the recorded bytes.

The commands are read from the README itself, so the list has one home.
Each output's sha256 is pinned in readme_outputs.json; a change to any
printed digit of a README command shows up here and must be deliberate.
"""

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from sjj.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "readme_outputs.json").read_text())
# the last digits of spectrum come from the LAPACK build's rounding of sterf
LAPACK_DEPENDENT = {"spectrum"}


def readme_commands() -> list[list[str]]:
    """Each `sjj ...` command of the README's sh blocks, continuations joined."""
    readme = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```$", readme, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line)
            if argv and argv[0] == "sjj":
                commands.append(argv[1:])
    return commands


COMMANDS = readme_commands()


def test_every_readme_output_is_pinned():
    names = {argv[argv.index("-o") + 1] for argv in COMMANDS}
    skipped = {argv[argv.index("-o") + 1] for argv in COMMANDS if argv[0] in LAPACK_DEPENDENT}
    assert len(names) == len(COMMANDS) >= 9
    assert set(GOLDEN) == names - skipped


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[argv.index("-o") + 1])
def test_readme_output_bytes(argv, tmp_path):
    if argv[0] in LAPACK_DEPENDENT:
        pytest.skip(f"{argv[0]}: its last digits depend on the LAPACK build")
    at = argv.index("-o") + 1
    out = tmp_path / argv[at]
    assert main([*argv[:at], str(out), *argv[at + 1:]]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[argv[at]]
