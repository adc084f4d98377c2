"""Byte-exact command-line output, run in-process through ``cli.main``.

``cli_snapshots.json`` maps each command line below, in each output
format, to its exit status and its stdout.  The profiles are written to a
temporary directory that becomes the working directory, so the
``# profile=`` echo holds the bare file name, and every ``VOTEMANIP_*``
variable is cleared so that only the command line sets the options.
"""

import json
import os
from pathlib import Path

import pytest

from votemanip import cli

PROFILES = {
    "divided.txt": "3 4\na b c\nb c a\nc a b\nc b a\n",
    "mixed.txt": "3 5\nc b a\na c b\nb a c\nc b a\na c b\n",
    "tied.txt": "3 4\na b c\na c b\nb a c\nb a c\n",
}

COMMANDS = (
    "winners divided.txt",
    "winners divided.txt --methods pdict:a,b,0,borda",
    "analyze divided.txt --voter 0 --methods plurality",
    "analyze divided.txt --methods borda,baldwin --notion harmless",
    "analyze mixed.txt --methods hare,borda --notion expected",
    "analyze mixed.txt --methods hare,borda --notion expected --weights 3/4,1/4",
    "table -n 3 -m 6 --methods coombs,hare --notion safe",
    "table -n 3 -m 5 --methods borda,hare --samples 50 --seed 7",
    "eliminate -n 3 -m 4 --methods borda,baldwin,strict_nanson,weak_nanson",
    "eliminate -n 3 -m 4 --methods plurality,copeland",
    "verify examples",
    "verify borda-coombs-baldwin",
    "pscf tied.txt --methods coombs,copeland,hare --voter 0",
    "pscf tied.txt --methods coombs,copeland,hare",
)

FORMATS = ("pretty", "csv", "json")

SNAPSHOTS = Path(__file__).with_name("cli_snapshots.json")


def run_command(argv: list[str], directory: Path, monkeypatch, capsys) -> dict:
    """Exit status and stdout of ``votemanip ARGV`` run in ``directory``."""
    for name in list(os.environ):
        if name.startswith("VOTEMANIP_"):
            monkeypatch.delenv(name)
    for name, text in PROFILES.items():
        (directory / name).write_text(text)
    monkeypatch.chdir(directory)
    capsys.readouterr()
    status = cli.main(argv)
    return {"status": status, "stdout": capsys.readouterr().out}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_the_snapshot(command, fmt, tmp_path, monkeypatch, capsys):
    key = f"{command} --format {fmt}"
    expected = json.loads(SNAPSHOTS.read_text())[key]
    got = run_command([*command.split(), "--format", fmt], tmp_path, monkeypatch, capsys)
    assert got == expected


def test_every_snapshot_is_exercised():
    keys = {f"{c} --format {f}" for c in COMMANDS for f in FORMATS}
    assert set(json.loads(SNAPSHOTS.read_text())) == keys
