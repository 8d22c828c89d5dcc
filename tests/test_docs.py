"""The docs name only what the package has: every backticked ``<module>.<name>``
in README.md resolves, each command line in the README and in the CLI's usage
text lists every option its subcommand defines, every ``--option`` either
text names is defined by some subcommand, the README and the ``formats``
docstring list the keys ``formats.write_frames`` writes, the README lists the
fields of a subject, and the README and the CLI's usage text list the CLI's exit
codes."""

import argparse
import importlib
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import pytest

import vitalchirp
from vitalchirp import cli, formats
from vitalchirp.physio import SubjectVitals, preset_subject
from vitalchirp.radar import AcquisitionParams, RadarTarget, synth_dechirp_frames

from conftest import frames_header

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = {m.name for m in pkgutil.iter_modules(vitalchirp.__path__)}
for _module in MODULES:
    importlib.import_module(f"vitalchirp.{_module}")  # now an attribute of the package
FILE_SUFFIXES = {"bin", "csv", "json", "md", "py", "toml"}  # `scenario.json` names a file


def _references(text):
    """Each backticked dotted name that starts with the package or one of its modules."""
    for ref in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", text):
        parts = ref.removeprefix("vitalchirp.").split(".")
        if (ref.startswith("vitalchirp.") or parts[0] in MODULES) and (
                parts[-1] not in FILE_SUFFIXES):
            yield ref, parts


def _resolves(parts):
    obj = vitalchirp
    for name in parts:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_readme_references_resolve():
    refs = list(_references(README))
    assert len(refs) > 10
    assert [ref for ref, parts in refs if not _resolves(parts)] == []


def _command_lines(text):
    """``{subcommand: line}`` for each ``vitalchirp <subcommand>`` line, continuations joined."""
    lines = text.replace("\\\n", " ").splitlines()
    return {words[1]: line for line in lines
            if len(words := line.split()) > 1 and words[0] == "vitalchirp"}


def _readme_command_block():
    section = README.split("## Command line", 1)[1]
    return section.split("```bash", 1)[1].split("```", 1)[0]


def _subcommands():
    (commands,) = [a.choices for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return commands


@pytest.mark.parametrize("text", [_readme_command_block(), cli.__doc__],
                         ids=["readme", "cli-usage"])
def test_command_lines_list_every_option(text):
    commands = _subcommands()
    lines = _command_lines(text)
    assert sorted(lines) == sorted(commands)
    missing = [f"{name} {option}" for name, sub in commands.items()
               for action in sub._actions for option in action.option_strings
               if option.startswith("--") and option != "--help"
               and not re.search(rf"(?<![\w-]){option}(?![\w-])", lines[name])]
    assert missing == []


@pytest.mark.parametrize("text", [README, cli.__doc__], ids=["readme", "cli-usage"])
def test_every_named_option_is_defined(text):
    defined = {option for sub in _subcommands().values() for action in sub._actions
               for option in action.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text))
    assert sorted(named - defined) == []


def _listed_keys(text, start, end):
    """The backticked names between ``start`` and ``end`` in ``text``, whitespace joined."""
    text = " ".join(text.split())
    return sorted(re.findall(r"`+(\w+)`+", text.split(start, 1)[1].split(end, 1)[0]))


@pytest.mark.parametrize("listed", [
    _listed_keys(README.split("### Frames container", 1)[1], "JSON header (", "),"),
    _listed_keys(formats.__doc__, "JSON header with keys", "* remaining bytes"),
], ids=["readme", "formats-docstring"])
def test_frames_header_keys_are_the_written_ones(listed, chirp, tmp_path):
    frames = synth_dechirp_frames([RadarTarget(preset_subject("subject-b"), 1.00)], chirp,
                                  AcquisitionParams(duration=0.1))
    path = tmp_path / "frames.bin"
    formats.write_frames(frames, path)
    written = sorted(frames_header(path)[0])
    assert "truth" in written
    assert listed == written


def test_readme_subject_keys_are_the_fields():
    listed = _listed_keys(README, "A full subject dict takes", ".")
    assert listed == sorted(f.name for f in fields(SubjectVitals))


def _exit_codes(text):
    """``{code: meaning}`` as the sentence that starts "Exit codes:" in ``text`` lists them."""
    sentence = " ".join(text.split()).split("Exit codes:", 1)[1].split(".", 1)[0]
    items = re.sub(r"\(.*?\)", "", sentence.replace("`", "")).split(",")
    return dict(item.strip().split(" ", 1) for item in items)


@pytest.mark.parametrize("text", [README, cli.__doc__], ids=["readme", "cli-usage"])
def test_exit_codes_are_the_cli_ones(text):
    assert _exit_codes(text) == {
        str(cli.EXIT_OK): "ok", str(cli.EXIT_VALIDATION): "validation failure",
        str(cli.EXIT_IO): "I/O failure", str(cli.EXIT_PROCESSING): "processing failure"}
