"""The README's examples run and say what they claim."""

import contextlib
import io
import json
import re
from pathlib import Path

from condgof import ConditionalModel, config_from_dict

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


def test_quick_start_prints_its_comment():
    # the block ends in the two lines it prints, each as a comment
    block = _blocks("python")[0]
    expected = block.rstrip().splitlines()[-2:]
    assert all(line.startswith("# ") for line in expected)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue() == "".join(line[2:] + "\n" for line in expected)


def test_json_config_is_the_python_config():
    # run the second block only up to its first run_experiment call
    lines = _blocks("python")[1].splitlines()
    stop = next(i for i, line in enumerate(lines) if "run_experiment(cfg)" in line)
    namespace = {}
    exec("\n".join(lines[:stop]), namespace)
    assert config_from_dict(json.loads(_blocks("json")[0])) == namespace["cfg"]


def _family_interface() -> list[str]:
    """The bullets of the README's list of ConditionalModel members, one string each."""
    section = README.split("implement the small `ConditionalModel` interface", 1)[1]
    bullets = []
    for line in section.split("\n\n", 2)[1].splitlines():
        if line.startswith("- "):
            bullets.append(line[2:])
        else:
            bullets[-1] += " " + line.strip()
    return bullets


def test_family_interface_is_the_class():
    bullets = _family_interface()
    # each bullet opens with the members it describes, then "(required)" or "(optional..."
    heads = [set(re.findall(r"`(\w+)", b.split(" (", 1)[0])) for b in bullets]
    required = [h for h, b in zip(heads, bullets) if b.split(" (", 1)[1].startswith("required)")]
    assert required == [ConditionalModel.__abstractmethods__]
    public = {m for m in dir(ConditionalModel) if not m.startswith("_")}
    assert set().union(*heads) == public
