"""The README's examples run and say what they claim."""

import contextlib
import io
import json
import re
from pathlib import Path

from condgof import config_from_dict

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
