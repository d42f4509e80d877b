"""The README's examples run as written: its python blocks, its config and
pattern examples, and the worked pipeline, whose query output must equal
the table the README shows."""

import re
import shlex
import shutil
from pathlib import Path

from ndfluents import load_config
from ndfluents.cli import main
from ndfluents.query import parse_pattern

ROOT = Path(__file__).resolve().parent.parent
# (language, body) of every fenced block, in order.
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def _first_block(predicate) -> tuple[int, str]:
    index = next(i for i, (lang, body) in enumerate(BLOCKS) if predicate(lang, body))
    return index, BLOCKS[index][1]


def test_python_blocks_run():
    namespace: dict = {}
    blocks = [body for lang, body in BLOCKS if lang == "python"]
    assert len(blocks) == 3
    for body in blocks:
        exec(compile(body, "README.md", "exec"), namespace)
    assert namespace["problems"] == []
    assert namespace["table"].columns == ("entity", "parts")


def test_config_example_loads():
    _, text = _first_block(lambda lang, body: lang == "ini")
    config = load_config(text)
    assert config.registry.names() == ["trust"]
    assert config.model.kind == "multi-context"


def test_query_pattern_example_parses():
    _, text = _first_block(lambda lang, body: not lang and body.startswith("PREFIX"))
    pattern = parse_pattern(text)
    assert len(pattern.patterns) == 2
    assert pattern.group_by.name == "who"
    assert pattern.context[0] == "temporal" and pattern.scale == 4


def test_worked_pipeline_prints_the_readme_table(tmp_path, monkeypatch, capsys):
    index, script = _first_block(lambda lang, body: lang == "sh" and "ingest-csv" in body)
    expected = BLOCKS[index + 1][1]
    (tmp_path / "fixtures").mkdir()
    shutil.copy(ROOT / "fixtures" / "world_population.csv", tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)

    lines = iter(script.replace("\\\n", " ").splitlines())
    commands = 0
    for line in lines:
        heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
        if heredoc:
            body = "".join(f"{text}\n" for text in iter(lines.__next__, "EOF"))
            Path(heredoc.group(1)).write_text(body, encoding="utf-8")
        elif line.strip():
            argv = shlex.split(line)
            assert argv[0] == "ndfluents"
            capsys.readouterr()
            assert main(argv[1:]) == 0, line
            commands += 1
    assert commands == 4
    assert capsys.readouterr().out == expected

