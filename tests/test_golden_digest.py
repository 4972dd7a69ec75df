import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("golden_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_2x2_prints_one_digest_per_item(capsys):
    tool = load_tool()
    assert tool.main(["--shapes", "2x2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    items = [line[66:] for line in lines]
    shape_items = ["gen", "gen --pointed", "recover", "square-complete", "sheets", "phi", "lambda"]
    assert items[:7] == [f"{item} 2x2" for item in shape_items]
    assert items[7:] == [" ".join(argv) for argv in tool.SUITE_RUNS]


def test_outputs_match_the_committed_digest(capsys):
    """Every item of the default run against `tests/golden/digest.txt`, a
    run of the tool kept in the repository: a change that claims to keep
    behaviour must print the same lines.  The first item that differs is
    named."""
    tool = load_tool()
    assert tool.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    golden = (Path(__file__).resolve().parent / "golden" / "digest.txt").read_text(encoding="utf-8").splitlines()
    for got, want in zip(lines, golden):
        assert got == want, f"output of {want[66:]!r} differs from the committed digest"
    assert len(lines) == len(golden), f"{len(lines)} items printed, {len(golden)} committed"
