"""``tools/size.py`` runs on the checkout and prints every key of its ledger."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEYS = ["src_lines", "public_names", "test_only_names", "unreached_names", "settable_values",
        "noqa_alias_lines"]


def test_size_tool_prints_every_key_of_the_ledger():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "size.py"), str(ROOT)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    ledger = dict(line.split(": ", 1) for line in out.stdout.splitlines())
    assert list(ledger) == KEYS
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "xlab").glob("*.py"))
    assert ledger.pop("src_lines") == str(lines)
    counted = {key: value.split() for key, value in ledger.items()}
    for key, (count, *names) in counted.items():
        assert int(count) == len(names), key
    public = set(counted["public_names"][1:])
    assert set(counted["test_only_names"][1:]) | set(counted["unreached_names"][1:]) <= public
