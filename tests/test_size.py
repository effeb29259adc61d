"""``tools/size.py`` runs on the checkout and prints every key of its ledger, and no
public name of ``xlab`` is reached by nothing or, unless listed below, by tests alone."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
KEYS = ["src_lines", "public_names", "test_only_names", "unreached_names", "settable_values",
        "scalar_parameters", "noqa_alias_lines"]
# public names that only tests reach, each kept for the reason given
TEST_ONLY = {
    "mixer.marginal": "delete unless the experiment runner uses it (ROADMAP item 4)",
    "tokenizer.save_vocab": "the experiment runner will write vocabularies (ROADMAP item 3)",
    "tokenizer.load_vocab": "the experiment runner will read vocabularies (ROADMAP item 3)",
    "tokenizer.relabel": "the experiment runner will swap clone roles (ROADMAP item 3)",
    "tokenizer.disjoint_layout": "the experiment runner will lay out real pairs (ROADMAP item 3)",
}


@pytest.fixture(scope="module")
def ledger():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "size.py"), str(ROOT)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return dict(line.split(": ", 1) for line in out.stdout.splitlines())


def test_size_tool_prints_every_key_of_the_ledger(ledger):
    ledger = dict(ledger)
    assert list(ledger) == KEYS
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "xlab").glob("*.py"))
    assert ledger.pop("src_lines") == str(lines)
    counted = {key: value.split() for key, value in ledger.items()}
    for key, (count, *names) in counted.items():
        assert int(count) == len(names), key
    public = set(counted["public_names"][1:])
    assert set(counted["test_only_names"][1:]) | set(counted["unreached_names"][1:]) <= public


def test_every_public_name_has_a_caller_outside_the_tests_or_a_listed_reason(ledger):
    assert ledger["unreached_names"].split()[1:] == []
    test_only = set(ledger["test_only_names"].split()[1:])
    assert sorted(test_only - TEST_ONLY.keys()) == [], "give each a caller, or a reason here"
    assert sorted(TEST_ONLY.keys() - test_only) == [], "a listed name has a caller or is gone"
