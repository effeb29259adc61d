"""``tools/bitexact.py`` runs in every Tier-1 pass: it trains four small configs
whole and resumed, and exits non-zero if the runs or their checkpoint files
differ in any bit; its last line fingerprints BPE training and encoding.

The ``bpe=`` line is pure Python over seeded NumPy draws, with no BLAS, so it
is pinned here: it moves if a vocabulary, an id or a ``vocab_digest`` moves.
The training lines depend on the BLAS build and are compared by hand across
commits; within one build they must not depend on the BLAS thread count, so
the tool is run a second time on one OpenBLAS thread and must print the same
five lines."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BPE = "a906f03013e8fc5abee914c51ba00a99f0fc7437773f5c7ae26ae7ff607a264e"


def _bitexact_lines(**env) -> list[str]:
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "bitexact.py")], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_bitexact_tool_passes_and_prints_one_line_per_config():
    lines = _bitexact_lines()
    assert len(lines) == 5
    for line in lines[:4]:
        fields = line.split()
        assert [f.split("=")[0] for f in fields[1:]] == ["train", "eval", "ckpt20", "ckpt40"]
    assert lines[4].split() == ["bpe-two-alphabets", f"bpe={BPE}"]
    assert _bitexact_lines(OPENBLAS_NUM_THREADS="1") == lines
