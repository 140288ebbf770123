"""tools/replay.py: a fixed corpus whose lines repeat from run to run and match frozen digests."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "replay.py"
DIGESTS = ROOT / "tests" / "replay_digests.txt"


def _load():
    spec = importlib.util.spec_from_file_location("replay", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_lines_repeat():
    replay = _load()
    corpus = replay.corpus()
    assert len(corpus) >= 300
    assert corpus == replay.corpus()
    head = corpus[:5]
    first = [replay.replay(argv) for argv in head]
    assert first == [replay.replay(argv) for argv in head]
    for line, argv in zip(first, head):
        code, digest, text = line.split(" ", 2)
        assert code in {"0", "1", "2"} and len(digest) == 64 and json.loads(text) == argv


def test_replay_matches_the_frozen_digests():
    # each line of the digest file is "exit sha256(stdout)" of one argv,
    # in corpus order; a deliberate envelope change regenerates the file
    replay = _load()
    corpus = replay.corpus()
    frozen = DIGESTS.read_text(encoding="utf-8").splitlines()
    assert len(frozen) == len(corpus)
    changed = [
        f"line {k}: {want} -> {got} {json.dumps(argv)}"
        for k, (argv, want) in enumerate(zip(corpus, frozen), 1)
        if want != (got := replay.digest(argv))
    ]
    assert not changed, "\n".join(changed)
