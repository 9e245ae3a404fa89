"""The generators give the same data in every process.

CPython salts ``str`` hashes per process (``PYTHONHASHSEED``), so any
generator step that walks a ``set`` or ``frozenset`` in its own order can
hand the same random draws to different words in different processes.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

DIGEST_SCRIPT = """
import hashlib
from repro.datagen import CorpusConfig, QueryConfig, generate_corpus, generate_workload

generated = generate_corpus(CorpusConfig(num_ads=3000, seed=11))
workload = generate_workload(
    generated, QueryConfig(num_distinct=3000, total_frequency=30000, seed=12)
)
digest = hashlib.sha256()
for ad in generated.corpus:
    digest.update(repr((ad.phrase, ad.info)).encode())
for query, frequency in workload:
    digest.update(repr((query.tokens, frequency)).encode())
print(digest.hexdigest())
"""


def _digest(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR, *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_corpus_and_pool_ignore_the_hash_seed():
    digests = {seed: _digest(seed) for seed in ("0", "1", "2")}
    assert len(set(digests.values())) == 1, digests
