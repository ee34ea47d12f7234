"""Differential smoke test: the proof cache must not change verdicts.

The farm's content-addressed proof cache is *supposed* to be an
observably pure acceleration.  The test verifies the TSP refinement
chain (``examples/running_example.arm``) cold and warm and diffs
everything a user can see: per-lemma verdict sequences and the
composed chain.  Any divergence means the cache is changing answers,
which is a soundness bug, not a perf regression.
"""

import os

from repro.farm import FarmConfig, VerificationFarm
from repro.lang.frontend import check_program
from repro.proofs.engine import ProofEngine

EXAMPLE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "running_example.arm",
)


def _checked():
    with open(EXAMPLE, encoding="utf-8") as handle:
        return check_program(handle.read(), EXAMPLE)


def _chain_fingerprint(outcome):
    """Everything a user can observe from one verification run."""
    rows = []
    for proof in outcome.outcomes:
        lemmas = []
        if proof.script is not None:
            lemmas = [
                (lemma.name,
                 lemma.verdict.status if lemma.verdict else None)
                for lemma in proof.script.lemmas
            ]
        rows.append((proof.proof_name, proof.strategy, proof.success,
                     proof.error, tuple(lemmas)))
    return {
        "success": outcome.success,
        "chain": list(outcome.chain),
        "chain_error": outcome.chain_error,
        "proofs": sorted(rows),
    }


def test_farm_cache_preserves_verdicts(tmp_path):
    # A cold run and a warm run must agree exactly.
    cache_dir = str(tmp_path / "proof-cache")
    fingerprints = []
    summaries = []
    for _ in ("cold", "warm"):
        farm = VerificationFarm(FarmConfig(cache_dir=cache_dir))
        engine = ProofEngine(_checked(), farm=farm)
        fingerprints.append(_chain_fingerprint(engine.run_all()))
        summaries.append(farm.summary())
    cold, warm = fingerprints
    assert cold == warm
    assert cold["success"]
    cold_summary, warm_summary = summaries
    assert cold_summary.cache_hits == 0
    assert warm_summary.jobs == cold_summary.jobs
    # Warm run must serve the cacheable obligations from disk.
    assert warm_summary.cache_hits > 0
