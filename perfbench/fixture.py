"""The benchmark's trained-pipeline fixture.

Every workload runs against one chaos-sized pipeline (the
``repro.faults.chaos.build_chaos_pipeline`` architecture, root seed 11).
Training it takes ~10 s, so it happens outside every timed region: the
first invocation in a checkout trains it in a child process and stores
``model.npz`` / ``reconciler.npz`` under the build directory, keyed by a
digest of ``src/`` and this file.  A changed source tree gets its own
artifact; an unchanged one reuses it.  Every process that needs the
pipeline -- the server entry, the library worker, the reference
computation -- loads that one artifact, and the benchmark prints its
sha256 so runs can be seen to use the same weights.

Run directly (``python3 perfbench/fixture.py OUT_DIR``) it trains and
saves the artifact into ``OUT_DIR``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from common import ROOT, SRC, child_env, work_root

#: Root seed of the chaos-sized pipeline (``build_chaos_pipeline``'s default).
PIPELINE_SEED = 11

#: Files one trained generation consists of.
ARTIFACT_FILES = ("model.npz", "reconciler.npz")


def chaos_config():
    """The chaos-sized :class:`PipelineConfig` (``build_chaos_pipeline``'s).

    Repeated here because the library builds it only inside a function
    that also trains; ``train_into`` checks the two stay equal.
    """
    from repro.channel.scenario import ScenarioName, scenario_config
    from repro.core.pipeline import PipelineConfig
    from repro.probing.features import FeatureConfig

    return PipelineConfig(
        scenario=scenario_config(ScenarioName.V2I_URBAN),
        feature_config=FeatureConfig(window_fraction=0.10, values_per_packet=2),
        seq_len=16,
        hidden_units=16,
        key_bits=32,
        code_dim=24,
        decoder_units=64,
        rounds_per_episode=48,
        session_rounds=96,
        final_key_bits=64,
        alice_confidence_margin=0.12,
        bob_guard_fraction=0.30,
    )


def load_pipeline(artifact_dir):
    """Build the chaos-sized pipeline and load the trained weights."""
    from repro.core.pipeline import VehicleKeyPipeline

    pipeline = VehicleKeyPipeline(chaos_config(), seed=PIPELINE_SEED)
    pipeline.load(artifact_dir)
    return pipeline


def source_digest() -> str:
    """Digest of every file under ``src/`` plus this fixture's code."""
    digest = hashlib.sha256()
    files = sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in files + [Path(__file__).resolve()]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def artifact_sha256(artifact_dir) -> str:
    """sha256 over the artifact files, in a fixed order."""
    digest = hashlib.sha256()
    for name in ARTIFACT_FILES:
        digest.update((Path(artifact_dir) / name).read_bytes())
    return digest.hexdigest()


def ensure_artifact() -> Path:
    """The trained artifact for this source tree; trains it if missing."""
    target = work_root() / f"weights-{source_digest()[:16]}"
    if all((target / name).is_file() for name in ARTIFACT_FILES):
        return target
    staging = target.with_name(target.name + f".tmp{os.getpid()}")
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(staging)],
        env=child_env(),
        cwd=ROOT,
        check=True,
        timeout=600,
        stdout=subprocess.DEVNULL,
    )
    os.replace(staging, target)
    return target


def train_into(out_dir: str) -> None:
    """Train the chaos-sized pipeline exactly as the chaos harness does."""
    from repro.faults.chaos import build_chaos_pipeline

    pipeline = build_chaos_pipeline(seed=PIPELINE_SEED)
    if pipeline.config != chaos_config():
        raise SystemExit("perfbench chaos_config() drifted from build_chaos_pipeline")
    pipeline.save(out_dir)


if __name__ == "__main__":
    train_into(sys.argv[1])
