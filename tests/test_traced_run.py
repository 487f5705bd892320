"""A small pipeline run under the benchmark's span tracer.

perfbench/tracer.py wraps tapkit's public functions and reads counters off
their arguments and results (a ProposalSet's length and rows, file paths), so
a change to those can break the benchmark's trace without breaking an
untraced run. The tracer is loaded from its file, as the benchmark loads it.
"""

import importlib.util
import sys
from pathlib import Path

import tapkit.cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# the settings of perfbench's own self-tests
SEED = 3
SMALL = ("synth.num_videos=8", "synth.val_fraction=0.5", "ssad.input_length=16",
         "ssad.epochs=1", "tag.epochs=1")
STAGES = ("synth", "train-ssad", "train-tag", "infer", "refine", "eval-prop", "eval-loc")

# counters and spans perfbench/run.py turns into its per-layer metrics
COUNTERS = (
    "engine.conv1d.forward.macs", "engine.conv1d.backward.macs", "tag.regions",
    "fusion.refine.pairs", "fusion.refine.grouped_in", "fusion.refine.replaced",
    "fusion.nms.in", "fusion.nms.kept",
    "ingest.write_results.bytes", "ingest.read_results.bytes",
    "ingest.load_features.bytes", "ingest.save_features.bytes",
    "pipeline.write_manifest.bytes_hashed",
)
SPANS = (
    *(f"engine.conv1d.{d}.{role}" for d in ("forward", "backward")
      for role in ("stem", "down", "head")),
    "engine.adam.step", "engine.dense.forward", "engine.dense.backward",
    "ssad.train", "ssad.assign_targets", "ssad.infer",
    "tag.train_actionness", "tag.predict_actionness", "tag.tag_proposals",
    "fusion.refine", "fusion.nms",
    "metrics.ar_an", "metrics.mean_ap", "metrics.attach_labels",
    "metrics.uniform_random_proposals",
    "ingest.write_results", "ingest.read_results", "ingest.load_features",
    "ingest.save_features", "ingest.generate_synthetic", "ingest.resize_linear",
    *(f"pipeline.run_{stage.replace('-', '_')}" for stage in STAGES),
    "pipeline.write_manifest", "cli.main",
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_run_feeds_every_benchmark_hook(tmp_path):
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        for stage in STAGES:
            argv = [stage, "--out", str(tmp_path), "--seed", str(SEED)]
            for kv in SMALL:
                argv += ["--set", kv]
            assert tapkit.cli.main(argv) == 0, stage  # the traced wrapper of main
    finally:
        tracer.uninstall()
    assert {name: tracer.counts[name] for name in COUNTERS if tracer.counts[name] <= 0} == {}
    spans = tracer.spans()
    seen = {span.name for span in spans if span.end > span.start}
    assert [name for name in SPANS if name not in seen] == []
