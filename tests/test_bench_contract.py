"""The benchmark's tracer finds every name it wraps in the live modules.

``bench/tracer.py`` looks each layer boundary up by attribute
(``protocol.client_forward``, ``TrainingSystem.batches_for``, ``AdamW.step``,
...).  A rename in ``src/`` that drops one of them breaks
``bench/run.py --trace 1``.  The first test installs every probe and layer
wrapper against the live modules, calls nothing, and checks that leaving the
tracer puts every original back.  The second runs a tiny training run under
all of them: the tracer names some calls by their caller, so moving a step
into a helper, or routing without ``protocol.route_gradients``, breaks it.
The third runs a tiny attack suite under all of them, which holds the
decoder's step inside ``privacy.run_attack`` and each representation's
build to one ``privacy.build_representation`` call.
"""

from pathlib import Path
from types import SimpleNamespace

from splitmix import config, model, optim, privacy, protocol, rng, runner, transcript

BENCH = Path(__file__).resolve().parent.parent / "bench"
SM = SimpleNamespace(model=model, optim=optim, privacy=privacy, protocol=protocol,
                     rng=rng, runner=runner, transcript=transcript)


def test_tracer_installs_every_probe_and_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer, install_layers, install_probes

    owners = (model, optim.AdamW, privacy, protocol, rng, runner, runner.TrainingSystem,
              transcript.TranscriptWriter)
    before = [dict(vars(owner)) for owner in owners]
    with Tracer() as tracer:
        install_probes(tracer, SM, print, print, print)
        install_layers(tracer, SM)
        wrapped = {(owner, attr) for owner, attr, _ in tracer._patched}
        assert (protocol, "backward") in wrapped and (optim.AdamW, "step") in wrapped
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in tracer._patched)
    assert [dict(vars(owner)) for owner in owners] == before


def test_tiny_run_under_the_full_tracer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer, install_layers, install_probes

    n = 5
    cfg = config.ExperimentConfig(
        method="cutmixsl_ktimes", n_clients=n, k_way=2, alpha=6.0, dataset="synthetic",
        synthetic_samples=n * 4 * 2, synthetic_test=16, epochs=1, warmup_epochs=0,
        batch_size=4, write_transcript=True, seed=1, out_dir=str(tmp_path))
    routed, downs_per_round = [], []

    def round_done(metrics):
        downs_per_round.append(routed[:])
        routed.clear()

    with Tracer() as tracer:
        install_probes(tracer, SM, round_done, routed.extend, print)
        install_layers(tracer, SM)
        summary = runner.run_experiment(cfg)
    assert len(downs_per_round) == summary["rounds"] == 2
    for downs in downs_per_round:
        assert all(isinstance(down, protocol.GradientDown) for down in downs)
        assert sorted(down.target for down in downs) == list(range(n))
    names = {span[0] for span in tracer.spans}
    assert {"optim.AdamW.step.server", "optim.AdamW.step.client", "tensor.backward.server",
            "tensor.backward.client", "protocol.validate_upload"} <= names
    records = transcript.read_transcript(tmp_path / "transcript.bin")
    assert len(tracer.named("transcript.write")) == len(records)


def test_tiny_attack_suite_under_the_full_tracer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer, install_layers, install_probes

    cfg = config.ExperimentConfig(
        method="parallel_sl", n_clients=2, dataset="synthetic", synthetic_samples=128,
        synthetic_test=32, batch_size=16, attack_pretrain_epochs=1, attack_epochs=1,
        attack_decoder_width=32, seed=1, out_dir=str(tmp_path))
    reports = []
    with Tracer() as tracer:  # an UnclassifiedCall would raise out of the suite
        install_probes(tracer, SM, print, print, reports.append)
        install_layers(tracer, SM)
        runner.run_attack_suite(cfg)
    assert len(tracer.named("privacy.run_attack")) == len(reports) == 10
    for representation in privacy.REPRESENTATIONS:
        assert len(tracer.named(f"privacy.build_representation.{representation}")) == 1
    assert tracer.named("optim.AdamW.step.decoder")
