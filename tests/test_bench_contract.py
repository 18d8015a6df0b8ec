"""The benchmark's tracer finds every name it wraps in the live modules.

``bench/tracer.py`` looks each layer boundary up by attribute
(``protocol.client_forward``, ``TrainingSystem.batches_for``, ``AdamW.step``,
...).  A rename in ``src/`` that drops one of them breaks
``bench/run.py --trace 1``.  This test installs every probe and layer
wrapper against the live modules, calls nothing, and checks that leaving the
tracer puts every original back.
"""

from pathlib import Path
from types import SimpleNamespace

from splitmix import model, optim, privacy, protocol, rng, runner, transcript

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_every_probe_and_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer, install_layers, install_probes

    sm = SimpleNamespace(model=model, optim=optim, privacy=privacy, protocol=protocol,
                         rng=rng, runner=runner, transcript=transcript)
    owners = (model, optim.AdamW, privacy, protocol, rng, runner, runner.TrainingSystem,
              transcript.TranscriptWriter)
    before = [dict(vars(owner)) for owner in owners]
    with Tracer() as tracer:
        install_probes(tracer, sm, print, print, print)
        install_layers(tracer, sm)
        wrapped = {(owner, attr) for owner, attr, _ in tracer._patched}
        assert (protocol, "backward") in wrapped and (optim.AdamW, "step") in wrapped
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in tracer._patched)
    assert [dict(vars(owner)) for owner in owners] == before
