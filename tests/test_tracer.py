"""The benchmark's tracer (bench/spans.py), loaded from its file unedited,
reaches every layer it times on each kind of request."""
import importlib.util
from pathlib import Path

from steerlab import cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("steerlab_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_timed_layer_is_called(tmp_path, capsys):
    spans = load_spans()
    tracer = spans.Tracer()
    requests = [
        ["sweep", "--axis-x", "tbar", "--x-min", "0.3", "--x-max", "0.6", "--nx", "4",
         "--axis-y", "kappa", "--y-min", "2.5", "--y-max", "3.0", "--ny", "4",
         "--out", str(tmp_path / "grid.csv")],
        ["steady"],
        ["threshold", "--ta", "0.05", "--tb", "0.05", "--criterion", "two-way",
         "--bracket-lo", "2.003", "--bracket-hi", "2.3"],
    ]
    # the request structure of bench/run.py: request, main and check spans
    with spans.installed(tracer):
        for i, argv in enumerate(requests):
            tracer.begin_request(i)
            with tracer.span("bench.request"):
                with tracer.span("cli.main"):
                    assert cli.main(argv) == 0
                with tracer.span("bench.check"):
                    capsys.readouterr()
            tracer.end_request()
    # layer_metrics divides by each timed layer's call count
    metrics = spans.layer_metrics(tracer, len(requests), 1.0, 1.0)
    calls = {layer: metrics[f"{layer}.calls"][0] for layer in spans.TIMED_LAYERS}
    assert min(calls.values()) >= 1, calls
