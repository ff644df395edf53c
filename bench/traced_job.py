"""One traced job: the public calls a ``tailconc curve`` job makes, each in a span.

Usage: ``python3 bench/traced_job.py <model> <n> <oracle|mc> <seed>``.

The calls follow the CLI's order: import, ``model_from_dict``, then either
``second_order_approx`` for each level, ``convolve_tail`` and
``oracle_quantile`` for each level (oracle jobs), or
``empirical_concentration`` (Monte Carlo jobs, which computes the c2 column
itself). Spans are kept in a list and written once, with the job's curve in
the CLI's CSV schema, as one JSON object on standard output. The parent owns
the job's root span (id 0), from spawn to exit, so whatever no span covers
(interpreter start-up and shutdown, tracing itself) is the root's self time.
"""

import json
import math
import sys
import time
from contextlib import contextmanager

import catalogue

_START = time.monotonic()


class Tracer:
    def __init__(self):
        self.spans = []

    @contextmanager
    def span(self, name, start=None):
        start = time.monotonic() if start is None else start
        try:
            yield
        finally:
            self.spans.append(
                {"id": len(self.spans) + 1, "name": name, "parent": 0,
                 "start": start, "end": time.monotonic()}
            )


def _fmt(v) -> str:
    if v is None or math.isnan(v):
        return ""
    return f"{float(v):.17g}"


def main(argv) -> int:
    model_name, n, kind, seed = argv[1], int(argv[2]), argv[3], int(argv[4])
    tracer = Tracer()
    with tracer.span("import", start=_START):
        import numpy as np
        import tailconc
    with tracer.span("models.model_from_dict"):
        model = tailconc.model_from_dict(catalogue.MODELS[model_name])
    alphas = 1.0 - np.geomspace(1.0 - 0.95, 1.0 - 0.9997, 40)
    columns = {"alpha": list(alphas)}
    if kind == "mc":
        config = tailconc.SimulationConfig(
            n=n, samples=catalogue.MC_SAMPLES, alpha_grid=tuple(float(a) for a in alphas),
            seed=seed, denominator=tailconc.DenominatorMode.EMPIRICAL,
        )
        with tracer.span("montecarlo.empirical_concentration"):
            curve = tailconc.empirical_concentration(model, config, workers=catalogue.MC_WORKERS)
        columns.update(c_emp=curve.c_emp, c_emp_lo=curve.band_lo, c_emp_hi=curve.band_hi,
                       c1=[curve.c1] * alphas.size, c2=curve.c2, c_oracle=[None] * alphas.size)
    else:
        c1 = tailconc.first_order_limit(model.second_order_info().xi, n)
        c2 = []
        for a in alphas:
            with tracer.span("approx.second_order_approx"):
                try:
                    c2.append(tailconc.second_order_approx(model, float(a), n).c2)
                except tailconc.DomainError:
                    c2.append(math.nan)
        with tracer.span("convolution.convolve_tail"):
            grid = tailconc.convolve_tail(model, n, tailconc.GridSpec(tol=1e-10))
        with tracer.span("models.quantile"):
            den = n * np.atleast_1d(np.asarray(model.quantile(alphas), dtype=float))
        quantiles = []
        for a in alphas:
            with tracer.span("convolution.oracle_quantile"):
                quantiles.append(tailconc.oracle_quantile(grid, float(a)))
        columns.update(c_emp=[None] * alphas.size, c_emp_lo=[None] * alphas.size,
                       c_emp_hi=[None] * alphas.size, c1=[c1] * alphas.size, c2=c2,
                       c_oracle=np.array(quantiles) / den)
    order = ("alpha", "c_emp", "c_emp_lo", "c_emp_hi", "c1", "c2", "c_oracle")
    lines = [",".join(order)]
    lines += [",".join(_fmt(columns[c][i]) for c in order) for i in range(alphas.size)]
    json.dump({"spans": tracer.spans, "csv": "\n".join(lines) + "\n"}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
