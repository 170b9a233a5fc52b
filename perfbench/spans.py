"""In-memory spans for the traced runs, and the per-layer metrics made from them.

A span is [name, start, end, parent index]; names are the
`<module>.<call>` prefixes of the per-layer metric names. Spans are
recorded by the benchmark's own files around calls into trellis, kept in
memory, and written out with the run's other outputs when it ends.
"""

import time
from contextlib import contextmanager, nullcontext

# Spans whose children make up a workload point; trace.coverage is the
# share of their time that child spans cover.
ROOT_SPANS = ("experiments.point", "exact.chain", "exact.reduction")

TIMED_SPANS = (
    "cli.import",
    "channel.quantizer", "channel.transition_matrix",
    "experiments.point", "experiments.draws",
    "channel.sample_chain", "channel.likelihood",
    "batch.ml", "batch.fb", "batch.viterbi", "batch.ivb", "batch.ivb_acc",
    "batch.fcvb", "batch.fcvb_acc", "batch.kld_forward", "batch.kld",
    "freq.periodogram", "freq.posterior", "freq.vb", "freq.tvb",
    "hmc.fb", "hmc.viterbi", "hmc.bidirectional_viterbi", "hmc.chain_factors",
    "vb.ivb", "vb.ivb_acc", "vb.fcvb", "vb.fcvb_acc", "vb.kld",
    "gdl.fb_reduce", "gdl.naive_reduce",
)
MF_KERNELS = ("ivb", "ivb_acc", "fcvb", "fcvb_acc")

# (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    [(s + "_s", "s") for s in TIMED_SPANS]
    + [("channel.transition_matrix_calls", "count")]
    + [("batch.%s.transitions_per_s" % k, "1/s") for k in ("fb", "viterbi", "kld")]
    + [("batch.%s.cycles_mean" % k, "cycles") for k in MF_KERNELS]
    + [("batch.%s.unconverged" % k, "count") for k in MF_KERNELS]
    + [("batch.%s.update_ratio" % k, "ratio") for k in ("ivb_acc", "fcvb_acc")]
    + [("batch.csv_wall_ms", "ms"),
       ("freq.grid_evals_per_s", "1/s"),
       ("vb.ivb.cycles_mean", "cycles"), ("vb.ivb.unconverged", "count"),
       ("gdl.fb_ops", "count"), ("gdl.naive_ops", "count"),
       ("trace.overhead_frac", "frac"), ("trace.coverage", "frac")]
)


class Tracer:
    """Records spans and named counts; a disabled tracer records nothing."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self.counts = {}
        self._stack = []

    def span(self, name):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value=1):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def dump(self):
        return {"spans": self.spans, "counts": self.counts}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(dump):
    """Per-layer values of one traced run, 0 for layers it never entered.

    The trace.* pair and batch.csv_wall_ms come from the untraced run and
    are filled in by the caller.
    """
    spans, counts = dump["spans"], dump["counts"]
    total = {s: 0.0 for s in TIMED_SPANS}
    root_time = covered = 0.0
    for name, start, end, parent in spans:
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        if name in ROOT_SPANS:
            root_time += dur
        elif parent >= 0 and spans[parent][0] in ROOT_SPANS:
            covered += dur
    out = {s + "_s": total[s] for s in TIMED_SPANS}
    c = counts.get
    out["channel.transition_matrix_calls"] = c("channel.transition_matrix.calls", 0)
    for k in ("fb", "viterbi", "kld"):
        out["batch.%s.transitions_per_s" % k] = _ratio(
            c("batch.%s.transitions" % k, 0), total["batch." + k])
    for k in MF_KERNELS:
        trials = c("batch.%s.trials" % k, 0)
        out["batch.%s.cycles_mean" % k] = _ratio(c("batch.%s.nu_c" % k, 0), trials)
        out["batch.%s.unconverged" % k] = c("batch.%s.unconverged" % k, 0)
    for k in ("ivb_acc", "fcvb_acc"):
        out["batch.%s.update_ratio" % k] = _ratio(
            c("batch.%s.nu_e" % k, 0), c("batch.%s.nu_c" % k, 0))
    out["freq.grid_evals_per_s"] = _ratio(c("freq.grid_evals", 0), total["freq.posterior"])
    out["vb.ivb.cycles_mean"] = _ratio(c("vb.ivb.nu_c", 0), c("vb.ivb.runs", 0))
    out["vb.ivb.unconverged"] = c("vb.ivb.unconverged", 0)
    out["gdl.fb_ops"] = c("gdl.fb_ops", 0)
    out["gdl.naive_ops"] = c("gdl.naive_ops", 0)
    out["trace.coverage"] = _ratio(covered, root_time)
    return out
