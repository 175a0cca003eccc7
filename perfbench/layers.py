"""Per-layer attribution for the traced runs.

Layers are the ``repro`` subpackages.  Self time comes from cProfile and
is bucketed by the file each function lives in; ``numpy`` collects
numpy's Python functions and the C methods cProfile sees, ``other`` the
interpreter, the standard library and this benchmark.  Call counters
are installed around single program entry points for the length of a
traced round and removed afterwards.
"""

from __future__ import annotations

import pstats
from contextlib import contextmanager
from pathlib import Path

from repro.accl import FpgaCluster
from repro.fanns import ProductQuantizer
from repro.microrec import CartesianPlan

LAYERS = (
    "accl", "baselines", "bench", "core", "exec", "exec.experiments",
    "fanns", "farview", "faults", "kvstore", "lsm", "memory", "microrec",
    "network", "obs", "operators", "relational", "serve", "workloads",
    "numpy", "other",
)
# Experiments with per-experiment timings (every deterministic one).
EXPERIMENTS = tuple(f"e{i}" for i in (*range(1, 23), 24))
BACKENDS = ("fanns", "microrec", "farview")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{exp}.{phase}_s": "s" for exp in EXPERIMENTS
       for phase in ("prepare", "cell")},
    "microrec.materialized_mb": "MB",
    "fanns.adc_table_calls": "count",
    "accl.allreduce_calls": "count",
    "exec.cache_put_s": "s",
    "exec.warm_pass_s": "s",
    "core.events_per_request": "events/req",
    "core.resumes_per_request": "resumes/req",
    "core.cancelled_per_request": "cancels/req",
    "serve.idle_polls_per_request": "polls/req",
    **{f"serve.{b}.session_s": "s" for b in BACKENDS},
    "trace.overhead": "x",
}


def layer_of(filename: str, funcname: str, package_root: Path) -> str:
    """The layer a profiled function belongs to."""
    path = Path(filename)
    if path.is_relative_to(package_root):
        parts = path.relative_to(package_root).parts
        if parts[:2] == ("exec", "experiments") and len(parts) > 2:
            return "exec.experiments"
        if len(parts) > 1 and parts[0] in LAYERS:
            return parts[0]
        return "other"
    if "numpy" in path.parts or (filename == "~" and "numpy" in funcname):
        return "numpy"
    return "other"


def self_times(profile, package_root: Path) -> dict[str, float]:
    """cProfile self time in seconds, summed per layer."""
    out = dict.fromkeys(LAYERS, 0.0)
    stats = pstats.Stats(profile).stats
    for (filename, _line, funcname), stat in stats.items():
        out[layer_of(filename, funcname, package_root)] += stat[2]
    return out


def _wrap(owner, name: str, on_call):
    """Replace ``owner.name`` with a version that reports each result;
    returns what ``owner`` itself held (``None`` for an inherited one)."""
    own = owner.__dict__.get(name)
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        on_call(result)
        return result

    setattr(owner, name, counted)
    return own


@contextmanager
def data_plane_probes():
    """Count the data-plane calls behind three per-layer metrics.

    Yields a dict that fills while the block runs: bytes returned by
    ``CartesianPlan.materialize``, calls to ``ProductQuantizer.adc_table``
    and calls to ``FpgaCluster.allreduce``.
    """
    counts = {"materialized_bytes": 0, "adc_table_calls": 0,
              "allreduce_calls": 0}

    def materialized(arrays):
        counts["materialized_bytes"] += sum(a.nbytes for a in arrays)

    def bump(key):
        def on_call(_result):
            counts[key] += 1
        return on_call

    patched = [
        (CartesianPlan, "materialize",
         _wrap(CartesianPlan, "materialize", materialized)),
        (ProductQuantizer, "adc_table",
         _wrap(ProductQuantizer, "adc_table", bump("adc_table_calls"))),
        (FpgaCluster, "allreduce",
         _wrap(FpgaCluster, "allreduce", bump("allreduce_calls"))),
    ]
    try:
        yield counts
    finally:
        for owner, name, own in patched:
            if own is None:
                delattr(owner, name)
            else:
                setattr(owner, name, own)
