"""Benchmark harness regenerating every figure of the paper's §5.3.

Run everything standalone::

    python -m repro bench                        # all figures
    REPRO_BENCH_SCALE=10 python -m repro bench 6  # one figure, bigger

or through pytest-benchmark (one file per figure in ``benchmarks/``).
Performance claims live in the coordination ledger
(``benchmarks/ledger/``), not here.
"""

from .harness import (Series, SeriesRow, bench_database, bench_network,
                      bench_scale, run_batch, run_incremental, scaled,
                      stopwatch)
from .figures import FIGURES, figure6, figure7, figure8, figure9, run_all

__all__ = [
    "Series", "SeriesRow", "bench_database", "bench_network",
    "bench_scale", "run_batch", "run_incremental", "scaled", "stopwatch",
    "FIGURES", "figure6", "figure7", "figure8", "figure9", "run_all",
]
