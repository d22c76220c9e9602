"""The repository's benchmark of record (see ``BENCHMARK.json``).

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a source checkout and prints one JSON
result line.  The modules here hold the parts that have logic of their
own and are unit-tested in ``test_perfbench.py`` with synthetic spans and
fake clocks:

* :mod:`perfbench.host` — BLAS pinning and the host fingerprint;
* :mod:`perfbench.spans` — self time, plan overhead, percentiles;
* :mod:`perfbench.loadgen` — the seeded Poisson schedule and the
  open/closed-loop generators, timed from each request's due time.
"""
