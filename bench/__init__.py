"""The benchmark of record: six workloads, domains in -> answer out.

``python3 -m bench run`` measures the pipeline (population -> scan -> cbr
artifact -> week index -> HTTP answer) and the on-path monitor from the
outside, by timing calls into the public functions of ``src/repro`` and
reading the counters the program already exposes.  ``BENCHMARK.json`` at
the repository root names every workload and metric; ``bench/README.md``
is the metric dictionary.
"""
