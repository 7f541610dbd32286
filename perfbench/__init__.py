"""The repository's benchmark: three closed-loop, serial workloads over
the toolchain (paper-matrix, fuzz-oracle, build), an output check on
every operation, and a separate traced run that splits wall time by
layer.  ``python3 perfbench/run.py --help`` runs it; README.md in this
directory explains the metrics and how to read a result.
"""
