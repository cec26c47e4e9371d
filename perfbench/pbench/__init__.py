"""End-to-end benchmark of the repro thermal model, with a layer split.

Three workloads (``closed_loop``, ``grid``, ``service``) each measure the
same six end-to-end metrics; a separate traced run splits each
workload's time by the program layer it was spent in.  See
``perfbench/README.md``.
"""
