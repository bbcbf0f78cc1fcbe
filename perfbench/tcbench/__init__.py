"""Closed-loop benchmark of the tropcurve library.

One caller, no threads: each workload drives the library in-process with the
call sequence of one CLI subcommand, times every op, and checks every output
outside the timed region.  See ``perfbench/README.md``.
"""
