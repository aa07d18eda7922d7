"""Set-up probe: import limfuse and build one workload's categories and
algebras, then exit. run.py times this whole process, interpreter start
included, to measure `setup_s`.

Usage (from the repository root): python3 perfbench/probe.py <workload>
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup()
