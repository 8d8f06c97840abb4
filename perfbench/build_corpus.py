"""Build one workload's corpus in a fresh process: ``build_corpus.py WORKLOAD SEED OUT_DIR``.

The benchmark times this whole process as one set-up: interpreter start,
``import spineid``, corpus generation and writing the corpus to disk.
"""

import sys
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

if __name__ == "__main__":
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    out.mkdir(parents=True)
    WORKLOADS[name](seed).build(out, Tracer(False))
