"""The repository's benchmark: workloads, span recorder and layer ledger.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""

from pathlib import Path

# Spans, ledgers and the socket fleet's unix socket live here (ignored by git).
OUT_DIR = Path(__file__).resolve().parent / "out"
