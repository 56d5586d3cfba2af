"""Setup shim for environments without PEP 517 editable-install support.

The simulator and the harness are standard library plus two C files:
the memory system (``repro/coherence/memsys.c``) and the trace
generator's loop (``repro/workloads/synthetic.c``) ship as source and
are compiled into one extension through ``cffi`` with the interpreter's
C compiler on first import, into ``repro/coherence/__pycache__`` (which
must be writable).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.6.0",
    description=("Rebound (ISCA 2011) checkpointing simulator "
                 "reproduction"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.coherence": ["memsys.c"],
                  "repro.workloads": ["synthetic.c"]},
    install_requires=["cffi"],
    python_requires=">=3.11",
)
