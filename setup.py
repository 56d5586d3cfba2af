"""Setup shim for environments without PEP 517 editable-install support.

The simulator, the harness and the multi-replica campaign executor
(:mod:`repro.sim.vector`) are pure standard library: nothing beyond
Python itself is needed to run them.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.6.0",
    description=("Rebound (ISCA 2011) checkpointing simulator "
                 "reproduction"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
)
