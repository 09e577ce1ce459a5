"""Legacy setup shim.

The execution environment is offline and lacks the ``wheel`` package, so
PEP 660 editable installs (``pip install -e .`` with a ``[build-system]``
table) cannot build. This shim lets pip fall back to the classic
``setup.py develop`` code path. All metadata lives in ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The compiled single-leader core builds from its C source at run time.
    package_data={"repro.core": ["_fastcore.h", "_fastcore.c", "_slcore.c", "_mlcore.c"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
