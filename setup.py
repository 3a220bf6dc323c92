"""Setuptools entry point: the package, its runtime dependency, and the
``test`` extra.

``pip install -e ".[test]"`` installs everything the test suite imports;
CI installs exactly this, so the two cannot drift apart.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "LANTERN reproduction: natural language generation for query execution plans "
        "(SIGMOD 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
