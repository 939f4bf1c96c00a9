"""Package metadata and install shim.

The metadata lives here rather than in a ``[project]`` table because
``pip install -e .`` then falls back to ``setup.py develop``, which needs
no ``wheel`` package (PEP 660 editable installs do). pyproject.toml holds
tool configuration only.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
