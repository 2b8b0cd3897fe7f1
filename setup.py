"""Package metadata for the Rocket (SC 2020) reproduction.

Kept as a classic ``setup.py`` (no ``pyproject.toml``): the offline
environment lacks ``wheel``, which modern PEP-517 editable installs
require; the legacy ``setup.py develop`` path does not.
"""
from setuptools import find_packages, setup

setup(
    name="rocket-repro",
    version="1.1.0",
    description=(
        "Reproduction of 'Rocket: Efficient and Scalable All-Pairs "
        "Computations on Heterogeneous Platforms' (SC 2020)"
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="Apache-2.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=[
        "numpy",
        "scipy",
        "networkx",
    ],
    extras_require={
        "test": [
            "pytest",
            "hypothesis",
            "pytest-benchmark",
            "pytest-cov",
            # CI deadlock guard: a wedged scheduler fails fast instead
            # of hanging the workflow until the runner-level timeout.
            "pytest-timeout",
        ],
    },
    entry_points={
        "console_scripts": [
            "rocket-repro = repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: System :: Distributed Computing",
        "Topic :: Scientific/Engineering",
    ],
)
