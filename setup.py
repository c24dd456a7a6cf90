"""Packaging for the DIABLO reproduction (src layout, stdlib-only runtime)."""

from setuptools import find_packages, setup

setup(
    name="diablo-repro",
    version="1.1.0",
    description=(
        "Reproduction of Fegaras & Noor, 'Translation of Array-Based Loops to "
        "Distributed Data-Parallel Programs' (PVLDB 2020): loop language, "
        "Figure 2 translation, comprehension optimizer, local DISC runtime, "
        "and the @diablo.jit compiled-function API"
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    author="DIABLO reproduction contributors",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={
        "console_scripts": [
            "repro-eval=repro.evaluation.__main__:main",
            "repro-lint=repro.analysis.cli:main",
            "repro-worker=repro.runtime.cluster.worker:main",
        ],
    },
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3 :: Only",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering",
        "Topic :: System :: Distributed Computing",
    ],
)
