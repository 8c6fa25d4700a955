"""Setuptools shim.

The canonical build configuration lives in pyproject.toml; this file exists
so that environments without the `wheel` package (where PEP 517 editable
installs are unavailable) can still do a legacy editable install:

    pip install -e . --no-use-pep517 --no-build-isolation
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    zip_safe=False,
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={
        "dev": [
            "mypy==1.15.0",
            "ruff==0.9.6",
            "pytest>=8.0",
            "hypothesis>=6.98",
        ]
    },
)
