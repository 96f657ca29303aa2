from setuptools import find_packages, setup

setup(
    name="repro-jigsaw",
    version="1.0.0",
    description=(
        "Reproduction of Jigsaw (SIGCOMM 2006): merged 802.11 monitor "
        "traces, microsecond clock unification, and link/transport "
        "conversation reconstruction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={
        # PEP 561: the package ships inline type annotations.
        "repro": ["py.typed"],
        "repro.devtools": ["lint_baseline.json"],
    },
    python_requires=">=3.11",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro-lint = repro.devtools.check:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Typing :: Typed",
    ],
)
