from setuptools import find_packages, setup

# name/version/layout mirror pyproject.toml so that pre-PEP-621 setuptools
# (as seeded into fresh virtualenvs on older distros) still installs a
# usable package
setup(
    name="rootfire",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    entry_points={"console_scripts": ["rootfire = rootfire.cli:main"]},
)
