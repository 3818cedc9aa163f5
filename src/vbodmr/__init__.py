"""Simulation and fitting of boron-vacancy ODMR spectra in isotope-engineered hBN."""

__version__ = "0.1.0"
