"""Simulation and fitting of boron-vacancy ODMR spectra in isotope-engineered hBN."""

from .spin_core import (
    ElectronParams,
    HermitianMatrix,
    IsotopeSpecies,
    NuclearSite,
    SpinSystem,
    Transition,
    TransitionSet,
    axial_site,
    build_full_hamiltonian,
    eigen_hermitian,
    make_system,
    transition_frequencies,
)
from .spectrum import (
    Curve,
    LevelLadder,
    Populations,
    SpectrumModel,
    binomial_fractions,
    config_spectrum,
    default_grid,
    enumerate_ladder,
    lorentzian,
    mixture_spectrum,
    predict_a15_from_a14,
)
from .fit import (
    FitResult,
    MeasuredSpectrum,
    fit_free_lorentzians,
    fit_physical,
    lm_minimize,
)
from .analysis import (
    PolarizationReport,
    RamanPoint,
    SensitivityReport,
    field_from_center,
    min_detectable_field,
    polarization_from_areas,
    polarization_from_quartet_fit,
    raman_point,
    raman_shift,
    reduced_mass,
    relative_sensitivity,
    spectral_slope,
)

__version__ = "0.1.0"
