"""Pseudo-spectral toolkit for N coupled stochastic damped wave equations
on the 2D torus, their Wick renormalization, mean-field limit, and
invariant Gibbs dynamics."""

__version__ = "0.1.0"

from .grid import (BallEnsemble, GridSpec, SpectralField, ball_mask, load_field, random_field,
                   rms, save_field, sobolev_norm, write_csv)
from .propagator import duhamel_weights, etd2_step, flow_entries
from .noise import (NoiseKind, NoiseStream, RenormConstants, alpha_m, sigma_m,
                    stationary_ensemble, transition_covariance)
from .wick import hermite
from .dynamics import (BlowupError, HlsmState, MeanFieldState, TrajectoryRecord,
                       renormalized_drift, run_trajectory,
                       step_deterministic_meanfield, step_deterministic_nlw,
                       step_hlsm, step_linear_ensemble, step_meanfield,
                       step_renormalized_wave)
from .gibbs import (GibbsSamplerConfig, GibbsSamples, InvarianceReport,
                    coupled_gibbs_gaussian_pair, evolve_gibbs_samples, gibbs_potential,
                    gibbs_vs_gaussian_covariance, integrated_autocorrelation,
                    invariance_check, sample_gibbs)
from .diagnostics import (RateFit, commutator_defect, difference_norms, energy_en,
                          energy_meanfield, fit_rate, lln_estimator, zn_norm)

__all__ = [
    "__version__",
    # grid
    "GridSpec", "SpectralField", "BallEnsemble", "ball_mask", "random_field", "rms",
    "sobolev_norm", "save_field", "load_field", "write_csv",
    # propagator
    "flow_entries", "duhamel_weights", "etd2_step",
    # noise
    "NoiseKind", "NoiseStream", "alpha_m", "sigma_m", "RenormConstants",
    "transition_covariance", "stationary_ensemble",
    # wick
    "hermite",
    # dynamics
    "HlsmState", "MeanFieldState", "TrajectoryRecord", "BlowupError",
    "run_trajectory", "step_hlsm", "step_meanfield", "renormalized_drift",
    "step_renormalized_wave", "step_linear_ensemble", "step_deterministic_nlw",
    "step_deterministic_meanfield",
    # gibbs
    "GibbsSamplerConfig", "GibbsSamples", "InvarianceReport", "sample_gibbs",
    "gibbs_potential", "coupled_gibbs_gaussian_pair",
    "evolve_gibbs_samples", "invariance_check", "gibbs_vs_gaussian_covariance",
    "integrated_autocorrelation",
    # diagnostics
    "energy_en", "energy_meanfield", "zn_norm",
    "lln_estimator", "commutator_defect", "difference_norms", "RateFit",
    "fit_rate",
]
