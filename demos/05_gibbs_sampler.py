"""Sampling the truncated Gibbs ensemble with coefficient-space MALA.

The free chain (interaction off) reproduces the Gaussian mode variances
exactly; switching the Wick quartic on spreads the constant mode (the
double wells of the renormalized potential) while stiffening the rest.
"""

from sigma_wave import GibbsSamplerConfig, GridSpec, gibbs_vs_gaussian_covariance, sample_gibbs

spec = GridSpec(32, 1.0)
watch = [(0, 0), (1, 0), (1, 1), (2, 0)]

for label, interaction, h in (("free (V = 0)", False, 0.7), ("interacting", True, 0.3)):
    cfg = GibbsSamplerConfig(2, 4, h, 12000, 2000, thin=10, interaction=interaction)
    samples = sample_gibbs(spec, cfg, root_seed=29)
    print(f"{label}: acceptance {samples.accept_rate:.2f}, "
          f"autocorrelation time {samples.iact:.1f} iterations,"
          f" {len(samples)} kept samples")
    for mode in watch:
        row = gibbs_vs_gaussian_covariance(samples, 0, mode)
        print(f"  mode {row['mode']}: variance {row['variance']:.4f} "
              f"+/- {row['se']:.4f} (free value {row['gaussian_variance']:.4f})")
    print()

print("the interacting zero mode sits far above its free value: the Wick")
print("subtraction digs symmetric wells at nonzero field average, while")
print("every nonzero mode contracts below the Gaussian variance")
