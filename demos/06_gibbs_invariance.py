"""Invariance of the Gibbs ensemble: samples pushed through the truncated
renormalized dynamics keep the law of every observable (two-sample KS).
"""

from sigma_wave import GibbsSamplerConfig, GridSpec, invariance_check

spec = GridSpec(32, 1.0)
cfg = GibbsSamplerConfig(4, 4, 0.3, 14000, 2000, thin=60)
report = invariance_check(spec, cfg, root_seed=3, horizon=1.0, dt=0.02)

print(f"{cfg.n_samples} Gibbs samples evolved to t = 1 under the truncated flow\n")
print("  observable         KS stat   p-value     mean(0)      mean(1)")
for r in report.rows:
    print(f"  {r['observable']:<17s}  {r['ks_stat']:7.4f}  {r['p_value']:8.4f}"
          f"  {r['mean_t0']:9.4f}    {r['mean_t1']:9.4f}")
print("\nlarge p-values: the pushed-forward samples are indistinguishable")
print("from fresh draws, which is the invariance of the Gibbs measure")
