"""Law of large numbers for Wick averages: the component average of
:Psi_k^2: over N independent stationary fields decays like N^{-1/2} in the
time-integrated negative-regularity norm.
"""

from sigma_wave import GridSpec, fit_rate, lln_estimator

spec = GridSpec(64, 1.0)
N_list = [4, 16, 64, 256]

tables = lln_estimator(spec, ("wick_square_avg", "wick_triple_avg"), N_list,
                       truncation=8, T=1.0, reps=8, eps=0.1, root_seed=40)
for kind, rows in tables.items():
    print(f"{kind}:")
    for r in rows:
        print(f"  N = {r['N']:4d}: norm {r['mean_norm']:9.4f} +/- {r['se']:.4f}")
    fit = fit_rate(rows)
    print(f"  fitted rate {fit.slope:+.3f} +/- {fit.slope_se:.3f} (theory -0.5)\n")
