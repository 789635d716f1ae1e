"""Start-up cost and dependencies of the command line: which scipy modules a
fresh interpreter loads.  ``import scipy.stats`` alone costs about a second,
so no command loads it (``invariance-check`` runs its KS test in numpy), and
numpy is the only runtime dependency: every subcommand runs with scipy
blocked.  Each test runs a fresh interpreter, because this process has scipy
loaded already."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the criterion-11 config of tests/test_acceptance.py, with field snapshots on
CRITERION_11_INI = (
    "[grid]\nn_grid = 16\n[truncation]\nM = 2\n"
    "[dynamics]\nN = 2\ndt = 0.1\nT = 0.4\nstride = 2\n"
    "[gibbs]\nh = 0.3\nchain = 80\nburnin = 20\nthin = 5\n"
    "[experiment]\nN_list = 2,3,4\nreps = 2\nseed = 13\n"
    "[output]\nformats = csv,fields\n"
)


def run_fresh(code: str, cwd: Path) -> list:
    """Run ``code`` in a new interpreter with ``src`` on the path; its stdout lines."""
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_import_and_seven_subcommands_load_no_scipy_stats_or_integrate(tmp_path):
    (tmp_path / "c.ini").write_text(CRITERION_11_INI)
    lines = run_fresh("""
        import sys
        import sigma_wave, sigma_wave.cli as cli

        def loaded():
            return sorted(m for m in sys.modules
                          if m.startswith(("scipy.stats", "scipy.integrate")))

        print("import", loaded())
        for command in ("renorm-table", "simulate-hlsm", "simulate-meanfield",
                        "convergence-rate", "lln-decay", "sample-gibbs", "commutator"):
            assert cli.main([command, "--config", "c.ini", "--out", command]) == 0
            print(command, loaded())
        """, tmp_path)
    report = [line for line in lines if line.endswith("]")]
    assert len(report) == 8
    assert all(line.endswith(" []") for line in report), report


def test_invariance_check_loads_no_scipy_stats(tmp_path):
    (tmp_path / "c.ini").write_text(CRITERION_11_INI)
    lines = run_fresh("""
        import sys
        from sigma_wave import cli
        print("before main:", "scipy.stats" in sys.modules)
        assert cli.main(["invariance-check", "--config", "c.ini", "--out", "o"]) == 0
        print("after main:", "scipy.stats" in sys.modules)
        """, tmp_path)
    assert "before main: False" in lines
    assert "after main: False" in lines


def test_every_subcommand_runs_with_scipy_blocked(tmp_path):
    # m = 1/4 puts the zero mode on the repeated root lam = m + |n|^2 = 1/4
    (tmp_path / "c.ini").write_text(CRITERION_11_INI)
    (tmp_path / "m.ini").write_text("[grid]\nn_grid = 16\nm = 0.25\n[truncation]\nM = 2\n"
                                    "[dynamics]\ndt = 0.1\nT = 0.4\nstride = 2\n")
    lines = run_fresh("""
        import sys
        sys.modules["scipy"] = None  # makes every `import scipy...` raise ImportError
        from sigma_wave import cli
        exits = [cli.main([command, "--config", "c.ini", "--out", command])
                 for command in ("renorm-table", "simulate-hlsm", "simulate-meanfield",
                                 "convergence-rate", "lln-decay", "sample-gibbs",
                                 "invariance-check", "commutator")]
        exits.append(cli.main(["renorm-table", "--config", "m.ini", "--out", "quarter"]))
        print("exits", exits)
        """, tmp_path)
    assert "exits [0, 0, 0, 0, 0, 0, 0, 0, 0]" in lines
    # pinned bytes; each sigma cell is within 1e-15 relative of the mpmath
    # oracle's ball sum (tests/oracles.py::transition_covariance_mp)
    assert (tmp_path / "quarter" / "renorm.csv").read_bytes() == (
        "t,sigma_M,alpha_M\n"
        "0,0,9.9189542483660134\n"
        "0.10000000000000001,0.0080077054501712392,9.9189542483660134\n"
        "0.20000000000000001,0.058720731930935882,9.9189542483660134\n"
        "0.30000000000000004,0.18027840978979998,9.9189542483660134\n"
        "0.40000000000000002,0.38592810232921732,9.9189542483660134\n").encode()


def test_invariance_check_runs_without_scipy(tmp_path):
    # the default m = 1 keeps every mode out of the quadrature window
    (tmp_path / "c.ini").write_text(CRITERION_11_INI)
    lines = run_fresh("""
        import sys
        sys.modules["scipy"] = None  # makes every `import scipy...` raise ImportError
        from sigma_wave import cli
        print("exit", cli.main(["invariance-check", "--config", "c.ini", "--out", "o"]))
        """, tmp_path)
    assert "exit 0" in lines
    table = (tmp_path / "o" / "invariance.csv").read_text().splitlines()
    assert table[0] == "observable,ks_stat,p_value,mean_t0,se_t0,mean_t1,se_t1"
    assert len(table) == 4
