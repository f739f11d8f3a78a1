"""Self-tests of the benchmark's checks: each must reject a corrupted output.

Run from the repository root (takes about 10 s):

    python3 perfbench/selftest.py

The file name keeps it out of the pytest collection of the package's
tests.  Each case runs one real op of a workload, confirms that its check
accepts the program's output, then corrupts the output and confirms that
the check rejects it:

* T scaled by 1 + 1e-6 (a spectrum CSV, and a finite-bath spectrum);
* one bath mode dropped before the finite-bath Green function;
* a printed peak shifted by one grid point;
* chi scaled by 1 + 1e-6 on the correlation -> chi transform.

It also confirms that the even-grid empty cavity is reported as the known
``core.local_maxima`` fault.
"""

from __future__ import annotations

import os
import re
import shutil
import sys
import tempfile
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import numpy as np  # noqa: E402

from polarispec import bathmap, cli, core, spectra  # noqa: E402

import checks as ck  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(label, fn, raises):
    try:
        fn()
    except raises:
        print(f"PASS {label}")
        return
    except Exception as exc:  # report any other outcome as a self-test failure
        FAILURES.append(label)
        print(f"FAIL {label}: raised {type(exc).__name__}: {exc}")
        return
    FAILURES.append(label)
    print(f"FAIL {label}: {'accepted' if raises else 'no error expected'}")


def accepts(label, fn):
    try:
        fn()
    except Exception as exc:  # report any failure of a clean output
        FAILURES.append(label)
        print(f"FAIL {label}: clean output rejected: {type(exc).__name__}: {exc}")
        return
    print(f"PASS {label}")


def scale_csv_column(path, column, factor):
    data = ck.read_csv(path, "omega,T,R,A")
    data[:, column] *= factor
    np.savetxt(path, data, fmt="%.16e", delimiter=",", header="omega,T,R,A", comments="")


def cli_cases(workdir):
    _, ops = workloads.build("cli-large-grid", 7, workdir)
    spectrum = next(op for op in ops if op.name == "spectrum fig2a 100001")
    result = spectrum.call()
    accepts("cli: clean fig2a spectrum", lambda: spectrum.check(result))

    rc, out, err = result
    token = re.search(r"at (\S+)", out).group(1)
    g = spectrum.inputs["cfg"]["grid"]
    omega = np.linspace(g["omega_min"], g["omega_max"], g["n_points"])
    i = int(np.argmin(np.abs(omega - float(token))))
    shifted = out.replace(token, f"{omega[i + 1]:+.6g}", 1)
    expect("cli: peak check rejects a printed peak shifted by one grid point",
           lambda: spectrum.check((rc, shifted, err)), ck.CheckError)

    data = ck.read_csv(spectrum.inputs["csv"], "omega,T,R,A")
    T, R, A = data[:, 1] * (1.0 + 1e-6), data[:, 2], data[:, 3]
    reference = ck.port_spectra(omega, ck.chi_of_model(spectrum.inputs["cfg"]["model"], omega), spectrum.inputs["cfg"]["cavity"])
    expect("cli: port-formula check rejects T x (1+1e-6)", lambda: ck.check_port(T, R, A, reference, "T"), ck.CheckError)
    expect("cli: energy check rejects T x (1+1e-6)", lambda: ck.check_energy(T, R, A, "T"), ck.CheckError)
    expect("cli: round-trip check rejects T x (1+1e-6)",
           lambda: ck.check_round_trip(T, data[:, 1], "T"), ck.CheckError)

    scale_csv_column(spectrum.inputs["csv"], 1, 1.0 + 1e-6)
    expect("cli: op check rejects T x (1+1e-6) in the CSV", lambda: spectrum.check(result), ck.CheckError)

    empty = ops[-1]
    result = empty.call()
    expect("cli: even-grid empty cavity is the known local_maxima fault", lambda: empty.check(result), ck.KnownFault)


def finite_cases(workdir):
    _, ops = workloads.build("finite-bath", 7, workdir)
    op = ops[0]  # M = 16
    tra = op.call()
    accepts("finite-bath: clean M=16 spectrum", lambda: op.check(tra))

    corrupted = SimpleNamespace(
        grid=tra.grid,
        transmission=SimpleNamespace(values=tra.transmission.values * (1.0 + 1e-6)),
        reflection=tra.reflection,
        absorption=tra.absorption,
    )
    expect("finite-bath: op check rejects T x (1+1e-6)", lambda: op.check(corrupted), ck.CheckError)

    scenario = cli.parse_scenario(op.inputs["cfg"])
    pts = scenario.grid.points[scenario.grid.points > 0]
    J = bathmap.spectral_density_from_chi(
        cli.model_susceptibility(scenario.model, core.make_grid(pts[0], pts[-1], pts.size))
    )
    bath = bathmap.discretize_bath(J, 16)
    dropped = bathmap.DiscretizedBath(bath.modes[:7] + bath.modes[8:])
    tra_dropped = spectra.spectra_from_green(
        spectra.green_finite_n(dropped, scenario.cavity, scenario.grid), scenario.cavity
    )
    expect("finite-bath: op check rejects one bath mode dropped", lambda: op.check(tra_dropped), ck.CheckError)

    full = np.array([(m.omega, m.coupling, m.gamma) for m in bath.modes])
    expect(
        "finite-bath: Schur check rejects one bath mode dropped",
        lambda: ck.check_finite_bath(tra.grid.points, tra_dropped.transmission.values, op.inputs["cfg"]["cavity"],
                                     full, "dropped"),
        ck.CheckError,
    )
    expect(
        "finite-bath: Schur check rejects T x (1+1e-6)",
        lambda: ck.check_finite_bath(tra.grid.points, corrupted.transmission.values, op.inputs["cfg"]["cavity"],
                                     full, "scaled"),
        ck.CheckError,
    )
    modes = np.array([(m.omega, m.coupling, m.gamma) for m in dropped.modes])
    expect(
        "finite-bath: sum rule rejects a dropped mode",
        lambda: ck.check_sum_rule(modes, J.values, J.grid.spacing, "dropped"),
        ck.CheckError,
    )


def bath_cases(workdir):
    _, ops = workloads.build("bath-dictionary", 7, workdir)
    op = ops[0]  # chi_from_correlation
    chi = op.call()
    accepts("bath-dictionary: clean correlation -> chi", lambda: op.check(chi))
    corrupted = SimpleNamespace(values=chi.values * (1.0 + 1e-6))
    expect("bath-dictionary: op check rejects chi x (1+1e-6)", lambda: op.check(corrupted), ck.CheckError)


def main() -> int:
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, "out"))
    try:
        cli_cases(workdir)
        finite_cases(workdir)
        bath_cases(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
