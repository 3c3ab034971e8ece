# perfbench/checks.py
# Output checks of a sweep. Each one tests a property the method must have,
# or the Monte-Carlo oracle, never a stored copy of earlier output. A check
# returns messages that start with its name; no message means it passed.

import math
from collections import defaultdict

# Row layout of ExperimentResult.rows (simcf.experiments.ROWS_HEADER).
VALUE, DROP, UE, DECODER, SCHEME, SINR, SE, MC_SINR, MC_STDERR = range(1, 10)

REL_TOL = 1e-9      # float slack for inequalities the method guarantees
SE_TOL = 1e-12      # relative slack of the recomputed SE
MC_SIGMAS = 4.0     # closed form vs Monte-Carlo, in standard errors


def _index(rows):
    """{(value, drop): {(scheme, decoder): {ue: row}}}."""
    cells = defaultdict(lambda: defaultdict(dict))
    for row in rows:
        cells[(row[VALUE], row[DROP])][(row[SCHEME], row[DECODER])][row[UE]] = row
    return cells


def check_rows(spec, rows, failed_cells):
    """Every property check that applies to this spec's rows."""
    errors = []
    cells = _index(rows)
    attempted = len(spec.values) * spec.n_drops
    if len(cells) != attempted - failed_cells:
        errors.append(f"row_count: {len(cells)} cells with rows, expected "
                      f"{attempted} attempted - {failed_cells} failed")
    for (value, drop), groups in cells.items():
        cfg = spec.config_for(value)
        schemes = spec.schemes_for(value)
        decoders = spec.decoders_for(value)
        where = f"value={value!r} drop={drop}"
        n_rows = sum(len(ues) for ues in groups.values())
        if n_rows != cfg.K * len(decoders) * len(schemes):
            errors.append(f"row_count: {n_rows} rows at {where}, expected "
                          f"K*decoders*schemes = {cfg.K}*{len(decoders)}*"
                          f"{len(schemes)}")
        prelog = (cfg.tau_c - cfg.tau_p) / cfg.tau_c
        for (scheme, decoder), ues in groups.items():
            for k, row in ues.items():
                errors += _row_errors(row, prelog, spec.n_mc_trials > 0,
                                      f"{where} {scheme} {decoder} ue={k}")
        errors += _cell_errors(groups, spec.maxmin_eps, where)
    return errors


def _row_errors(row, prelog, with_mc, where):
    errors = []
    sinr, se = row[SINR], row[SE]
    if not (math.isfinite(sinr) and sinr > 0):
        errors.append(f"sinr_positive: sinr={sinr!r} at {where}")
        return errors
    expected = prelog * math.log2(1.0 + sinr)
    if not abs(se - expected) <= SE_TOL * max(1.0, abs(expected)):
        errors.append(f"se_formula: se={se!r}, (tau_c-tau_p)/tau_c*log2(1+sinr)"
                      f"={expected!r} at {where}")
    if with_mc:
        mc, stderr = row[MC_SINR], row[MC_STDERR]
        if not (math.isfinite(mc) and math.isfinite(stderr) and stderr > 0
                and abs(sinr - mc) <= MC_SIGMAS * stderr):
            errors.append(f"mc_agreement: sinr={sinr!r} mc={mc!r} "
                          f"stderr={stderr!r} at {where}")
    return errors


def _cell_errors(groups, maxmin_eps, where):
    """Cross-row properties of one (value, drop) cell."""
    errors = []

    def sinrs(scheme, decoder):
        return {k: row[SINR] for k, row in groups.get((scheme, decoder), {}).items()}

    for scheme in dict.fromkeys(scheme for scheme, _ in groups):
        if not scheme.endswith("-full"):
            continue
        lsfd, egcd = sinrs(scheme, "lsfd"), sinrs(scheme, "egcd")
        for k in lsfd.keys() & egcd.keys():
            if lsfd[k] < egcd[k] * (1.0 - REL_TOL):
                errors.append(f"lsfd_ge_egcd: lsfd={lsfd[k]!r} < "
                              f"egcd={egcd[k]!r} at {where} {scheme} ue={k}")
    if ("opt-full", "lsfd") in groups and ("rand-full", "lsfd") in groups:
        opt = sum(row[SE] for row in groups[("opt-full", "lsfd")].values())
        rand = sum(row[SE] for row in groups[("rand-full", "lsfd")].values())
        if opt < rand - REL_TOL * max(1.0, rand):
            errors.append(f"opt_ge_rand: LSFD sum-SE opt-full={opt!r} < "
                          f"rand-full={rand!r} at {where}")
    for scheme, decoder in groups:
        kind, power = scheme.split("-")
        if power != "maxmin" or (f"{kind}-full", decoder) not in groups:
            continue
        full, maxmin = sinrs(f"{kind}-full", decoder), sinrs(scheme, decoder)
        floor = min(full.values()) - maxmin_eps
        if min(maxmin.values()) < floor:
            errors.append(f"maxmin_floor: min sinr {scheme}="
                          f"{min(maxmin.values())!r} < full-power min - eps"
                          f"={floor!r} at {where} {decoder}")
    return errors


def check_trace(trace):
    """The optimizer's objective trace never decreases."""
    for prev, row in zip(trace, trace[1:]):
        if row.objective < prev.objective:
            return [f"trace_monotone: objective fell from {prev.objective!r} "
                    f"to {row.objective!r} at iteration {row.iteration}"]
    return []


def check_digests(digests):
    """Every round of one spec and seed wrote byte-identical rows.csv."""
    if len(set(digests)) > 1:
        return [f"deterministic: rows.csv differs between rounds: "
                f"{sorted(set(digests))}"]
    return []


def _with_sinr(row, sinr, prelog):
    """Row with sinr replaced and se recomputed to stay consistent."""
    se = prelog * math.log2(1.0 + sinr) if sinr > -1.0 else float("nan")
    return row[:SINR] + (sinr, se) + row[SE + 1:]


def _corruptions(spec, rows):
    """{check name: corrupted copy of rows that this check must reject}."""
    cfg = spec.config_for(spec.values[0])
    prelog = (cfg.tau_c - cfg.tau_p) / cfg.tau_c
    first = _index(rows)[(spec.values[0], 0)]

    def replaced(targets, sinr_of):
        ids = {id(row) for row in targets}
        return [_with_sinr(row, sinr_of(row), prelog) if id(row) in ids else row
                for row in rows]

    egcd = first[("rand-full", "egcd")]
    rand = first[("rand-full", "lsfd")]
    full_min = min(row[SINR] for row in rand.values())
    maxmin = first[("rand-maxmin", "lsfd")]
    row0 = rows[0]
    return {
        "row_count": rows[:-1],
        "sinr_positive": [row0[:SINR] + (-row0[SINR],) + row0[SE:]] + rows[1:],
        "se_formula": [row0[:SE] + (row0[SE] * 1.001,) + row0[SE + 1:]] + rows[1:],
        "lsfd_ge_egcd": replaced([rand[0]], lambda row: egcd[0][SINR] / 2.0),
        "opt_ge_rand": replaced(first[("opt-full", "lsfd")].values(),
                                lambda row: rand[row[UE]][SINR] / 2.0),
        "maxmin_floor": replaced(maxmin.values(),
                                 lambda row: full_min - 2.0 * spec.maxmin_eps),
        "mc_agreement": [row0[:MC_SINR] + (row0[SINR] + 10.0 * row0[MC_STDERR],
                                           row0[MC_STDERR])] + rows[1:],
    }


def self_test():
    """Run a tiny sweep; every check must pass on its rows and reject the
    corruption aimed at it. Returns the list of problems found."""
    from types import SimpleNamespace

    from simcf import ExperimentSpec, run_experiment

    spec = ExperimentSpec(
        sweep="d_meta", values=(0.075,), n_drops=1, n_mc_trials=4000, seed=3,
        schemes=("rand-full", "opt-full", "rand-maxmin"),
        base=dict(L=3, K=3, U=2, M=2, N=4), beamforming=dict(max_probes=4))
    result = run_experiment(spec)
    problems = [f"clean rows rejected: {e}"
                for e in check_rows(spec, result.rows, result.failures)]
    if result.failures:
        problems.append(f"tiny sweep lost {result.failures} cells")
    for name, rows in _corruptions(spec, result.rows).items():
        if not any(e.startswith(name + ":") for e in check_rows(spec, rows, 0)):
            problems.append(f"{name} accepted a corrupted row set")
    fell = [SimpleNamespace(iteration=i, objective=v)
            for i, v in enumerate((1.0, 2.0, 1.5))]
    if not check_trace(fell) or check_trace(fell[:2]):
        problems.append("trace_monotone misjudged a trace")
    if not check_digests(["a", "b"]) or check_digests(["a", "a"]):
        problems.append("deterministic misjudged the digests")
    return problems
