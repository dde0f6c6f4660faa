"""Independent reference computations used to check the library paths.

These deliberately avoid the rational-form code: the LC reactance comes from
complex admittance inversion, the tapped-line mutual reactance and the
open-line voltage and current from the distributed-voltage solutions, the
tapped-line numerators from their definition, two sines each, capacity/power
from a plain midpoint Riemann sum on a uniform grid, the water level from a
loop over the sorted nodes, grid nodes from the refinement offsets with
their duplicates, and the LC lower bound of the continuous problem from the
roots of its quadratics, with no grid and no quadrature.
"""

import cmath
import math

import mpmath
import numpy as np

from rclink.channels import poles_in_interval
from rclink.linkmodel import BOLTZMANN, alpha, beta, ratio_alpha_beta


def lc_reactance_admittance(inductance, capacitance, omega):
    """Imag part of the LC two-port entry via direct admittance inversion."""
    y = 1j * omega * capacitance + 1.0 / (1j * omega * inductance)
    return (1.0 / y).imag


def shorted_mutual_reactance(model, omega):
    """Z_RT'' from the distributed voltage at x = x_receive (complex route)."""
    k = omega / model.wave_speed
    length, z0 = model.length, model.char_impedance
    xt, xr = model.x_transmit, model.x_receive
    v_over_it = (
        1j
        * z0
        * (cmath.cos(k * (length - xr - xt)) - cmath.cos(k * (length - abs(xr - xt))))
        / (2 * cmath.sin(k * length))
    )
    return (v_over_it / 1j).real


def open_line_closed_vi(model, omega, x):
    """(V/I1, I/I1) of the open line driven by I1 at x = 0, from the standing
    wave V = -i z0 cos(k (L - x)) / sin(k L), at any complex omega."""
    c0, length = model.wave_speed, model.length
    kl, klx = omega * length / c0, omega * (length - x) / c0
    v = -1j * model.char_impedance * cmath.cos(klx) / cmath.sin(kl)
    return v, cmath.sin(klx) / cmath.sin(kl)


def shorted_numerators_by_definition(model, omega):
    """(num_t, num_r, num_rt) of the shorted tapped line, each from its own two
    sines, z0 sin(k p) sin(k (L - q)) for taps p <= q, multiplied in that order."""
    k = omega / model.wave_speed

    def num(p, q):
        return model.char_impedance * np.sin(k * p) * np.sin(k * (model.length - q))

    xt, xr = model.x_transmit, model.x_receive
    return num(xt, xt), num(xr, xr), num(min(xt, xr), max(xt, xr))


def riemann_capacity_power(model, rx, band, mu, n_points):
    """Midpoint Riemann recomputation of capacity and power at multiplier mu."""
    delta = (band.hi - band.lo) / n_points
    omega = band.lo + (np.arange(n_points) + 0.5) * delta
    a = alpha(model, rx, omega)
    b = beta(model, rx, omega)
    r = ratio_alpha_beta(model, rx, omega)
    support = (a > 0) & (r > mu)
    cap = float(np.sum(np.log2(r[support] / mu)) * delta / (2 * math.pi))
    power = float(np.sum(1 / mu - 1 / r[support]) * delta / (2 * math.pi))
    return cap, power


def water_level_by_loop(ratio, weights, p_t):
    """Smallest alpha/beta in the water-filling support at budget p_t, by the
    running-level loop: with the nodes in descending ratio, power the top k at
    level W_k / (p_t + V_k) (running sums of w and w/r, w the weight in Hz)
    and stop at the first k whose level excludes node k+1."""
    order = np.argsort(ratio, kind="stable")[::-1]
    sum_w = sum_w_over_r = 0.0
    for k, i in enumerate(order):
        w = weights[i]
        sum_w += w
        sum_w_over_r += w / ratio[i]
        if k + 1 == len(order) or sum_w / (p_t + sum_w_over_r) >= ratio[order[k + 1]]:
            return ratio[i]


def grid_nodes_by_full_broadcast(band, model, base_points, refine_levels):
    """waterfill.build_grid's nodes from the base nodes, the in-band poles and every
    refinement offset k*h/2**l, |k| <= 20, around every pole within 10h of the band,
    duplicates included, merged by one np.unique; then the same near-duplicate drop,
    node by node, each in-band pole written onto the node kept for its run, and band
    edges written last."""
    lo, hi = band.lo, band.hi
    h = (hi - lo) / (base_points - 1)
    centres = poles_in_interval(model, max(lo - 10 * h, 0.0), hi + 10 * h)
    poles = centres[(lo <= centres) & (centres <= hi)]
    offsets = (h / 2.0 ** np.arange(1, refine_levels + 1))[:, None] * np.arange(-20, 21)
    extra = (centres[:, None] + offsets.ravel()).ravel()
    extra = extra[(extra >= lo) & (extra <= hi)]
    nodes = np.unique(np.concatenate([np.linspace(lo, hi, base_points), poles, extra]))
    tol = h * 1e-9
    # a run is its first node and every later one within tol of it
    kept, run_of = [], {}
    for x in nodes.tolist():
        if not kept or x - kept[-1] > tol:
            kept.append(x)
        run_of[x] = len(kept) - 1
    nodes = np.array(kept)
    # a pole within tol of an edge sits on the edge node
    for p in poles.tolist():
        if p - lo > tol and hi - p > tol:
            nodes[run_of[p]] = p
    nodes[0], nodes[-1] = lo, hi
    return nodes


def lc_quadratics(model, rx, band, p_t):
    """(E, F) of the continuous LC problem as [u^2, u, 1] coefficients in
    u = omega^2, mpmath numbers at the working precision: with K = g^2 R_L/2, c = 2 g^2 k T R_L and
    D(u) = L^2 u + R_L^2 (1 - L C u)^2 the load term, alpha/beta = K D/E with
    E = c L^2 u + Q_A D, and 1 + p_t (alpha/beta)/B = F/E with F = E + (p_t K/B) D."""
    mpf = mpmath.mpf
    ind, cap, rl = mpf(model.inductance), mpf(model.capacitance), mpf(rx.load_resistance)
    g2 = mpf(rx.amp_gain) ** 2
    d = [rl**2 * ind**2 * cap**2, ind**2 - 2 * rl**2 * ind * cap, rl**2]
    e = [mpf(rx.amp_noise_density) * a for a in d]
    e[1] += 2 * g2 * mpf(BOLTZMANN) * mpf(rx.temperature) * rl * ind**2
    snr = mpf(p_t) * g2 * rl / 2 / mpf(band.bandwidth)
    return e, [a + snr * b for a, b in zip(e, d)]


def _log_integral(q, lo, hi):
    """The integral of log q(omega^2) d omega over [lo, hi], for a polynomial q
    in u = omega^2 of degree at most 2 that is positive on the real line: q is
    its leading coefficient times (omega - s)(omega + s) per root u = s^2, and
    the integral of log|omega - s| is Re[(omega - s) log(omega - s)] - omega."""
    while q[0] == 0:  # no u^2 term without amplifier noise
        q = q[1:]
    if len(q) == 3:  # the roots without cancellation: u = t/a and u = c/t
        a, b, c = q
        t = -(b + math.copysign(1, b) * mpmath.sqrt(b * b - 4 * a * c)) / 2
        roots = [t / a, c / t]
    else:
        roots = [-q[1] / q[0]] if len(q) == 2 else []
    total = (hi - lo) * mpmath.log(q[0])
    for u in roots:
        for s in (mpmath.sqrt(u), -mpmath.sqrt(u)):
            for w, sign in ((hi, 1), (lo, -1)):
                total += sign * (mpmath.re((w - s) * mpmath.log(w - s)) - w)
    return total


def lc_lower_bound_continuous(model, rx, band, p_t):
    """The lower bound of the continuous LC problem, bits/s: the integral of
    log2(F/E) d omega / 2 pi over the band (see `lc_quadratics`), in closed form."""
    with mpmath.workdps(40):
        lo, hi = mpmath.mpf(band.lo), mpmath.mpf(band.hi)
        e, f = lc_quadratics(model, rx, band, p_t)
        return float((_log_integral(f, lo, hi) - _log_integral(e, lo, hi))
                     / (2 * mpmath.pi * mpmath.log(2)))
