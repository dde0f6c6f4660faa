"""Independent reference computations used to check the library paths.

These deliberately avoid the rational-form code: the LC reactance comes from
complex admittance inversion, the tapped-line mutual reactance from the
distributed-voltage solution, and capacity/power from a plain midpoint
Riemann sum on a uniform grid.
"""

import cmath
import math

import numpy as np

from rclink.linkmodel import alpha, beta, ratio_alpha_beta


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
    level W_k / (p_t + V_k) (running sums of w and w/r, w = weight / 2 pi)
    and stop at the first k whose level excludes node k+1."""
    order = np.argsort(ratio, kind="stable")[::-1]
    sum_w = sum_w_over_r = 0.0
    for k, i in enumerate(order):
        w = weights[i] / (2 * math.pi)
        sum_w += w
        sum_w_over_r += w / ratio[i]
        if k + 1 == len(order) or sum_w / (p_t + sum_w_over_r) >= ratio[order[k + 1]]:
            return ratio[i]
