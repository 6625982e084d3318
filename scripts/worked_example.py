"""Worked three-pair example: every closed-form method side by side.

The dataset has a denominator mean that is only just significantly
different from zero, which is exactly where the methods disagree: the
exact inversion stretches its upper limit into the hundreds while the
approximations all report widths below ten. The geometric construction
shows why: the joint confidence ellipse of the means nearly reaches the
y axis.

Run: python3 scripts/worked_example.py
"""

import ratio_ci as rc

XS = (6.34, 4.02, 2.88)
YS = (4.87, 8.30, 11.66)


def main() -> None:
    sample = rc.PairedSample(XS, YS)
    stats = rc.summarize(sample)
    spec = rc.ConfidenceSpec.two_sided(0.95, df=sample.n - 1)
    print(f"n = {sample.n}, t quantile (df={sample.n - 1}) = {spec.quantile:.4f}")
    print(f"mean_x = {stats.mean_x:.4f} (sd {stats.sd_mean_x:.4f}), "
          f"mean_y = {stats.mean_y:.4f} (sd {stats.sd_mean_y:.4f})")
    print()

    sample_methods = (rc.Method.INDEX, rc.Method.TRIMMED_INDEX, rc.Method.ZERO_VARIANCE)
    results = [
        rc.fieller_set(stats, spec),
        rc.taylor_limits(stats, spec),
        *(result for _, result in rc.evaluate_methods(sample, sample_methods, spec)),
    ]
    print(f"{'method':<14}{'lower':>10}{'estimate':>10}{'upper':>10}")
    for r in results:
        cs = r.confidence_set
        print(f"{r.method.value:<14}{cs.lower:>10.2f}{r.estimate:>10.2f}{cs.upper:>10.2f}")

    wedge = rc.construct_wedge(stats, spec)
    print()
    print(f"ellipse center {wedge.center[0]:.3f}, {wedge.center[1]:.3f}; "
          f"half axes {wedge.half_axis_x:.3f} x {wedge.half_axis_y:.3f}")
    print(f"tangent slopes through the origin: "
          + ", ".join(f"{s:.4f}" for s in wedge.tangent_slopes))
    print(f"ellipse reaches the y axis: {wedge.touches_y_axis} "
          "(true would mean unbounded limits)")


if __name__ == "__main__":
    main()
