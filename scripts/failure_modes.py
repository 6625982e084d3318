"""Reproduce the characteristic failure modes of the approximate methods.

Three cells at n = 500 tell the story:

  A (cv_x=0.15, cv_y=0.10)  benign denominator; the per-pair-ratio mean
                            still overestimates (approximately 1 + cv_x^2)
  B (cv_x=0.75, cv_y=0.10)  the per-pair estimate turns noisy but balanced
  C (cv_x=3.0,  cv_y=0.10)  denominators straddle zero; the per-pair mean
                            collapses below the true ratio and trimming
                            fixes the variance but not the bias

The zero-variance method fails separately whenever the denominator CV is
large, because it ignores exactly that variability. Three settings then
vary: the exact method covers at a 90% level as exactly as at 95%,
trimming 10% in place of 25% moves the trimmed estimate but still misses
at C, and the ratio bootstrap stays near its level at all three points at
this n.

Run: python3 scripts/failure_modes.py
"""

import ratio_ci as rc

POINTS = {"A": (0.15, 0.10), "B": (0.75, 0.10), "C": (3.0, 0.10)}
METHODS = (
    rc.Method.FIELLER,
    rc.Method.INDEX,
    rc.Method.TRIMMED_INDEX,
    rc.Method.ZERO_VARIANCE,
)
BOOTSTRAP = (rc.Method.BOOTSTRAP_PERCENTILE, rc.Method.BOOTSTRAP_BCA)
# Fewer runs and replications than the table above: the bootstrap costs
# some sixty times as much per run.
BOOT_RUNS, BOOT = 200, rc.BootstrapConfig(replications=1000)


def main() -> None:
    runs, seed, n = 1000, 0, 500
    print(f"n = {n}, {runs} runs per cell, true ratio 1")
    header = f"{'point':<6}{'method':<15}{'coverage':>9}{'est mean':>12}{'est var':>12}"
    print(header)
    for label, (cv_x, cv_y) in POINTS.items():
        cell = rc.SimCell(cv_x=cv_x, cv_y=cv_y, n=n)
        result = rc.run_cell(cell, METHODS, runs=runs, seed=seed)
        for method in METHODS:
            tally = result.methods[method]
            # Per-pair ratio moments are near-Cauchy at point C, so the
            # variance column spans many orders of magnitude.
            print(
                f"{label:<6}{method.value:<15}{tally.coverage:>9.3f}"
                f"{tally.estimate_mean:>12.4g}{tally.estimate_variance:>12.4g}"
            )

    print()
    print(f"fieller at 90%, trimmed_index at trim 0.1, and the ratio bootstrap "
          f"({BOOT.replications} replications, {BOOT_RUNS} runs per cell):")
    print(f"{'point':<6}{'fieller':>9}{'trimmed':>9}{'est mean':>10}{'percentile':>12}{'bca':>7}")
    for label, (cv_x, cv_y) in POINTS.items():
        cell = rc.SimCell(cv_x=cv_x, cv_y=cv_y, n=n)
        exact = rc.run_cell(cell, [rc.Method.FIELLER], runs, seed, level=0.90)
        trimmed = rc.run_cell(cell, [rc.Method.TRIMMED_INDEX], runs, seed, trim=0.1)
        boot = rc.run_cell(cell, BOOTSTRAP, BOOT_RUNS, seed, boot_config=BOOT)
        tally = trimmed.methods[rc.Method.TRIMMED_INDEX]
        print(
            f"{label:<6}{exact.methods[rc.Method.FIELLER].coverage:>9.3f}"
            f"{tally.coverage:>9.3f}{tally.estimate_mean:>10.4g}"
            + "".join(f"{boot.methods[m].coverage:>{w}.3f}" for m, w in zip(BOOTSTRAP, (12, 7)))
        )

    print()
    print("error-bar experiment, 40 runs each (miss counts; expect <=2 at 95%):")
    for label, (cv_x, cv_y) in POINTS.items():
        cell = rc.SimCell(cv_x=cv_x, cv_y=cv_y, n=n)
        exp = rc.error_bar_experiment(cell, runs=40, seed=seed)
        fieller = exp.significant_deviations(rc.Method.FIELLER)
        index = exp.significant_deviations(rc.Method.INDEX)
        print(f"  {label}: exact {fieller:>2}/40, per-pair mean {index:>2}/40")


if __name__ == "__main__":
    main()
