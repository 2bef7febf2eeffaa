"""Figure 7 reproduction: cactus plot data (sorted runtimes per solver).

The paper's Fig. 7 shows Z3-Noodler-pos dominating the cactus plot (most
instances solved for any time budget).  We emit the sorted-runtime series and
check that the position solver solves at least as many instances as either
baseline at the full budget.
"""

from conftest import write_artifact


def test_fig7_cactus_data(campaign, results_dir, benchmark):
    series = benchmark(campaign.cactus_series)
    rendering = campaign.format_cactus()
    lines = ["solver,index,time"]
    for solver, times in series.items():
        for index, value in enumerate(times):
            lines.append(f"{solver},{index + 1},{value:.4f}")
    write_artifact(results_dir, "fig7_cactus.csv", "\n".join(lines) + "\n")
    write_artifact(results_dir, "fig7_cactus.txt", rendering + "\n")
    print("\n" + rendering)

    solved = {solver: len(times) for solver, times in series.items()}
    assert solved["repro-pos"] >= solved["eager-reduction"]
    assert solved["repro-pos"] >= solved["enumerative"]
