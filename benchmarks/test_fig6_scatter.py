"""Figure 6 reproduction: per-instance scatter of our solver vs. each baseline.

The paper's Fig. 6 plots Z3-Noodler-pos against Z3, cvc5 and OSTRICH with one
point per formula (timeouts on the dashed border).  Here we emit the same
per-instance data for the two baselines as CSV plus a win/loss/tie summary.
"""

from conftest import write_artifact


def _summarise(points, timeout):
    wins = sum(1 for _, ours, theirs in points if ours < theirs)
    losses = sum(1 for _, ours, theirs in points if theirs < ours)
    ties = len(points) - wins - losses
    only_ours = sum(1 for _, ours, theirs in points if theirs >= timeout and ours < timeout)
    only_theirs = sum(1 for _, ours, theirs in points if ours >= timeout and theirs < timeout)
    return wins, losses, ties, only_ours, only_theirs


def test_fig6_scatter_data(campaign, results_dir, benchmark):
    def build():
        blocks = {}
        for baseline in ("eager-reduction", "enumerative"):
            blocks[baseline] = campaign.scatter_points("repro-pos", baseline)
        return blocks

    blocks = benchmark(build)
    lines = ["instance,ours,baseline,baseline_name"]
    summary_lines = []
    for baseline, points in blocks.items():
        for name, ours, theirs in points:
            lines.append(f"{name},{ours:.4f},{theirs:.4f},{baseline}")
        wins, losses, ties, only_ours, only_theirs = _summarise(points, campaign.timeout)
        summary_lines.append(
            f"vs {baseline}: faster on {wins}, slower on {losses}, tied {ties}; "
            f"solved-only-by-us {only_ours}, solved-only-by-them {only_theirs}"
        )
    write_artifact(results_dir, "fig6_scatter.csv", "\n".join(lines) + "\n")
    summary = "\n".join(summary_lines)
    write_artifact(results_dir, "fig6_summary.txt", summary + "\n")
    print("\n" + summary)

    # Shape check: against each baseline there are instances only we solve.
    for baseline, points in blocks.items():
        _, _, _, only_ours, _ = _summarise(points, campaign.timeout)
        assert only_ours > 0, f"expected instances solved only by repro-pos vs {baseline}"
