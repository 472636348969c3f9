"""One module per figure of the paper's evaluation, plus ablations.

Every module exposes:

* a frozen ``*Config`` dataclass whose defaults are the paper's exact
  parameters (one-year runs, the published sweep values), plus a
  ``faults`` field (the CLI's ``--faults``; None = fault-free) that
  every run of the figure, baseline and policy alike, is given;
* ``run(config)`` returning one or more
  :class:`~repro.experiments.report.Table` objects with the regenerated
  series — the one entry point; the CLI (``repro-lasthop``) calls it.

Benchmarks and tests pass reduced ``duration``/sweep values through the
config; EXPERIMENTS.md records full-scale results.
"""

from repro.experiments.figures import (  # noqa: F401
    ablation_cooperation,
    ablation_rank_delay,
    ablation_rate_vs_buffer,
    ablation_schedule,
    ablation_unified,
    fig1_overflow_waste,
    fig2_overflow_loss,
    fig3_buffer_prefetch,
    fig4_expiration_waste,
    fig5_expiration_loss,
    fig6_expiration_threshold,
)

ALL_FIGURES = {
    "fig1": fig1_overflow_waste,
    "fig2": fig2_overflow_loss,
    "fig3": fig3_buffer_prefetch,
    "fig4": fig4_expiration_waste,
    "fig5": fig5_expiration_loss,
    "fig6": fig6_expiration_threshold,
    "ablation-rate": ablation_rate_vs_buffer,
    "ablation-delay": ablation_rank_delay,
    "ablation-unified": ablation_unified,
    "ablation-cooperation": ablation_cooperation,
    "ablation-schedule": ablation_schedule,
}
