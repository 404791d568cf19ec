# The `otem-bench` binaries whose stdout is committed as
# `results/<bin>.txt`. Sourced by `scripts/exhibits.sh`, which rewrites
# the exhibits, and by `scripts/tier1.sh`, which fails unless they
# reproduce byte for byte.
EXHIBIT_BINS=(
    ablation_forecast_noise
    ambient_sweep
    architecture_space
    fault_sweep
    fig1_dual_thermal
    fig6_temperature
    fig7_teb
    fig8_lifetime
    fig9_power
    plan_gap
    table1_ucap_sweep
)
