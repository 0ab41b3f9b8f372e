"""Experiments reproducing every table and figure of the paper."""

from .config import ExperimentConfig
from .e9_npcomplete import run_e9
from .e13_replacement import run_e13
from .e14_intrinsic import run_e14
from .e15_prediction import run_e15
from .e16_regrouping import run_e16
from .e17_survey import run_e17
from .e18_three_c import run_e18
from .e10_blocking import run_e10
from .e11_sp_utilization import run_e11
from .e12_pipeline import run_e12
from .fig1_balance import PAPER_BALANCE, PAPER_MACHINE_BALANCE, run_fig1
from .fig2_ratios import PAPER_RATIOS, run_fig2
from .fig3_bandwidth import run_fig3
from .fig4_fusion import run_fig4
from .fig5_mincut import random_hypergraph, run_fig5
from .fig6_storage import run_fig6
from .fig8_store_elim import PAPER_SECONDS, build_stages, run_fig8
from .ladder_capacity import run_ladder
from .plan import SimRequest, execute_plan, run_batch
from .orchestrator import (
    ExperimentTask,
    OrchestratorOptions,
    build_manifest,
    build_plan,
    run_battery,
    run_tasks,
    write_manifest,
)
from .registry import EXPERIMENTS
from .report import Table, fmt
from .result import ExperimentResult, experiment

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentTask",
    "OrchestratorOptions",
    "build_manifest",
    "build_plan",
    "experiment",
    "run_battery",
    "run_tasks",
    "write_manifest",
    "PAPER_BALANCE",
    "PAPER_MACHINE_BALANCE",
    "PAPER_RATIOS",
    "PAPER_SECONDS",
    "SimRequest",
    "Table",
    "build_stages",
    "execute_plan",
    "fmt",
    "random_hypergraph",
    "run_batch",
    "run_e10",
    "run_e13",
    "run_e14",
    "run_e15",
    "run_e16",
    "run_e17",
    "run_e18",
    "run_e11",
    "run_e12",
    "run_e9",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig8",
    "run_ladder",
]
