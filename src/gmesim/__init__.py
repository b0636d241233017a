"""gmesim: deterministic simulator and property checker for group mutual
exclusion algorithms under the cache-coherent memory cost model.
"""

from .bwbgme import build_bwbgme, opposite_color
from .burns_lamport import block_counts, build_bl
from .explorer import ExplorationReport, explore
from .glb import build_glb
from .machine import (AlgorithmSpec, Section, SystemState, Trace, TraceEvent,
                      Workload, all_active_blocked, run, step)
from .memory import BLACK, BOTTOM, WHITE, Memory, RegisterDecl
from .monitors import (Verdict, build_invocations, check_bounded_exit,
                       check_concurrent_entry, check_fcfs, check_flip_invariant,
                       check_implications, check_mutual_exclusion, check_progress,
                       check_section_order, check_token_bound, check_wait_rmr_bounds)
from .scenario import Scenario, load_scenario, parse_scenario
from .schedules import (RandomSchedule, RoundRobin, Scripted,
                        bl_adversarial_schedule, bl_adversarial_workload,
                        random_schedule)

__version__ = "0.1.0"
