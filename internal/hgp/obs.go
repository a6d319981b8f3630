package hgp

import "hyperbal/internal/obs"

// Registry handles for the serial multilevel pipeline. All handles are
// registered once at init; the hot paths only touch atomics. Per-pass
// counters are accumulated locally inside the refinement loops and added
// once per pass, so the FM inner loops stay allocation- and contention-
// free (the measured overhead budget for the whole layer is <2% of a
// Figure-7 repartition).
var (
	obsPartitions = obs.Default().Counter("hgp_partitions_total")
	obsLevels     = obs.Default().Counter("hgp_coarsen_levels_total")

	// Per-level V-cycle shape: vertex/net counts of the produced coarse
	// hypergraph and the shrink fraction of the level, in permille.
	obsLevelVertices = obs.Default().HistogramVec("hgp_level_vertices", "level", obs.SizeBounds)
	obsLevelNets     = obs.Default().HistogramVec("hgp_level_nets", "level", obs.SizeBounds)
	obsLevelShrink   = obs.Default().HistogramVec("hgp_level_shrink_permille", "level", obs.LinBounds(50, 50, 20))

	// Stage timers (nanoseconds): coarsening per level, the multi-start
	// coarse solve, refinement per level, and the final k-way polish.
	obsCoarsenNs     = obs.Default().HistogramVec("hgp_coarsen_ns", "level", obs.DurationBounds)
	obsCoarseSolveNs = obs.Default().Histogram("hgp_coarse_solve_ns", obs.DurationBounds)
	obsRefineNs      = obs.Default().HistogramVec("hgp_refine_ns", "level", obs.DurationBounds)
	obsPolishNs      = obs.Default().Histogram("hgp_kway_polish_ns", obs.DurationBounds)

	// FM activity: pass-pairs and applied moves, split by refinement kind.
	obsFM2Passes  = obs.Default().Counter("hgp_fm2_passes_total")
	obsFM2Moves   = obs.Default().Counter("hgp_fm2_moves_total")
	obsKwayPasses = obs.Default().Counter("hgp_kway_passes_total")
	obsKwayMoves  = obs.Default().Counter("hgp_kway_moves_total")

	// Cut of the last completed Partition call, after refinement.
	obsFinalCut = obs.Default().Gauge("hgp_final_cut")

	// Warm-start path: calls by mode (localized / vcycle / trivial), the
	// dirty fraction of each call in permille, and the wall time of the
	// whole warm partition (the cold analogue is the sum of the stage
	// timers above).
	obsWarmPartitions    = obs.Default().CounterVec("hgp_warm_partitions_total", "mode")
	obsWarmDirtyPermille = obs.Default().Histogram("hgp_warm_dirty_permille", obs.LinBounds(50, 50, 20))
	obsWarmNs            = obs.Default().Histogram("hgp_warm_partition_ns", obs.DurationBounds)
)
