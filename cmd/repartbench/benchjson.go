package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"hyperbal/internal/core"
	"hyperbal/internal/harness"
)

// figureBench is one tracked figure cell: the α=1 Zoltan-repart bar of a
// dataset/dynamic pair at procs=8, plus the allocation rate of the whole
// reduced sweep.
type figureBench struct {
	Figure          string  `json:"figure"`
	Dataset         string  `json:"dataset"`
	Dynamic         string  `json:"dynamic"`
	MsPerRepart     float64 `json:"ms_per_repart"`
	NormalizedCost  float64 `json:"normalized_cost"`
	AllocsPerRepart uint64  `json:"allocs_per_repart"`
}

// methodBench is one Figure 7-style runtime bar: ms per repartition of one
// method on xyce680s at procs=8, α=100.
type methodBench struct {
	Method      string  `json:"method"`
	MsPerRepart float64 `json:"ms_per_repart"`
}

// kernelBench mirrors one internal/hgp micro-benchmark (go test -bench);
// entries are filled in by hand from bench runs, not by this tool.
type kernelBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
}

// snapshot is one labeled benchmark run; the file accumulates snapshots so
// before/after comparisons live next to each other.
type snapshot struct {
	Label       string        `json:"label"`
	Date        string        `json:"date"`
	GoMaxProcs  int           `json:"gomaxprocs"`
	Parallelism int           `json:"parallelism"`
	Figures     []figureBench `json:"figures"`
	Fig7Runtime []methodBench `json:"fig7_runtime"`
	// ParallelismSweep is carried verbatim so that rewriting the file
	// keeps the sweeps recorded in older snapshots.
	ParallelismSweep json.RawMessage `json:"parallelism_sweep,omitempty"`
	Kernels          []kernelBench   `json:"kernels,omitempty"`
	Notes            string          `json:"notes,omitempty"`
}

type benchFile struct {
	Snapshots []snapshot `json:"snapshots"`
}

// runBenchJSON runs the reduced tracked benchmark suite and appends a
// snapshot to path (creating the file if needed).
func runBenchJSON(path, label string, parallelism int, seed int64) error {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	snap := snapshot{
		Label:       label,
		Date:        time.Now().UTC().Format("2006-01-02"),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Parallelism: parallelism,
	}

	figures := []struct {
		fig     string
		dataset string
	}{
		{"fig2", "xyce680s"},
		{"fig3", "2DLipid"},
		{"fig4", "auto"},
		{"fig5", "apoa1-10"},
		{"fig6", "cage14"},
	}
	for _, f := range figures {
		for _, dynamic := range []string{"structure", "weights"} {
			cfg := harness.Config{
				Dataset: f.dataset, Dynamic: dynamic, ScaleV: 1200,
				Procs: []int{8}, Alphas: []int64{1, 100},
				Trials: 1, Epochs: 2, Seed: seed, Parallelism: parallelism,
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep, err := harness.Run(cfg)
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&after)
			reparts := uint64(cfg.Trials * cfg.Epochs * len(cfg.Procs) * len(cfg.Alphas) * len(core.Methods))
			var cell *harness.Cell
			for i := range rep.Cells {
				c := &rep.Cells[i]
				if c.Alpha == 1 && c.Method == core.HypergraphRepart {
					cell = c
					break
				}
			}
			if cell == nil {
				return fmt.Errorf("bench-json: no α=1 %v cell for %s/%s", core.HypergraphRepart, f.dataset, dynamic)
			}
			snap.Figures = append(snap.Figures, figureBench{
				Figure:          f.fig,
				Dataset:         f.dataset,
				Dynamic:         dynamic,
				MsPerRepart:     float64(cell.RepartTime.Microseconds()) / 1000,
				NormalizedCost:  cell.NormalizedCost,
				AllocsPerRepart: (after.Mallocs - before.Mallocs) / reparts,
			})
		}
	}

	// Figure 7 runtime bars: all four methods on xyce680s.
	cfg := harness.Config{
		Dataset: "xyce680s", Dynamic: "structure", ScaleV: 1200,
		Procs: []int{8}, Alphas: []int64{100},
		Trials: 1, Epochs: 3, Seed: seed, Parallelism: parallelism,
	}
	rep, err := harness.Run(cfg)
	if err != nil {
		return err
	}
	for _, c := range rep.Cells {
		snap.Fig7Runtime = append(snap.Fig7Runtime, methodBench{
			Method:      c.Method.String(),
			MsPerRepart: float64(c.RepartTime.Microseconds()) / 1000,
		})
	}

	var file benchFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("bench-json: %s exists but is not a benchmark file: %w", path, err)
		}
	}
	file.Snapshots = append(file.Snapshots, snap)
	out, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
