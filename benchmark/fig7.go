package main

import (
	"fmt"
	"slices"

	"hyperbal/internal/core"
	"hyperbal/internal/datasets"
	"hyperbal/internal/dynamics"
	"hyperbal/internal/graph"
	"hyperbal/internal/hgp"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/obs"
	"hyperbal/internal/partition"
)

const (
	alpha = 100  // iterations per epoch, the paper's middle setting
	eps   = 0.05 // Eq. 1 imbalance bound
	// trials is how many independent epoch sequences fig7-repart and
	// spmd-repart split their ops over; set-up solves one static
	// partition per trial, so set-up is many small units.
	trials = 20
)

// trialSeed derives trial t's input seed from the run's seed.
func trialSeed(seed int64, t int) int64 { return seed*1000003 + int64(t)*104729 }

// structureTrial is one trial's input: a dataset analogue, its epoch-1
// partition and the structure dynamic seeded from it.
type structureTrial struct {
	seed int64
	gen  *dynamics.Structural
}

// newStructureTrial generates trial t's graph and starts the structure
// dynamic (a quarter of the vertices drawn from half the parts change
// each epoch) from the static partition solve returns.
func newStructureTrial(seed int64, t, k int, solve func(*graph.Graph) (partition.Partition, error)) (structureTrial, error) {
	ts := trialSeed(seed, t)
	g, err := datasets.Generate("xyce680s", 1200, ts)
	if err != nil {
		return structureTrial{}, err
	}
	static, err := solve(g)
	if err != nil {
		return structureTrial{}, fmt.Errorf("static partition: %w", err)
	}
	gen, err := dynamics.NewStructural(g, static, k, 0.25, 0.5, ts*17+3)
	if err != nil {
		return structureTrial{}, err
	}
	return structureTrial{seed: ts, gen: gen}, nil
}

// checkPartition verifies a partition is in range and meets Eq. 1.
func checkPartition(h *hypergraph.Hypergraph, p partition.Partition, k int) error {
	if len(p.Parts) != h.NumVertices() || p.K != k {
		return fmt.Errorf("partition covers %d vertices in %d parts, want %d in %d", len(p.Parts), p.K, h.NumVertices(), k)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	weights := partition.Weights(h, p)
	if !partition.IsBalanced(weights, eps) {
		return fmt.Errorf("imbalance %.4f exceeds Eq. 1 bound %.2f", partition.Imbalance(weights), eps)
	}
	return nil
}

// prepareFig7 is Figure 7's cell: Zoltan-repart (core.Balancer.Repartition)
// on the xyce680s analogue at n=1200, K=8, the structure dynamic, α=100,
// Parallelism 2. Each op is one repartition; the epoch it repartitions is
// generated between timed calls.
func prepareFig7(seed int64, ops int, _ *tracer) (func(p *pass) error, error) {
	const k = 8
	epochs := (ops + trials - 1) / trials
	return func(p *pass) error {
		bals := make([]*core.Balancer, trials)
		ts := make([]structureTrial, trials)
		for t := range ts {
			bal, err := core.NewBalancer(core.Config{K: k, Alpha: alpha, Imbalance: eps,
				Seed: trialSeed(seed, t), Method: core.HypergraphRepart, Parallelism: 2})
			if err != nil {
				return err
			}
			bals[t] = bal
			ts[t], err = newStructureTrial(seed, t, k, func(g *graph.Graph) (partition.Partition, error) {
				res, err := bal.Partition(core.Problem{G: g, H: graph.ToHypergraph(g)})
				return res.Partition, err
			})
			if err != nil {
				return fmt.Errorf("trial %d: %w", t, err)
			}
		}
		for t, trial := range ts {
			bal := bals[t]
			for e := int64(1); e <= int64(epochs); e++ {
				prob, old := trial.gen.Next()
				i := p.next()
				var res core.Result
				ok := p.op(func() (float64, error) {
					sp := p.tr.begin("core", "Balancer.Repartition")
					var err error
					res, err = bal.Repartition(prob, old, e)
					p.tr.end(sp)
					return res.NormalizedCost(alpha), err
				})
				if !ok {
					break // the trial's next epoch depends on this one's partition
				}
				if err := checkPartition(prob.H, res.Partition, k); err != nil {
					return p.wrong(i, "%v", err)
				}
				if p.tr != nil {
					decomposeRepartition(p, bal.Config(), prob, old, e, res)
				}
				if err := trial.gen.Observe(res.Partition); err != nil {
					return err
				}
			}
		}
		return nil
	}, nil
}

// decomposeRepartition reruns a repartition as its chain of public calls,
// BuildRepartition → hgp.Partition → Decode, timing each, and hgp.Partition
// once more at Parallelism 1 as the single-threaded baseline. When the
// chain's output differs from Repartition's, the chain is not what
// Repartition runs, so its numbers are withdrawn rather than reported.
func decomposeRepartition(p *pass, cfg core.Config, prob core.Problem, old partition.Partition, epoch int64, want core.Result) {
	chain := []string{"hgp.partition_ms", "hgp.partition_ms_p1", "hgp.speedup_p2", "hgp.allocs_per_call",
		"hgp.levels_per_call", "hgp.fm_moves_per_call", "hgp.kway_moves_per_call",
		"core.build_ms", "core.decode_ms", "partition.cut_ms"}
	if _, gone := p.absent["hgp.partition_ms"]; gone {
		return
	}
	root := p.tr.begin("bench", "decompose")
	defer p.tr.end(root)

	sp := p.tr.begin("core", "BuildRepartition")
	r, err := core.BuildRepartition(prob.H, old, cfg.K, cfg.Alpha)
	build := p.tr.end(sp)
	if err != nil {
		p.markAbsent("BuildRepartition failed: "+err.Error(), chain...)
		return
	}
	opt := hgp.Options{K: cfg.K, Imbalance: cfg.Imbalance, Seed: cfg.Seed + epoch*7919,
		CoarsenTo: cfg.CoarsenTo, InitialStarts: cfg.InitialStarts, RefinePasses: cfg.RefinePasses,
		Parallelism: cfg.Parallelism}
	before, objs0 := obs.Default().Snapshot(), readRuntime().allocObjects
	sp = p.tr.begin("hgp", "Partition.p2")
	aug, err := hgp.Partition(r.H, opt)
	p2 := p.tr.end(sp)
	objs1, after := readRuntime().allocObjects, obs.Default().Snapshot()
	if err != nil {
		p.markAbsent("hgp.Partition failed: "+err.Error(), chain...)
		return
	}
	opt.Parallelism = 1
	sp = p.tr.begin("hgp", "Partition.p1")
	aug1, err := hgp.Partition(r.H, opt)
	p1 := p.tr.end(sp)
	if err != nil || !slices.Equal(aug1.Parts, aug.Parts) {
		p.markAbsent("hgp.Partition differs between Parallelism 1 and 2", "hgp.partition_ms_p1", "hgp.speedup_p2")
	}

	sp = p.tr.begin("core", "Decode")
	got, _, err := r.Decode(prob.H, aug)
	var mig core.Migration
	var cut int64
	if err == nil {
		mig = core.ComputeMigration(prob.H, old, got)
		csp := p.tr.begin("partition", "CutSize")
		cut = partition.CutSize(prob.H, got)
		p.recordMS("partition.cut_ms", p.tr.end(csp))
	}
	decode := p.tr.end(sp)
	if err != nil || !slices.Equal(got.Parts, want.Partition.Parts) || cut != want.CommVolume || mig.Volume != want.MigrationVolume {
		p.markAbsent("BuildRepartition → hgp.Partition → Decode diverged from Balancer.Repartition", chain...)
		return
	}
	p.recordMS("core.build_ms", build)
	p.recordMS("core.decode_ms", decode)
	p.recordMS("hgp.partition_ms", p2)
	p.recordMS("hgp.partition_ms_p1", p1)
	p.record("hgp.speedup_p2", float64(p1)/float64(p2))
	p.record("hgp.allocs_per_call", objs1-objs0)
	for name, family := range map[string]string{
		"hgp.levels_per_call":     "hgp_coarsen_levels_total",
		"hgp.fm_moves_per_call":   "hgp_fm2_moves_total",
		"hgp.kway_moves_per_call": "hgp_kway_moves_total",
	} {
		if d, ok := counterDelta(before, after, family); ok {
			p.record(name, d)
		} else {
			p.markAbsent("obs counter "+family+" is not registered", name)
		}
	}
}

// counterDelta is how much an obs counter grew between two snapshots,
// summed over its labels. ok is false when the family is not in the
// registry, which is reported as absent rather than as an error: the
// metric families are free to change.
func counterDelta(before, after obs.Snapshot, family string) (float64, bool) {
	var d int64
	found := false
	for key, v := range after.Counters {
		if obs.Family(key) == family {
			found = true
			d += v - before.Counters[key]
		}
	}
	return float64(d), found
}
