package main

import (
	"fmt"
	"slices"

	"hyperbal/internal/core"
	"hyperbal/internal/graph"
	"hyperbal/internal/hgp"
	"hyperbal/internal/mpi"
	"hyperbal/internal/partition"
	"hyperbal/internal/phg"
)

// prepareSPMD repartitions each structure-dynamic epoch of the xyce680s
// analogue at n=1200 with the SPMD partitioner: core.BuildRepartition,
// then phg.Partition on a 4-rank in-process mpi world with K=4, then
// Decode. The epoch is generated between timed calls.
func prepareSPMD(seed int64, ops int, _ *tracer) (func(p *pass) error, error) {
	const ranks = 4 // K = ranks, as in the paper's runs
	epochs := (ops + trials - 1) / trials
	return func(p *pass) error {
		ts := make([]structureTrial, trials)
		for t := range ts {
			var err error
			ts[t], err = newStructureTrial(seed, t, ranks, func(g *graph.Graph) (partition.Partition, error) {
				return hgp.Partition(graph.ToHypergraph(g), hgp.Options{K: ranks, Imbalance: eps, Seed: trialSeed(seed, t)})
			})
			if err != nil {
				return fmt.Errorf("trial %d: %w", t, err)
			}
		}
		for _, trial := range ts {
			for e := int64(1); e <= int64(epochs); e++ {
				prob, old := trial.gen.Next()
				i := p.next()
				var (
					got   partition.Partition
					mig   core.Migration
					cut   int64
					stats *mpi.Stats
					perRk = make([][]int32, ranks)
				)
				ok := p.op(func() (float64, error) {
					sp := p.tr.begin("bench", "spmd.repartition")
					defer p.tr.end(sp)
					bsp := p.tr.begin("core", "BuildRepartition")
					r, err := core.BuildRepartition(prob.H, old, ranks, alpha)
					p.recordMS("core.build_ms", p.tr.end(bsp))
					if err != nil {
						return 0, err
					}
					opt := phg.Options{Serial: hgp.Options{K: ranks, Imbalance: eps, Seed: trial.seed + e*7919}}
					wsp := p.tr.begin("phg", "Partition.world")
					stats, err = mpi.RunWith(ranks, mpi.Options{}, func(c *mpi.Comm) error {
						aug, err := phg.Partition(c, r.H, opt)
						perRk[c.Rank()] = aug.Parts
						return err
					})
					p.recordMS("phg.world_ms", p.tr.end(wsp))
					if err != nil {
						return 0, err
					}
					dsp := p.tr.begin("core", "Decode")
					got, mig, err = r.Decode(prob.H, partition.Partition{Parts: perRk[0], K: ranks})
					if err == nil {
						csp := p.tr.begin("partition", "CutSize")
						cut = partition.CutSize(prob.H, got)
						p.recordMS("partition.cut_ms", p.tr.end(csp))
					}
					p.recordMS("core.decode_ms", p.tr.end(dsp))
					return float64(cut) + float64(mig.Volume)/alpha, err
				})
				if !ok {
					break // the trial's next epoch depends on this one's partition
				}
				for r := 1; r < ranks; r++ {
					if !slices.Equal(perRk[r], perRk[0]) {
						return p.wrong(i, "rank %d returned a different partition from rank 0", r)
					}
				}
				if err := checkPartition(prob.H, got, ranks); err != nil {
					return p.wrong(i, "%v", err)
				}
				if p.tr != nil {
					p.record("mpi.messages_per_op", float64(stats.Messages.Load()))
					p.record("mpi.bytes_per_op", float64(stats.Bytes.Load()))
					p.record("mpi.collectives_per_op", float64(stats.Collectives.Load()))
					p.record("mpi.blocked_sends_per_op", float64(stats.BlockedSends.Load()))
					p.recordMS("mpi.max_stall_ms", stats.MaxStallDuration())
					sp := p.tr.begin("mpi", "RunWith.barrier")
					_, err := mpi.RunWith(ranks, mpi.Options{}, func(c *mpi.Comm) error { c.Barrier(); return nil })
					p.recordMS("mpi.empty_world_ms", p.tr.end(sp))
					if err != nil {
						return fmt.Errorf("empty world: %w", err)
					}
				}
				if err := trial.gen.Observe(got); err != nil {
					return err
				}
			}
		}
		return nil
	}, nil
}
