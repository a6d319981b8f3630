package hgp

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"hyperbal/internal/hypergraph"
)

// partitionBytes runs Partition and flattens the result for bytewise
// comparison.
func partitionBytes(t *testing.T, h *hypergraph.Hypergraph, opt Options) []byte {
	t.Helper()
	p, err := Partition(h, opt)
	if err != nil {
		t.Fatalf("Partition(%+v): %v", opt, err)
	}
	var buf bytes.Buffer
	for _, q := range p.Parts {
		buf.WriteByte(byte(q))
	}
	return buf.Bytes()
}

// TestPartitionParallelismDeterminism verifies the core contract of the
// parallel pipeline: every Parallelism value produces a bit-identical
// partition, across drivers (recursive bisection, direct k-way, k-way FM
// polish) and with fixed vertices present.
func TestPartitionParallelismDeterminism(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*Options)
	}{
		{"rb", func(o *Options) {}},
		{"rb-kwayfm", func(o *Options) { o.KwayFM = true }},
		{"direct-kway", func(o *Options) { o.DirectKway = true }},
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed * 977))
		h := quickHG(rng)
		k := 2 + rng.Intn(6)
		fixed := make([]int32, h.NumVertices())
		for v := range fixed {
			fixed[v] = hypergraph.Free
			if rng.Float64() < 0.15 {
				fixed[v] = int32(rng.Intn(k))
			}
		}
		hf := h.WithFixed(fixed)
		for _, variant := range variants {
			opt := Options{K: k, Imbalance: 0.10, Seed: seed}
			variant.mod(&opt)
			opt.Parallelism = 1
			ref := partitionBytes(t, hf, opt)
			for _, par := range []int{2, 4, 8} {
				opt.Parallelism = par
				got := partitionBytes(t, hf, opt)
				if !bytes.Equal(ref, got) {
					t.Errorf("seed %d %s: Parallelism=%d diverges from Parallelism=1",
						seed, variant.name, par)
				}
			}
		}
	}
}

// TestParallelismOneRunsInline pins the rank-local regime the SPMD coarse
// solve relies on (internal/phg pins Parallelism to 1 per rank): at
// Parallelism=1 nothing runs on a spawned worker — forEach runs every item
// in index order on the caller's workspace, and fork has run fn by the time
// it returns.
func TestParallelismOneRunsInline(t *testing.T) {
	px := newParctx(1)
	ws := newWorkspace()
	var order []int
	px.forEach(5, ws, func(i int, got *workspace) {
		if got != ws {
			t.Errorf("forEach item %d ran on another workspace, want the caller's", i)
		}
		order = append(order, i)
	})
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("forEach ran items in order %v, want %v", order, want)
	}

	ran := false
	join := px.fork(func(*workspace) { ran = true })
	if !ran {
		t.Fatal("fork returned before running fn")
	}
	join()
}

// TestPartitionWithVCyclesParallelismDeterminism covers the V-cycle driver,
// which shares the workspace-threaded kernels.
func TestPartitionWithVCyclesParallelismDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := quickHG(rng)
	opt := Options{K: 4, Imbalance: 0.10, Seed: 7, Parallelism: 1}
	ref, err := PartitionWithVCycles(h, opt, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		opt.Parallelism = par
		got, err := PartitionWithVCycles(h, opt, 2)
		if err != nil {
			t.Fatal(err)
		}
		for v := range ref.Parts {
			if ref.Parts[v] != got.Parts[v] {
				t.Fatalf("Parallelism=%d diverges from 1 at vertex %d", par, v)
			}
		}
	}
}
