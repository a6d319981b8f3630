package hgp

import (
	"sync"

	"hyperbal/internal/hypergraph"
)

// workspace holds the scratch arenas of one multilevel-pipeline worker:
// matching, contraction, and refinement buffers that would otherwise be
// reallocated at every level of every bisection. All fields grow lazily
// and are reused across levels, starts, and bisections, so the hot path
// allocates only the arrays that outlive a call (the coarse hypergraphs,
// cmaps, and partitions themselves). A workspace is owned by exactly one
// goroutine at a time; wsPool recycles them across Partition calls.
type workspace struct {
	// ipmMatch
	perm    []int32
	score   []float64
	touched []int32
	match   []int32

	// contract
	cmark  []bool  // per-coarse-vertex dedup marks (always restored to false)
	pinBuf []int32 // coarse pins of the net being built
	htab   []int32 // open-addressing table: coarse net id or -1

	// 2-way state (ghg2 / fm2)
	pins0  []int32
	locked []bool
	dead   []bool
	inHeap []bool
	moved  []int32
	stash  []gainEntry
	heap   gainHeap

	// k-way state (refineKway / refineKwayFM)
	kstate  KwayState
	kbuf    []int32
	kmark   []bool
	klocked []bool

	// recursive bisection
	fixedSide []int32
	newID     []int32
}

// wsPool recycles workspaces across Partition calls and across the worker
// goroutines of one call. Workspace contents never influence results:
// every kernel fully (re)initializes the state it reads.
var wsPool = sync.Pool{New: func() any { return new(workspace) }}

func newWorkspace() *workspace { return new(workspace) }

// growI32 returns s resized to n, reallocating only on growth. Contents
// are unspecified; callers must initialize what they read.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// growI64 is growI32 for int64 slices.
func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// growF64 returns s resized to n with every entry zeroed.
func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// growBool returns s resized to n with every entry false.
func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// kwayState (re)initializes the workspace's k-way refinement state for
// the given hypergraph and partition, reusing its arrays. The returned
// state aliases ws and is valid until the next kwayState call.
func (ws *workspace) kwayState(h *hypergraph.Hypergraph, k int, parts []int32) *KwayState {
	s := &ws.kstate
	s.h, s.k, s.parts = h, k, parts
	s.pinCount = growI32(s.pinCount, h.NumNets()*k)
	clear(s.pinCount)
	s.lambda = growI32(s.lambda, h.NumNets())
	clear(s.lambda)
	s.w = growI64(s.w, k)
	clear(s.w)
	s.accumulate()
	return s
}

// release drops the state's references to caller data so pooled
// workspaces do not keep large hypergraphs alive.
func (s *KwayState) release() {
	s.h = nil
	s.parts = nil
}
