// Package mpi is a message-passing substrate standing in for MPI (the
// paper's code "is written in C and uses MPI for communication"; Go has no
// mature MPI binding, so the SPMD algorithms in this repository run on
// this substrate instead). A Comm carries point-to-point typed messages
// and the usual collective operations over a Transport. In-process worlds
// (Run, RunWith) run ranks as goroutines over a channel transport;
// distributed worlds (RunTransportRank, driven by internal/mpinet) run one
// rank per process over TCP. Everything above the Transport — matching,
// accounting, collectives, Split, tracing — is one code path for both.
//
// Semantics follow MPI where it matters for the algorithms:
//
//   - Send is buffered and non-blocking up to the per-pair capacity
//     (Options.ChanCap); messages between a pair of ranks are delivered in
//     order.
//   - Recv(src, tag) blocks for the next message from src and verifies the
//     tag, panicking on protocol mismatches (a deliberate fail-fast stance:
//     a tag mismatch is a bug in the algorithm, not a runtime condition; a
//     rank of a distributed world returns it as its error instead, so one
//     bad job cannot take down a worker process). Under reorder injection
//     (FaultPlan.Reorder) matching switches to MPI-style per-tag matching.
//   - Ownership of slice payloads transfers with the message: the sender
//     must not mutate a sent buffer (MPI_Send's "don't touch the buffer
//     until complete" rule, made permanent).
//
// Collectives are implemented with simple root-centralized algorithms;
// asymptotic message complexity is not the point of this substrate, but
// per-rank traffic is accounted (Stats) so experiments can report
// communication volume of the partitioner itself.
//
// RunWith adds a fault-injection and diagnostics layer (see fault.go):
// seeded message delays and reordering, rank crashes, a deadlock watchdog
// that replaces ad-hoc test timeouts with a structured DeadlockError, and
// per-operation tracing.
package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"
)

// Stats accumulates substrate traffic, shared by all Comms of a World.
type Stats struct {
	Messages atomic.Int64
	Bytes    atomic.Int64
	// Collectives counts top-level collective operations entered, summed
	// over ranks (a Barrier on an 8-rank world adds 8). Collectives
	// implemented in terms of other collectives count once.
	Collectives atomic.Int64
	// MaxStall is the longest time, in nanoseconds, any rank spent blocked
	// inside a single substrate operation. Recorded unconditionally, so
	// plain Run/RunStats callers get honest stall numbers too.
	MaxStall atomic.Int64
	// BlockedSends counts sends that could not complete immediately: the
	// transport's per-pair buffer (capacity Options.ChanCap in-process, the
	// flow-control window over a network) was full. A nonzero count means
	// receivers are falling behind the senders.
	BlockedSends atomic.Int64
}

// MaxStallDuration returns the max-stall gauge as a time.Duration.
func (s *Stats) MaxStallDuration() time.Duration { return time.Duration(s.MaxStall.Load()) }

type message struct {
	tag  int
	data any
}

// Comm is a communicator over a group of ranks. All collective methods
// must be called by every rank of the communicator.
type Comm struct {
	rank    int
	size    int
	w       *world
	worldOf []int // comm rank -> world rank (nil means identity)

	// tr carries this rank's point-to-point traffic; commID names this
	// communicator's streams on it (0 = world) and splitSeq numbers Split
	// calls so derived communicator ids agree across ranks without a round
	// trip.
	tr       Transport
	commID   uint64
	splitSeq int

	// Reorder-injection state (nil unless FaultPlan.Reorder):
	pending [][]message // received-but-unmatched messages, per source
	held    []*message  // sender-side held message, per destination
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// Stats returns the world-level traffic counters.
func (c *Comm) Stats() *Stats { return c.w.stats }

// worldRank translates a comm-local rank to its world rank.
func (c *Comm) worldRank(r int) int {
	if c.worldOf == nil {
		return r
	}
	return c.worldOf[r]
}

// DefaultChanCap is the default per-pair send buffer capacity (messages),
// used when Options.ChanCap is zero; mpinet uses it as the default
// flow-control window.
const DefaultChanCap = 1024

// newComm wires a communicator of the given world. Each Comm instance
// belongs to exactly one rank goroutine, so its reorder buffers need no
// locking.
func newComm(w *world, tr Transport, commID uint64, rank, size int, worldOf []int) *Comm {
	c := &Comm{rank: rank, size: size, w: w, worldOf: worldOf, tr: tr, commID: commID}
	if w.reorder() {
		c.pending = make([][]message, size)
		c.held = make([]*message, size)
		wr := c.worldRank(rank)
		w.flushers[wr] = append(w.flushers[wr], c.flushHeld)
	}
	return c
}

// Run launches an n-rank SPMD world and waits for all ranks to finish.
// Each rank runs fn with its own Comm. The first non-nil error is
// returned. Panics in ranks propagate.
func Run(n int, fn func(c *Comm) error) error {
	_, err := RunWith(n, Options{}, fn)
	return err
}

// RunStats is Run, also returning the world's traffic counters.
func RunStats(n int, fn func(c *Comm) error) (*Stats, error) {
	return RunWith(n, Options{}, fn)
}

// RunWith is Run with fault injection, watchdog diagnostics and tracing
// (see Options). On a watchdog abort the returned error is (or wraps, when
// a crash fault triggered the stall) a *DeadlockError; injected crashes
// surface as *CrashError. Stats are returned even on error.
func RunWith(n int, opt Options, fn func(c *Comm) error) (*Stats, error) {
	if n < 1 {
		return nil, fmt.Errorf("mpi: world size must be >= 1, got %d", n)
	}
	w := newWorld(n, opt.normalized())
	return w.run(0, n, newChanTransport(w).endpoint, fn)
}

// run executes fn as world ranks lo..hi-1, one goroutine per rank, and
// returns the world's Stats and first error. Both substrates come through
// here: RunWith runs every rank of the world over one channel transport,
// RunTransportRank runs its single rank over a network transport.
func (w *world) run(lo, hi int, tr func(rank int) Transport, fn func(c *Comm) error) (*Stats, error) {
	errs := make([]error, hi-lo)
	var wg sync.WaitGroup
	for rank := lo; rank < hi; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[rank-lo] = w.runRank(rank, tr(rank), fn)
		}()
	}
	if w.opt.Watchdog > 0 {
		go w.watchdog()
	}
	wg.Wait()
	close(w.stopc)
	var first error
	var crashes int64
	for i, err := range errs {
		var ce *CrashError
		if errors.As(err, &ce) && ce.Rank == lo+i {
			crashes++ // this rank died, not a peer it lost
		}
		if err != nil && first == nil && !errors.Is(err, errAborted) {
			first = err
		}
	}
	bridgeStats(w.stats, w.deadlock.Load() != nil, crashes)
	if dl := w.deadlock.Load(); dl != nil {
		if first == nil {
			return w.stats, dl
		}
		return w.stats, errors.Join(first, dl)
	}
	return w.stats, first
}

// runRank runs fn as one world rank and translates the signals that
// unwind a rank (injected crash, transport failure, protocol error) into
// its error.
func (w *world) runRank(rank int, tr Transport, fn func(c *Comm) error) (err error) {
	defer func() {
		w.finish(rank)
		switch v := recover().(type) {
		case nil:
		case crashSignal:
			err = &CrashError{Rank: v.rank, Step: v.step}
		case rankFailure:
			err = v.err
		case *tagError:
			if !w.remote {
				panic(v)
			}
			err = v
		default:
			panic(v)
		}
	}()
	err = fn(newComm(w, tr, 0, rank, w.n, nil))
	w.flushRank(rank)
	return err
}

// Send delivers data to dst with the given tag. Ownership of slice
// payloads transfers to the receiver.
func (c *Comm) Send(dst, tag int, data any) {
	if dst < 0 || dst >= c.size {
		panic(fmt.Sprintf("mpi: send to rank %d, world size %d", dst, c.size))
	}
	c.faultStep()
	c.faultDelay()
	nb := payloadBytes(data)
	c.w.stats.Messages.Add(1)
	c.w.stats.Bytes.Add(nb)
	stall := c.deliver(dst, message{tag: tag, data: data})
	if hook := c.w.opt.OnEvent; hook != nil {
		hook(Event{Rank: c.worldRank(c.rank), Op: "send", Peer: c.worldRank(dst), Tag: tag, Bytes: nb, Stall: stall})
	}
}

// deliver routes a message to dst, applying reorder injection when
// enabled, and returns how long the send blocked. Under injection the
// sender may hold one message per destination back so that a later
// message with a *different* tag overtakes it; order within one
// (src,dst,tag) stream is always preserved.
func (c *Comm) deliver(dst int, m message) time.Duration {
	if c.held == nil {
		return c.transmit(dst, m)
	}
	rng := c.w.frand[c.worldRank(c.rank)]
	var stall time.Duration
	if h := c.held[dst]; h != nil && (h.tag == m.tag || rng.Intn(2) == 0) {
		c.held[dst] = nil
		stall += c.transmit(dst, *h)
	}
	if c.held[dst] == nil && rng.Intn(2) == 0 {
		held := m
		c.held[dst] = &held
		return stall
	}
	return stall + c.transmit(dst, m)
}

// transmit hands one message to the transport and accounts a blocked
// send; a transport failure unwinds the rank.
func (c *Comm) transmit(dst int, m message) time.Duration {
	stall, err := c.tr.Send(c.commID, c.worldRank(dst), m.tag, m.data)
	if err != nil {
		panic(rankFailure{err: fmt.Errorf("mpi: send to rank %d: %w", c.worldRank(dst), err)})
	}
	if stall > 0 {
		c.w.stats.BlockedSends.Add(1)
		c.w.noteStall(stall)
	}
	return stall
}

// flushHeld delivers every held (reorder-injected) message. Called before
// any potentially blocking receive and when the rank finishes, so a hold
// can never starve a peer.
func (c *Comm) flushHeld() {
	for dst, h := range c.held {
		if h != nil {
			c.held[dst] = nil
			c.transmit(dst, *h)
		}
	}
}

// tagError is a receive whose stream from src delivered a message with
// another tag than the one awaited: a protocol bug in the algorithm.
// Ranks are world ranks.
type tagError struct{ rank, src, want, got int }

func (e *tagError) Error() string {
	return fmt.Sprintf("mpi: rank %d expected tag %d from rank %d, got tag %d", e.rank, e.want, e.src, e.got)
}

// Recv blocks for the next message from src and returns its payload,
// panicking if the tag differs (protocol error). Under reorder injection
// it performs MPI-style tag matching instead: non-matching messages are
// buffered until asked for.
func (c *Comm) Recv(src, tag int) any {
	if src < 0 || src >= c.size {
		panic(fmt.Sprintf("mpi: recv from rank %d, world size %d", src, c.size))
	}
	c.faultStep()
	if c.held != nil {
		c.w.flushRank(c.worldRank(c.rank))
	}
	m, stall := c.fetch(src, tag)
	if hook := c.w.opt.OnEvent; hook != nil {
		hook(Event{Rank: c.worldRank(c.rank), Op: "recv", Peer: c.worldRank(src), Tag: tag, Bytes: payloadBytes(m.data), Stall: stall})
	}
	return m.data
}

// fetch returns the next message from src with the given tag.
func (c *Comm) fetch(src, tag int) (message, time.Duration) {
	if c.pending != nil {
		q := c.pending[src]
		for i, m := range q {
			if m.tag == tag {
				c.pending[src] = append(q[:i], q[i+1:]...)
				return m, 0
			}
		}
		var stall time.Duration
		for {
			m, st := c.next(src, tag)
			stall += st
			if m.tag == tag {
				return m, stall
			}
			c.pending[src] = append(c.pending[src], m)
		}
	}
	m, stall := c.next(src, tag)
	if m.tag != tag {
		panic(&tagError{c.worldRank(c.rank), c.worldRank(src), tag, m.tag})
	}
	return m, stall
}

// next reads the head of the stream from src; tag is the awaited tag,
// passed down for blocked-op diagnostics only. A transport failure
// unwinds the rank.
func (c *Comm) next(src, tag int) (message, time.Duration) {
	data, got, stall, err := c.tr.Recv(c.commID, c.worldRank(src), tag)
	if err != nil {
		panic(rankFailure{err: fmt.Errorf("mpi: recv from rank %d: %w", c.worldRank(src), err)})
	}
	if stall > 0 {
		c.w.noteStall(stall)
	}
	return message{tag: got, data: data}, stall
}

// payloadBytes approximates the wire size of a payload: fast paths for the
// common scalar and slice types, a structural reflection walk for
// everything else (struct slices like match bids and move proposals are
// accounted at their packed field size, so the traffic numbers reported
// for the parallel partitioners are real, not "8 bytes per opaque value").
func payloadBytes(data any) int64 {
	switch v := data.(type) {
	case nil:
		return 0
	case []int32:
		return int64(4 * len(v))
	case []int64:
		return int64(8 * len(v))
	case []float64:
		return int64(8 * len(v))
	case []byte:
		return int64(len(v))
	case string:
		return int64(len(v))
	case int, int64, uint64, float64:
		return 8
	case int32, uint32, float32:
		return 4
	case int16, uint16:
		return 2
	case int8, uint8, bool:
		return 1
	}
	return wireSize(reflect.ValueOf(data))
}

// wireSize walks a value structurally: fixed-width kinds by width,
// strings and slices by element, structs field by field. Reference kinds
// (chan, func, map) count as one word; they cannot cross a network
// transport, so the algorithms never ship them.
func wireSize(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Invalid:
		return 0
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 4
	case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64, reflect.Uintptr, reflect.Float64, reflect.Complex64:
		return 8
	case reflect.Complex128:
		return 16
	case reflect.String:
		return int64(v.Len())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			return 0
		}
		if sz, fixed := fixedWireSize(v.Type().Elem()); fixed {
			return sz * int64(v.Len())
		}
		var total int64
		for i := 0; i < v.Len(); i++ {
			total += wireSize(v.Index(i))
		}
		return total
	case reflect.Struct:
		var total int64
		for i := 0; i < v.NumField(); i++ {
			total += wireSize(v.Field(i))
		}
		return total
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return wireSize(v.Elem())
	default: // chan, func, map, unsafe pointer: opaque word
		return 8
	}
}

// fixedWireSize reports the wire size of t when every value of t has the
// same size (no strings, slices, interfaces or pointers anywhere), letting
// slice accounting skip the per-element walk.
func fixedWireSize(t reflect.Type) (int64, bool) {
	switch t.Kind() {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return 1, true
	case reflect.Int16, reflect.Uint16:
		return 2, true
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 4, true
	case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64, reflect.Uintptr, reflect.Float64, reflect.Complex64:
		return 8, true
	case reflect.Complex128:
		return 16, true
	case reflect.Array:
		sz, ok := fixedWireSize(t.Elem())
		return sz * int64(t.Len()), ok
	case reflect.Struct:
		var total int64
		for i := 0; i < t.NumField(); i++ {
			sz, ok := fixedWireSize(t.Field(i).Type)
			if !ok {
				return 0, false
			}
			total += sz
		}
		return total, true
	}
	return 0, false
}

// Split partitions the communicator into disjoint sub-communicators by
// color (ranks passing the same color share a new Comm; ranks are ordered
// by key, ties by old rank). Every rank of c must call Split. A negative
// color returns nil (the rank does not participate; mirrors
// MPI_UNDEFINED). The sub-communicator shares c's transport under a fresh
// stream id that every member derives locally, so Split costs exactly one
// AllgatherAny.
func (c *Comm) Split(color, key int) *Comm {
	defer c.collective("split")()
	seq := c.splitSeq
	c.splitSeq++ // counted for every rank, participating or not, so ids agree
	all := AllgatherAny(c, splitEntry{color, key, c.rank}).([]splitEntry)
	if color < 0 {
		return nil
	}
	var members []splitEntry
	for _, e := range all {
		if e.Color == color {
			members = append(members, e)
		}
	}
	// order by (key, rank)
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && (members[j].Key < members[j-1].Key ||
			(members[j].Key == members[j-1].Key && members[j].Rank < members[j-1].Rank)); j-- {
			members[j], members[j-1] = members[j-1], members[j]
		}
	}
	newRank := -1
	worldOf := make([]int, len(members))
	for i, e := range members {
		if e.Rank == c.rank {
			newRank = i
		}
		worldOf[i] = c.worldRank(e.Rank)
	}
	return newComm(c.w, c.tr, deriveCommID(c.commID, seq, color), newRank, len(members), worldOf)
}

// splitEntry is Split's allgather payload (package-level with exported
// fields so it can cross a network transport).
type splitEntry struct{ Color, Key, Rank int }

// Internal collective tags (user tags are free-form; collisions avoided by
// the strict matched-order discipline).
const (
	tagBarrier = -1000 - iota
	tagGather
	tagBcast
	tagAllgatherAny
)

// Barrier blocks until every rank of c has entered it.
func (c *Comm) Barrier() {
	defer c.collective("barrier")()
	if c.size == 1 {
		return
	}
	if c.rank == 0 {
		for r := 1; r < c.size; r++ {
			c.Recv(r, tagBarrier)
		}
		for r := 1; r < c.size; r++ {
			c.Send(r, tagBarrier, nil)
		}
	} else {
		c.Send(0, tagBarrier, nil)
		c.Recv(0, tagBarrier)
	}
}

// AllgatherAny gathers one opaque value per rank, in rank order, to every
// rank. The return value is a slice of the element's dynamic type (e.g.
// []entry), produced with a small reflection-free trick: rank 0 assembles
// a []any and each rank converts; to keep call sites typed, prefer the
// generic Allgather for concrete element types. This variant exists for
// internal structural payloads.
func AllgatherAny[T any](c *Comm, v T) any {
	defer c.collective("allgather-any")()
	out := make([]T, c.size)
	if c.rank == 0 {
		out[0] = v
		for r := 1; r < c.size; r++ {
			out[r] = c.Recv(r, tagAllgatherAny).(T)
		}
		for r := 1; r < c.size; r++ {
			c.Send(r, tagAllgatherAny, append([]T(nil), out...))
		}
	} else {
		c.Send(0, tagAllgatherAny, v)
		out = c.Recv(0, tagAllgatherAny).([]T)
	}
	return out
}
