// The transport seam: the only place the substrates differ.
//
// A Comm reaches its peers through exactly one Transport: point-to-point
// delivery with per-(comm,src,dst) stream ordering. In-process worlds
// (RunWith) use chanTransport, one buffered channel per stream;
// internal/mpinet implements Transport over TCP for worlds whose ranks
// live in separate processes (RunTransportRank). The Comm layer keeps
// everything else on one path: rank/size bookkeeping, tag matching
// (strict head-of-stream checks, or FaultPlan.Reorder's per-tag matching),
// traffic accounting via payloadBytes (so per-rank message/byte counts are
// identical across substrates), blocked-send and stall accounting,
// collectives, Split, and the OnEvent trace.
//
// Payloads cross a Transport as typed values. The channel transport moves
// them as interface values and needs no declarations, but a real network
// must reconstruct the concrete type on the far side, so transportable
// types are declared once via RegisterPayload (scalars, their slices and
// the substrate's own internal types are pre-registered). Registration is
// by reflect type string, which is stable across processes of the same
// binary — the compute plane ships the same code everywhere, exactly like
// an MPI program.
package mpi

import (
	"fmt"
	"reflect"
	"sync"
	"time"
)

// Transport delivers typed messages between the ranks of one world, as
// seen from one rank. Ranks passed here are world ranks (the Comm layer
// translates split-communicator ranks). comm identifies the communicator
// (0 is the world communicator; Split derives fresh ids deterministically),
// so streams of different communicators between the same pair never
// cross-match.
//
// Recv returns the message at the head of the (comm, src) stream together
// with its tag; matching is the Comm layer's job, and the awaited tag is
// passed only so a blocked receive can be reported (BlockedOp).
//
// Both calls may block (flow control on Send, waiting for a message on
// Recv) and report how long they blocked so the Comm layer can keep the
// Stats stall/blocked-send accounting honest. A returned error is fatal
// for the calling rank: the Comm layer unwinds the rank with it. A lost
// peer should surface as an error wrapping *CrashError so callers can
// detect crashed ranks structurally.
type Transport interface {
	Send(comm uint64, dst, tag int, data any) (stall time.Duration, err error)
	Recv(comm uint64, src, tag int) (data any, gotTag int, stall time.Duration, err error)
}

// rankFailure unwinds a rank goroutine when its Transport fails; the
// per-rank runner translates it back into the rank's error.
type rankFailure struct{ err error }

// RunTransportRank runs fn as world rank `rank` of a size-`size` SPMD
// world whose messaging flows through tr — the per-process entry point of
// a distributed world (each rank process calls it once; a coordinator
// such as mpinet.RunWorld arranges that). The returned Stats hold this
// rank's traffic only; summing them across ranks reproduces the shared
// Stats of an in-process world. A tag mismatch comes back as the rank's
// error rather than a panic.
//
// Fault injection is not supported here (Options.Fault must be nil): on a
// real network, delays and reordering are supplied by the network itself
// and crashes by real process death. Watchdog duties belong to the
// transport (e.g. its receive deadline); Options.Watchdog is ignored, and
// so is Options.ChanCap (the transport owns its flow control).
func RunTransportRank(tr Transport, rank, size int, opt Options, fn func(c *Comm) error) (*Stats, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: world size must be >= 1, got %d", size)
	}
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("mpi: rank %d out of range for world size %d", rank, size)
	}
	if opt.Fault != nil {
		return nil, fmt.Errorf("mpi: fault injection is in-process only; a Transport world gets its faults from the real network")
	}
	opt.Watchdog = 0
	w := newWorld(size, opt.normalized())
	w.remote = true
	return w.run(rank, rank+1, func(int) Transport { return tr }, fn)
}

// chanTransport is the in-process Transport of one world: a buffered
// channel of capacity Options.ChanCap per (communicator, source,
// destination) stream, allocated on first use by either end. Blocked
// operations register with the world's watchdog and give up when the
// world aborts.
type chanTransport struct {
	w       *world
	mu      sync.Mutex
	streams map[streamKey]chan message
}

type streamKey struct {
	comm     uint64
	src, dst int
}

func newChanTransport(w *world) *chanTransport {
	return &chanTransport{w: w, streams: make(map[streamKey]chan message)}
}

// endpoint is world rank rank's view of the transport. Its stream cache
// belongs to that rank's goroutine, so steady-state traffic takes no lock.
func (t *chanTransport) endpoint(rank int) Transport {
	return &chanEndpoint{t: t, rank: rank, cache: make(map[streamKey]chan message)}
}

func (t *chanTransport) stream(k streamKey) chan message {
	t.mu.Lock()
	defer t.mu.Unlock()
	ch, ok := t.streams[k]
	if !ok {
		ch = make(chan message, t.w.opt.ChanCap)
		t.streams[k] = ch
	}
	return ch
}

type chanEndpoint struct {
	t     *chanTransport
	rank  int
	cache map[streamKey]chan message
}

func (e *chanEndpoint) stream(comm uint64, src, dst int) chan message {
	k := streamKey{comm, src, dst}
	ch, ok := e.cache[k]
	if !ok {
		ch = e.t.stream(k)
		e.cache[k] = ch
	}
	return ch
}

func (e *chanEndpoint) Send(comm uint64, dst, tag int, data any) (time.Duration, error) {
	ch := e.stream(comm, e.rank, dst)
	m := message{tag: tag, data: data}
	select {
	case ch <- m:
		return 0, nil
	default:
	}
	end := e.t.w.enterBlocked(e.rank, "send", dst, tag)
	select {
	case ch <- m:
		return end(), nil
	case <-e.t.w.abort:
		end()
		return 0, errAborted
	}
}

func (e *chanEndpoint) Recv(comm uint64, src, tag int) (any, int, time.Duration, error) {
	ch := e.stream(comm, src, e.rank)
	select {
	case m := <-ch:
		return m.data, m.tag, 0, nil
	default:
	}
	end := e.t.w.enterBlocked(e.rank, "recv", src, tag)
	select {
	case m := <-ch:
		return m.data, m.tag, end(), nil
	case <-e.t.w.abort:
		end()
		return nil, 0, 0, errAborted
	}
}

// deriveCommID computes the communicator id a Split of parent yields for
// one color. It is a pure function of (parent id, split sequence number,
// color), and every rank of the parent communicator executes the same
// Split sequence, so all members of a color agree on the id without any
// extra round trip — and distinct colors (and distinct splits) get
// distinct streams. FNV-1a over the three values; 64 bits make an
// accidental collision between the handful of live communicators of one
// world vanishingly unlikely.
func deriveCommID(parent uint64, seq, color int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [3]uint64{parent, uint64(int64(seq)), uint64(int64(color))} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	// Never collide with the world communicator.
	if h == 0 {
		h = 1
	}
	return h
}

// ---- Transportable payload registry ----

var (
	payloadMu  sync.RWMutex
	payloadReg = map[string]reflect.Type{}
)

// RegisterPayload declares the dynamic types of the given values as
// transportable: a network transport may need to reconstruct the concrete
// type of a received payload, and does so by name through this registry.
// The name is the reflect type string (e.g. "[]int32", "phg.matchBid"),
// stable across processes running the same binary. Registering a type
// twice is a no-op; two distinct types stringifying to the same name is a
// bug and panics. In-process worlds need no registration.
func RegisterPayload(vs ...any) {
	payloadMu.Lock()
	defer payloadMu.Unlock()
	for _, v := range vs {
		t := reflect.TypeOf(v)
		if t == nil {
			panic("mpi: RegisterPayload of untyped nil")
		}
		name := t.String()
		if prev, ok := payloadReg[name]; ok {
			if prev != t {
				panic(fmt.Sprintf("mpi: payload name %q registered for two distinct types", name))
			}
			continue
		}
		payloadReg[name] = t
	}
}

// PayloadTypeByName resolves a registered payload type.
func PayloadTypeByName(name string) (reflect.Type, bool) {
	payloadMu.RLock()
	defer payloadMu.RUnlock()
	t, ok := payloadReg[name]
	return t, ok
}

// PayloadName returns the registry name of v's dynamic type ("" for nil).
func PayloadName(v any) string {
	if v == nil {
		return ""
	}
	return reflect.TypeOf(v).String()
}

func init() {
	// Scalars and homogeneous slices every substrate user may ship, plus
	// the substrate's own collective payload types.
	RegisterPayload(
		bool(false), int(0), int8(0), int16(0), int32(0), int64(0),
		uint(0), uint8(0), uint16(0), uint32(0), uint64(0),
		float32(0), float64(0), string(""),
		[]bool(nil), []int(nil), []int8(nil), []int16(nil), []int32(nil), []int64(nil),
		[]uint(nil), []uint8(nil), []uint16(nil), []uint32(nil), []uint64(nil),
		[]float32(nil), []float64(nil), []string(nil),
		[][]int(nil), [][]int32(nil), [][]int64(nil), [][]float64(nil),
		MinLoc{}, []MinLoc(nil),
		splitEntry{}, []splitEntry(nil),
	)
}
