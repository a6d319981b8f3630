package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, recorded by the benchmark around a
// public function. Spans of one op share Op; set-up spans have Op -1.
type span struct {
	ID     int
	Parent int // 0 for a root span
	Op     int
	Layer  string
	Name   string
	Start  time.Duration // since the tracer was created
	End    time.Duration // 0 while open
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced pass runs the same code without spans.
//
// Spans opened with begin nest on the benchmark goroutine; beginRemote
// opens a span on another goroutine (the server's handler) as a child of
// whatever span the benchmark goroutine has open, which is the client call
// waiting on it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	op    int
	spans []span
	open  []int // stack of the benchmark goroutine's open span ids
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// setOp makes op the op index of the spans that follow.
func (t *tracer) setOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

func (t *tracer) add(layer, name string, push bool) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Layer: layer, Name: name, Start: now})
	if push {
		t.open = append(t.open, id)
	}
	return id
}

// begin opens a span on the benchmark goroutine.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return 0
	}
	return t.add(layer, name, true)
}

// beginRemote opens a span on another goroutine.
func (t *tracer) beginRemote(layer, name string) int {
	if t == nil {
		return 0
	}
	return t.add(layer, name, false)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
	return s.End - s.Start
}

// selfTime is span id's duration minus the part of it that its child
// spans cover; overlapping children are counted once.
func (t *tracer) selfTime(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTime(t.spans, id)
}

func selfTime(spans []span, id int) time.Duration {
	p := spans[id-1]
	type iv struct{ lo, hi time.Duration }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id || s.End == 0 {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	var covered, reach time.Duration
	for _, k := range kids {
		if k.lo > reach {
			reach = k.lo
		}
		if k.hi > reach {
			covered += k.hi - reach
			reach = k.hi
		}
	}
	return p.End - p.Start - covered
}

// writeChrome writes the spans in the Chrome trace-event format, which
// chrome://tracing and Perfetto open; meta lands in otherData.
func (t *tracer) writeChrome(path string, meta any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		events = append(events, event{
			Name: s.Layer + "." + s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "otherData": meta})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
