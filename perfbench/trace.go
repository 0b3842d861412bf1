package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's side of the boundary.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a lane's root span
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Lane     string `json:"lane"` // "main", or "worker-N" for a service worker
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartUS  int64  `json:"start_us"`
	EndUS    int64  `json:"end_us"`
}

// tracer keeps spans in memory; they are written out once, at exit. A nil
// *tracer records nothing, so untraced repetitions call the same code.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	rep      int
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Microseconds() }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(lane, name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(lane, name, layer, parent, time.Now(), time.Time{})
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	t.spans[id].EndUS = now
	t.mu.Unlock()
}

// add records a span; a zero end leaves it open for end.
func (t *tracer) add(lane, name, layer string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	s := span{Parent: parent, Name: name, Layer: layer, Lane: lane, Workload: t.workload, StartUS: t.since(start)}
	if !end.IsZero() {
		s.EndUS = t.since(end)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Rep = t.rep
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// setRep labels the spans that follow with a repetition number.
func (t *tracer) setRep(rep int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep = rep
	t.mu.Unlock()
}

// laneTimes is one lane's reconciliation: each layer's self time, plus the
// lane root's own self time, which no wrapped call accounts for.
type laneTimes struct {
	wallUS       int64
	selfUS       map[string]int64 // by layer, root excluded
	unaccountUS  int64
	reconcileErr error
}

// selfTimes computes, for the spans of one repetition, every lane's layer
// self times. A span's self time is its duration minus the part of it its
// children cover. Within a lane, spans nest, so the self times of all spans
// add up to the lane root's duration; reconcileErr reports a lane where
// they do not.
func (t *tracer) selfTimes(rep int) map[string]*laneTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	var roots []span
	for _, s := range t.spans {
		if s.Rep != rep {
			continue
		}
		if s.Parent < 0 {
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*laneTimes)
	for _, root := range roots {
		lt := &laneTimes{wallUS: root.EndUS - root.StartUS, selfUS: make(map[string]int64)}
		var total int64
		var walk func(s span, isRoot bool)
		walk = func(s span, isRoot bool) {
			self := s.EndUS - s.StartUS - covered(s, children[s.ID])
			total += self
			if isRoot {
				lt.unaccountUS = self
			} else {
				lt.selfUS[s.Layer] += self
			}
			for _, c := range children[s.ID] {
				walk(c, false)
			}
		}
		walk(root, true)
		if total != lt.wallUS {
			lt.reconcileErr = fmt.Errorf("lane %s: self times sum to %d us, root spans %d us", root.Lane, total, lt.wallUS)
		}
		out[root.Lane] = lt
	}
	return out
}

// covered returns how much of s the union of its children's intervals
// covers, each child clipped to s.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartUS, s.StartUS), min(k.EndUS, s.EndUS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else {
			curHi = max(curHi, v[1])
		}
	}
	return sum + curHi - curLo
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}
