package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the index of the
// enclosing span (-1 for a finish-line root); spans of one operation share
// Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the traced run. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs f inside a span named name.
func (t *tracer) do(name string, parent int32, req int64, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
}

// analysis is the per-span breakdown of a finished trace.
type analysis struct {
	spans []span
	self  []time.Duration // span duration minus its children's durations
	// uncovered is, per root span, the part of its duration no child
	// covers: the finish line's unattributed time.
	uncovered map[int32]time.Duration
}

// analyze computes self times. Children of one parent run one after the
// other in this benchmark, so their durations sum without overlap.
func (t *tracer) analyze() *analysis {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	a := &analysis{spans: spans, self: make([]time.Duration, len(spans)), uncovered: map[int32]time.Duration{}}
	childSum := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.End >= 0 && s.Parent >= 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		a.self[i] = max(s.dur()-childSum[i], 0)
		if s.Parent < 0 {
			a.uncovered[int32(i)] = a.self[i]
		}
	}
	return a
}

// groupMS is a layer's time per call: the self times of the finished spans
// named name are grouped by group(req) (an input or a program), and the
// result is the mean over groups of each group's median, with the number
// of spans.
func (a *analysis) groupMS(name string, group func(req int64) int) (float64, int) {
	by := map[int][]float64{}
	n := 0
	for i, s := range a.spans {
		if s.Name == name && s.End >= 0 {
			g := group(s.Req)
			by[g] = append(by[g], ms(a.self[i]))
			n++
		}
	}
	var meds []float64
	for _, xs := range by {
		meds = append(meds, median(xs))
	}
	return mean(meds), n
}

// unattributedMS is the mean, over finish-line roots, of the time no layer
// span covers.
func (a *analysis) unattributedMS() (float64, int) {
	var xs []float64
	for _, d := range a.uncovered {
		xs = append(xs, ms(d))
	}
	return mean(xs), len(xs)
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
