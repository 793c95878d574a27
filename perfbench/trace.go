package main

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share Req; Parent is the ID of the
// span that caused this one (0 for a root).
type Span struct {
	ID, Parent, Req uint64
	Name            string
	Start, End      time.Time
}

func (s Span) dur() time.Duration { return s.End.Sub(s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is a
// valid, disabled tracer: every method is a no-op, so untraced runs
// pay one nil check per call site.
type Tracer struct {
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

// Begin opens a span and returns it; pass it to End when the call
// returns.
func (t *Tracer) Begin(name string, parent, req uint64) Span {
	if t == nil {
		return Span{}
	}
	return Span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: time.Now()}
}

// End closes s and keeps it.
func (t *Tracer) End(s Span) {
	if t == nil {
		return
	}
	s.End = time.Now()
	t.Add(s)
}

// Add keeps an already closed span.
func (t *Tracer) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// NewReq returns a fresh request id.
func (t *Tracer) NewReq() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Len returns the number of spans kept so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Since returns the spans kept from index i on. Call it only when no
// span is being added: the result shares the tracer's storage.
func (t *Tracer) Since(i int) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[i:]
}

// durations returns the durations of the spans whose name has prefix,
// in microseconds.
func durations(spans []Span, prefix string) *latencies {
	l := &latencies{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			l.add(s.dur())
		}
	}
	return l
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children
// count once). The result is indexed like spans.
func selfTimes(spans []Span) []time.Duration {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start.Before(kids[b].Start) })
		covered := time.Duration(0)
		cur := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo.Before(cur) {
				lo = cur
			}
			if hi.After(s.End) {
				hi = s.End
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cur = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// meanSelfUS returns the mean self time, in microseconds, of the spans
// whose name has prefix.
func meanSelfUS(spans []Span, self []time.Duration, prefix string) (float64, int) {
	var xs []float64
	for i, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			xs = append(xs, float64(self[i])/1e3)
		}
	}
	return mean(xs), len(xs)
}

// writeSpans writes spans, gzipped, as tab-separated lines: id,
// parent, req, name, start and end in nanoseconds since the first span
// started.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // a valid level cannot fail
	w := bufio.NewWriter(zw)
	var t0 time.Time
	for _, s := range spans {
		if t0.IsZero() || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Req, s.Name,
			s.Start.Sub(t0).Nanoseconds(), s.End.Sub(t0).Nanoseconds())
	}
	if err := errors.Join(w.Flush(), zw.Close()); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
