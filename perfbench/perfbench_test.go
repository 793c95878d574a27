package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/lockserv"
)

func TestQuantileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{1, 2, 3}, 0.5); got != 2 {
		t.Errorf("quantile([1 2 3], 0.5) = %g, want 2", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile(nil) = %g, want NaN", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestFailuresMissEveryLimit(t *testing.T) {
	var l latencies
	for i := 0; i < 98; i++ {
		l.add(time.Millisecond)
	}
	l.fail()
	l.fail()
	p50, p99 := l.quantiles()
	if p50 != 1000 {
		t.Errorf("p50 = %g us, want 1000", p50)
	}
	if !math.IsInf(p99, 1) {
		t.Errorf("p99 with 2%% failed = %g, want +Inf", p99)
	}
}

func TestUnstolen(t *testing.T) {
	cpus := time.Duration(runtime.NumCPU())
	// Stolen ticks are shared over the CPUs: userHZ ticks on every CPU
	// take a whole second from a window.
	wall := 3 * time.Second
	if got := unstolen(wall, userHZ*int(cpus)); got != 2*time.Second {
		t.Errorf("unstolen(3s, one second on every CPU) = %v, want 2s", got)
	}
	if got := unstolen(wall, 0); got != wall {
		t.Errorf("unstolen(3s, no steal) = %v, want 3s", got)
	}
	// A steal count beyond the window (a coarse tick at its edge) never
	// drives the time to zero or below.
	if got := unstolen(wall, 1000*userHZ*int(cpus)); got != wall/10 {
		t.Errorf("unstolen(3s, more steal than wall) = %v, want %v", got, wall/10)
	}
	// A span too short for ticks to resolve is left as it is.
	if got := unstolen(time.Millisecond, 1); got != time.Millisecond {
		t.Errorf("unstolen(1ms, one tick) = %v, want 1ms", got)
	}
}

func TestSetupSecondsCorrectsTheMedian(t *testing.T) {
	cpus := int(runtime.NumCPU())
	ds := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	// One second stolen on every CPU out of ten: the median, 2.5 s,
	// keeps nine tenths of itself.
	if got := setupSeconds(ds, userHZ*cpus); math.Abs(got-2.25) > 1e-9 {
		t.Errorf("setupSeconds(1..4 s, 1 s stolen) = %g, want 2.25", got)
	}
	// Short set-ups are never corrected: a single tick would otherwise
	// cut the median to a tenth.
	short := []time.Duration{10 * time.Microsecond, 20 * time.Microsecond, 30 * time.Microsecond}
	if got := setupSeconds(short, 1); got != 20e-6 {
		t.Errorf("setupSeconds(10..30 us, one tick) = %g, want 2e-05", got)
	}
}

func TestCompactionWatch(t *testing.T) {
	s, err := lockserv.OpenStore(t.TempDir(), lockserv.StoreOptions{SnapshotEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cw := newCompactionWatch(s)
	for i := 1; i <= 350; i++ {
		if err := s.Append("grant", "t0", fmt.Sprintf("k%d", i), "o", uint64(i), 1); err != nil {
			t.Fatal(err)
		}
		cw.poll()
	}
	if len(cw.seqs) != 3 || cw.seqs[0] != 100 || cw.seqs[1] != 200 || cw.seqs[2] != 300 {
		t.Errorf("compactions seen at %v, want [100 200 300]", cw.seqs)
	}
}

// counting answers every request and counts them.
type counting struct{ n *atomic.Int64 }

func (counting) spanPrefix() string { return "fake." }
func (c counting) do(context.Context, op, Span) result {
	c.n.Add(1)
	return result{code: codeConflict}
}

func TestClosedLoopStops(t *testing.T) {
	gen := func() []*sender {
		return newSenders(1, newSessions(4, ""), tenants, 8, "k")
	}
	var n atomic.Int64
	ph := closedLoop(context.Background(), counting{&n}, nil, newFencing(), gen(), 100, nil)
	if ph.attempted != 100 || n.Load() != 100 || ph.latN != 100 {
		t.Errorf("fixed loop: attempted %d, sent %d, latencies %d; want 100 each", ph.attempted, n.Load(), ph.latN)
	}
	n.Store(0)
	ph = closedLoop(context.Background(), counting{&n}, nil, newFencing(), gen(), 0, func() bool { return n.Load() >= 1000 })
	// The condition is checked once every stopEvery requests.
	if sent := n.Load(); sent < 1000 || sent > 1000+senders*stopEvery || int64(ph.attempted) != sent {
		t.Errorf("stop condition: sent %d, attempted %d; want 1000..%d, equal", sent, ph.attempted, 1000+senders*stopEvery)
	}
}

func TestGeneratorLateness(t *testing.T) {
	t0 := time.Unix(100, 0)
	us := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Microsecond) }
	// Idle sender, woke 30us after the due time: the generator was late.
	s := slot{due: us(100), free: us(20), sent: us(130), done: us(400)}
	if late, ok := s.genLate(); !ok || late != 30*time.Microsecond {
		t.Errorf("idle sender: late = %v, %v; want 30us, true", late, ok)
	}
	if s.latency() != 300*time.Microsecond {
		t.Errorf("latency = %v, want 300us from the due time", s.latency())
	}
	// Busy sender: the previous reply came back after the due time, so
	// the delay is the server's, not the generator's.
	s = slot{due: us(100), free: us(180), sent: us(181), done: us(300)}
	if _, ok := s.genLate(); ok {
		t.Error("busy sender counted as generator lateness")
	}
	// Sent early never counts as negative lateness.
	s = slot{due: us(100), free: us(0), sent: us(99), done: us(150)}
	if late, ok := s.genLate(); !ok || late != 0 {
		t.Errorf("early send: late = %v, %v; want 0, true", late, ok)
	}
}

func TestDigestCatchesOneByteChange(t *testing.T) {
	f, err := os.Open("repro-quick.digest")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pinned, err := readDigest(f)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := experiments.ByID("table1")
	if !ok {
		t.Fatal("no table1")
	}
	var b strings.Builder
	for _, tb := range e.Run(quickOptions()) {
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	text := b.String()
	if !digestMatches(pinned, "table1", text) {
		t.Fatal("table1 output does not match its pinned digest")
	}
	changed := []byte(text)
	changed[len(changed)/2] ^= 1
	if digestMatches(pinned, "table1", string(changed)) {
		t.Error("a one-byte change to table1 still matches the digest")
	}
	if digestMatches(pinned, "no-such-experiment", text) {
		t.Error("an experiment without a pinned digest matched")
	}
}

// doubleGrant hands out the same fencing token for every grant.
type doubleGrant struct{}

func (doubleGrant) spanPrefix() string { return "fake." }
func (doubleGrant) do(context.Context, op, Span) result {
	return result{code: codeOK, granted: true, token: 7}
}

func TestFencingCatchesDoubleGrant(t *testing.T) {
	fc := newFencing()
	if !fc.observe("t0", "k1", 5) || !fc.observe("t0", "k1", 6) || !fc.observe("t0", "k2", 1) {
		t.Fatal("increasing tokens flagged as a violation")
	}
	s1, s2 := &session{owner: "a"}, &session{owner: "b"}
	sd := &sender{}
	for _, s := range []*session{s1, s2} {
		send(context.Background(), doubleGrant{}, nil, fc, sd, op{kind: opAcquire, s: s, tenant: "t0", key: "k9"}, time.Time{})
	}
	if fc.violations != 1 || sd.failed != 1 {
		t.Errorf("double grant: violations = %d, failed = %d; want 1, 1", fc.violations, sd.failed)
	}
}

// refuser refuses the first n requests it is sent with busy and a
// 1 ms hint, then grants.
type refuser struct{ n *int }

func (refuser) spanPrefix() string { return "fake." }
func (r refuser) do(context.Context, op, Span) result {
	if *r.n > 0 {
		*r.n--
		return result{code: codeRefused, retryAfter: time.Millisecond, err: fmt.Errorf("busy")}
	}
	return result{code: codeOK, granted: true, token: 1}
}

func TestRefusalsAreRetried(t *testing.T) {
	for _, c := range []struct {
		refusals, wantFailed, wantRetried int
	}{{0, 0, 0}, {3, 0, 3}, {maxRetries + 5, 1, maxRetries + 1}} {
		n := c.refusals
		sd := &sender{}
		s := &session{owner: "a"}
		_, failed := send(context.Background(), refuser{&n}, nil, newFencing(), sd, op{kind: opAcquire, s: s, tenant: "t0", key: "k"}, time.Time{})
		if sd.attempted != 1 || sd.failed != c.wantFailed || failed != (c.wantFailed == 1) || sd.refusals["acquire: busy"] != c.wantRetried {
			t.Errorf("%d refusals: attempted %d, failed %d, refusals %v; want 1, %d, %d",
				c.refusals, sd.attempted, sd.failed, sd.refusals, c.wantFailed, c.wantRetried)
		}
		if s.holding != (c.wantFailed == 0) {
			t.Errorf("%d refusals: session holding = %v", c.refusals, s.holding)
		}
	}
}

func TestRetryDelay(t *testing.T) {
	for _, c := range []struct {
		n    int
		ra   time.Duration
		want time.Duration
	}{
		{0, 0, 2 * time.Millisecond},
		{3, 0, 16 * time.Millisecond},
		{7, 0, 250 * time.Millisecond},
		{maxRetries, 0, 250 * time.Millisecond},
		{0, 100 * time.Millisecond, 100 * time.Millisecond},
		{7, 100 * time.Millisecond, 250 * time.Millisecond},
	} {
		if got := retryDelay(c.n, c.ra); got != c.want {
			t.Errorf("retryDelay(%d, %v) = %v, want %v", c.n, c.ra, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []Span{
		{ID: 1, Name: "op", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Name: "client.acquire", Start: at(2), End: at(9)},
		{ID: 3, Parent: 2, Name: "http.handler", Start: at(4), End: at(6)},
		{ID: 4, Parent: 2, Name: "http.handler", Start: at(5), End: at(7)}, // overlaps 3
	}
	self := selfTimes(spans)
	want := []time.Duration{3, 4, 2, 2}
	for i := range want {
		if self[i] != want[i]*time.Millisecond {
			t.Errorf("self(%s #%d) = %v, want %vms", spans[i].Name, spans[i].ID, self[i], want[i])
		}
	}
}

// TestPrintedNamesMatchBenchmarkJSON checks both metric sets the
// command can print against BENCHMARK.json: the end-to-end set of any
// pass, and the per-layer set a traced run assembles from all three
// workloads (the service workloads run for real, shortened; the
// simulator's layers from a synthetic suite result).
func TestPrintedNamesMatchBenchmarkJSON(t *testing.T) {
	spec, err := readBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var p pass
	p.setup = []time.Duration{time.Second}
	if err := matchNames(spec.EndToEnd, p.endToEnd()); err != nil {
		t.Errorf("end to end: %v", err)
	}
	if len(spec.Workloads)+len(ungated) != len(workloadOrder) {
		t.Errorf("BENCHMARK.json lists %d workloads and %d are ungated, the command runs %d", len(spec.Workloads), len(ungated), len(workloadOrder))
	}
	for _, w := range workloadOrder {
		if spec.hasWorkload(w) == ungated[w] {
			t.Errorf("workload %s: in BENCHMARK.json = %v, ungated = %v; want exactly one", w, spec.hasWorkload(w), ungated[w])
		}
	}

	suite := suiteResult{ids: experiments.IDs(), wall: time.Second, cpu: time.Second}
	suite.seconds = make([]float64, len(suite.ids))
	cells := []cellResult{{name: "contended"}, {name: "degraded"}, {name: "apps"}}
	layers := reproLayers(suite, 0, cells, 0, 0)

	e := env{seed: 1, seconds: 1, work: t.TempDir()}
	tr := &Tracer{}
	for _, w := range []string{"svc-http", "svc-core"} {
		sp, err := workloads[w](e, tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(sp.problems) > 0 {
			t.Errorf("%s: problems %v, info %v", w, sp.problems, sp.info)
		}
		layers = append(layers, sp.layers...)
	}
	layers = append(layers, overhead(p.endToEnd(), p.endToEnd())...)
	if err := matchNames(spec.PerLayer, layers); err != nil {
		t.Errorf("per layer: %v", err)
	}
}
