package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/lockserv"
	"repro/internal/obs"
	"repro/lockclient"
)

// Session mix, from cmd/lockload: an idle session acquires; a holding
// one renews 35%, releases 50% and holds 15% of its turns. A hold sends
// nothing, so the generator draws again; inspectFrac of the requests
// are reads of a random key.
const (
	leaseTTL    = 500 * time.Millisecond
	renewFrac   = 0.35
	releaseFrac = 0.50
	inspectFrac = 0.20
	sweepEvery  = 250 * time.Millisecond // cmd/hbolockd's -sweep default
)

var tenants = []string{"t0", "t1"}

type opKind uint8

const (
	opAcquire opKind = iota
	opRenew
	opRelease
	opInspect
)

var opNames = [...]string{"acquire", "renew", "release", "inspect"}

// session is one logical lease holder with its own owner identity.
type session struct {
	owner   string
	client  *lockclient.Client // svc-http only
	lease   *lockclient.Lease  // svc-http: the held lease
	holding bool
	tenant  string
	key     string
	token   uint64
}

type op struct {
	kind        opKind
	s           *session
	tenant, key string
}

// code classifies a reply. Conflicts and stale tokens are valid
// answers. A refusal (busy, throttled, nack, draining) asks the client
// to come back later, and send does, the way lockclient does at
// default options. Error outcomes, transport errors and a refusal that
// outlasts maxRetries are failures.
type code uint8

const (
	codeOK code = iota
	codeConflict
	codeStale
	codeRefused
	codeFail
)

type result struct {
	code       code
	granted    bool // a fresh grant carrying a new fencing token
	token      uint64
	retryAfter time.Duration // the server's hint on a refusal
	err        error         // why a codeRefused or codeFail request was not served
}

// Retries of a refused request: lockclient's default backoff (2 ms,
// doubling, capped at 250 ms), or the server's Retry-After hint when
// that is longer. lockclient retries until its context ends; the
// benchmark gives up after maxRetries, over a second at the service's
// 100 ms hint, and counts the request as failed.
const (
	retryBase  = 2 * time.Millisecond
	retryCap   = 250 * time.Millisecond
	maxRetries = 10
)

// retryDelay returns the wait before retry n (0-based) of a request
// the server refused with the hint ra.
func retryDelay(n int, ra time.Duration) time.Duration {
	d := retryBase << min(n, 8)
	return max(min(d, retryCap), ra)
}

// rng is a splitmix64 stream, the same generator cmd/lockload uses.
type rng struct{ x uint64 }

func (r *rng) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int   { return int(r.next() % uint64(n)) }
func (r *rng) float64() float64 { return float64(r.next()>>11) / float64(1<<53) }

// generator draws one sender's requests from the seed: which session
// acts, on which tenant and key, and whether it renews or releases.
type generator struct {
	r        rng
	sessions []*session
	tenants  []string
	keys     []string
}

func newGenerator(seed uint64, sessions []*session, tenants []string, nkeys int, prefix string) *generator {
	g := &generator{r: rng{x: seed*2 + 1}, sessions: sessions, tenants: tenants}
	for i := 0; i < nkeys; i++ {
		g.keys = append(g.keys, fmt.Sprintf("%s%d", prefix, i))
	}
	return g
}

func (g *generator) next() op {
	for {
		if g.r.float64() < inspectFrac {
			return op{kind: opInspect, s: g.sessions[g.r.intn(len(g.sessions))],
				tenant: g.tenants[g.r.intn(len(g.tenants))], key: g.keys[g.r.intn(len(g.keys))]}
		}
		s := g.sessions[g.r.intn(len(g.sessions))]
		if !s.holding {
			return op{kind: opAcquire, s: s,
				tenant: g.tenants[g.r.intn(len(g.tenants))], key: g.keys[g.r.intn(len(g.keys))]}
		}
		switch x := g.r.float64(); {
		case x < renewFrac:
			return op{kind: opRenew, s: s, tenant: s.tenant, key: s.key}
		case x < renewFrac+releaseFrac:
			return op{kind: opRelease, s: s, tenant: s.tenant, key: s.key}
		}
		// Hold: the session keeps its lease through this turn.
	}
}

// apply moves the session to the state the reply leaves it in. A
// refused or failed request changed nothing the session knows of, so a
// holder keeps its lease and tries again later.
func (o op) apply(r result) {
	s := o.s
	switch {
	case r.code == codeRefused || r.code == codeFail:
	case o.kind == opAcquire:
		if r.code == codeOK {
			s.holding, s.tenant, s.key, s.token = true, o.tenant, o.key, r.token
		}
	case o.kind == opRenew:
		if r.code != codeOK {
			s.holding = false
		}
	case o.kind == opRelease:
		s.holding = false
	}
}

// fencing checks, client-side, that every fresh grant of a key carries
// a larger token than any grant of that key seen before.
type fencing struct {
	mu         sync.Mutex
	last       map[string]uint64
	violations int
}

func newFencing() *fencing { return &fencing{last: map[string]uint64{}} }

func (f *fencing) observe(tenant, key string, token uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := tenant + "/" + key
	if prev, ok := f.last[k]; ok && token <= prev {
		f.violations++
		return false
	}
	f.last[k] = token
	return true
}

// backend sends one request to the layer under test.
type backend interface {
	do(ctx context.Context, o op, sp Span) result
	spanPrefix() string
}

// httpBackend drives the server through lockclient over loopback HTTP.
type httpBackend struct{ inflight *inflight }

func (httpBackend) spanPrefix() string { return "client." }

func (b httpBackend) do(ctx context.Context, o op, sp Span) result {
	if b.inflight != nil {
		rk := routeKey(o.kind, o.s.owner, o.tenant, o.key)
		b.inflight.put(rk, sp)
		defer b.inflight.del(rk)
	}
	c := o.s.client
	switch o.kind {
	case opAcquire:
		l, err := c.AcquireOnce(ctx, o.tenant, o.key, leaseTTL)
		var ce *lockclient.ConflictError
		var re *lockclient.RetryError
		switch {
		case err == nil:
			o.s.lease = l
			return result{code: codeOK, granted: true, token: l.Token}
		case errors.As(err, &ce):
			return result{code: codeConflict}
		case errors.As(err, &re):
			return result{code: codeRefused, retryAfter: re.RetryAfter, err: errors.New(re.Outcome)}
		}
		return result{code: codeFail, err: err}
	case opRenew, opRelease:
		var err error
		if o.kind == opRenew {
			err = c.Renew(ctx, o.s.lease, leaseTTL)
		} else {
			err = c.Release(ctx, o.s.lease)
		}
		switch {
		case err == nil:
			return result{code: codeOK}
		case errors.Is(err, lockclient.ErrStale):
			return result{code: codeStale}
		}
		return result{code: codeFail, err: err}
	}
	if _, _, err := c.Inspect(ctx, o.tenant, o.key); err != nil {
		// lockclient reports an inspect the server refused as a plain
		// error naming the outcome, with no hint.
		outcome, ok := strings.CutPrefix(err.Error(), "lockclient: inspect: ")
		if ok && (lockserv.Decision{Outcome: outcome}).Retryable() {
			return result{code: codeRefused, err: errors.New(outcome)}
		}
		return result{code: codeFail, err: err}
	}
	return result{code: codeOK}
}

// coreBackend calls lockserv.Service directly.
type coreBackend struct{ svc *lockserv.Service }

func (coreBackend) spanPrefix() string { return "service." }

func (b coreBackend) do(_ context.Context, o op, _ Span) result {
	var d lockserv.Decision
	var err error
	switch o.kind {
	case opAcquire:
		d, err = b.svc.Acquire(o.tenant, o.key, o.s.owner, leaseTTL)
	case opRenew:
		d, err = b.svc.Renew(o.tenant, o.key, o.s.owner, o.s.token, leaseTTL)
	case opRelease:
		d, err = b.svc.Release(o.tenant, o.key, o.s.owner, o.s.token)
	case opInspect:
		d, err = b.svc.Inspect(o.tenant, o.key)
	}
	if err != nil {
		return result{code: codeFail, err: err}
	}
	switch d.Outcome {
	case lockserv.WireGranted:
		return result{code: codeOK, granted: true, token: d.Token}
	case lockserv.WireRenewed, lockserv.WireReleased, lockserv.WireHeld, lockserv.WireFree:
		return result{code: codeOK, token: d.Token}
	case lockserv.WireConflict:
		return result{code: codeConflict}
	case lockserv.WireStale:
		return result{code: codeStale}
	}
	if d.Retryable() {
		return result{code: codeRefused, retryAfter: d.RetryAfter, err: errors.New(d.Outcome)}
	}
	return result{code: codeFail, err: fmt.Errorf("outcome %s", d.Outcome)}
}

// inflight maps a request's route key to the client span that sent
// it, so the traced handler can name its parent span and request id
// without any header the client would have to add.
type inflight struct {
	mu sync.Mutex
	m  map[string]Span
}

func routeKey(kind opKind, owner, tenant, key string) string {
	if kind == opInspect {
		return "inspect/" + tenant + "/" + key
	}
	return owner
}

func (f *inflight) put(k string, s Span) { f.mu.Lock(); f.m[k] = s; f.mu.Unlock() }
func (f *inflight) del(k string)         { f.mu.Lock(); delete(f.m, k); f.mu.Unlock() }
func (f *inflight) get(k string) Span    { f.mu.Lock(); defer f.mu.Unlock(); return f.m[k] }

// tracedHandler records an "http.handler" span around every request
// the lease handler serves.
func tracedHandler(h http.Handler, tr *Tracer, fl *inflight) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var rk string
		if req.Method == http.MethodGet {
			q := req.URL.Query()
			rk = routeKey(opInspect, "", q.Get("tenant"), q.Get("key"))
		} else if body, err := io.ReadAll(req.Body); err == nil {
			var r lockserv.OpRequest
			_ = json.Unmarshal(body, &r) // the handler reports bad bodies itself
			rk = r.Owner
			req.Body = io.NopCloser(bytes.NewReader(body))
		}
		parent := fl.get(rk)
		sp := tr.Begin("http.handler", parent.ID, parent.Req)
		h.ServeHTTP(w, req)
		tr.End(sp)
	})
}

// sender is one load-generating goroutine: it owns a set of sessions
// and sends one request at a time.
type sender struct {
	gen       *generator
	lat       latencies
	slots     []slot
	attempted int
	failed    int
	why       map[string]int // failures by operation and cause
	refusals  map[string]int // refusals retried, by operation and outcome
}

// send runs one generated request under its spans, retrying it while
// the server refuses it, and applies the reply. A scheduled request
// (non-zero due) gets a root "op" span from its due time, whose self
// time is the wait before it was sent. It returns when the reply came
// back and whether the request failed.
func send(ctx context.Context, b backend, tr *Tracer, fc *fencing, sd *sender, o op, due time.Time) (time.Time, bool) {
	root := Span{}
	if tr != nil && !due.IsZero() {
		root = Span{ID: tr.NewReq(), Name: "op", Start: due}
		root.Req = root.ID
	}
	sp := tr.Begin(b.spanPrefix()+opNames[o.kind], root.ID, root.Req)
	r := b.do(ctx, o, sp)
	for n := 0; r.code == codeRefused; n++ {
		addCount(&sd.refusals, opNames[o.kind]+": "+r.err.Error(), 1)
		if n == maxRetries {
			r.code = codeFail
			break
		}
		time.Sleep(retryDelay(n, r.retryAfter))
		r = b.do(ctx, o, sp)
	}
	tr.End(sp)
	done := time.Now()
	if root.ID != 0 {
		root.End = done
		tr.Add(root)
	}
	if r.granted && !fc.observe(o.tenant, o.key, r.token) {
		r.code, r.err = codeFail, fmt.Errorf("token %d is no larger than an earlier grant of the key", r.token)
	}
	failed := r.code == codeFail
	sd.attempted++
	if failed {
		sd.failed++
		addCount(&sd.why, opNames[o.kind]+": "+r.err.Error(), 1)
	}
	o.apply(r)
	return done, failed
}

// record adds a request's latency, or +Inf if it failed.
func (sd *sender) record(d time.Duration, failed bool) {
	if failed {
		sd.lat.fail()
	} else {
		sd.lat.add(d)
	}
}

// phase is the outcome of one load phase across its senders. It keeps
// its latency quantiles, not the samples, so the benchmark's own heap
// stays the same size however long the run.
type phase struct {
	wall      time.Duration
	cpu       time.Duration
	steal     int     // hypervisor steal ticks during the phase, all CPUs
	p50, p99  float64 // latency quantiles, microseconds
	latN      int     // samples behind p50 and p99
	slots     []slot
	attempted int
	failed    int
	why       map[string]int
	refusals  map[string]int
}

// addCount adds n to (*m)[k], making the map if it has none yet.
func addCount(m *map[string]int, k string, n int) {
	if *m == nil {
		*m = map[string]int{}
	}
	(*m)[k] += n
}

func merge(senders []*sender, wall, cpu time.Duration, steal int) phase {
	p := phase{wall: wall, cpu: cpu, steal: steal}
	var lat latencies
	for _, s := range senders {
		lat.us = append(lat.us, s.lat.us...)
		p.slots = append(p.slots, s.slots...)
		p.attempted += s.attempted
		p.failed += s.failed
		for k, n := range s.why {
			addCount(&p.why, k, n)
		}
		for k, n := range s.refusals {
			addCount(&p.refusals, k, n)
		}
		s.lat.us, s.slots, s.attempted, s.failed, s.why, s.refusals = s.lat.us[:0], nil, 0, 0, nil, nil
	}
	p.p50, p.p99 = lat.quantiles()
	p.latN = len(lat.us)
	return p
}

// openLoop sends n requests at a fixed rate, spread round-robin over
// the senders. Each request's latency counts from its due time.
func openLoop(ctx context.Context, b backend, tr *Tracer, fc *fencing, senders []*sender, rate float64, n int) phase {
	interval := time.Duration(float64(time.Second) / rate)
	cpu0, steal0 := cpuTime(), stealTicks()
	t0 := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for k, sd := range senders {
		wg.Add(1)
		go func(k int, sd *sender) {
			defer wg.Done()
			for i := k; i < n; i += len(senders) {
				due := t0.Add(time.Duration(i) * interval)
				free := time.Now()
				sleepUntil(due)
				sent := time.Now()
				s := slot{due: due, free: free, sent: sent}
				var failed bool
				s.done, failed = send(ctx, b, tr, fc, sd, sd.gen.next(), due)
				sd.record(s.latency(), failed)
				sd.slots = append(sd.slots, s)
			}
		}(k, sd)
	}
	wg.Wait()
	return merge(senders, time.Since(t0), cpuTime()-cpu0, stealTicks()-steal0)
}

// sleepUntil blocks the calling thread until t. It sleeps in the
// kernel rather than on a Go timer: the runtime rounds a sub-millisecond
// timer wait up to a whole millisecond when it parks in the network
// poller, which at openRate would make the generator, not the server,
// the main source of latency.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// stopEvery is how many requests a closed loop sends, over all its
// senders, between two checks of its stop condition.
const stopEvery = 64

// closedLoop sends requests back to back from every sender: n of them
// or, with stop set, until stop reports true.
func closedLoop(ctx context.Context, b backend, tr *Tracer, fc *fencing, senders []*sender, n int, stop func() bool) phase {
	var issued atomic.Int64
	var stopped atomic.Bool
	more := func() bool {
		i := issued.Add(1)
		switch {
		case stop == nil:
			return i <= int64(n)
		case stopped.Load():
			return false
		case i%stopEvery == 0 && stop():
			stopped.Store(true)
			return false
		}
		return true
	}
	cpu0, steal0, t0 := cpuTime(), stealTicks(), time.Now()
	var wg sync.WaitGroup
	for _, sd := range senders {
		wg.Add(1)
		go func(sd *sender) {
			defer wg.Done()
			for more() {
				start := time.Now()
				done, failed := send(ctx, b, tr, fc, sd, sd.gen.next(), time.Time{})
				sd.record(done.Sub(start), failed)
			}
		}(sd)
	}
	wg.Wait()
	return merge(senders, time.Since(t0), cpuTime()-cpu0, stealTicks()-steal0)
}

// releaseAll returns every lease a session still holds, outside any
// measurement, trying again after a failed request until ctx ends.
func releaseAll(ctx context.Context, b backend, sessions []*session) {
	for _, s := range sessions {
		for s.holding && ctx.Err() == nil {
			o := op{kind: opRelease, s: s, tenant: s.tenant, key: s.key}
			r := b.do(ctx, o, Span{})
			o.apply(r)
			if r.code == codeRefused || r.code == codeFail {
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
}

// stack is the service wired the way cmd/hbolockd wires it: a durable
// store with default compaction, an obs registry, an access log and
// the background sweeper, optionally behind an HTTP server.
type stack struct {
	store   *lockserv.Store
	svc     *lockserv.Service
	reg     *obs.Registry
	logPath string
	logFile *os.File

	sweepStop chan struct{}
	sweepDone chan struct{}

	srv  *http.Server
	ln   net.Listener
	addr string

	openDur, newDur time.Duration
}

// openStack recovers dir and starts the service; with serve it also
// listens on a loopback port. A non-nil tracer wraps the lease handler
// in tracedHandler.
func openStack(dir string, serve bool, tr *Tracer, fl *inflight) (*stack, error) {
	st := &stack{logPath: filepath.Join(dir, "access.jsonl")}
	f, err := os.OpenFile(st.logPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	st.logFile = f
	sp := tr.Begin("store.open", 0, 0)
	start := time.Now()
	st.store, err = lockserv.OpenStore(filepath.Join(dir, "state"), lockserv.StoreOptions{})
	st.openDur = time.Since(start)
	tr.End(sp)
	if err != nil {
		f.Close()
		return nil, err
	}
	st.reg = obs.NewRegistry()
	sp = tr.Begin("service.new", 0, 0)
	start = time.Now()
	st.svc, err = lockserv.New(lockserv.Config{
		Tenants: tenants, Registry: st.reg, AccessLog: f, Store: st.store,
	})
	st.newDur = time.Since(start)
	tr.End(sp)
	if err != nil {
		st.store.Close()
		f.Close()
		return nil, err
	}
	st.sweepStop, st.sweepDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(st.sweepDone)
		tick := time.NewTicker(sweepEvery)
		defer tick.Stop()
		for {
			select {
			case <-st.sweepStop:
				return
			case <-tick.C:
				st.svc.SweepDue()
				st.svc.RefreshAffinity()
			}
		}
	}()
	if serve {
		if st.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			st.close()
			return nil, err
		}
		var lease http.Handler = lockserv.Handler(st.svc)
		if tr != nil {
			lease = tracedHandler(lease, tr, fl)
		}
		mux := http.NewServeMux()
		mux.Handle("/v1/", lease)
		mux.Handle("/", st.reg.Handler())
		st.srv = &http.Server{Handler: mux}
		st.addr = st.ln.Addr().String()
		go func() { _ = st.srv.Serve(st.ln) }() // returns ErrServerClosed on close
	}
	return st, nil
}

// close stops the server and sweeper and flushes and closes the
// service, store and access log, in cmd/hbolockd's shutdown order.
func (st *stack) close() error {
	var errs []error
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, st.srv.Shutdown(ctx))
		cancel()
		if t, ok := http.DefaultTransport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	}
	close(st.sweepStop)
	<-st.sweepDone
	st.svc.Drain()
	errs = append(errs, st.svc.Close(), st.store.Sync(), st.store.Close(), st.logFile.Close())
	return errors.Join(errs...)
}

// verifyLog runs the fencing audit over the stack's access log.
func (st *stack) verifyLog() (int, error) {
	f, err := os.Open(st.logPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return lockserv.VerifyAccessLog(f)
}

// copyDir copies the regular files of src into dst.
func copyDir(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
