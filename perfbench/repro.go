package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/microbench"
	"repro/internal/sim"
	"repro/internal/simlock"
)

// quickOptions is what `hbobench -experiment all -quick -seeds 1
// -scale 800` runs, with one cell worker per CPU.
func quickOptions() experiments.Options {
	return experiments.Options{Quick: true, Seeds: 1, Scale: 800, Parallel: runtime.NumCPU(), SimWorkers: 1}
}

// digestAll is the pinned-digest key for the whole suite's output, the
// bytes `hbobench -experiment all -quick -seeds 1 -scale 800` prints.
const digestAll = "all"

// readDigest parses a pinned digest file: one "<id> <sha256>" per line.
func readDigest(r io.Reader) (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("digest: bad line %q", line)
		}
		out[f[0]] = f[1]
	}
	return out, sc.Err()
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// digestMatches reports whether text is what the pinned digest holds
// for id.
func digestMatches(pinned map[string]string, id, text string) bool {
	want, ok := pinned[id]
	return ok && want == sha(text)
}

// suiteResult is one pass over every experiment.
type suiteResult struct {
	ids      []string
	seconds  []float64     // unstolen host seconds per experiment, in suite order
	wall     time.Duration // unstolen, over all the experiments
	steal    int           // hypervisor steal ticks during the experiments
	cpu      time.Duration // summed over the experiments
	failures []string      // experiments whose output differs from the digest
}

// runSuite runs the experiments in paper order, renders their tables
// the way hbobench prints them, and checks each against the digest.
func runSuite(all []experiments.Experiment, pinned map[string]string, tr *Tracer) suiteResult {
	opts := quickOptions()
	var r suiteResult
	var raw time.Duration
	root := tr.Begin("suite", 0, 0)
	var out strings.Builder
	for _, e := range all {
		// Start each experiment from a collected heap, as testing.B does
		// before a benchmark, so one experiment's garbage is not charged
		// to the next one's time or memory.
		runtime.GC()
		sp := tr.Begin("experiment."+e.ID, root.ID, 0)
		cpu0, steal0, start := cpuTime(), stealTicks(), time.Now()
		var b strings.Builder
		for _, tb := range e.Run(opts) {
			b.WriteString(tb.String())
			b.WriteString("\n")
		}
		took, steal := time.Since(start), stealTicks()-steal0
		r.steal += steal
		raw += took
		r.cpu += cpuTime() - cpu0
		r.seconds = append(r.seconds, unstolen(took, steal).Seconds())
		tr.End(sp)
		r.ids = append(r.ids, e.ID)
		out.WriteString(b.String())
		if !digestMatches(pinned, e.ID, b.String()) {
			r.failures = append(r.failures, e.ID)
		}
	}
	tr.End(root)
	r.wall = unstolen(raw, r.steal)
	if !digestMatches(pinned, digestAll, out.String()) {
		r.failures = append(r.failures, digestAll)
	}
	return r
}

// cellResult is one simulation cell run directly through its public
// function.
type cellResult struct {
	name     string
	host     time.Duration
	simS     float64
	acquires float64
	local    uint64
	global   uint64
	// handoffLocal is the share of lock handovers that stayed on the
	// node; the apps cell does not expose it (see README.md).
	handoffLocal float64
	aborts       float64
	windows      float64
	nacks        float64
}

func (c cellResult) nsPerTxn() float64 {
	return float64(c.host.Nanoseconds()) / float64(c.local+c.global)
}

func wildfire(seed uint64) machine.Config {
	cfg := machine.WildFire()
	cfg.Seed = seed
	return cfg
}

// The three fixed cells. Each takes the machine seed the run's --seed
// selects.
func cellContended(seed uint64) cellResult {
	start := time.Now()
	r := microbench.NewBench(microbench.NewBenchConfig{
		Machine: wildfire(seed), Lock: "HBO_GT_SD", Threads: 28, Iterations: 30,
		CriticalWork: 1500, PrivateWork: 4000, Tuning: simlock.DefaultTuning(),
	})
	return cellResult{
		name: "contended", host: time.Since(start), simS: r.TotalTime.Seconds(),
		acquires: float64(r.Threads * 30), local: r.Traffic.TotalLocal(), global: r.Traffic.Global,
		handoffLocal: 1 - r.HandoffRatio,
	}
}

func cellDegraded(seed uint64) (cellResult, error) {
	fc, err := fault.Preset("all", seed*2654435761+1, 1.0)
	if err != nil {
		return cellResult{}, err
	}
	start := time.Now()
	r := microbench.DegradedBench(microbench.DegradedConfig{
		NewBenchConfig: microbench.NewBenchConfig{
			Machine: wildfire(seed), Lock: "TATAS", Threads: 28, Iterations: 10,
			CriticalWork: 1500, PrivateWork: 4000, Tuning: simlock.DefaultTuning(),
		},
		Fault:   fc,
		Timeout: 16 * sim.Millisecond,
	})
	return cellResult{
		name: "degraded", host: time.Since(start), simS: r.TotalTime.Seconds(),
		acquires: float64(r.Acquisitions), local: r.Traffic.TotalLocal(), global: r.Traffic.Global,
		handoffLocal: 1 - r.HandoffRatio, aborts: float64(r.Aborts),
		windows: float64(r.Faults.SpikeWindows + r.Faults.StormWindows + r.Faults.PauseWindows),
		nacks:   float64(r.Faults.NACKs),
	}, nil
}

func cellApps(seed uint64) cellResult {
	start := time.Now()
	r := apps.Run(apps.SpecByName("Raytrace"), apps.Config{
		Machine: wildfire(seed), Lock: "HBO_GT_SD", Threads: 28,
		Tuning: simlock.DefaultTuning(), Scale: 100,
	})
	return cellResult{
		name: "apps", host: time.Since(start), simS: r.Seconds,
		acquires: float64(r.LockCalls), local: r.Traffic.TotalLocal(), global: r.Traffic.Global,
	}
}

// runCells runs the three cells, each under its own span.
func runCells(seed uint64, tr *Tracer) ([]cellResult, error) {
	var out []cellResult
	sp := tr.Begin("cell.contended", 0, 0)
	out = append(out, cellContended(seed))
	tr.End(sp)
	sp = tr.Begin("cell.degraded", 0, 0)
	d, err := cellDegraded(seed)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	out = append(out, d)
	sp = tr.Begin("cell.apps", 0, 0)
	out = append(out, cellApps(seed))
	tr.End(sp)
	return out, nil
}

// simSwitchNS is the host cost of one handover between two simulated
// processes whose sleeps interleave, so neither can resume itself.
func simSwitchNS(n int) float64 {
	e := sim.NewEngine()
	for id := 0; id < 2; id++ {
		e.Spawn(id, func(p *sim.Process) {
			for i := 0; i < n/2; i++ {
				p.Sleep(10)
			}
		})
	}
	start := time.Now()
	e.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// simEventNS is the host cost of one Engine.Schedule plus its dispatch,
// running the engine each time 1024 events are pending.
func simEventNS(n int) float64 {
	e := sim.NewEngine()
	fn := func() {}
	start := time.Now()
	for i := 0; i < n; i++ {
		e.Schedule(sim.Time(1+i%37), fn)
		if e.Pending() == 1024 {
			e.Run()
		}
	}
	e.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// simProbes returns the medians of five repetitions of each engine
// probe.
func simProbes(tr *Tracer) (switchNS, eventNS float64) {
	var sw, ev []float64
	for i := 0; i < 5; i++ {
		sp := tr.Begin("sim.switch", 0, 0)
		sw = append(sw, simSwitchNS(200_000))
		tr.End(sp)
		sp = tr.Begin("sim.event", 0, 0)
		ev = append(ev, simEventNS(1_000_000))
		tr.End(sp)
	}
	return median(sw), median(ev)
}

// loadDigest reads the pinned digest file and checks that it covers
// every experiment.
func loadDigest(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("digest: %w", err)
	}
	defer f.Close()
	pinned, err := readDigest(f)
	if err != nil {
		return nil, err
	}
	for _, id := range append(experiments.IDs(), digestAll) {
		if _, ok := pinned[id]; !ok {
			return nil, fmt.Errorf("digest: no pinned digest for %q", id)
		}
	}
	return pinned, nil
}

// reproSetup is the program's own work before the first experiment
// runs: the suite's options, the experiment list, and a first WildFire
// machine with its simulation engine, built from the configuration the
// experiments start from.
func reproSetup() ([]experiments.Experiment, time.Duration) {
	start := time.Now()
	opts := quickOptions()
	all := experiments.All()
	m := machine.New(wildfire(uint64(opts.Seeds)))
	took := time.Since(start)
	runtime.KeepAlive(m)
	return all, took
}
