// Command perfbench is the repository's benchmark. It measures both
// end-to-end paths from outside, by timing calls into each layer's
// public functions: the quick reproduction suite on the simulated
// WildFire machine, and the lease service (lockclient → HTTP →
// lockserv.Handler → Service → shard lock → lease table → WAL).
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload repro-quick --seed 1 --seconds 30 --trace 0
//
// Workloads are repro-quick, svc-http and svc-core (see README.md);
// BENCHMARK.json gates the first two. With --trace 0 the run prints
// every end-to-end metric; with --trace 1 it runs the named workload
// untraced and then every workload traced, svc-core included,
// and prints every per-layer metric plus the tracing overhead. Stdout
// carries a report (host, parameters, seed, each metric with its unit
// and sample count) and, as its last line, the one-line result. Any
// correctness failure makes the exit code nonzero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
)

var workloads = map[string]func(env, *Tracer) (*pass, error){
	"repro-quick": runRepro,
	"svc-http":    runSvcHTTP,
	"svc-core":    runSvcCore,
}

// workloadOrder is the order a traced run visits the workloads in.
var workloadOrder = []string{"repro-quick", "svc-http", "svc-core"}

// ungated names the workloads BENCHMARK.json leaves out. They run by
// hand and in every traced run, which reports their layers, but their
// end-to-end figures spread too far from run to run on a shared host
// to gate a change: svc-core's 100k-lease heap and compactions follow
// the host's memory speed (README.md).
var ungated = map[string]bool{"svc-core": true}

// overheadOf lists the end-to-end metrics whose traced-minus-untraced
// difference is reported as trace.overhead.<name>.
var overheadOf = []string{"setup_s", "wall_s", "cpu_s", "ops_s", "p50_us", "p99_us"}

// Report is the multi-line document printed before the result line.
type Report struct {
	Schema    string         `json:"schema"`
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	Seconds   int            `json:"seconds"`
	Trace     bool           `json:"trace"`
	Host      Host           `json:"host"`
	Params    map[string]any `json:"params"`
	Valid     bool           `json:"valid"` // false: a figure describes the host, see Invalid
	Invalid   []string       `json:"invalid,omitempty"`
	Correct   bool           `json:"correct"`
	Problems  []string       `json:"problems,omitempty"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	ErrorRate float64        `json:"error_rate"`
	Metrics   []Metric       `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload  = flag.String("workload", "", "workload: repro-quick, svc-http or svc-core")
		seed      = flag.Uint64("seed", 1, "input seed: session and key choice, and the cell probes' machine seed")
		seconds   = flag.Int("seconds", 30, "sizes the service workloads' phases (repro-quick is fixed work)")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		buildDir  = flag.String("build-dir", ".bench_build", "directory for scratch state and the span file")
		benchJSON = flag.String("benchmark-json", "BENCHMARK.json", "metric names the output must match")
		digest    = flag.String("digest", "perfbench/repro-quick.digest", "pinned digest of the quick suite's tables")
	)
	flag.Parse()
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		return 2
	}

	if _, ok := workloads[*workload]; !ok {
		return fail("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail("need --seconds >= 1 and --trace 0 or 1")
	}
	spec, err := readBenchmark(*benchJSON)
	if err != nil {
		return fail("%v", err)
	}
	if !spec.hasWorkload(*workload) && !ungated[*workload] {
		return fail("workload %q is not in %s", *workload, *benchJSON)
	}
	work := filepath.Join(*buildDir, "perfbench-work", fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	defer os.RemoveAll(work)
	e := env{seed: *seed, seconds: *seconds, work: work, digest: *digest}

	rep := Report{
		Schema: "perfbench-report/v1", Workload: *workload, Seed: *seed, Seconds: *seconds,
		Trace: *trace == 1, Host: hostInfo(), Params: map[string]any{},
	}
	var passes []*pass
	base, err := workloads[*workload](e, nil)
	if err != nil {
		return fail("%s: %v", *workload, err)
	}
	passes = append(passes, base)
	rep.Params[*workload] = base.info
	want := spec.EndToEnd
	metrics := base.endToEnd()

	if *trace == 1 {
		tr := &Tracer{}
		metrics = nil
		for _, w := range workloadOrder {
			// Traced passes run a third as long: every service figure is
			// a median over windows, so a shorter pass still compares
			// with the untraced one, and the spans of a full-length
			// svc-core pass would take a gigabyte of memory.
			te := e
			te.seconds = max(1, e.seconds/3)
			p, err := workloads[w](te, tr)
			if err != nil {
				return fail("%s traced: %v", w, err)
			}
			passes = append(passes, p)
			metrics = append(metrics, p.layers...)
			// Hand the pass's memory back before the next one, so the
			// run's peak is that of one pass, not of all three.
			debug.FreeOSMemory()
			if w == *workload {
				metrics = append(metrics, overhead(p.endToEnd(), base.endToEnd())...)
			}
		}
		want = spec.PerLayer
		spanFile := filepath.Join(*buildDir, "perfbench-spans-"+*workload+".tsv.gz")
		if err := writeSpans(spanFile, tr.Since(0)); err != nil {
			return fail("%v", err)
		}
		rep.Params["span_file"] = spanFile
		rep.Params["spans"] = tr.Len()
	}
	if err := matchNames(want, metrics); err != nil {
		return fail("%v", err)
	}

	for _, p := range passes {
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		rep.Problems = append(rep.Problems, p.problems...)
		rep.Invalid = append(rep.Invalid, p.invalid...)
	}
	for i, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.Problems = append(rep.Problems, fmt.Sprintf("metric %s is not a finite number", m.Name))
			metrics[i].Value = -1
		}
	}
	rep.Valid = len(rep.Invalid) == 0
	// Only a failed correctness check fails the run. A failed operation
	// (a refusal, a transport error) is a measurement: it counts toward
	// error_rate.
	rep.Correct = len(rep.Problems) == 0
	rep.ErrorRate = float64(rep.Failed) / float64(rep.Attempted)
	rep.Metrics = metrics

	out := Result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]resultValue{}}
	for _, m := range metrics {
		out.Metrics[m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail("report: %v", err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fail("result: %v", err)
	}
	fmt.Printf("%s\n%s\n", doc, line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// overhead returns traced minus untraced for the overheadOf metrics.
func overhead(traced, untraced []Metric) []Metric {
	base := map[string]Metric{}
	for _, m := range untraced {
		base[m.Name] = m
	}
	var out []Metric
	for _, m := range traced {
		for _, name := range overheadOf {
			if m.Name == name {
				out = append(out, Metric{"trace.overhead." + name, m.Unit, m.Value - base[name].Value, m.N})
			}
		}
	}
	return out
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the output must agree with.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readBenchmark(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func (s benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// matchNames checks that got holds exactly the metrics of want, once
// each, with the same units.
func matchNames(want []specMetric, got []Metric) error {
	units := map[string]string{}
	for _, m := range want {
		units[m.Name] = m.Unit
	}
	seen := map[string]bool{}
	var extra []string
	for _, m := range got {
		u, ok := units[m.Name]
		switch {
		case !ok:
			extra = append(extra, m.Name)
		case seen[m.Name]:
			return fmt.Errorf("metric %s printed twice", m.Name)
		case u != m.Unit:
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, m.Unit, u)
		}
		seen[m.Name] = true
	}
	var missing []string
	for _, m := range want {
		if !seen[m.Name] {
			missing = append(missing, m.Name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 || len(missing) > 0 {
		return fmt.Errorf("metrics differ from BENCHMARK.json: not listed %v, not printed %v", extra, missing)
	}
	return nil
}
