package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Metric is one named measurement with its unit and the number of
// samples it summarizes.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least q of the samples at or below it. xs
// must be sorted ascending. An empty slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the middle of xs (the mean of the two middle samples
// for an even count); xs need not be sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// latencies collects per-operation durations. A failed operation is
// recorded as +Inf: it misses every latency limit, so it can only push
// percentiles up.
type latencies struct{ us []float64 }

func (l *latencies) add(d time.Duration) { l.us = append(l.us, float64(d)/1e3) }
func (l *latencies) fail()               { l.us = append(l.us, math.Inf(1)) }

// quantiles returns the p50 and p99 in microseconds.
func (l *latencies) quantiles() (p50, p99 float64) {
	sort.Float64s(l.us)
	return quantile(l.us, 0.50), quantile(l.us, 0.99)
}

func (l *latencies) mean() float64 { return mean(l.us) }

// slot is one scheduled open-loop operation: when it was due, when the
// sender became free to send it, and when it was sent and finished.
type slot struct {
	due, free, sent, done time.Time
}

// latency is the operation's time counted from its due time, which
// charges a stall to every operation queued behind it.
func (s slot) latency() time.Duration { return s.done.Sub(s.due) }

// genLate reports how late the generator itself sent the operation.
// Only an operation whose sender was free before the due time measures
// the generator: one that waited behind a slow reply was delayed by
// the server, and that delay belongs to the server's latency.
func (s slot) genLate() (time.Duration, bool) {
	if s.free.After(s.due) {
		return 0, false
	}
	late := s.sent.Sub(s.due)
	if late < 0 {
		late = 0
	}
	return late, true
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks returns the clock ticks the hypervisor has taken from this
// machine's CPUs since boot (the steal column of /proc/stat), or 0
// where the kernel does not report it.
func stealTicks() int {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.Atoi(f[8])
	return n
}

// userHZ is the unit of /proc/stat's columns: clock ticks per second.
const userHZ = 100

// minCorrected is the shortest span unstolen corrects: twenty times a
// clock tick shared over two CPUs. Steal is counted in whole ticks, so
// on a shorter span one tick that happens to land inside it would take
// away more time than the span lost.
const minCorrected = 100 * time.Millisecond

// unstolen returns the part of wall during which the hypervisor left
// the machine its CPUs: wall minus the stolen ticks, shared over the
// CPUs. A span shorter than minCorrected, or on a host that steals
// nothing, is returned as it is.
func unstolen(wall time.Duration, steal int) time.Duration {
	if wall < minCorrected {
		return wall
	}
	lost := time.Duration(steal) * time.Second / userHZ / time.Duration(runtime.NumCPU())
	return max(wall-lost, wall/10)
}

// setupSeconds returns the median of the set-up times ds, in seconds.
// steal is the ticks stolen during all of them together. The median
// is scaled by the share of the set-ups' total time the hypervisor
// left the machine, which unstolen leaves at 1 when that total is too
// short for ticks to resolve.
func setupSeconds(ds []time.Duration, steal int) float64 {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	med := median(seconds(ds))
	if total <= 0 {
		return med
	}
	return med * float64(unstolen(total, steal)) / float64(total)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Host describes the machine a run measured.
type Host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func hostInfo() Host {
	h := Host{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
