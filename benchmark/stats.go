package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit, as printed in the result
// line and stored in -out files.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of xs by the nearest-rank rule, sorting
// xs in place; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is quantile(xs, 0.5) over a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so the spreads -compare reports match those of other tools.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// durations collects per-op durations and reports their quantiles.
type durations []time.Duration

func (ds durations) mean() time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func (ds durations) quantile(q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

// hostStamp identifies the machine a result was measured on. Results from
// different stamps are not comparable.
type hostStamp struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
}

func currentHost() hostStamp {
	return hostStamp{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// checkHost refuses configurations that would make the load generator or
// the program compete for more processors than the host has: the numbers
// would then measure oversubscription, not the code.
func checkHost(conns int) error {
	n := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p > n {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d available CPUs", p, n)
	}
	if conns > n {
		return fmt.Errorf("%d HTTP connections exceed the %d available CPUs", conns, n)
	}
	return nil
}

// resetPeakRSS restarts the kernel's peak-RSS counter (VmHWM) at the
// current resident size, so the peak read later covers only the measured
// phase.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB returns VmHWM in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// measurement is one measured phase: the Go runtime's counters at its
// start, and a sampler taking the peak RSS of each second. rss_peak_mb is
// the median of those peaks, so one second in which the collector ran late
// does not decide it.
type measurement struct {
	start runtime.MemStats
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

// startMeasuring flushes set-up's file writes and deletions to disk,
// returns memory to the OS and restarts the peak-RSS counter, so the
// measured phase neither shares the CPUs with write-back nor inherits
// set-up's footprint.
func startMeasuring() (*measurement, error) {
	syscall.Sync()
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	m := &measurement{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&m.start)
	//thrifty:goroutine stops when finish closes m.stop; finish waits on m.done
	go m.sampleRSS()
	return m, nil
}

func (m *measurement) sampleRSS() {
	defer close(m.done)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			m.takePeak()
			return
		case <-t.C:
			m.takePeak()
		}
	}
}

func (m *measurement) takePeak() {
	if m.err != nil {
		return
	}
	p, err := peakRSSMB()
	if err == nil {
		err = resetPeakRSS()
	}
	m.peaks = append(m.peaks, p)
	m.err = err
}

// finish stops the sampler and records rss_peak_mb and the proc.* layer
// metrics of a phase that completed ops ops.
func (m *measurement) finish(r *result, ops int) error {
	close(m.stop)
	<-m.done
	if m.err != nil {
		return m.err
	}
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	n := float64(max(ops, 1))
	r.setE2E("rss_peak_mb", median(m.peaks))
	r.setLayer("proc.alloc_mb_per_op", float64(end.TotalAlloc-m.start.TotalAlloc)/1e6/n)
	r.setLayer("proc.gc_cycles_per_op", float64(end.NumGC-m.start.NumGC)/n)
	r.setLayer("proc.gc_pause_ms", ms(time.Duration(end.PauseTotalNs-m.start.PauseTotalNs)))
	return nil
}
