package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEndMetrics are the metrics every workload reports with -trace 0.
// An "op" is the workload's unit of work: a committed step (MOST), a
// window of 64 blocks held by every viewer (nsds-fanout), a job reaching
// Done (fleet). The p99 figures are printed with the workload-specific
// names but are not in the result line: on a shared 2-CPU machine their
// run-to-run spread exceeds any bound a later change could be held to.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are the metrics every workload reports with -trace 1. A
// metric of a layer the workload does not exercise reads 0.
var layerMetrics = []string{
	"structural.step_us.p50",
	"coord.restore_ms.p50", "coord.restore_ms.p99",
	"coord.post_commit_us.p50", "coord.post_commit_us.p99",
	"coord.checkpoint_ms.p50", "coord.checkpoint_ms.p99",
	"coord.self_us.p50",
	"coord.pipeline.hit_ratio",
	"coord.round_trips_per_step",
	"faultnet.delay_ms_per_step",
	"ogsi.call_us.p50.propose", "ogsi.call_us.p99.propose",
	"ogsi.call_us.p50.execute", "ogsi.call_us.p99.execute",
	"ogsi.call_us.p50.batch", "ogsi.call_us.p99.batch",
	"ogsi.client_self_us.p50",
	"ogsi.server_self_us.p50",
	"gsi.verify_us.p50.cached", "gsi.verify_us.p50.uncached",
	"gsi.sign_us.p50",
	"gsi.chain_cache.hit_ratio",
	"core.server_us.p50.propose", "core.server_us.p50.execute",
	"core.validate_us.p50",
	"core.retries",
	"plugin.execute_us.p50.shore-western", "plugin.execute_us.p99.shore-western",
	"plugin.execute_us.p50.mplugin-sim", "plugin.execute_us.p99.mplugin-sim",
	"plugin.execute_us.p50.xpc", "plugin.execute_us.p99.xpc",
	"plugin.execute_us.p50.simulation", "plugin.execute_us.p99.simulation",
	"nsds.publish_us.p50",
	"nsds.first_delivery_us.p50", "nsds.first_delivery_us.p99",
	"nsds.fanout_sweep_us.p50", "nsds.fanout_sweep_us.p99",
	"nsds.dropped", "nsds.relay.duplicates",
	"most.build_ms", "most.stop_ms",
	"fleet.slot_busy_ratio",
	"fleet.lease_ms.p50", "fleet.build_shared_ms.p50",
	"fleet.jobs_rejected",
	"process.allocs_per_op", "process.gc_cycles",
	"reconcile.step_us.p50",
	"reconcile.unexplained_us.p50",
	"trace.overhead_ratio",
	"trace.window_steps",
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.Contains(name, "_us"):
		return "us"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "ratio"):
		return "ratio"
	case name == "coord.round_trips_per_step":
		return "calls/step"
	case name == "process.allocs_per_op":
		return "allocs/op"
	case name == "trace.window_steps":
		return "steps"
	default:
		return "count"
	}
}

// zeroLayers fills every per-layer metric the workload left unset with 0.
func (r *result) zeroLayers() {
	for _, name := range layerMetrics {
		if _, ok := r.Layers[name]; !ok {
			r.layer(name, 0)
		}
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). Empty input reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// durationsIn converts durations to float64 in the given unit.
func durationsIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// meter measures CPU, allocations and GC cycles over a stretch of work.
type meter struct {
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
	wall    time.Time
}

// settle forces a garbage collection, so that a cycle the previous work
// left due does not land in the next measurement.
func settle() { runtime.GC() }

// coldHeap forces a garbage collection and returns the freed memory to
// the operating system, so that every timed set-up starts from the same
// state. A set-up allocates megabytes (the span rings of every recorder);
// without this, whether those pages are still mapped from the last one
// depends on when the runtime's background scavenger last ran, and the
// set-up time jumps between the two cases from run to run.
func coldHeap() { debug.FreeOSMemory() }

// extraSetups is how many set-ups a workload times, besides the one it
// measures with, before each measured experiment, segment or wave. setup_s
// is the median over all of them, so that one busy moment of the machine
// does not set it.
const extraSetups = 16

// timeSetups times n set-ups, each from a cold heap, and tears each down
// as soon as it is timed.
func timeSetups(n int, setup func() (teardown func() error, err error)) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		coldHeap()
		t0 := time.Now()
		teardown, err := setup()
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
		if err := teardown(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// startMeter settles the heap and starts measuring.
func startMeter() meter {
	settle()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{cpu: cpuTime(), mallocs: ms.Mallocs, gcs: ms.NumGC, wall: time.Now()}
}

// sample is what a meter saw between start and stop.
type sample struct {
	wall, cpu time.Duration
	mallocs   uint64
	gcs       uint32
}

func (m meter) stop() sample {
	wall := time.Since(m.wall)
	cpu := cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sample{wall: wall, cpu: cpu, mallocs: ms.Mallocs - m.mallocs, gcs: ms.NumGC - m.gcs}
}

func (s *sample) add(o sample) {
	s.wall += o.wall
	s.cpu += o.cpu
	s.mallocs += o.mallocs
	s.gcs += o.gcs
}

// stretch is one measured stretch of a run: ops done in it, and its wall
// and CPU time.
type stretch struct {
	ops       float64
	wall, cpu time.Duration
}

// throughput returns the medians over stretches of ops per second and of
// CPU ms per op. A stall of the shared machine that hits one stretch moves
// these medians less than it would move run totals.
func throughput(ss []stretch) (opsPerS, cpuMSPerOp float64) {
	var rates, cpus []float64
	for _, s := range ss {
		if s.ops > 0 && s.wall > 0 {
			rates = append(rates, s.ops/s.wall.Seconds())
			cpus = append(cpus, float64(s.cpu)/float64(time.Millisecond)/s.ops)
		}
	}
	return median(rates), median(cpus)
}

// machine is the fingerprint every result carries; results with
// different fingerprints are not comparable.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func (m machine) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s",
		m.CPU, m.NumCPU, m.GOMAXPROCS, m.Go, m.Kernel)
}

func fingerprint() machine {
	return machine{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     kernelRelease(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}
