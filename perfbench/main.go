// Command perfbench is the repository's benchmark. It runs one workload
// against the real stack in a single process, checks the outputs, and
// prints one JSON result line:
//
//	perfbench -workload most-hybrid-lan -seed 1940 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// the benchmark's own wrappers and probes are switched on and the result
// carries the per-layer metrics instead. -workload all runs every workload
// in turn and prints one result line whose metrics are each workload's,
// keyed "<workload>/<metric>".
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// DefaultSeed is the workload seed used while the benchmark was written.
// HoldOutSeed is the documented second seed for hold-out checks.
const (
	DefaultSeed = 1940
	HoldOutSeed = 2003
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run produces.
type result struct {
	Workload  string
	Seed      int64
	Attempted int64
	Failed    int64
	// Checks lists the correctness checks that failed; empty means correct.
	Checks []string
	// EndToEnd holds the generic per-op metrics of BENCHMARK.json.
	EndToEnd map[string]metric
	// Named holds the same end-to-end figures under the workload-specific
	// names (steps_per_s, stream_block_ms_p50, jobs_per_s, ...).
	Named map[string]metric
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]metric
	// Shares is the traced run's mean-per-step breakdown of the critical
	// path, in µs, keyed by layer.
	Shares map[string]float64
	// Digest identifies the trajectory (MOST workloads).
	Digest string
	// Notes are extra lines for the human-readable report.
	Notes []string
}

func newResult(workload string, seed int64) *result {
	return &result{
		Workload: workload, Seed: seed,
		EndToEnd: map[string]metric{}, Named: map[string]metric{},
		Layers: map[string]metric{},
	}
}

// check records a failed correctness check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
	}
}

// layer sets a per-layer metric.
func (r *result) layer(name string, v float64) {
	r.Layers[name] = metric{Value: v, Unit: layerUnit(name)}
}

// runner runs one workload.
type runner func(opts options) (*result, error)

var workloads = map[string]runner{
	"most-hybrid-lan":    runMostHybridLAN,
	"most-wan-pipelined": runMostWANPipelined,
	"nsds-fanout":        runNSDSFanout,
	"fleet":              runFleet,
}

func main() {
	var opts options
	var traceFlag int
	var seconds float64
	flag.StringVar(&opts.workload, "workload", "", "workload to run: most-hybrid-lan, most-wan-pipelined, nsds-fanout, fleet, or all")
	flag.Int64Var(&opts.seed, "seed", DefaultSeed, "seed of the generated inputs")
	flag.Float64Var(&seconds, "seconds", 10, "measurement time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&opts.out, "out", ".bench_build/perfbench-out", "directory for checkpoints and span dumps")
	flag.Parse()
	opts.seconds = time.Duration(seconds * float64(time.Second))
	opts.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if opts.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		fatalf("output directory: %v", err)
	}
	if opts.workload == "all" {
		os.Exit(runAll(opts))
	}
	run, ok := workloads[opts.workload]
	if !ok {
		fatalf("unknown workload %q", opts.workload)
	}
	res, err := run(opts)
	if err != nil {
		fatalf("%s: %v", opts.workload, err)
	}
	report(res, opts.trace)
	if len(res.Checks) > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// runAll runs every workload in one process and prints each one's
// figures; the exit code is non-zero when any check failed.
func runAll(opts options) int {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	code := 0
	total := map[string]any{"correct": true, "attempted": int64(0), "failed": int64(0)}
	metrics := map[string]metric{}
	for _, name := range names {
		o := opts
		o.workload = name
		res, err := workloads[name](o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 2
		}
		printHuman(res, opts.trace)
		if len(res.Checks) > 0 {
			code = 1
			total["correct"] = false
		}
		total["attempted"] = total["attempted"].(int64) + res.Attempted
		total["failed"] = total["failed"].(int64) + res.Failed
		for k, v := range resultMetrics(res, opts.trace) {
			metrics[name+"/"+k] = v
		}
	}
	total["metrics"] = metrics
	printJSON(total)
	return code
}

// report prints the human-readable lines, the detail line and, last, the
// result line.
func report(res *result, traced bool) {
	printHuman(res, traced)
	printJSON(map[string]any{
		"correct":   len(res.Checks) == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   resultMetrics(res, traced),
	})
}

// resultMetrics are the metrics of the result line: the end-to-end ones,
// or the per-layer ones of a traced run.
func resultMetrics(res *result, traced bool) map[string]metric {
	if traced {
		return res.Layers
	}
	return res.EndToEnd
}

func printHuman(res *result, traced bool) {
	fp := fingerprint()
	fmt.Printf("# perfbench %s seed=%d %s\n", res.Workload, res.Seed, fp.String())
	for _, n := range res.Notes {
		fmt.Printf("# %s\n", n)
	}
	printTable("end-to-end", res.Named)
	if traced {
		printTable("per-layer", res.Layers)
		if len(res.Shares) > 0 {
			printShares(res.Shares)
		}
	}
	for _, c := range res.Checks {
		fmt.Printf("# CHECK FAILED: %s\n", c)
	}
	detail := map[string]any{
		"workload":    res.Workload,
		"seed":        res.Seed,
		"fingerprint": fp,
		"checks":      res.Checks,
		"named":       res.Named,
	}
	if res.Digest != "" {
		detail["trajectory_sha256"] = res.Digest
	}
	if traced {
		detail["shares_us_per_step"] = res.Shares
	}
	printJSON(map[string]any{"detail": detail})
}

func printTable(title string, m map[string]metric) {
	if len(m) == 0 {
		return
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("# %s\n", title)
	for _, k := range names {
		fmt.Printf("#   %-40s %14s %s\n", k, formatValue(m[k].Value), m[k].Unit)
	}
}

func printShares(shares map[string]float64) {
	step := shares["step"]
	names := make([]string, 0, len(shares))
	for k := range shares {
		if k != "step" {
			names = append(names, k)
		}
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	fmt.Printf("# critical path, mean per step (step = %.1f us)\n", step)
	for _, k := range names {
		pct := 0.0
		if step > 0 {
			pct = 100 * shares[k] / step
		}
		fmt.Printf("#   %-28s %10.1f us %6.1f%%\n", k, shares[k], pct)
	}
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(b))
}

// runDir makes a fresh scratch directory for one run under the output
// directory; the caller removes it.
func runDir(opts options) (string, error) {
	return os.MkdirTemp(opts.out, opts.workload+"-")
}

// writeJSON writes v to name under the output directory.
func writeJSON(opts options, name string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(opts.out, name), b, 0o644)
}
