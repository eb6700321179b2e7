// Command benchgate is the CI performance gate: it runs the E8/E10
// hot-path benchmark smoke, compares each benchmark's ns/op against the
// most recent baseline recorded in BENCH_ntcp.json, and fails the build
// when any benchmark regresses by more than the threshold.
//
//	go run ./deploy/benchgate                 # run benchmarks, gate vs baseline
//	go run ./deploy/benchgate -input out.txt  # gate a pre-recorded bench output
//	go run ./deploy/benchgate -threshold 0.30 # loosen for noisy runners
//
// "Latest baseline" means the last entry for a benchmark name across the
// baseline file's result sets in order — later sets supersede earlier
// ones, mirroring how the file accretes one measurement block per perf PR.
// Benchmarks with no recorded baseline (or a null one) are reported but
// never gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

type benchResult struct {
	Benchmark string   `json:"benchmark"`
	After     *float64 `json:"after_ns_op"`
	// Max is an optional absolute ns/op ceiling: unlike the relative
	// regression threshold, it fails the gate whenever the measurement
	// exceeds it — used for targets the design promises outright (e.g.
	// "a pipelined WAN step stays under 7 ms").
	Max *float64 `json:"max_ns_op,omitempty"`
}

type benchFile struct {
	Results []benchResult `json:"results"`
	Runtime struct {
		Results []benchResult `json:"results"`
	} `json:"runtime_refactor"`
	CI struct {
		Results []benchResult `json:"results"`
	} `json:"ci_baseline"`
}

// benchLine matches `BenchmarkE8NtcpLatencyLAN-8   50   814039 ns/op ...`,
// tolerating the -GOMAXPROCS suffix and fractional ns/op.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

func main() {
	baselinePath := flag.String("baseline", "BENCH_ntcp.json", "baseline file")
	benchRE := flag.String("bench", "E8|E10", "benchmark selector (go test -bench syntax)")
	benchtime := flag.String("benchtime", "50x", "go test -benchtime")
	pkg := flag.String("pkg", ".", "package holding the benchmarks")
	input := flag.String("input", "", "parse this pre-recorded `go test -bench` output instead of running")
	count := flag.Int("count", 1, "go test -count; the gate keeps each benchmark's fastest repeat")
	threshold := flag.Float64("threshold", 0.15, "max allowed slowdown vs baseline (0.15 = +15%)")
	flag.Parse()

	baseline, ceilings, err := loadBaseline(*baselinePath)
	if err != nil {
		fatal("%v", err)
	}

	var out string
	if *input != "" {
		data, err := os.ReadFile(*input)
		if err != nil {
			fatal("%v", err)
		}
		out = string(data)
	} else {
		cmd := exec.Command("go", "test", "-run=NONE", "-bench", *benchRE,
			"-benchtime", *benchtime, "-count", strconv.Itoa(*count), *pkg)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			fatal("bench run: %v", err)
		}
		out = string(raw)
	}

	measured := parseBench(out)
	if len(measured) == 0 {
		fatal("no benchmark results in output (selector %q)", *benchRE)
	}

	failed := 0
	fmt.Printf("%-32s %14s %14s %9s\n", "benchmark", "baseline ns/op", "measured ns/op", "delta")
	for _, m := range measured {
		base, ok := baseline[m.name]
		switch {
		case !ok:
			fmt.Printf("%-32s %14s %14.0f %9s\n", m.name, "(none)", m.nsOp, "-")
		default:
			delta := (m.nsOp - base) / base
			verdict := fmt.Sprintf("%+.1f%%", delta*100)
			if delta > *threshold {
				verdict += " REGRESSION"
				failed++
			}
			fmt.Printf("%-32s %14.0f %14.0f %9s\n", m.name, base, m.nsOp, verdict)
		}
		if max, ok := ceilings[m.name]; ok && m.nsOp > max {
			fmt.Printf("%-32s exceeds absolute ceiling: %.0f ns/op > max %.0f ns/op\n",
				m.name, m.nsOp, max)
			failed++
		}
	}
	if failed > 0 {
		fatal("%d benchmark(s) regressed more than %.0f%% vs %s",
			failed, *threshold*100, *baselinePath)
	}
	fmt.Printf("benchgate: ok (%d benchmarks within %.0f%% of baseline)\n",
		len(measured), *threshold*100)
}

// loadBaseline flattens the baseline file into name -> latest after_ns_op,
// plus name -> latest absolute ns/op ceiling for entries that declare one.
func loadBaseline(path string) (map[string]float64, map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("baseline: %w", err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	base := make(map[string]float64)
	ceilings := make(map[string]float64)
	for _, set := range [][]benchResult{bf.Results, bf.Runtime.Results, bf.CI.Results} {
		for _, r := range set {
			if r.After != nil && *r.After > 0 {
				base[r.Benchmark] = *r.After
			}
			if r.Max != nil && *r.Max > 0 {
				ceilings[r.Benchmark] = *r.Max
			}
		}
	}
	if len(base) == 0 {
		return nil, nil, fmt.Errorf("baseline %s holds no usable ns/op entries", path)
	}
	return base, ceilings, nil
}

type measurement struct {
	name string
	nsOp float64
}

// parseBench keeps each benchmark's fastest repeat: with -count > 1 the
// minimum is the noise-robust statistic for a regression gate — a genuine
// slowdown shifts the floor, a scheduling hiccup only shifts the tail.
func parseBench(out string) []measurement {
	var ms []measurement
	index := make(map[string]int)
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if i, ok := index[m[1]]; ok {
			if v < ms[i].nsOp {
				ms[i].nsOp = v
			}
			continue
		}
		index[m[1]] = len(ms)
		ms = append(ms, measurement{name: m[1], nsOp: v})
	}
	return ms
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
